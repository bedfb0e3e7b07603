"""End-to-end benchmark of the split-manufacturing attack.

    python3 perfbench/run.py --workload loocv --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``loocv``       -- ``run_all(scale=0.12, only=(table1, table4))``;
* ``paper_scale`` -- ``evaluate_attack_scaled`` over 24M legal pairs;
* ``serve_topk``  -- ``repro serve`` answering top-16 challenges over HTTP.

Every pass runs in a fresh process with its own empty feature cache,
temporary directory and (for serving) an ephemeral port, all inside
``.perfbench_work/`` at the checkout root, which is removed afterwards.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
traced pass between two untraced ones and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = str(HERE / "workload.py")
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

#: Pinned outputs of the default seed (0) on the reference program.
#: loocv pins each experiment's report digest: the report_sha256 with
#: Table IV's wall-clock Runtime cells masked (Table I has none, so its
#: digest is its plain report_sha256).
PINNED = {
    "loocv": {
        "table1": "1351773d00aa8bdd7a92aa57690896f8dab5e3df65a1763c72176a3a37c089c0",
        "table4": "f7e658e2612f1c183af56a9c219c95a6277d54e08a24417c8c07b18404ec1dc2",
    },
    "paper_scale": "e4c65027a3121145a66fb128679a6692698992f9cda9a8c842a728be340c0477",
}
#: Legal pairs of a 1M-cell view at layer 8: 8000 v-pins, 4000 drivers;
#: driver-driver pairs are illegal.  Independent of the seed.
PAPER_PAIRS = 8000 * 7999 // 2 - 4000 * 3999 // 2

#: Fewest timed passes and fresh-process set-ups a batch run reports
#: the median of.
MIN_PASSES = 2
MIN_SETUPS = 3
#: serve_topk: server sessions per run, requests per timed block,
#: closed-loop client connections, and blocks in a traced comparison.
SERVE_SESSIONS = 3
SERVE_BLOCK = 24
SERVE_CLIENTS = 2
SERVE_TRACE_BLOCKS = 4
#: Latency percentiles need at least ten samples beyond p90.
SERVE_MIN_REQUESTS = 100

PROCESS_TIMEOUT_S = 170
RSS_POLL_S = 0.05
PAGE = os.sysconf("SC_PAGE_SIZE")


class BenchError(RuntimeError):
    """The benchmark could not run the program (not a wrong output)."""


# -- processes -------------------------------------------------------------


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            pass
    return found


def _rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * PAGE
    except (OSError, IndexError, ValueError):
        return 0


def _hwm(pid: int) -> int:
    """``VmHWM`` (peak RSS) of a live process, in bytes."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise BenchError(f"no VmHWM for pid {pid}")


class TreeRss:
    """Samples the summed RSS of a process and its descendants."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            pids, frontier = [], [self.pid]
            while frontier:
                pid = frontier.pop()
                pids.append(pid)
                frontier.extend(_children(pid))
            self.peak = max(self.peak, sum(_rss(pid) for pid in pids))
            self._stop.wait(RSS_POLL_S)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak


def child_env(work: Path, cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONUNBUFFERED"] = "1"  # the server's port line must not sit in a buffer
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def start(command: list[str], directory: Path, work: Path, stdout=subprocess.DEVNULL):
    """Start ``command`` in ``directory`` with a fresh cache; stderr to a log.

    Each child leads its own process group, so stopping it also stops
    the pool workers it forked.
    """
    directory.mkdir(parents=True)
    with open(directory / "stderr.log", "wb") as err:
        return subprocess.Popen(
            command,
            cwd=directory,
            env=child_env(work, directory / "feature-cache"),
            stdout=stdout,
            stderr=err,
            start_new_session=True,
        )


def kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def finish(proc: subprocess.Popen, directory: Path, what: str, timeout: float) -> None:
    """Wait for ``proc`` (killing it after ``timeout``); raise unless it exited 0."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BenchError(f"{what} did not finish within {timeout:.0f} s") from None
    except BaseException:  # the harness itself is being stopped
        kill(proc)
        raise
    if code != 0:
        tail = (directory / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"{what} exited {code}:\n{tail}")


def summary(walls: list[float], latencies: list[float], setups: list[float], peaks: list[int]) -> dict:
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks) / 1e6, "MB"),
        "throughput_rps": (len(latencies) / sum(walls), "req/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
            "ms",
        ),
    }


class Workload:
    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.env: dict = {}
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def record(self, problems: list[str]) -> None:
        """Count one checked operation; report what was wrong with it."""
        with self._lock:
            self.attempted += 1
            self.failed += bool(problems)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)


# -- batch workloads (loocv, paper_scale) ----------------------------------


class BatchWorkload(Workload):
    """One fresh process per pass: set-up, then the timed operation."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.name = name
        self.passes = 0
        self.first_output: dict | None = None

    def run_pass(self, *flags: str) -> dict:
        self.passes += 1
        directory = self.work / f"pass-{self.passes}"
        command = [sys.executable, WORKLOAD, "pass", self.name,
                   "--seed", str(self.seed), "--dir", str(directory), *flags]
        spawned = time.monotonic()
        proc = start(command, directory, self.work)
        rss = TreeRss(proc.pid)
        try:
            finish(proc, directory, f"{self.name} pass", PROCESS_TIMEOUT_S)
        finally:
            peak = rss.stop()
        result = json.loads((directory / "result.json").read_text())
        result["setup_s"] = result["ready"] - spawned
        result["peak_rss_bytes"] = max(peak, result["maxrss_bytes"])
        result["dir"] = directory
        self.env = result["env"]
        if "output" in result:
            self.record(self.check(result["output"]))
        return result

    def check(self, output: dict) -> list[str]:
        """Problems with one pass's output (empty when correct)."""
        problems = []
        if self.name == "loocv":
            digests = output["report_digest"]
            if set(digests) != set(PINNED["loocv"]):
                problems.append(f"experiments {sorted(digests)}")
            elif self.seed == 0 and digests != PINNED["loocv"]:
                problems.append(f"report digests {digests} != pinned")
        else:
            if output["n_pairs_evaluated"] != PAPER_PAIRS:
                problems.append(
                    f"{output['n_pairs_evaluated']} pairs evaluated, "
                    f"expected {PAPER_PAIRS}"
                )
            if self.seed == 0 and output["topk_value_sha256"] != PINNED["paper_scale"]:
                problems.append(
                    f"top-k value digest {output['topk_value_sha256']} != pinned"
                )
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            problems.append("output differs from the run's first pass")
        return problems

    def measure(self, seconds: float) -> dict:
        passes, setups = [], []
        start_time = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start_time < seconds:
            passes.append(self.run_pass())
        while len(passes) + len(setups) < MIN_SETUPS:
            setups.append(self.run_pass("--setup-only"))
        op_s = [p["op_s"] for p in passes]
        setup_s = [p["setup_s"] for p in passes + setups]
        print(f"{self.name}: {len(op_s)} timed passes, {len(setup_s)} set-ups")
        print(f"  op_s {[round(v, 3) for v in op_s]}")
        print(f"  setup_s {[round(v, 3) for v in setup_s]}")
        return summary(op_s, op_s, setup_s, [p["peak_rss_bytes"] for p in passes])

    def traced(self) -> tuple[dict, float]:
        """Trace of a traced pass, and its op wall minus that of the
        untraced passes run just before and after it."""
        before = self.run_pass()
        traced = self.run_pass("--trace")
        after = self.run_pass()
        trace = tracer.collect(
            json.loads(path.read_text())
            for path in sorted((traced["dir"] / "trace").glob("*.json"))
        )
        plain = (before["op_s"] + after["op_s"]) / 2
        print(f"{self.name}: untraced op {before['op_s']:.3f} s and {after['op_s']:.3f} s, "
              f"traced op {traced['op_s']:.3f} s")
        return trace, traced["op_s"] - plain


# -- serve_topk ------------------------------------------------------------


def strip_time(body: bytes) -> bytes:
    """The response body without its trailing ``"time_s"`` member."""
    cut = body.rfind(b', "time_s": ')
    if cut < 0 or not body.endswith(b"}"):
        return body
    return body[:cut] + b"}"


def read_port(proc: subprocess.Popen) -> int:
    """Port from the server's first stdout line (``... http://host:port``)."""
    line = proc.stdout.readline().decode(errors="replace").strip()
    if not line.startswith("serving"):
        raise BenchError(f"server did not start: {line!r}")
    return int(line.rsplit(":", 1)[1])


class ServeWorkload(Workload):
    """``repro serve`` sessions driven by closed-loop HTTP clients."""

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.sessions = 0
        prep = work / "prep"
        proc = start(
            [sys.executable, WORKLOAD, "prepare-serve", "--seed", str(seed), "--dir", str(prep)],
            prep,
            work,
        )
        finish(proc, prep, "prepare-serve", PROCESS_TIMEOUT_S)
        inputs = json.loads((prep / "serve-inputs.json").read_text())
        self.env = inputs["env"]
        self.registry = prep / "registry"
        self.challenges = [
            (c["request"].encode(), c["expected"].encode()) for c in inputs["challenges"]
        ]

    def request(self, port: int, index: int) -> float:
        """POST challenge ``index``; checks the body; returns seconds taken."""
        body, expected = self.challenges[index]
        start_time = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request(
                "POST", "/predict", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload, status = response.read(), response.status
        except (OSError, http.client.HTTPException) as error:
            payload, status = str(error).encode(), 0
        finally:
            connection.close()
        elapsed = time.perf_counter() - start_time
        problems = []
        if status != 200 or strip_time(payload) != expected:
            problems.append(f"request {index}: status {status}, {payload[:200]!r}")
        self.record(problems)
        return elapsed

    def block(self, port: int, first: int) -> tuple[float, list[float]]:
        """``SERVE_BLOCK`` requests over ``SERVE_CLIENTS`` closed loops."""
        order = iter(range(first, first + SERVE_BLOCK))
        latencies: list[float] = []
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    r = next(order, None)
                if r is None:
                    return
                latency = self.request(port, r % len(self.challenges))
                with lock:
                    latencies.append(latency)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(SERVE_CLIENTS)]
        start_time = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start_time, latencies

    def session(self, blocks: int, deadline: float = 0.0, trace: bool = False) -> dict:
        """Start a server, warm it up, drive at least ``blocks`` blocks
        (more until ``deadline``), stop it."""
        self.sessions += 1
        directory = self.work / f"session-{self.sessions}"
        serve = ["serve", "--registry", str(self.registry), "--port", "0"]
        if trace:
            command = [sys.executable, WORKLOAD, "serve-traced",
                       "--trace-dir", str(directory / "trace"), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        spawned = time.monotonic()
        proc = start(command, directory, self.work, stdout=subprocess.PIPE)
        try:
            port = read_port(proc)
            for index in range(len(self.challenges)):
                self.request(port, index)
            setup_s = time.monotonic() - spawned
            walls, latencies = [], []
            offset = self.seed % len(self.challenges)
            while len(walls) < blocks or time.monotonic() < deadline:
                wall, block_latencies = self.block(port, offset + len(walls) * SERVE_BLOCK)
                walls.append(wall)
                latencies.extend(block_latencies)
            peak = _hwm(proc.pid)
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                finish(proc, directory, "repro serve", 30)
            finally:
                proc.stdout.close()
        return {"setup_s": setup_s, "walls": walls, "latencies": latencies,
                "peak_rss_bytes": peak, "dir": directory}

    def measure(self, seconds: float) -> dict:
        start_time = time.monotonic()
        sessions: list[dict] = []
        for s in range(SERVE_SESSIONS):
            done = sum(len(x["latencies"]) for x in sessions)
            blocks = 1
            if s == SERVE_SESSIONS - 1:
                blocks = max(1, math.ceil((SERVE_MIN_REQUESTS - done) / SERVE_BLOCK))
            deadline = start_time + seconds * (s + 1) / SERVE_SESSIONS
            sessions.append(self.session(blocks, deadline))
        walls = [v for s in sessions for v in s["walls"]]
        latencies = [v for s in sessions for v in s["latencies"]]
        setup_s = [s["setup_s"] for s in sessions]
        beyond = len(latencies) - math.ceil(0.9 * len(latencies))
        print(f"serve_topk: {len(sessions)} sessions, {len(walls)} blocks, "
              f"{len(latencies)} timed requests ({beyond} beyond p90)")
        print(f"  setup_s {[round(v, 3) for v in setup_s]}")
        return summary(walls, latencies, setup_s, [s["peak_rss_bytes"] for s in sessions])

    def traced(self) -> tuple[dict, float]:
        """Trace of a traced server session, and its load wall minus that
        of the untraced sessions run just before and after it."""
        before = sum(self.session(SERVE_TRACE_BLOCKS)["walls"])
        traced = self.session(SERVE_TRACE_BLOCKS, trace=True)
        after = sum(self.session(SERVE_TRACE_BLOCKS)["walls"])
        trace = tracer.collect(
            [json.loads((traced["dir"] / "trace" / "server.json").read_text())]
        )
        load = sum(traced["walls"])
        print(f"serve_topk: untraced load {before:.3f} s and {after:.3f} s, "
              f"traced load {load:.3f} s")
        return trace, load - (before + after) / 2


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(trace: dict, overhead_s: float) -> dict:
    """Every per-layer metric, as ``name: (value, unit)``."""
    table, task_s = trace["table"], trace["task_s"]

    def self_s(layer: str) -> tuple[float, str]:
        return float(sum(v for k, v in table.items() if k.startswith(layer + "|"))), "s"

    def part_s(layer: str, part: str) -> tuple[float, str]:
        return table.get(f"{layer}|{part}", 0.0), "s"

    def count(layer: str, name: str, unit: str = "count") -> tuple[float, str]:
        return table.get(f"{layer}#{name}", 0.0), unit

    def ratio(top: float, bottom: float, unit: str = "ratio") -> tuple[float, str]:
        return (top / bottom if bottom else 0.0), unit

    waits = ("runtime.pool|wait", "serve.batcher|wait")
    busy = sum(v for k, v in table.items() if "|" in k and k not in waits)
    featurize_in = count("splitmfg.featurize", "rows_in")[0]
    featurize_out = count("splitmfg.featurize", "rows_out")[0]
    values = {
        "native.load_s": self_s("native"),
        "synth.self_s": self_s("synth"),
        "splitmfg.split.self_s": self_s("splitmfg.split"),
        "splitmfg.sampling.self_s": self_s("splitmfg.sampling"),
        "splitmfg.sampling.samples": count("splitmfg.sampling", "samples"),
        "splitmfg.candidates.self_s": self_s("splitmfg.candidates"),
        "splitmfg.candidates.pairs": count("splitmfg.candidates", "pairs"),
        "splitmfg.featurize.self_s": self_s("splitmfg.featurize"),
        "splitmfg.featurize.rows_in": (featurize_in, "count"),
        "splitmfg.featurize.rows_out": (featurize_out, "count"),
        "splitmfg.featurize.legal_ratio": ratio(featurize_out, featurize_in),
        "ml.fit.self_s": self_s("ml.fit"),
        "ml.fit.samples": count("ml.fit", "samples"),
        "ml.predict.self_s": self_s("ml.predict"),
        "ml.predict.rows": count("ml.predict", "rows"),
        "ml.predict.calls": count("ml.predict", "calls"),
        "attack.train.self_s": self_s("attack.train"),
        "attack.evaluate.self_s": self_s("attack.evaluate"),
        "attack.topk.self_s": self_s("attack.topk"),
        "attack.topk.pairs": count("attack.topk", "pairs"),
        "attack.topk.merge_state_s": part_s("attack.topk", "merge_state"),
        "attack.topk.share": ratio(self_s("attack.topk")[0], busy),
        "attack.result.self_s": self_s("attack.result"),
        "runtime.cache.read_s": part_s("runtime.cache", "read"),
        "runtime.cache.write_s": part_s("runtime.cache", "write"),
        "runtime.cache.hits": count("runtime.cache", "hits"),
        "runtime.cache.misses": count("runtime.cache", "misses"),
        "runtime.cache.bytes_written": count("runtime.cache", "bytes_written", "bytes"),
        "runtime.pool.tasks": count("runtime.pool", "tasks"),
        "runtime.pool.payload_bytes": count("runtime.pool", "payload_bytes", "bytes"),
        "runtime.pool.result_bytes": count("runtime.pool", "result_bytes", "bytes"),
        "runtime.pool.wait_s": part_s("runtime.pool", "wait"),
        "runtime.pool.imbalance": ratio(
            max(task_s, default=0.0), statistics.fmean(task_s) if task_s else 0.0
        ),
        "serve.http.self_s": self_s("serve.http"),
        "serve.service.self_s": self_s("serve.service"),
        "serve.batcher.wait_s": part_s("serve.batcher", "wait"),
        "serve.batcher.dispatch_s": part_s("serve.batcher", "dispatch"),
        "serve.batcher.rows_per_call": ratio(
            count("serve.batcher", "rows")[0],
            count("serve.batcher", "calls")[0],
            "rows/call",
        ),
        "serve.requests": count("serve.http", "requests"),
        "serve.failed": count("serve.http", "failed"),
        "workload.self_s": self_s("workload"),
        "obs.trace_overhead_s": (overhead_s, "s"),
    }
    # Self time is a difference of clock readings: allow rounding only.
    negative = [k for k, v in table.items() if "|" in k and v < -1e-9]
    if negative:
        raise BenchError(f"negative self time in {negative}")
    return values


# -- main ------------------------------------------------------------------

WORKLOADS = ("loocv", "paper_scale", "serve_topk")
KERNELS = ("fit_ckernel", "featurize_ckernel", "serve_ckernel")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    if workload == "serve_topk":
        runner: BatchWorkload | ServeWorkload = ServeWorkload(seed, work)
    else:
        runner = BatchWorkload(workload, seed, work)
    if trace:
        metrics = layer_metrics(*runner.traced())
    else:
        metrics = runner.measure(seconds)
    print(f"env: {json.dumps(runner.env, sort_keys=True)}")
    fallbacks = [k for k in KERNELS if not runner.env.get(k)]
    if fallbacks:
        print(f"WARNING: native kernel fell back to NumPy ({', '.join(fallbacks)}); "
              "this run measures a different program")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _stop(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # A shell that starts this in the background ignores SIGINT, and
    # exec keeps an ignored signal ignored: repro serve, which stops on
    # SIGINT, must not inherit that.  SIGTERM unwinds so every child is
    # stopped and the scratch directory removed.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    (work / "tmp").mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
