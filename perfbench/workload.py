"""One workload process of the benchmark.

``run.py`` starts this script in a fresh process for every measured
pass, so imports, native-kernel builds and the feature cache start cold
each time.  Subcommands:

* ``pass loocv|paper_scale`` -- set up, mark the end of set-up, run the
  timed operation once and write ``result.json`` into ``--dir``;
* ``prepare-serve`` -- build the serve_topk inputs: a model registry,
  the three held-out challenge requests, and the in-process
  ``AttackService.predict`` response for each;
* ``serve-traced`` -- run ``repro serve`` with the layer tracer
  installed, writing the trace table when the server stops.

The program is used only through its public API: ``run_all``,
``evaluate_attack_scaled`` and the ``repro`` CLI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

LOOCV_SCALE = 0.12
LOOCV_EXPERIMENTS = ("table1", "table4")

PAPER_CELLS = 1_000_000
PAPER_TRAIN_CELLS = 100_000
PAPER_LAYER = 8
PAPER_K = 64
PAPER_CHUNK = 400_000
PAPER_JOBS = 2
PAPER_SHARDS = 2

SERVE_SCALE = 0.3
SERVE_TRAIN_LAYER = 6
SERVE_HELD_OUT = "sb10"
SERVE_LAYERS = (8, 6, 4)
SERVE_TOP_K = 16


def native_env() -> dict:
    """Engines in use and whether each native kernel loaded."""
    from repro.ml import fit_engine
    from repro.serve import engine as serve_engine
    from repro.splitmfg import featurize_engine

    return {
        "fit_engine": fit_engine.active_engine(),
        "featurize_engine": featurize_engine.active_engine(),
        "fit_ckernel": fit_engine.has_ckernel(),
        "featurize_ckernel": featurize_engine.has_ckernel(),
        "serve_ckernel": serve_engine.has_ckernel(),
        "nproc": os.cpu_count(),
    }


def topk_value_digest(n: int, k: int, pair_i, pair_j, prob) -> str:
    """SHA-256 of every v-pin's top-``k`` probability values.

    Partner ids are left out on purpose: which of several equal-valued
    partners survives depends on the shard count, the values do not.
    """
    ids = np.concatenate([pair_i, pair_j])
    values = np.concatenate([prob, prob])
    order = np.lexsort((-values, ids))
    ids, values = ids[order], values[order]
    starts = np.searchsorted(ids, np.arange(n))
    rank = np.arange(len(ids)) - np.repeat(starts, np.diff(np.append(starts, len(ids))))
    keep = rank < k
    digest = hashlib.sha256()
    digest.update(np.bincount(ids[keep], minlength=n).astype("<i8").tobytes())
    digest.update(values[keep].astype("<f8").tobytes())
    return digest.hexdigest()


def report_digest(report: str) -> str:
    """SHA-256 of an experiment report with its wall-clock cells masked.

    Table IV prints each configuration's measured runtime ("0.4s") in
    its last column; every other cell is a deterministic result.
    """
    masked = re.sub(r"(?m)\| *\d+\.\ds *\|$", "| <runtime> |", report)
    return hashlib.sha256(masked.encode()).hexdigest()


# -- batch passes ----------------------------------------------------------


def _setup_loocv(seed: int, directory: Path) -> tuple[dict, Callable[[], dict]]:
    from repro.experiments.run_all import run_all
    from repro.runtime import FeatureCache, set_default_cache

    env = native_env()
    set_default_cache(FeatureCache(directory / "feature-cache"))

    def operation() -> dict:
        outputs = run_all(
            scale=LOOCV_SCALE, seed=seed, only=LOOCV_EXPERIMENTS, jobs=1
        )
        return {
            "report_digest": {
                name: report_digest(output.report) for name, output in outputs.items()
            }
        }

    return env, operation


def _setup_paper_scale(seed: int, directory: Path) -> tuple[dict, Callable[[], dict]]:
    from repro.attack.config import ML_9
    from repro.attack.framework import train_attack
    from repro.attack.scale import evaluate_attack_scaled
    from repro.synth.paper_scale import PaperScaleConfig, build_paper_scale_view

    env = native_env()
    view = build_paper_scale_view(
        PaperScaleConfig(n_cells=PAPER_CELLS, split_layer=PAPER_LAYER, seed=seed)
    )
    train_view = build_paper_scale_view(
        PaperScaleConfig(
            n_cells=PAPER_TRAIN_CELLS, split_layer=PAPER_LAYER, seed=seed + 1
        )
    )
    trained = train_attack(ML_9, [train_view], seed=seed)

    def operation() -> dict:
        result = evaluate_attack_scaled(
            trained,
            view,
            k=PAPER_K,
            chunk_size=PAPER_CHUNK,
            jobs=PAPER_JOBS,
            n_shards=PAPER_SHARDS,
        )
        return {
            "n_vpins": len(view),
            "n_pairs_evaluated": int(result.n_pairs_evaluated),
            "topk_value_sha256": topk_value_digest(
                len(view), PAPER_K, result.pair_i, result.pair_j, result.prob
            ),
        }

    return env, operation


SETUPS = {"loocv": _setup_loocv, "paper_scale": _setup_paper_scale}


def cmd_pass(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    tracer = None
    if args.trace:
        import tracer as tracing

        (directory / "trace").mkdir(exist_ok=True)
        tracer = tracing.install(directory / "trace")
        root = tracer.enter("workload", "self")
    env, operation = SETUPS[args.workload](args.seed, directory)
    document = {"ready": time.monotonic(), "env": env}
    if not args.setup_only:
        start = time.perf_counter()
        document["output"] = operation()
        document["op_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.exit(root, None)
        tracer.dump(directory / "trace" / "parent.json")
    document["maxrss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    (directory / "result.json").write_text(json.dumps(document))
    return 0


# -- serve_topk ------------------------------------------------------------


def cmd_prepare_serve(args: argparse.Namespace) -> int:
    """Registry, request bodies and expected response bodies."""
    from repro.attack.config import ML_9
    from repro.experiments.common import get_suite
    from repro.serve import AttackService, ModelRegistry
    from repro.serve.service import train_model
    from repro.splitmfg.challenge import challenge_to_dict
    from repro.splitmfg.vpin_features import make_split_view

    directory = Path(args.dir)
    env = native_env()
    suite = get_suite(SERVE_SCALE)
    training = [
        make_split_view(design, SERVE_TRAIN_LAYER)
        for design in suite
        if design.name != SERVE_HELD_OUT
    ]
    held_out = next(design for design in suite if design.name == SERVE_HELD_OUT)
    registry = ModelRegistry(directory / "registry")
    registry.save(train_model(ML_9, training, seed=args.seed), name="ml9")
    service = AttackService(registry)
    challenges = []
    for layer in SERVE_LAYERS:
        public = challenge_to_dict(make_split_view(held_out, layer))
        request = json.dumps({"challenge": public, "top_k": SERVE_TOP_K})
        response = service.predict(public, top_k=SERVE_TOP_K)
        response.pop("time_s")
        challenges.append({"request": request, "expected": json.dumps(response)})
    (directory / "serve-inputs.json").write_text(
        json.dumps({"env": env, "challenges": challenges})
    )
    return 0


def cmd_serve_traced(args: argparse.Namespace) -> int:
    import tracer as tracing

    trace_dir = Path(args.trace_dir)
    trace_dir.mkdir(exist_ok=True)
    tracer = tracing.install(trace_dir)
    from repro.cli import main

    try:
        return main(args.serve_args)
    finally:
        tracer.dump(trace_dir / "server.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("pass", help="one fresh-process pass of a batch workload")
    one.add_argument("workload", choices=sorted(SETUPS))
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--dir", required=True, help="this pass's scratch directory")
    one.add_argument("--setup-only", action="store_true")
    one.add_argument("--trace", action="store_true")
    one.set_defaults(func=cmd_pass)
    prep = sub.add_parser("prepare-serve", help="serve_topk inputs")
    prep.add_argument("--seed", type=int, default=0)
    prep.add_argument("--dir", required=True)
    prep.set_defaults(func=cmd_prepare_serve)
    traced = sub.add_parser("serve-traced", help="repro serve under the tracer")
    traced.add_argument("--trace-dir", required=True)
    traced.add_argument("serve_args", nargs=argparse.REMAINDER)
    traced.set_defaults(func=cmd_serve_traced)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
