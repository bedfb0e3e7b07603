"""Outside-in layer tracer for the benchmark.

The program under test carries no benchmark hooks.  :func:`install`
wraps the entry points of each ``repro`` layer from the outside: class
methods are replaced on their class, and module-level functions are
rebound in every ``repro`` module that imported them.  Each wrapped call
is a span on a per-thread stack; a span's *self* time is its duration
minus the time its child spans took, so summing self times over layers
never counts an interval twice within a thread.

Counts (pairs, rows, samples, bytes) are taken only at the outermost
span of a layer on a thread, so a layer that calls itself (an ensemble
calling its trees) is counted once.

Process pools: the wrappers are installed before the pool forks, so
workers inherit them.  Each pool task starts from an empty table and
writes its own table to ``trace_dir`` when it ends; the parent adds the
worker tables when the workload is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

_clock = time.perf_counter


class Tracer:
    """Per-thread span stacks feeding one process-wide totals table."""

    def __init__(self) -> None:
        self.trace_dir = Path(".")
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Empty the table and forget every open span (fresh worker)."""
        self._local = threading.local()
        self.table: dict[str, float] = defaultdict(float)
        self.task_s: list[float] = []

    def _frames(self) -> tuple[list[list[Any]], dict[str, int]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local.stack, local.depth

    def enter(self, layer: str, part: str) -> list[Any]:
        stack, depth = self._frames()
        frame = [layer, part, _clock(), 0.0]
        stack.append(frame)
        depth[layer] += 1
        return frame

    def exit(
        self,
        frame: list[Any],
        counts: dict[str, float] | None,
        nested: bool = False,
    ) -> float:
        """Close ``frame``; returns its duration.

        ``counts`` are added only at the layer's outermost span, unless
        ``nested`` says they count at every depth.
        """
        stack, depth = self._frames()
        duration = _clock() - frame[2]
        stack.pop()
        depth[frame[0]] -= 1
        outermost = depth[frame[0]] == 0
        if stack:
            stack[-1][3] += duration
        with self._lock:
            self.table[f"{frame[0]}|{frame[1]}"] += duration - frame[3]
            if counts and (outermost or nested):
                for name, value in counts.items():
                    self.table[f"{frame[0]}#{name}"] += value
        return duration

    def add(self, counts: dict[str, float]) -> None:
        with self._lock:
            for name, value in counts.items():
                self.table[name] += value

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"table": dict(self.table), "task_s": list(self.task_s)}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.snapshot()))


TRACER = Tracer()


def _counted(
    fn: Callable, layer: str, part: str, count: Callable | None
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = TRACER.enter(layer, part)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, kwargs, result)
            return result
        finally:
            TRACER.exit(frame, counts, getattr(count, "nested", False))

    return wrapper


def _counted_generator(
    fn: Callable, layer: str, part: str, count: Callable | None
) -> Callable:
    """Each ``next()`` of the generator is one span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        while True:
            frame = TRACER.enter(layer, part)
            counts = None
            try:
                item = next(inner)
            except StopIteration:
                return
            else:
                if count is not None:
                    counts = count((), {}, item)
            finally:
                TRACER.exit(frame, counts)
            yield item

    return wrapper


# -- counters: (args, kwargs, result) -> {name: value} --------------------


def _rows_of(x: Any) -> int:
    return int(getattr(x, "shape", (len(x),))[0])


def _pairs_yielded(_a, _k, item) -> dict[str, float]:
    return {"pairs": len(item[0])}


def _pairs_returned(_a, _k, result) -> dict[str, float]:
    return {"pairs": len(result[0])}


def _featurized(args, kwargs, result) -> dict[str, float]:
    # (self, i, j, ...) -> X or (i, j, X)
    rows_in = len(args[1])
    rows_out = len(result[0]) if isinstance(result, tuple) else _rows_of(result)
    return {"rows_in": rows_in, "rows_out": rows_out}


def _features_computed(args, kwargs, result) -> dict[str, float]:
    rows = _rows_of(result)
    return {"rows_in": rows, "rows_out": rows}


def _training_samples(_a, _k, result) -> dict[str, float]:
    return {"samples": int(result.n_samples)}


def _fit_samples(args, kwargs, _r) -> dict[str, float]:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"samples": _rows_of(X)}


def _predict_rows(args, kwargs, _r) -> dict[str, float]:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"rows": _rows_of(X), "calls": 1}


def _topk_update(args, _k, _r) -> dict[str, float]:
    return {"pairs": len(args[1])}


def _cache_read(_a, _k, result) -> dict[str, float]:
    return {"hits": 1} if result is not None else {"misses": 1}


def _cache_write(args, _k, result) -> dict[str, float]:
    arrays = args[-1]
    written = sum(getattr(a, "nbytes", 0) for a in arrays.values())
    return {"bytes_written": written if result else 0}


def _batch_rows(args, _k, _r) -> dict[str, float]:
    return {"rows": sum(len(item.X) for item in args[1]), "calls": 1}


def _http_status(args, _k, _r) -> dict[str, float]:
    return {"failed": 0 if args[1] == 200 else 1}


_http_status.nested = True  # sent from inside do_POST, same layer


def _request(_a, _k, _r) -> dict[str, float]:
    return {"requests": 1}


# -- what to wrap ----------------------------------------------------------

#: (module, qualified name, layer, part, counter).  Module functions are
#: rebound wherever imported; ``Class.method`` entries patch the class.
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.ml.fit_engine", "_compile_kernel", "native", "load", None),
    ("repro.splitmfg.featurize_engine", "_compile_kernel", "native", "load", None),
    ("repro.serve.engine", "_compile_kernel", "native", "load", None),
    ("repro.synth.benchmarks", "build_benchmark", "synth", "self", None),
    ("repro.synth.paper_scale", "build_paper_scale_view", "synth", "self", None),
    ("repro.splitmfg.split", "split_design", "splitmfg.split", "self", None),
    ("repro.splitmfg.vpin_features", "make_split_view", "splitmfg.split", "self", None),
    ("repro.splitmfg.challenge", "challenge_from_dicts", "splitmfg.split", "self", None),
    ("repro.splitmfg.sampling", "build_training_set", "splitmfg.sampling", "self", _training_samples),
    ("repro.splitmfg.sampling", "positive_pairs", "splitmfg.sampling", "self", None),
    ("repro.splitmfg.sampling", "random_negative_pairs", "splitmfg.sampling", "self", None),
    ("repro.splitmfg.sampling", "neighborhood_negative_pairs", "splitmfg.sampling", "self", None),
    ("repro.splitmfg.sampling", "neighborhood_fraction", "splitmfg.sampling", "self", None),
    ("repro.splitmfg.sampling", "neighborhood_radius", "splitmfg.sampling", "self", None),
    ("repro.splitmfg.sampling", "iter_all_pairs", "splitmfg.candidates", "self", _pairs_yielded),
    ("repro.splitmfg.sampling", "NeighborhoodIndex.__init__", "splitmfg.candidates", "self", None),
    ("repro.splitmfg.sampling", "NeighborhoodIndex.candidate_pairs", "splitmfg.candidates", "self", _pairs_returned),
    ("repro.splitmfg.featurize_engine", "PairFeaturizer.rows_into", "splitmfg.featurize", "self", _featurized),
    ("repro.splitmfg.featurize_engine", "PairFeaturizer.legal_rows_into", "splitmfg.featurize", "self", _featurized),
    ("repro.splitmfg.featurize_engine", "PairFeaturizer.rows", "splitmfg.featurize", "self", _featurized),
    ("repro.splitmfg.pair_features", "compute_pair_features", "splitmfg.featurize", "self", _features_computed),
    ("repro.splitmfg.pair_features", "legal_pair_mask", "splitmfg.featurize", "self", None),
    ("repro.attack.framework", "train_attack", "attack.train", "self", None),
    ("repro.attack.framework", "evaluate_attack", "attack.evaluate", "self", None),
    ("repro.attack.framework", "run_loo", "attack.evaluate", "self", None),
    ("repro.attack.topk", "evaluate_attack_topk", "attack.evaluate", "self", None),
    ("repro.attack.scale", "evaluate_attack_scaled", "attack.evaluate", "self", None),
    ("repro.attack.scale", "_score_shard", "attack.evaluate", "self", None),
    ("repro.attack.topk", "TopKTracker.__init__", "attack.topk", "self", None),
    ("repro.attack.topk", "TopKTracker.update", "attack.topk", "self", _topk_update),
    ("repro.attack.topk", "TopKTracker.state", "attack.topk", "self", None),
    ("repro.attack.topk", "TopKTracker.merge_state", "attack.topk", "merge_state", None),
    ("repro.attack.topk", "TopKTracker.harvest", "attack.topk", "self", None),
    ("repro.attack.result", "summarize", "attack.result", "self", None),
    ("repro.runtime.cache", "FeatureCache.get", "runtime.cache", "read", _cache_read),
    ("repro.runtime.cache", "FeatureCache.get_chunk", "runtime.cache", "read", _cache_read),
    ("repro.runtime.cache", "FeatureCache.put", "runtime.cache", "write", _cache_write),
    ("repro.runtime.cache", "FeatureCache.put_chunk", "runtime.cache", "write", _cache_write),
    ("repro.serve.http", "_Handler.do_POST", "serve.http", "self", _request),
    ("repro.serve.http", "_Handler._send_json", "serve.http", "self", _http_status),
    ("repro.serve.service", "AttackService.predict", "serve.service", "self", None),
    ("repro.serve.service", "_locs_payload", "serve.service", "self", None),
    ("repro.serve.batcher", "MicroBatcher.score", "serve.batcher", "wait", None),
    ("repro.serve.batcher", "MicroBatcher._execute", "serve.batcher", "dispatch", _batch_rows),
)

#: Every ``fit`` / ``predict_proba`` defined on a class in these modules
#: is an ``ml.fit`` / ``ml.predict`` span.
MODEL_MODULE_PREFIXES = ("repro.ml.", "repro.serve.engine")

#: ``AttackResult`` public methods are the ``attack.result`` layer.
RESULT_CLASS = ("repro.attack.result", "AttackResult")


def _import_all() -> list[Any]:
    """Import every ``repro`` module so no later import escapes wrapping."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for n, m in sys.modules.items() if n.startswith("repro") and m]


def _rebind(modules: list[Any], original: Any, wrapper: Any) -> None:
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _wrap(fn: Callable, layer: str, part: str, count: Callable | None) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return _counted_generator(fn, layer, part, count)
    return _counted(fn, layer, part, count)


def _wrap_method(
    cls: type, name: str, layer: str, part: str, count: Callable | None
) -> None:
    setattr(cls, name, _wrap(cls.__dict__[name], layer, part, count))


def _pool_task(fn: Callable) -> Callable:
    """Worker side of a pool task: empty table, timed task, table dumped."""

    @functools.wraps(fn)
    def wrapper(payload: tuple) -> Any:
        TRACER.reset()
        start = _clock()
        result = fn(payload)
        TRACER.task_s.append(_clock() - start)
        TRACER.add(
            {"runtime.pool#tasks": 1, "runtime.pool#result_bytes": len(pickle.dumps(result))}
        )
        index, attempt = payload[2], payload[3]
        TRACER.dump(TRACER.trace_dir / f"worker-{os.getpid()}-{index}-{attempt}.json")
        return result

    return wrapper


def _pool_map(fn: Callable) -> Callable:
    """Parent side of a pooled map: blocking time and payload bytes."""

    @functools.wraps(fn)
    def wrapper(task_fn, work, *args: Any, **kwargs: Any) -> Any:
        payload = sum(len(pickle.dumps(item)) for item in work)
        TRACER.add({"runtime.pool#payload_bytes": payload})
        frame = TRACER.enter("runtime.pool", "wait")
        try:
            return fn(task_fn, work, *args, **kwargs)
        finally:
            TRACER.exit(frame, None)

    return wrapper


def install(trace_dir: Path) -> Tracer:
    """Wrap every target; call before any pool forks.

    Pool workers write their tables into ``trace_dir``.
    """
    TRACER.trace_dir = trace_dir
    modules = _import_all()
    for module_name, qualname, layer, part, count in TARGETS:
        module = sys.modules[module_name]
        if "." in qualname:
            class_name, method = qualname.split(".")
            _wrap_method(getattr(module, class_name), method, layer, part, count)
        else:
            original = getattr(module, qualname)
            _rebind(modules, original, _wrap(original, layer, part, count))
    for module in modules:
        if not module.__name__.startswith(MODEL_MODULE_PREFIXES):
            continue
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if "fit" in cls.__dict__:
                _wrap_method(cls, "fit", "ml.fit", "self", _fit_samples)
            if "predict_proba" in cls.__dict__:
                _wrap_method(cls, "predict_proba", "ml.predict", "self", _predict_rows)
    result_cls = getattr(sys.modules[RESULT_CLASS[0]], RESULT_CLASS[1])
    for name, member in list(vars(result_cls).items()):
        if inspect.isfunction(member) and not name.startswith("_"):
            _wrap_method(result_cls, name, "attack.result", "self", None)
    pool = sys.modules["repro.runtime.pool"]
    _rebind(modules, pool._observed_call, _pool_task(pool._observed_call))
    _rebind(modules, pool._run_pooled, _pool_map(pool._run_pooled))
    return TRACER


def collect(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Sum process snapshots (parent plus pool workers) into one."""
    total: dict[str, float] = defaultdict(float)
    task_s: list[float] = []
    for document in snapshots:
        for key, value in document["table"].items():
            total[key] += value
        task_s.extend(document["task_s"])
    return {"table": dict(total), "task_s": task_s}
