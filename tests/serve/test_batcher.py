"""Tests for the micro-batching front end (repro.serve.batcher)."""

import threading
import time

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serve.batcher import (
    BatcherClosedError,
    MicroBatcher,
)
from repro.serve.engine import DEFAULT_CHUNK_SIZE


class RecordingModel:
    """A fake classifier that logs every ``predict_proba`` batch."""

    def __init__(self, scale: float = 2.0, delay: float = 0.0) -> None:
        self.scale = scale
        self.delay = delay
        self.calls: list[int] = []
        self._lock = threading.Lock()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        with self._lock:
            self.calls.append(len(X))
        if self.delay:
            time.sleep(self.delay)
        return X[:, 0] * self.scale


class FailingModel:
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise RuntimeError("kernel exploded")


def matrix(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


class TestLifecycle:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window"):
            MicroBatcher(window=-0.1)
        with pytest.raises(ValueError, match="max_items"):
            MicroBatcher(max_items=0)
        with pytest.raises(ValueError, match="max_rows"):
            MicroBatcher(max_rows=0)

    def test_not_running_until_started(self):
        batcher = MicroBatcher()
        assert not batcher.running
        with pytest.raises(BatcherClosedError):
            batcher.submit("m", RecordingModel(), matrix([1.0]))

    def test_score_falls_back_inline_when_stopped(self):
        batcher = MicroBatcher()
        model = RecordingModel()
        probs = batcher.score("m", model, matrix([1.0, 2.0]))
        assert np.array_equal(probs, [2.0, 4.0])
        assert model.calls == [2]

    def test_start_is_idempotent_and_close_is_reentrant(self):
        batcher = MicroBatcher(window=0.0)
        assert batcher.start() is batcher
        assert batcher.start() is batcher
        assert batcher.running
        batcher.close()
        batcher.close()
        assert not batcher.running
        with pytest.raises(BatcherClosedError):
            batcher.start()

    def test_score_after_close_runs_inline(self):
        batcher = MicroBatcher().start()
        batcher.close()
        model = RecordingModel()
        probs = batcher.score("m", model, matrix([3.0]))
        assert np.array_equal(probs, [6.0])

    def test_context_manager(self):
        with MicroBatcher(window=0.0) as batcher:
            assert batcher.running
            probs = batcher.score("m", RecordingModel(), matrix([1.0]))
            assert np.array_equal(probs, [2.0])
        assert not batcher.running


class TestBatching:
    def test_single_item_scores_exactly(self):
        with MicroBatcher(window=0.0) as batcher:
            model = RecordingModel(scale=3.0)
            probs = batcher.score("m", model, matrix([1.0, 2.0, 3.0]))
            assert np.array_equal(probs, [3.0, 6.0, 9.0])
            assert model.calls == [3]

    def test_concurrent_submits_coalesce(self):
        """8 threads racing into a 50 ms window share kernel calls."""
        model = RecordingModel(delay=0.01)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: dict[int, np.ndarray] = {}

        with MicroBatcher(window=0.05, max_items=n_threads) as batcher:
            def work(index: int) -> None:
                barrier.wait()
                results[index] = batcher.score(
                    "m", model, matrix([float(index), float(index) + 0.5])
                )

            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)

        # Every request got exactly its own rows back, in order.
        for index in range(n_threads):
            assert np.array_equal(
                results[index], [2.0 * index, 2.0 * index + 1.0]
            ), index
        # Coalescing happened: fewer kernel calls than requests, and at
        # least one call carried more than one request's rows.
        assert len(model.calls) < n_threads
        assert max(model.calls) > 2

    def test_distinct_model_objects_never_merge(self):
        """Same registry key, different loaded objects -> separate calls
        (the hot-reload guarantee)."""
        old, new = RecordingModel(scale=2.0), RecordingModel(scale=10.0)
        with MicroBatcher(window=0.05) as batcher:
            hold = threading.Barrier(3)
            out = {}

            def work(tag, model, value):
                hold.wait()
                out[tag] = batcher.score("m", model, matrix([value]))

            threads = [
                threading.Thread(target=work, args=("old", old, 1.0)),
                threading.Thread(target=work, args=("new", new, 1.0)),
            ]
            for thread in threads:
                thread.start()
            hold.wait()
            for thread in threads:
                thread.join(timeout=30)
        assert np.array_equal(out["old"], [2.0])
        assert np.array_equal(out["new"], [10.0])
        assert old.calls == [1] and new.calls == [1]

    def test_max_items_bounds_a_batch(self):
        model = RecordingModel()
        with MicroBatcher(window=0.05, max_items=2) as batcher:
            futures = [
                batcher.submit("m", model, matrix([float(k)])) for k in range(5)
            ]
            for future in futures:
                future.result(timeout=30)
        assert max(model.calls) <= 2

    def test_max_rows_closes_a_batch_early(self):
        model = RecordingModel()
        with MicroBatcher(window=0.05, max_rows=4) as batcher:
            futures = [
                batcher.submit("m", model, matrix([float(k), float(k)]))
                for k in range(4)
            ]
            for future in futures:
                future.result(timeout=30)
        # 2 rows per item, cap at 4 rows: at most 3 items (cap checked
        # before append) and never all 4 in one call.
        assert max(model.calls) <= 6
        assert len(model.calls) >= 2

    def test_exceptions_propagate_to_every_waiter(self):
        with MicroBatcher(window=0.05) as batcher:
            futures = [
                batcher.submit("m", FailingModel(), matrix([1.0]))
                for _ in range(3)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    future.result(timeout=30)
            # The dispatcher must survive a failing batch.
            assert batcher.running
            probs = batcher.score("m", RecordingModel(), matrix([1.0]))
            assert np.array_equal(probs, [2.0])

    def test_close_flushes_pending_work(self):
        """Items still queued at close() are scored, not abandoned."""
        model = RecordingModel(delay=0.02)
        batcher = MicroBatcher(window=0.0).start()
        futures = [
            batcher.submit("m", model, matrix([float(k)])) for k in range(6)
        ]
        batcher.close()
        for index, future in enumerate(futures):
            assert np.array_equal(
                future.result(timeout=30), [2.0 * index]
            ), index


class TestMetrics:
    def test_serving_metrics_recorded(self):
        get_registry().reset()
        model = RecordingModel()
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        with MicroBatcher(window=0.05) as batcher:
            threads = [
                threading.Thread(
                    target=lambda k: (
                        barrier.wait(),
                        batcher.score("m", model, matrix([float(k)])),
                    ),
                    args=(k,),
                )
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        snapshot = get_registry().snapshot()
        sizes = snapshot["histograms"]["serving_batch_size"]
        waits = snapshot["histograms"]["serving_batch_wait_seconds"]
        depth = snapshot["histograms"]["serving_queue_depth"]
        rows = snapshot["histograms"]["serving_batch_rows"]
        assert sizes["count"] >= 1
        assert sizes["sum"] == n_threads  # every request counted once
        assert waits["count"] == n_threads
        assert depth["count"] == sizes["count"] == rows["count"]
        if sizes["max"] > 1:
            assert snapshot["counters"]["serving_batches_merged"] >= 1


class ThreadRecordingModel(RecordingModel):
    """Also logs which thread ran each ``predict_proba``."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: list[threading.Thread] = []

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self.threads.append(threading.current_thread())
        return super().predict_proba(X)


class TestInlineLargeMatrices:
    def test_large_matrix_skips_the_queue(self, monkeypatch):
        """A matrix of >= DEFAULT_CHUNK_SIZE rows is scored in the calling
        thread, never enqueued, and equals unbatched scoring."""
        get_registry().reset()
        model = ThreadRecordingModel()
        X = matrix(np.arange(DEFAULT_CHUNK_SIZE) / DEFAULT_CHUNK_SIZE)
        with MicroBatcher(window=0.0) as batcher:

            def no_submit(*_args, **_kwargs):
                raise AssertionError("large matrix entered the queue")

            monkeypatch.setattr(batcher, "submit", no_submit)
            probs = batcher.score("m", model, X)
        assert np.array_equal(probs, RecordingModel().predict_proba(X))
        assert model.threads == [threading.current_thread()]
        assert get_registry().snapshot()["counters"]["serving_batch_inline"] == 1

    def test_small_matrix_goes_through_the_dispatcher(self):
        get_registry().reset()
        model = ThreadRecordingModel()
        with MicroBatcher(window=0.0) as batcher:
            probs = batcher.score("m", model, matrix([1.0, 2.0]))
        assert np.array_equal(probs, [2.0, 4.0])
        assert model.threads[0].name == "repro-serve-batcher"
        counters = get_registry().snapshot()["counters"]
        assert counters.get("serving_batch_inline", 0) == 0
