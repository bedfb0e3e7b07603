"""Micro-batching front end: merge concurrent scoring work into one kernel call.

Serving traffic is many *small* scoring requests arriving at once; the
inference engine (:mod:`repro.serve.engine`) is fastest on *large*
matrices, because every ``predict_proba`` invocation pays a fixed cost
(Python dispatch, kernel setup, and -- on the no-compiler path -- a
full Python-level walk of every estimator) before the per-row work
starts.  :class:`MicroBatcher` converts the former shape into the
latter: handler threads :meth:`~MicroBatcher.submit` ``(model, X)`` work
items onto a queue, a single dispatcher thread drains it with a small
coalescing window, groups the items by model, concatenates their
feature matrices, runs **one** ``predict_proba`` over the merged batch,
and scatters the per-request probability slices back to each caller's
future.

Correctness rests on the engine's row-independence contract: every
kernel scores each sample row in isolation (the C traversal and the
per-estimator reference loop accumulate leaf values per row in estimator
order regardless of which other rows share the batch), so the slice a request gets back from a
merged batch is **bit-identical** to what scoring its matrix alone
would have produced.  Items are grouped by ``(model_key, id(model))``,
never by key alone, so a model hot-swapped by the registry mid-flight
can never be merged with its predecessor's rows.

Observability (see OBSERVABILITY.md):

* ``serving_batch_size``        -- requests merged per kernel call;
* ``serving_batch_rows``        -- sample rows per kernel call;
* ``serving_queue_depth``       -- queue backlog at each dispatch;
* ``serving_batch_wait_seconds``-- per-item time spent coalescing;
* ``serving_batches_merged``    -- kernel calls that served >1 request;
* ``serving_batch_inline``      -- large matrices scored inline, unqueued.

A matrix of at least :data:`~repro.serve.engine.DEFAULT_CHUNK_SIZE` rows
never enters the queue: the engine cuts it into chunks of that size
anyway, so merging it with other work saves nothing, while queueing it
makes every smaller request behind it wait for its whole predict.  It is
scored in the calling thread instead -- byte-identical by the same
row-independence contract.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, SHORT_WAIT_BUCKETS, counter, histogram
from .engine import DEFAULT_CHUNK_SIZE

#: How long the dispatcher keeps the first item of a batch waiting for
#: company before scoring (seconds).  Zero still batches opportunistically:
#: whatever is already queued when the dispatcher wakes is merged.
DEFAULT_WINDOW = 0.002

#: Most work items merged into one kernel call.
DEFAULT_MAX_ITEMS = 64

#: Most sample rows merged into one kernel call; batches close early once
#: the concatenated matrix would exceed this (the engine chunks further
#: internally, this only bounds the concatenation copy).
DEFAULT_MAX_ROWS = 1_048_576


class BatcherClosedError(RuntimeError):
    """Work was submitted to a batcher that has been closed."""


@dataclass
class _WorkItem:
    """One enqueued scoring request: a feature matrix awaiting its probs."""

    model_key: str
    model: Any
    X: np.ndarray
    enqueued_at: float
    future: "Future[np.ndarray]" = field(default_factory=Future)

    @property
    def group_key(self) -> tuple[str, int]:
        """Merge key: same registry id *and* same loaded model object."""
        return (self.model_key, id(self.model))


_STOP = object()


class MicroBatcher:
    """A request-coalescing queue in front of the inference engine.

    One dispatcher thread serves any number of submitting threads.  The
    batcher is inert until :meth:`start`; while stopped, :meth:`score`
    degrades to an inline ``model.predict_proba`` call so callers never
    need to special-case the unbatched configuration.
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        max_items: int = DEFAULT_MAX_ITEMS,
        max_rows: int = DEFAULT_MAX_ROWS,
    ) -> None:
        if window < 0:
            raise ValueError("window must be >= 0 seconds")
        if max_items < 1:
            raise ValueError("max_items must be >= 1")
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.window = float(window)
        self.max_items = int(max_items)
        self.max_rows = int(max_rows)
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is accepting work."""
        thread = self._thread
        return thread is not None and thread.is_alive() and not self._closed

    def start(self) -> "MicroBatcher":
        """Start the dispatcher thread (idempotent); returns ``self``."""
        with self._lock:
            if self._closed:
                raise BatcherClosedError("batcher has been closed")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-serve-batcher",
                    daemon=True,
                )
                self._thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, flush the queue, stop the dispatcher.

        Safe to call twice.  Items racing past the closed check are
        scored inline during the flush so no future is ever abandoned.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        self._queue.put(_STOP)
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        # Flush stragglers that slipped in around the close: score each
        # inline rather than leaving a caller blocked on a dead future.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            self._execute([item])

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(
        self, model_key: str, model: Any, X: np.ndarray
    ) -> "Future[np.ndarray]":
        """Enqueue a feature matrix for batched scoring.

        ``model_key`` is the stable identity of ``model`` (its registry
        id); only items carrying the *same loaded model object* are
        merged into one kernel call.
        """
        if not self.running:
            raise BatcherClosedError("batcher is not running")
        item = _WorkItem(
            model_key=model_key,
            model=model,
            X=X,
            enqueued_at=time.monotonic(),
        )
        self._queue.put(item)
        return item.future

    def score(self, model_key: str, model: Any, X: np.ndarray) -> np.ndarray:
        """Score ``X`` through the batcher, blocking for the result.

        Falls back to an inline ``model.predict_proba`` when the batcher
        is not running (stopped, closed, or never started), so the
        caller's behaviour is identical either way.  A matrix of at least
        ``DEFAULT_CHUNK_SIZE`` rows is scored inline too (counted in
        ``serving_batch_inline``).
        """
        if not self.running:
            return model.predict_proba(X)
        if len(X) >= DEFAULT_CHUNK_SIZE:
            counter("serving_batch_inline").inc()
            return model.predict_proba(X)
        try:
            future = self.submit(model_key, model, X)
        except BatcherClosedError:
            return model.predict_proba(X)
        return future.result()

    # -- dispatch -------------------------------------------------------

    def _collect(self, first: _WorkItem) -> tuple[list[_WorkItem], bool]:
        """Drain the queue into one batch, waiting at most ``window``.

        Returns ``(batch, saw_stop)``; the window starts when the batch's
        first item is picked up, so an isolated request pays at most
        ``window`` extra latency.
        """
        batch = [first]
        rows = len(first.X)
        deadline = time.monotonic() + self.window
        while len(batch) < self.max_items and rows < self.max_rows:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return batch, True
            batch.append(item)
            rows += len(item.X)
        return batch, False

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            batch, saw_stop = self._collect(item)
            histogram(
                "serving_queue_depth", buckets=COUNT_BUCKETS
            ).observe(self._queue.qsize())
            self._execute(batch)
            if saw_stop:
                return

    def _execute(self, batch: list[_WorkItem]) -> None:
        """Score one batch: group by model, concatenate, scatter results."""
        now = time.monotonic()
        wait = histogram("serving_batch_wait_seconds", buckets=SHORT_WAIT_BUCKETS)
        for item in batch:
            wait.observe(now - item.enqueued_at)
        groups: dict[tuple[str, int], list[_WorkItem]] = {}
        for item in batch:
            groups.setdefault(item.group_key, []).append(item)
        size = histogram("serving_batch_size", buckets=COUNT_BUCKETS)
        rows_hist = histogram("serving_batch_rows", buckets=COUNT_BUCKETS)
        for items in groups.values():
            size.observe(len(items))
            rows_hist.observe(sum(len(it.X) for it in items))
            try:
                if len(items) == 1:
                    items[0].future.set_result(
                        items[0].model.predict_proba(items[0].X)
                    )
                    continue
                counter("serving_batches_merged").inc()
                merged = np.concatenate([it.X for it in items], axis=0)
                prob = items[0].model.predict_proba(merged)
                offset = 0
                for it in items:
                    stop = offset + len(it.X)
                    it.future.set_result(prob[offset:stop])
                    offset = stop
            except BaseException as error:  # noqa: BLE001 - must reach callers
                for it in items:
                    if not it.future.done():
                        it.future.set_exception(error)
