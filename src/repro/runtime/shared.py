"""Zero-copy NumPy transport for :func:`repro.runtime.pool.parallel_map`.

Pickling a large read-only array into every worker payload copies it
once per task -- at paper scale (a 1M-cell view is ~9 columns of 8000
float64 each; a packed feature-column block can be hundreds of MB for
denser layers) that multiplies peak RSS by the job count.
:class:`SharedArray` wraps :class:`multiprocessing.shared_memory
.SharedMemory` so the block is allocated once and every process maps
the *same* pages:

* ``SharedArray.from_array(a)`` copies ``a`` into a fresh shared
  segment exactly once (the owner);
* pickling a :class:`SharedArray` serializes only ``(name, shape,
  dtype)`` -- a worker that unpickles it attaches to the existing
  segment by name, so the payload going through the pool is a few
  dozen bytes regardless of array size;
* on the serial fast path (``jobs=1``) ``parallel_map`` never pickles,
  the callee receives the very same object, and ``.array`` is simply a
  view -- zero copies, no shared segment round-trip needed beyond the
  initial ``from_array``;
* lifecycle is explicit: every process ``close()``-es its mapping, and
  only the owning process ``unlink()``-s the segment (or use the
  context-manager form, which does both on the owner).

Attached (non-owner) mappings deregister themselves from Python's
``resource_tracker`` because the owner keeps its own registration: on
Python < 3.13 there is no ``track=False``, and without the deregistration
a worker exiting would prematurely unlink a segment the parent still
uses.

The arrays exposed through ``.array`` are writable pages shared by all
mappers; treat them as read-only (the transport is for shipping inputs,
not for concurrent mutation -- no synchronization is provided).
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..obs.metrics import counter

#: Attach attempts beyond the first when the segment name is not (yet)
#: visible -- the owner may have published the name before the kernel
#: made the segment reachable from a freshly-forked worker.
ATTACH_RETRIES = 5

#: First retry backoff; doubles per attempt.
ATTACH_BACKOFF_S = 0.01


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment, retrying the name-visibility race.

    A worker can unpickle a :class:`SharedArray` (so the segment
    definitely exists) and still get ``FileNotFoundError`` from the
    first attach -- the publish is not atomic with visibility on every
    platform.  A few short, exponentially backed-off retries distinguish
    that race (transient, counted in ``shared_attach_retries``) from a
    genuinely missing segment, which still raises.
    """
    delay = ATTACH_BACKOFF_S
    for attempt in range(ATTACH_RETRIES + 1):
        try:
            return shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            if attempt == ATTACH_RETRIES:
                raise
            counter("shared_attach_retries").inc()
            time.sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


class _Mapping:
    """Keeps a segment mapped for as long as any array view of it lives.

    NumPy holds no buffer export on a ``SharedMemory.buf`` it wraps, so
    closing the segment under a live view would leave the view pointing
    at unmapped memory.  An array made from this object's
    ``__array_interface__`` keeps the object itself as its base instead,
    and the segment is closed only when the last view releases it.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, shape: tuple[int, ...], dtype: np.dtype
    ) -> None:
        self.shm = shm
        address = np.frombuffer(shm.buf, dtype=np.uint8).ctypes.data
        self.__array_interface__ = {
            "shape": shape,
            "typestr": dtype.str,
            "data": (address, False),
            "version": 3,
        }

    def __del__(self) -> None:
        self.shm.close()


class SharedArray:
    """A NumPy array backed by a named ``SharedMemory`` segment."""

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: str,
        *,
        _shm: shared_memory.SharedMemory | None = None,
        _owner: bool = False,
    ) -> None:
        if _shm is None:  # attach to an existing segment by name
            _shm = _attach(name)
            # The tracker would unlink the segment when *this* process
            # exits; only the owner should, and it has its own
            # registration.  (Python 3.13's ``track=False`` does the
            # same thing declaratively.)
            try:
                resource_tracker.unregister(_shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker impl detail
                pass
        self._shm: shared_memory.SharedMemory | None = _shm
        self._owner = _owner
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self._array: np.ndarray | None = None

    @classmethod
    def from_array(cls, array: np.ndarray, name: str | None = None) -> "SharedArray":
        """Copy ``array`` into a new shared segment (this process owns it)."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes), name=name
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return cls(
            shm.name, array.shape, array.dtype.str, _shm=shm, _owner=True
        )

    @property
    def array(self) -> np.ndarray:
        """The shared block as an ndarray view (no copy)."""
        if self._shm is None:
            raise ValueError(f"SharedArray {self.name!r} is closed")
        if self._array is None:
            self._array = np.asarray(_Mapping(self._shm, self.shape, self.dtype))
        return self._array

    def __reduce__(self):
        # Workers re-attach by name; the segment itself never rides the
        # pickle stream.
        return (type(self), (self.name, self.shape, self.dtype.str))

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        A view taken from :attr:`array` may outlive this call: the
        mapping is then unmapped when the last such view dies.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        if self._array is None:
            shm.close()
        self._array = None  # its _Mapping closes shm once no view is left

    def unlink(self) -> None:
        """Destroy the segment itself.  Owner's job, exactly once."""
        try:
            shared_memory.SharedMemory(name=self.name).unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc: object) -> None:
        owner = self._owner
        self.close()
        if owner:
            self.unlink()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._shm is None else "open"
        role = "owner" if self._owner else "attached"
        return (
            f"SharedArray({self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype.str!r}, {role}, {state})"
        )


def share_arrays(arrays: dict[str, np.ndarray]) -> dict[str, SharedArray]:
    """Copy a column dict into shared segments (caller owns all of them)."""
    shared: dict[str, SharedArray] = {}
    try:
        for key, value in arrays.items():
            shared[key] = SharedArray.from_array(value)
    except Exception:
        release_arrays(shared)
        raise
    return shared


def release_arrays(shared: dict[str, SharedArray]) -> None:
    """Close and unlink every segment in a :func:`share_arrays` dict."""
    for sa in shared.values():
        owner = sa._owner
        sa.close()
        if owner:
            sa.unlink()
