"""Tests for the zero-copy shared-memory array transport."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    SharedArray,
    parallel_map,
    release_arrays,
    share_arrays,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _read_back(payload):
    """Worker: sum a SharedArray's contents (round-trips the pickle path)."""
    sa, scale = payload
    return float(sa.array.sum()) * scale


class TestSharedArray:
    def test_round_trip_values(self):
        data = np.arange(32, dtype=np.float64).reshape(4, 8)
        with SharedArray.from_array(data) as sa:
            np.testing.assert_array_equal(sa.array, data)
            assert sa.array.dtype == np.float64
            assert sa.shape == (4, 8)

    def test_from_array_copies_once(self):
        data = np.ones(8)
        with SharedArray.from_array(data) as sa:
            data[0] = 99.0  # source mutation must not leak into segment
            assert sa.array[0] == 1.0

    def test_non_contiguous_input(self):
        data = np.arange(40, dtype=np.float64).reshape(5, 8)[:, ::2]
        with SharedArray.from_array(data) as sa:
            np.testing.assert_array_equal(sa.array, data)

    def test_empty_array(self):
        with SharedArray.from_array(np.zeros(0)) as sa:
            assert sa.array.shape == (0,)

    def test_pickle_attaches_by_name(self):
        import pickle

        data = np.arange(10, dtype=np.int64)
        with SharedArray.from_array(data) as sa:
            blob = pickle.dumps(sa)
            assert len(blob) < 500  # the array itself never rides the pickle
            attached = pickle.loads(blob)
            try:
                np.testing.assert_array_equal(attached.array, data)
                # Same pages, not a copy: owner-side writes are visible.
                sa.array[3] = -7
                assert attached.array[3] == -7
            finally:
                attached.close()

    def test_closed_access_raises(self):
        sa = SharedArray.from_array(np.ones(4))
        sa.close()
        with pytest.raises(ValueError, match="closed"):
            _ = sa.array
        sa.close()  # idempotent
        sa.unlink()

    def test_share_release_dict(self):
        cols = {"a": np.ones(5), "b": np.arange(3, dtype=np.int64)}
        shared = share_arrays(cols)
        try:
            assert set(shared) == {"a", "b"}
            np.testing.assert_array_equal(shared["b"].array, cols["b"])
        finally:
            release_arrays(shared)
        with pytest.raises(ValueError):
            _ = shared["a"].array

    def test_view_outlives_release(self):
        """A view taken before release_arrays stays readable: the mapping
        is unmapped only once the last view is gone.  Run in a child
        process, since the failure mode is a segfault."""
        script = (
            "import numpy as np\n"
            "from repro.runtime import release_arrays, share_arrays\n"
            "arrays = share_arrays({'vx': np.arange(10.0)})\n"
            "view = arrays['vx'].array\n"
            "tail = view[5:]\n"
            "release_arrays(arrays)\n"
            "print(view.sum(), tail.sum())\n"
            "del view\n"
            "print(tail.sum())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert done.returncode != -signal.SIGSEGV, done.stderr
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["45.0", "35.0", "35.0"]
        assert done.stderr == ""

    def test_repr_states(self):
        sa = SharedArray.from_array(np.ones(2))
        assert "owner" in repr(sa) and "open" in repr(sa)
        name = sa.name
        sa.close()
        assert "closed" in repr(sa)
        SharedArray(name, (2,), "<f8").close()  # attach works post-close
        sa.unlink()


class TestPoolTransport:
    def test_serial_path_same_object(self):
        data = np.arange(6, dtype=np.float64)
        with SharedArray.from_array(data) as sa:
            # jobs=1 short-circuits the pool entirely: the callee must
            # see the identical object (zero pickling, zero copies).
            seen = parallel_map(id, [(sa)], jobs=1)
            assert seen[0] == id(sa)

    def test_workers_read_shared_block(self):
        data = np.arange(100, dtype=np.float64)
        with SharedArray.from_array(data) as sa:
            results = parallel_map(
                _read_back, [(sa, 1.0), (sa, 2.0), (sa, 0.5)], jobs=2
            )
        expected = float(data.sum())
        assert results == [expected, expected * 2.0, expected * 0.5]

    def test_segment_survives_worker_exit(self):
        # A worker closing its attachment must not unlink the segment
        # out from under the owner (the resource-tracker pitfall).
        data = np.full(16, 3.0)
        with SharedArray.from_array(data) as sa:
            parallel_map(_read_back, [(sa, 1.0)], jobs=2)
            np.testing.assert_array_equal(sa.array, data)
            # And a fresh attach still works.
            again = SharedArray(sa.name, sa.shape, sa.dtype.str)
            try:
                np.testing.assert_array_equal(again.array, data)
            finally:
                again.close()


class TestAttachRetry:
    """The name-visibility race retries with backoff before giving up."""

    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        from repro.obs import get_registry
        from repro.runtime import shared as shared_module

        monkeypatch.setattr(shared_module, "ATTACH_BACKOFF_S", 0.001)
        get_registry().reset()
        yield
        get_registry().reset()

    def _retry_count(self):
        from repro.obs import get_registry

        return get_registry().snapshot()["counters"].get(
            "shared_attach_retries", 0
        )

    def test_transient_miss_retries_then_attaches(self, monkeypatch):
        from repro.runtime import shared as shared_module

        data = np.arange(8, dtype=np.float64)
        with SharedArray.from_array(data) as owner:
            real = shared_module.shared_memory.SharedMemory
            failures = {"left": 2}

            def flaky(*args, **kwargs):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise FileNotFoundError(kwargs.get("name"))
                return real(*args, **kwargs)

            monkeypatch.setattr(
                shared_module.shared_memory, "SharedMemory", flaky
            )
            attached = SharedArray(owner.name, owner.shape, owner.dtype.str)
            try:
                np.testing.assert_array_equal(attached.array, data)
            finally:
                attached.close()
            assert self._retry_count() == 2

    def test_genuinely_missing_segment_still_raises(self):
        with pytest.raises(FileNotFoundError):
            SharedArray("repro-test-no-such-segment", (4,), "<f8")
        from repro.runtime.shared import ATTACH_RETRIES

        assert self._retry_count() == ATTACH_RETRIES
