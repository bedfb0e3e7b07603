"""One compile-and-load path for the package's C kernels.

Every hot stage that has a C kernel (tree fitting, pair featurization,
stacked-tree inference, top-K merging) ships its source as a string and
builds it through :func:`build_kernel`: the system C compiler (``$CC``,
else ``cc``/``gcc``) compiles it with ``-O2 -shared -fPIC`` into a fresh
per-process temporary directory (removed at exit), and :mod:`ctypes`
loads it with the declared signatures.  :func:`load_once` makes that
build happen at most once per kernel and process.

A kernel that cannot be built never raises: the caller gets ``None`` and
runs its NumPy path.  Such a fallback stays loud -- each failed build
increments ``native_compile_failures{kernel=...}`` and logs one WARNING
line.  There is no opt-out knob: ``CC=/nonexistent`` simulates a host
without a compiler.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Any, Callable, Mapping, Sequence

from .obs.logging import get_logger
from .obs.metrics import counter

logger = get_logger("native")

#: Compiler flags shared by every kernel.
CFLAGS = ("-O2", "-shared", "-fPIC")

#: ``symbol -> (argtypes, restype)`` declarations applied after loading.
Signatures = Mapping[str, tuple[Sequence[Any], Any]]


def _failed(kernel: str, reason: str) -> None:
    counter("native_compile_failures", kernel=kernel).inc()
    logger.warning(
        "native %s kernel unavailable, using the NumPy path: %s", kernel, reason
    )
    return None


def build_kernel(
    kernel: str, source: str, signatures: Signatures
) -> "ctypes.CDLL | None":
    """Compile ``source`` and load it; ``None`` when unavailable.

    ``kernel`` names the build (temp-dir prefix, counter label, log
    line).
    """
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return _failed(kernel, "no C compiler found (set $CC)")
    build_dir = tempfile.mkdtemp(prefix=f"repro-{kernel}-kernel-")
    atexit.register(shutil.rmtree, build_dir, ignore_errors=True)
    src = os.path.join(build_dir, "kernel.c")
    lib_path = os.path.join(build_dir, "kernel.so")
    try:
        with open(src, "w") as handle:
            handle.write(source)
        subprocess.run(
            [compiler, *CFLAGS, "-o", lib_path, src],
            check=True,
            capture_output=True,
            timeout=120,
        )
        lib = ctypes.CDLL(lib_path)
        for name, (argtypes, restype) in signatures.items():
            function = getattr(lib, name)
            function.argtypes = list(argtypes)
            function.restype = restype
        return lib
    except subprocess.CalledProcessError as error:
        stderr = (error.stderr or b"").decode(errors="replace").strip()
        return _failed(kernel, f"{compiler} exited {error.returncode}: {stderr[:500]}")
    except (OSError, AttributeError, subprocess.SubprocessError) as error:
        return _failed(kernel, f"{type(error).__name__}: {error}")


_lock = threading.Lock()
_loaded: dict[str, "ctypes.CDLL | None"] = {}


def load_once(
    kernel: str, build: Callable[[], "ctypes.CDLL | None"]
) -> "ctypes.CDLL | None":
    """The process-wide result of ``build()`` for ``kernel``.

    The first call runs ``build`` under a lock, so concurrent first
    callers build once; every later call returns that result, ``None``
    included, so a failed build is counted and logged once per process.
    Forked workers inherit whatever the parent already loaded.
    """
    try:
        return _loaded[kernel]
    except KeyError:
        pass
    with _lock:
        if kernel not in _loaded:
            _loaded[kernel] = build()
        return _loaded[kernel]
