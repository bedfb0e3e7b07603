"""Tests for the shared native-kernel loader (repro.native)."""

import ctypes
import logging
import shutil
import sys
import threading
import time

import pytest

from repro import native
from repro.attack import topk
from repro.ml import fit_engine
from repro.obs import get_registry
from repro.serve import engine
from repro.splitmfg import featurize_engine

SOURCE = "long repro_test_add(long a, long b) { return a + b; }\n"
SIGNATURES = {"repro_test_add": ([ctypes.c_long, ctypes.c_long], ctypes.c_long)}

needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler available",
)


def _failures(kernel: str) -> int:
    counters = get_registry().snapshot()["counters"]
    return counters.get(f"native_compile_failures{{kernel={kernel}}}", 0)


@needs_compiler
def test_builds_and_declares_signatures():
    lib = native.build_kernel("test", SOURCE, SIGNATURES)
    assert lib is not None
    assert lib.repro_test_add(40, 2) == 42
    assert lib.repro_test_add.restype is ctypes.c_long


@pytest.mark.parametrize(
    "compiler, source",
    [
        ("/nonexistent/cc", SOURCE),  # the compiler cannot be run
        (None, "this is not C\n"),  # the compiler rejects the source
    ],
)
def test_failed_build_is_counted_and_logged(monkeypatch, caplog, compiler, source):
    if compiler is None:
        if shutil.which("cc") is None and shutil.which("gcc") is None:
            pytest.skip("no C compiler available")
        monkeypatch.delenv("CC", raising=False)
    else:
        monkeypatch.setenv("CC", compiler)
    before = _failures("test")
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        lib = native.build_kernel("test", source, SIGNATURES)
    assert lib is None
    assert _failures("test") == before + 1
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "test kernel unavailable" in warnings[0].getMessage()


@needs_compiler
def test_missing_symbol_is_a_failed_build(monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    before = _failures("test")
    lib = native.build_kernel(
        "test", SOURCE, {"repro_not_defined": ([], ctypes.c_int)}
    )
    assert lib is None
    assert _failures("test") == before + 1


#: ``kernel`` label (as counted in ``native_compile_failures``) -> module.
KERNEL_MODULES = {
    "fit": fit_engine,
    "featurize": featurize_engine,
    "serve": engine,
    "topk": topk,
}


def test_kernel_modules_keep_their_compile_hook():
    """Each kernel module keeps a module-level ``_compile_kernel``; tools
    that wrap kernel builds look it up by that name."""
    for module in KERNEL_MODULES.values():
        assert callable(module._compile_kernel)


@pytest.fixture()
def cold_loader(monkeypatch):
    """An empty ``load_once`` table; the real one comes back afterwards."""
    monkeypatch.setattr(native, "_loaded", {})


@pytest.mark.parametrize("kernel", KERNEL_MODULES)
def test_concurrent_first_use_builds_once(kernel, cold_loader, monkeypatch):
    module = KERNEL_MODULES[kernel]
    builds = []
    sentinel = object()

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.05)  # keep the other threads waiting on the lock
        return sentinel

    monkeypatch.setattr(module, "_compile_kernel", slow_build)
    barrier = threading.Barrier(8)
    results = []

    def first_use():
        barrier.wait(timeout=30)
        results.append(module._get_kernel())

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert results == [sentinel] * 8


@pytest.mark.parametrize("kernel", KERNEL_MODULES)
def test_failed_build_counted_and_logged_once_per_process(
    kernel, cold_loader, monkeypatch, caplog
):
    module = KERNEL_MODULES[kernel]
    monkeypatch.setenv("CC", "/nonexistent/cc")
    before = _failures(kernel)
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        for _ in range(3):
            assert module._get_kernel() is None
    assert _failures(kernel) == before + 1
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert f"{kernel} kernel unavailable" in warnings[0].getMessage()


@pytest.mark.parametrize("kernel", KERNEL_MODULES)
def test_replaced_compile_hook_is_used(kernel, cold_loader, monkeypatch):
    """Replacing ``_compile_kernel`` before first use routes the build
    through the replacement -- how a tracer times kernel loads."""
    module = KERNEL_MODULES[kernel]
    real = module._compile_kernel
    calls = []

    def wrapped():
        calls.append(1)
        return real()

    monkeypatch.setattr(module, "_compile_kernel", wrapped)
    lib = module._get_kernel()
    assert calls == [1]
    assert module._get_kernel() is lib
    assert calls == [1]
