"""Tests for the shared native-kernel loader (repro.native)."""

import ctypes
import logging
import shutil

import pytest

from repro import native
from repro.obs import get_registry

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


def test_opt_out_env_is_silent(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_TEST_NO_CKERNEL", "1")
    before = _failures("test")
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        lib = native.build_kernel(
            "test", SOURCE, SIGNATURES, disable_env="REPRO_TEST_NO_CKERNEL"
        )
    assert lib is None
    assert _failures("test") == before
    assert not caplog.records


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


def test_kernel_modules_keep_their_compile_hook():
    """Each kernel module keeps a module-level ``_compile_kernel``; tools
    that wrap kernel builds look it up by that name."""
    from repro.attack import topk
    from repro.ml import fit_engine
    from repro.serve import engine
    from repro.splitmfg import featurize_engine

    for module in (fit_engine, featurize_engine, engine, topk):
        assert callable(module._compile_kernel)
