"""Shared test helpers."""

import gc
import importlib
import tracemalloc

import pytest


@pytest.fixture
def traced_memory():
    """``measure(run)`` calls ``run()`` under tracemalloc and returns
    ``(result, retained, peak)``: what ``run`` returned, the bytes still
    allocated when it returned (the result included) and the highest
    allocation during the call. Garbage is collected first, so earlier
    tests' cycles do not count. The scipy modules that ctmar loads on
    first use (``scipy.fft`` at the first FFT conv, ``scipy.special`` at
    the first float64 GELU) are imported before tracing starts, so a
    test run alone does not count their one-time import."""
    for name in ("scipy.fft", "scipy.special"):
        importlib.import_module(name)

    def measure(run):
        gc.collect()
        tracemalloc.start()
        try:
            result = run()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, retained, peak

    return measure
