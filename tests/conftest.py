"""Shared test helpers."""

import gc
import tracemalloc

import pytest


@pytest.fixture
def traced_memory():
    """``measure(run)`` calls ``run()`` under tracemalloc and returns
    ``(result, retained, peak)``: what ``run`` returned, the bytes still
    allocated when it returned (the result included) and the highest
    allocation during the call. Garbage is collected first, so earlier
    tests' cycles do not count."""
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
