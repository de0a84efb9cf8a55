"""The names the benchmark harness wraps or reads must keep resolving.

`benchmarks/tracing.py` replaces module globals by name to record spans and
call counts, and `benchmarks/worker.py` reads the entry cache's statistics.
A renamed or dropped name crashes every traced benchmark round, or silently
drops a declared metric, long before any benchmark is run; these tests catch
it in tier-1. The benchmark's own files are read, never changed, here.
"""

import importlib
import os
import sys

import pytest

from mminf import kernel

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH_DIR)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH_DIR)


def test_hook_names_resolve(tracing):
    hooks = tracing.SPANNED + tracing.COUNTED
    assert hooks
    for module, attr, _ in hooks:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_entry_cache_reports_statistics():
    info = kernel._kernel_log_entry.cache_info()
    assert info.maxsize > 0

