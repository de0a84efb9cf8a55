"""The names the benchmark harness wraps or reads must keep resolving, and
the report views it reads must keep their cost.

`benchmarks/tracing.py` replaces module globals by name to record spans and
call counts, and `benchmarks/worker.py` reads the entry cache's statistics
and the cases of every semigroup report. A renamed or dropped name crashes
every traced benchmark round, or silently drops a declared metric, long before
any benchmark is run; these tests catch it in tier-1. The benchmark's own
files are read, never changed, here.
"""

import importlib
import os
import sys

import pytest

from mminf import kernel
from mminf.bounds import verify_theorem

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


def test_report_cases_view_built_once():
    # worker.py iterates report.cases twice per semigroup report, and the
    # semigroup workload's peak_rss_mb may grow by at most 5%: the view is
    # built once per report, and its testable cases share the report's one
    # budget float instead of holding a float object each
    params = kernel.QueueParams(lam=1.0, mu=1.0)
    f = kernel.Observable.from_table({0: 1.0, 3: 2.5})
    report = verify_theorem(params, 1.0, f, 20)
    assert report.cases is report.cases
    assert len({id(case.budget) for case in report.cases if case.testable}) == 1
