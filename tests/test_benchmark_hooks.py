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
import json
import os
import shutil
import subprocess
import sys

import pytest

from mminf import kernel
from mminf.bounds import verify_theorem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmarks")


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not a number a metric may hold")


def test_traced_run_reports_every_declared_metric(tmp_path):
    # run.py accepts a traced result without kernel.entry_cache.hit_ratio
    # (it counts that metric as optional), so a hook that stops resolving can
    # print "correct": true with a declared metric missing; the declared names
    # are checked here. Two rounds of the shortest workload, in a copy of the
    # harness, so that its outputs stay out of the checkout.
    shutil.copytree(
        BENCH_DIR, tmp_path / "benchmarks",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    run = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle",
         "--trace", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.stdout.strip(), run.stderr
    result = json.loads(
        run.stdout.strip().splitlines()[-1], parse_constant=_refuse_constant
    )
    assert result["correct"] is True, run.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert [name for name in declared if name not in result["metrics"]] == []
