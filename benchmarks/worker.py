"""One campaign in a fresh process, started as a user's command starts.

The worker imports numpy and mminf, prints `ready`, and reads one JSON spec
from stdin; end of input instead makes it a set-up probe that exits at once.
It times the campaign from the moment the spec is parsed to the last verdict,
writes the outputs the checks need into the spec's `out` directory, and
prints one JSON line of measurements.

Spec keys, each optional except `out` and `trace`:
  argv     arguments of one `mminf` command, run through mminf.cli.main
  theorem  {"cells": [[rho, p], ...], "tables": [[[m, f(m)], ...], ...],
            "mu": float, "nmax": int}: verify_theorem against the sharp and
            the 1/12 bound for every (cell, table)
  exact    [[rho, p, kmax, nmax], ...] with rho, p as rational strings:
           exact_lemma_check per entry

Every campaign records how far each uniformized row sum is from 1.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

import numpy as np

import mminf.cli
from mminf import bounds, kernel, oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Campaign:
    def __init__(self, spec):
        self.spec = spec
        self.exit_code = 0
        self.cases = 0
        self.margins = []
        self.budgets = []
        self.violations = []
        self.row_sum_dev = []

    def tap_row_sums(self):
        # installed under any tracer wrapper, so its few microseconds per
        # call count as uniformization time
        inner = mminf.cli.uniformized_kernel

        def tapped(*args, **kwargs):
            mat = inner(*args, **kwargs)
            self.row_sum_dev.append(float(np.abs(mat.sum(axis=1) - 1.0).max()))
            return mat

        mminf.cli.uniformized_kernel = tapped

    def run(self):
        spec = self.spec
        if spec.get("argv"):
            self.exit_code = mminf.cli.main(spec["argv"])
        if spec.get("theorem"):
            th = spec["theorem"]
            fs = [kernel.Observable.from_table(dict(t)) for t in th["tables"]]
            for rho, p in th["cells"]:
                params = kernel.QueueParams(lam=rho * th["mu"], mu=th["mu"])
                t = params.t_for_p(p)
                for f in fs:
                    for against in ("sharp", "glmrs"):
                        report = bounds.verify_theorem(
                            params, t, f, th["nmax"], against=against
                        )
                        # numbers, not the report objects: holding 432k
                        # CaseResults would time the garbage collector
                        self.margins.append([c.margin for c in report.cases])
                        self.budgets.append([c.budget for c in report.cases])
                        self.cases += len(report.cases)
        for rho, p, kmax, nmax in spec.get("exact") or []:
            found = oracle.exact_lemma_check(Fraction(rho), Fraction(p), kmax, nmax)
            self.violations.append(found)
            self.cases += (kmax + 1) * nmax

    def save(self, out):
        """Outputs for the checks, written after the timed part."""
        th = self.spec.get("theorem")
        if th:
            shape = (len(th["cells"]), len(th["tables"]), 2, th["nmax"])
            np.savez(
                os.path.join(out, "theorem.npz"),
                margin=np.array(self.margins).reshape(shape),
                budget=np.array(self.budgets).reshape(shape),
            )
        if self.spec.get("exact") or self.row_sum_dev:
            with open(os.path.join(out, "oracle.json"), "w") as fh:
                violations = [[list(v) for v in found] for found in self.violations]
                json.dump(
                    {"violations": violations, "row_sum_dev": self.row_sum_dev}, fh
                )


def trace_metrics(tracer, out) -> dict:
    from mminf.distributions import poisson_window

    np.save(os.path.join(out, "spans.npy"), tracer.span_array())
    with open(os.path.join(out, "span_names.json"), "w") as fh:
        json.dump(tracer.names, fh)
    flop = 0.0
    for lam, mu, t, n_top, tol in tracer.uniformized:
        _, m_hi = poisson_window((lam + n_top * mu) * t, tol)
        flop += m_hi * 2.0 * (n_top + 1) ** 3 + (m_hi + 1) * 2.0 * (n_top + 1) ** 2
    extra = {"uniformized_gflop": flop * 1e-9, "bounds_cases": tracer.cases}
    cache = getattr(kernel, "_kernel_log_entry", None)
    if hasattr(cache, "cache_info"):
        info = cache.cache_info()
        lookups = info.hits + info.misses
        extra["entry_cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
    return {"layers": tracer.summary(), **extra}


def main() -> int:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    spec = json.loads(line)
    campaign = Campaign(spec)
    campaign.tap_row_sums()
    run = campaign.run
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, BENCH_DIR)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.spanned("campaign.run", run)

    cpu0 = _cpu(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    run()
    wall = time.perf_counter() - t0
    parent_cpu = _cpu(resource.RUSAGE_SELF) - cpu0
    worker_cpu = _cpu(resource.RUSAGE_CHILDREN)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    campaign.save(spec["out"])
    result = {
        "wall_s": wall,
        "parent_cpu_s": parent_cpu,
        "worker_cpu_s": worker_cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "exit_code": campaign.exit_code,
        "cases": campaign.cases,
    }
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, spec["out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
