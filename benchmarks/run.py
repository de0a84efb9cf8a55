#!/usr/bin/env python3
"""mminf benchmark: one workload, timed end to end, its outputs checked.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`. Every
round starts the campaign in a fresh worker process (benchmarks/worker.py),
as a user's command starts, so no cache carries over between rounds. Rounds
repeat until their summed lifetimes reach --seconds. Each round's outputs are
checked by benchmarks/checks.py outside the timed part.

The last line of stdout is one JSON object: `correct`, `attempted` (rounds),
`failed` (rounds that crashed, exited with a code their verdicts do not
imply, or failed a check) and `metrics`, which holds the end-to-end metrics of
BENCHMARK.json with --trace 0 and its per-layer metrics with --trace 1. A
traced run alternates untraced and traced rounds; the per-layer numbers come
from the traced rounds and the tracing overhead is the difference of the
median wall times. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402

DEFAULT_SEED = 20250824
SETUP_PROBES = 8
ROUND_TIMEOUT_S = 120
# stop starting rounds once this much of the 180 s a run may take is spent
RUN_BUDGET_S = 120

SWEEP_RHO = [0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
SWEEP_P = [round(0.05 * i, 2) for i in range(1, 20)]
SWEEP_SAMPLE = 300  # seeded cases re-decided exactly, besides the whole cell below
SWEEP_WHOLE_CELLS = [(2.0, 0.1)]

THEOREM_CELLS = [
    (rho, round(0.1 * i, 1)) for rho in (0.5, 1.0, 2.0) for i in range(1, 10)
]
THEOREM_TABLES = 200
THEOREM_NMAX = 40
THEOREM_SAMPLE = 12  # seeded (cell, table) reports recomputed exactly

ORACLE_N = 80  # no uniformization boundary-leak warning on the sweep grid
ORACLE_TOL = 1e-10
EXACT_GRID = [
    [rho, p, 12, 25] for rho in ("1/4", "1", "2", "10") for p in ("1/10", "1/2", "9/10")
]
EXACT_SAMPLE_CELLS = 2


def random_tables(seed: int, count: int) -> list[list[tuple[int, float]]]:
    """Seeded table observables on 0..15 with values in [0.1, 10), as the
    criterion-4 campaign draws them, except that the support sizes cycle
    through 1..8 instead of being drawn: the work of a campaign grows with the
    summed support size, which a drawn size would move by +-5% between seeds."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(count):
        size = i % 8 + 1
        support = rng.choice(16, size=size, replace=False)
        values = rng.uniform(0.1, 10.0, size=size)
        tables.append([(int(n), float(v)) for n, v in zip(support, values)])
    return tables


def grid_args(flag, values):
    return [a for v in values for a in (flag, repr(v))]


SWEEP_ARGV = ["sweep"]  # the default grid: 6 rho x 19 p, k <= 30, n <= 60
ORACLE_ARGV = (
    ["oracle-check"]
    + grid_args("--rho", SWEEP_RHO)
    + grid_args("--p", SWEEP_P)
    + ["--kmax", "30", "--nmax", "60", "--N", str(ORACLE_N), "--tol", repr(ORACLE_TOL)]
)


class Workload:
    """Builds a round's spec and checks the round's outputs."""

    def __init__(self, name, seed, out):
        self.name, self.seed, self.out = name, seed, out
        self.csv = os.path.join(out, "report.csv")
        self.reference = os.path.join(out, "reference.csv")
        self.tables = None
        self.reference_exit = None  # sweep-jobs2: exit code of the one-job run

    def spec(self):
        if self.name in ("sweep", "sweep-jobs2"):
            jobs = "2" if self.name == "sweep-jobs2" else "1"
            return {"argv": SWEEP_ARGV + ["--jobs", jobs, "--out", self.csv]}
        if self.name == "semigroup":
            if self.tables is None:
                self.tables = random_tables(self.seed, THEOREM_TABLES)
            return {"theorem": {"cells": THEOREM_CELLS, "tables": self.tables,
                                "mu": 1.0, "nmax": THEOREM_NMAX}}
        return {"argv": ORACLE_ARGV + ["--out", self.csv], "exact": EXACT_GRID}

    def cases(self, result):
        """Cases decided: the worker's count plus one per CSV row."""
        return result["cases"] + self.csv_stats()[0]

    def csv_stats(self):
        if self.name == "semigroup":
            return 0, 0
        with open(self.csv, "rb") as fh:
            data = fh.read()
        return data.count(b"\n") - 2, len(data)

    def check(self, exit_code):
        if self.name == "sweep":
            return checks.check_sweep(
                self.csv, exit_code, SWEEP_RHO, SWEEP_P, 1.0, 30, 60, self.seed,
                SWEEP_SAMPLE, SWEEP_WHOLE_CELLS,
            )
        if self.name == "sweep-jobs2":
            return checks.check_same_bytes(self.csv, self.reference) + (
                [] if exit_code == self.reference_exit else
                [f"exit code {exit_code}, one job gave {self.reference_exit}"]
            )
        if self.name == "semigroup":
            with np.load(os.path.join(self.out, "theorem.npz")) as arrays:
                return checks.check_semigroup(
                    dict(arrays), exit_code, THEOREM_CELLS, self.tables, 1.0,
                    THEOREM_NMAX, self.seed, THEOREM_SAMPLE,
                )
        with open(os.path.join(self.out, "oracle.json")) as fh:
            aux = json.load(fh)
        return checks.check_oracle(
            self.csv, exit_code, SWEEP_RHO, SWEEP_P, 30, ORACLE_TOL,
            aux["row_sum_dev"], EXACT_GRID, aux["violations"], self.seed,
            EXACT_SAMPLE_CELLS,
        )


class Runner:
    """Starts worker processes on the checkout's `src/`, with BLAS threads
    capped at min(2, nproc), and records each one's set-up time."""

    def __init__(self, root, out):
        self.out = out
        env = dict(os.environ)
        src = os.path.join(root, "src")
        if env.get("PYTHONPATH"):
            src += os.pathsep + env["PYTHONPATH"]
        env["PYTHONPATH"] = src
        threads = str(min(2, len(os.sched_getaffinity(0))))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        self.env = env
        self.setups = []

    def start(self):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True,
        )
        ready = proc.stdout.readline()
        if ready.strip() != "ready":
            self.finish(proc)
            return None
        self.setups.append(time.perf_counter() - t0)
        return proc

    def finish(self, proc, spec=None):
        try:
            out, _ = proc.communicate(
                json.dumps(spec) + "\n" if spec else "", timeout=ROUND_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        if proc.returncode != 0 or not out.strip():
            return None
        return json.loads(out.strip().splitlines()[-1])

    def probe(self):
        proc = self.start()
        if proc is not None:
            self.finish(proc)

    def round(self, spec, trace):
        """(result or None, lifetime in s) of one campaign process."""
        t0 = time.perf_counter()
        proc = self.start()
        result = None
        if proc is not None:
            result = self.finish(proc, dict(spec, trace=trace, out=self.out))
        return result, time.perf_counter() - t0


def layer_metrics(traced, untraced, workload) -> dict:
    """Per-layer metrics: medians over the traced rounds."""
    per_round = []
    for r in traced:
        tr = r["trace"]
        layers = tr["layers"]

        def get(name, field):
            return layers.get(name, {}).get(field, 0)

        m = {}
        for fn in ("kernel.kernel_log_matrix", "distributions.convolution_log_matrix",
                   "kernel.log_semigroup_apply", "oracle.uniformized_kernel",
                   "oracle.exact_lemma_check", "distributions.poisson_window",
                   "bounds.verify_kernel_lemma", "bounds.verify_theorem",
                   "kernel.kernel_entry"):
            m[fn + ".calls"] = get(fn, "calls")
            m[fn + ".self_s"] = get(fn, "self_s")
        modules = ("campaign", "cli", "bounds", "kernel", "distributions", "oracle")
        for module in modules:
            m[module + ".self_s"] = sum(
                v["self_s"] for k, v in layers.items() if k.split(".")[0] == module
            )
        m["bounds.cases"] = tr["bounds_cases"]
        m["oracle.uniformized_kernel.gflop"] = tr["uniformized_gflop"]
        if "entry_cache_hit_ratio" in tr:
            m["kernel.entry_cache.hit_ratio"] = tr["entry_cache_hit_ratio"]
        m["trace.self_sum_s"] = sum(v["self_s"] for v in layers.values())
        m["trace.wall_s"] = r["wall_s"]
        per_round.append(m)
    out = {k: median([m[k] for m in per_round]) for k in per_round[0]}
    rows, size = workload.csv_stats()
    out["cli.rows"] = rows
    out["cli.csv_bytes"] = size
    out["cli.parent_cpu_s"] = median([r["parent_cpu_s"] for r in untraced])
    out["cli.worker_cpu_s"] = median([r["worker_cpu_s"] for r in untraced])
    out["trace.untraced_wall_s"] = median([r["wall_s"] for r in untraced])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def end_to_end_metrics(rounds, setups) -> dict:
    return {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in rounds]),
        "cases_per_s": median([r["cases"] / r["wall_s"] for r in rounds]),
        "cpu_s": median([r["parent_cpu_s"] + r["worker_cpu_s"] for r in rounds]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "sweep-jobs2", "semigroup", "oracle"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mminf", "cli.py")):
        print("run from the root of an mminf checkout: src/mminf is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    out = os.path.join(BENCH_DIR, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    started = time.perf_counter()
    runner = Runner(root, out)
    workload = Workload(args.workload, args.seed, out)
    errors = []
    if args.workload == "sweep-jobs2":
        # the same command with one job, unmeasured: the bytes to match
        argv = SWEEP_ARGV + ["--jobs", "1", "--out", workload.reference]
        ref, _ = runner.round({"argv": argv}, False)
        if ref is None:
            errors.append("one-job reference run failed")
        else:
            workload.reference_exit = ref["exit_code"]
            errors += checks.check_sweep(
                workload.reference, ref["exit_code"], SWEEP_RHO, SWEEP_P, 1.0, 30, 60,
                args.seed, SWEEP_SAMPLE, SWEEP_WHOLE_CELLS,
            )
    if not args.trace:
        for _ in range(SETUP_PROBES):
            runner.probe()

    results, attempted, failed, measured = [], 0, 0, 0.0
    while (measured < args.seconds or (args.trace and attempted < 2)) and (
        time.perf_counter() - started < RUN_BUDGET_S
    ):
        trace = bool(args.trace and attempted % 2)
        result, lifetime = runner.round(workload.spec(), trace)
        measured += lifetime
        attempted += 1
        if result is None:
            round_errors = ["worker crashed"]
        else:
            round_errors = workload.check(result["exit_code"])
        if round_errors:
            failed += 1
            errors += round_errors
        else:
            result["cases"] = workload.cases(result)
            results.append(result)
    for line in errors[:10]:
        print(f"check: {line}", file=sys.stderr)

    untraced = [r for r in results if "trace" not in r]
    traced = [r for r in results if "trace" in r]
    if args.trace:
        values = {}
        if traced and untraced:
            values = layer_metrics(traced, untraced, workload)
        wanted = declared["per_layer"]
    else:
        values = end_to_end_metrics(untraced, runner.setups) if untraced else {}
        wanted = declared["end_to_end"]
    # the hit ratio goes once the cache behind kernel_entry goes
    optional = {"kernel.entry_cache.hit_ratio"}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if values and (m["name"] in values or m["name"] not in optional)
    }
    correct = not errors and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
