#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 benchmarks/selftest.py

Runs each campaign on a small grid through the benchmark's worker, requires
its checks to accept the real outputs, and requires them to reject outputs
with one fault planted: a verdict flipped, a row dropped or moved, an exit
code changed, a margin moved off the exact value, an exact violation lost.
Exits 0 when every check behaves. The file name keeps it out of pytest's
collection, so the tier-1 suite neither collects nor runs it.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402

RHOS, PS, KMAX, NMAX = [0.5, 2.0], [0.1, 0.5], 8, 16
CELLS = [(0.5, 0.3), (2.0, 0.1)]
EXACT = [["2", "1/10", 4, 8], ["1", "1/2", 4, 8]]


def campaign(spec, out):
    runner = run.Runner(os.getcwd(), out)
    result, _ = runner.round(spec, False)
    if result is None:
        raise SystemExit(f"worker failed on {spec}")
    return result


def rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        lines = list(csv.reader(fh))
    first = open(src).readline()
    rows = edit(lines[2:])
    with open(dst, "w", newline="") as fh:
        fh.write(first)
        csv.writer(fh).writerows([lines[1]] + rows)


def flip(row):
    """Negate the margin and flip the verdict: consistent with each other, so
    only the exact recomputation can tell."""
    margin = -float(row[-3])
    return row[:-3] + [repr(margin), row[-2], "pass" if margin >= 0 else "fail"]


def sweep_cases(out):
    path = os.path.join(out, "sweep.csv")
    argv = ["sweep"] + run.grid_args("--rho", RHOS) + run.grid_args("--p", PS)
    res = campaign({"argv": argv + ["--kmax", str(KMAX), "--nmax", str(NMAX),
                                    "--out", path]}, out)
    n_rows = len(RHOS) * len(PS) * (KMAX + 1) * NMAX

    def check(p, code=res["exit_code"]):
        return checks.check_sweep(p, code, RHOS, PS, 1.0, KMAX, NMAX, 1, n_rows)

    yield "sweep as written", check(path), True
    bad = os.path.join(out, "bad.csv")
    wide = 40  # rho=0.5, p=0.1, k=2, n=9: margin far from 0
    rewrite(path, bad, lambda r: r[:wide] + [flip(r[wide])] + r[wide + 1:])
    yield "sweep, one verdict flipped", check(bad), False
    rewrite(path, bad, lambda r: r[:wide] + r[wide + 1:])
    yield "sweep, one row dropped", check(bad), False
    rewrite(path, bad, lambda r: r[:wide] + [r[wide + 1], r[wide]] + r[wide + 2:])
    yield "sweep, two rows swapped", check(bad), False
    yield "sweep, exit code 0", check(path, 0), False
    moved = lambda row: row[:-3] + [repr(float(row[-3]) + 5e-12)] + row[-2:]
    rewrite(path, bad, lambda r: r[:wide] + [moved(r[wide])] + r[wide + 1:])
    yield "sweep, one margin moved by 5e-12", check(bad), False
    yield "sweep, bytes of another file", checks.check_same_bytes(path, bad), False


def semigroup_cases(out):
    tables = run.random_tables(7, 6)
    spec = {"theorem": {"cells": CELLS, "tables": tables, "mu": 1.0, "nmax": 12}}
    res = campaign(spec, out)
    with np.load(os.path.join(out, "theorem.npz")) as f:
        arrays = dict(f)

    def check(a):
        return checks.check_semigroup(a, res["exit_code"], CELLS, tables, 1.0, 12,
                                      1, len(CELLS) * len(tables))

    yield "semigroup as computed", check(arrays), True
    for label, (idx, delta) in {
        # both bounds moved together keep the offset: only the exact sum sees it
        "semigroup, one report's margins moved by 1e-9": ((1, 2, slice(None), 5), 1e-9),
        "semigroup, log 12 offset broken by 1e-13": ((0, 3, 1, 7), 1e-13),
    }.items():
        margin = arrays["margin"].copy()
        margin[idx] += delta
        yield label, check(dict(arrays, margin=margin)), False


def oracle_cases(out):
    path = os.path.join(out, "oracle.csv")
    argv = (["oracle-check"] + run.grid_args("--rho", RHOS) + run.grid_args("--p", PS)
            + ["--kmax", "6", "--nmax", "12", "--N", "60", "--tol", "1e-10",
               "--out", path])
    res = campaign({"argv": argv, "exact": EXACT}, out)
    with open(os.path.join(out, "oracle.json")) as fh:
        aux = json.load(fh)

    def check(p=path, violations=aux["violations"], sums=aux["row_sum_dev"],
              code=res["exit_code"]):
        return checks.check_oracle(p, code, RHOS, PS, 6, 1e-10, sums,
                                   EXACT, violations, 1, len(EXACT))

    yield "oracle as computed", check(), True
    lost = [[v for v in aux["violations"][0] if v != [2, 1]]] + aux["violations"][1:]
    yield "oracle, violation (2, 1) lost", check(violations=lost), False
    off = aux["row_sum_dev"] + [1e-9]
    yield "oracle, a row sum off by 1e-9", check(sums=off), False
    bad = os.path.join(out, "bad.csv")
    rewrite(path, bad, lambda r: r[:3] + [r[3][:-1] + ["fail"]] + r[4:])
    yield "oracle, one verdict flipped", check(p=bad), False
    # a broken kernel or uniformization: a large discrepancy, reported
    # consistently with a fail verdict and exit code 1
    wrong = lambda row: row[:3] + ["0.25", row[4], "fail"]
    rewrite(path, bad, lambda r: r[:3] + [wrong(r[3])] + r[4:])
    yield "oracle, one row off by 0.25 and failing", check(p=bad, code=1), False


def main() -> int:
    out = os.path.join(BENCH_DIR, "out", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    ok = True
    for cases in (sweep_cases, semigroup_cases, oracle_cases):
        for label, errors, accept in cases(out):
            good = (not errors) == accept
            ok &= good
            verdict = "accepted" if not errors else f"rejected ({errors[0]})"
            print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
