"""Command-line front door: verification campaigns, oracle cross-checks,
sharpness runs and parameter sweeps, all emitting deterministic CSV.

Exit codes: 0 all verdicts pass, 1 any fail, 2 usage error, 3 when --strict
is set and some cases were untestable at this precision.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    sharpness_decay,
    verify_generalized,
    verify_kernel_lemma,
    verify_theorem,
)
from .kernel import Observable, QueueParams, kernel_log_matrix
# not called here, but benchmarks/tracing.py wraps mminf.cli.kernel_entry by
# name, and without it every traced benchmark round fails to start
from .kernel import kernel_entry  # noqa: F401
from .oracle import uniformized_kernel

DEFAULT_RHO = [0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
DEFAULT_P = [round(0.05 * i, 2) for i in range(1, 20)]

# the values a command uses for a grid option that is not given
GRID_DEFAULTS = {
    "verify-lemma": {"rho": DEFAULT_RHO, "p": DEFAULT_P},
    "sweep": {"rho": DEFAULT_RHO, "p": DEFAULT_P},
    "verify-theorem": {
        "rho": [0.5, 1.0, 2.0],
        "p": [round(0.1 * i, 1) for i in range(1, 10)],
    },
    "verify-generalized": {
        "a": [0.0, 0.25, 0.5, 0.75, 0.9],
        "b": [0.0, 0.5, 1.0, 2.0, 5.0],
    },
    "oracle-check": {"rho": [0.5, 1.0, 2.0, 5.0], "p": [0.1, 0.5, 0.9]},
    "sharpness": {"t": [1.0, 2.0, 4.0, 8.0, 16.0]},
}


@dataclass
class RunConfig:
    command: str
    options: dict


def parse_observable(spec: str) -> Observable:
    """Parse 'table:0=1,1=3,4=2' or 'indicator:0..3' / 'indicator:0,1,5'."""
    kind, _, body = spec.partition(":")
    if kind == "table" and body:
        items = [item.partition("=") for item in body.split(",")]
        table = {int(n_str): float(v_str) for n_str, _, v_str in items}
        if len(table) < len(items):
            raise ValueError(f"{spec!r} gives a point twice")
        return Observable.from_table(table)
    if kind == "indicator" and body:
        if ".." in body:
            lo_str, hi_str = body.split("..")
            points = range(int(lo_str), int(hi_str) + 1)
        else:
            points = [int(x) for x in body.split(",")]
        return Observable.indicator(points)
    raise ValueError(f"cannot parse observable spec {spec!r}")


def _add_common(p: argparse.ArgumentParser, jobs: bool = True, strict: bool = True):
    p.add_argument("--out", type=str, default=None)
    if strict:  # only commands with untestable verdicts can fail under it
        p.add_argument("--strict", action="store_true")
    if jobs:  # only grid commands have cells to share among processes
        p.add_argument("--jobs", type=int, default=1)


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="mminf",
        description="Certified verification of infinite-server queue "
        "semi-log-convexity inequalities.",
    )
    sub = parser.add_subparsers(dest="command")

    lemma = argparse.ArgumentParser(add_help=False)  # verify-lemma and sweep
    lemma.add_argument("--rho", type=float, action="append")
    lemma.add_argument("--p", type=float, action="append")
    lemma.add_argument("--mu", type=float, default=1.0)
    lemma.add_argument("--kmax", type=int, default=30)
    lemma.add_argument("--nmax", type=int, default=60)
    _add_common(lemma)
    sub.add_parser(
        "verify-lemma", help="kernel semi-ultra-log-convexity", parents=[lemma]
    )

    p = sub.add_parser("verify-theorem", help="semigroup semi-log-convexity")
    p.add_argument("--rho", type=float, action="append")
    p.add_argument("--p", type=float, action="append")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--f", type=str, default="indicator:0..3")
    p.add_argument("--bound", choices=["sharp", "glmrs"], default="sharp")
    _add_common(p)

    p = sub.add_parser(
        "verify-generalized", help="binomial*Poisson semi-ultra-log-convexity"
    )
    p.add_argument("--a", type=float, action="append")
    p.add_argument("--b", type=float, action="append")
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--nmax", type=int, default=40)
    _add_common(p)

    p = sub.add_parser("oracle-check", help="kernel vs uniformization oracle")
    p.add_argument("--rho", type=float, action="append")
    p.add_argument("--p", type=float, action="append")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--N", type=int, default=80)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p, strict=False)

    p = sub.add_parser("sharpness", help="both sides of the sharp bound over t")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--f", type=str, default="indicator:0..1")
    p.add_argument("--t", type=float, action="append")
    p.add_argument("--delta", type=float, default=1e-6)
    _add_common(p, jobs=False, strict=False)

    sub.add_parser("sweep", help="verify-lemma over the default grid", parents=[lemma])

    ns, extra = parser.parse_known_args(argv)
    if ns.command is None:
        parser.print_help(sys.stderr)
        raise SystemExit(2)
    opts = vars(ns).copy()
    command = opts.pop("command")
    command_parser = sub.choices[command]  # its errors show its own usage
    if extra:
        command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    _validate(command, opts, command_parser)
    return RunConfig(command=command, options=opts)


def _values(command, opts, name) -> list:
    """The values of an option as a list, or the command's grid defaults."""
    vals = opts.get(name)
    if vals is None:
        vals = GRID_DEFAULTS.get(command, {}).get(name, [])
    return vals if isinstance(vals, list) else [vals]


def _validate(command, opts, parser):
    def require(name, ok, what):
        for v in _values(command, opts, name):
            if not (math.isfinite(v) and ok(v)):
                parser.error(f"--{name} values must be {what}, got {v}")

    require("p", lambda v: 0.0 < v < 1.0, "in (0,1)")
    require("a", lambda v: 0.0 <= v <= 1.0, "in [0,1]")
    for name in ("b", "delta"):
        require(name, lambda v: v >= 0.0, "finite and non-negative")
    for name in ("rho", "mu", "t", "tol"):
        require(name, lambda v: v > 0.0, "finite and positive")
    require("kmax", lambda v: v >= 0, "non-negative")
    n_min = 0 if command == "oracle-check" else 1  # the first n a command checks
    require("nmax", lambda v: v >= n_min, f">= {n_min}")
    for name in ("n", "jobs"):
        require(name, lambda v: v >= 1, ">= 1")
    if "mu" in opts:  # each such command runs at arrival rate rho * mu
        mu = opts["mu"]
        what = f"such that rho * {mu} is finite and positive"
        require("rho", lambda v: 0.0 < v * mu < math.inf, what)
        what = f"such that the kernel's horizon -log(p) / {mu} is finite"
        require("p", lambda v: -math.log(v) / mu < math.inf, what)
    if command == "oracle-check":
        need = max(opts["kmax"], opts["nmax"], 1)
        if opts["N"] < need:
            parser.error(f"--N must be >= max(--kmax, --nmax, 1) = {need}")
    if opts.get("f") is not None:
        try:
            parse_observable(opts["f"])
        except (ValueError, KeyError) as exc:
            parser.error(f"bad --f spec: {exc}")
    if command != "sharpness" and not _grid(command, opts)[1]:
        parser.error("the grid has no cell to check (a = 0 with b = 0 is degenerate)")


def _report_rows(report):
    """A report's cases as CSV text in key order, formatted from its arrays,
    and whether they hold a fail or an untestable verdict, read from the same
    arrays (the exit code reads no other verdict)."""
    lines = []
    for key, margins, budgets, testable in report.rows():
        head = "%.17g," * len(key) % key  # prints int keys as str() does
        cases = zip(itertools.count(1), margins, budgets, testable)
        lines += [
            f"{head}{n},{margin:.17g},{budget:.17g},"
            f"{'pass' if margin >= -budget else 'fail'}\r\n"
            if ok
            else f"{head}{n},,,untestable\r\n"
            for n, margin, budget, ok in cases
        ]
    verdicts = {
        "pass" if report.verdict else "fail",
        "pass" if report.testable.all() else "untestable",
    }
    return "".join(lines), verdicts


def _lemma_cell(args):
    rho, p, mu, kmax, nmax = args
    params = QueueParams(lam=rho * mu, mu=mu)
    return _report_rows(verify_kernel_lemma(params, params.t_for_p(p), kmax, nmax))


def _theorem_cell(args):
    rho, p, mu, nmax, f_spec, bound = args
    params = QueueParams(lam=rho * mu, mu=mu)
    f = parse_observable(f_spec)
    return _report_rows(
        verify_theorem(params, params.t_for_p(p), f, nmax, against=bound)
    )


def _generalized_cell(args):
    a, b, kmax, nmax = args
    return _report_rows(verify_generalized(a, b, kmax, nmax))


def _oracle_cell(args):
    rho, p, mu, kmax, nmax, big_n, tol = args
    params = QueueParams(lam=rho * mu, mu=mu)
    t = params.t_for_p(p)
    mat = uniformized_kernel(params, t, big_n, tol)
    exact = np.exp(kernel_log_matrix(params, t, kmax, nmax))
    discs = np.abs(exact - mat[: kmax + 1, : nmax + 1]).max(axis=1)
    text = "".join(
        f"{rho:.17g},{p:.17g},{k},{disc:.17g},{tol:.17g},"
        f"{'pass' if disc <= 10.0 * tol else 'fail'}\r\n"
        for k, disc in enumerate(discs.tolist())
    )
    return text, {"pass" if (discs <= 10.0 * tol).all() else "fail"}


def _grid(command, o):
    """The worker of a grid command, its cells (one worker call each) and the
    CSV header line of the rows the worker returns."""

    # distinct values, ascending: cells run, and rows come out, in grid order
    def product(*names):
        return itertools.product(
            *(sorted(set(_values(command, o, name))) for name in names)
        )

    checked = "margin,error_budget,verdict\r\n"
    if command in ("verify-lemma", "sweep"):
        cells = [
            (rho, p, o["mu"], o["kmax"], o["nmax"]) for rho, p in product("rho", "p")
        ]
        return _lemma_cell, cells, "rho,p,k,n," + checked
    if command == "verify-theorem":
        cells = [
            (rho, p, o["mu"], o["nmax"], o["f"], o["bound"])
            for rho, p in product("rho", "p")
        ]
        return _theorem_cell, cells, "rho,p,n," + checked
    if command == "verify-generalized":
        cells = [
            (a, b, o["kmax"], o["nmax"])
            for a, b in product("a", "b")
            if not (a == 0.0 and b == 0.0)
        ]
        return _generalized_cell, cells, "a,b,k,n," + checked
    if command == "oracle-check":
        cells = [
            (rho, p, o["mu"], o["kmax"], o["nmax"], o["N"], o["tol"])
            for rho, p in product("rho", "p")
        ]
        header = "rho,p,k,max_abs_discrepancy,tol,verdict\r\n"
        return _oracle_cell, cells, header
    raise ValueError(f"unknown command {command!r}")


def _run_cells(cells, worker, jobs):
    """Each cell's text and verdicts, in cell order, computed as they are
    asked for."""
    jobs = min(jobs, len(cells))  # the pool starts every worker up front
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(worker, cells)
    else:
        yield from map(worker, cells)


def run(config: RunConfig) -> int:
    o = config.options
    if config.command == "sharpness":
        t_vals = sorted(set(_values("sharpness", o, "t")))
        params = QueueParams(lam=o["rho"] * o["mu"], mu=o["mu"])
        f = parse_observable(o["f"])
        *decay, (t, lhs, rhs) = sharpness_decay(params, f, o["n"], t_vals)
        verdict = "pass" if max(lhs, rhs) <= o["delta"] else "fail"
        row = "{:.17g},{:.17g},{:.17g},{}\r\n".format
        text = "".join(row(*case, "na") for case in decay) + row(t, lhs, rhs, verdict)
        header = "t,laplacian_abs,bound_abs,verdict\r\n"
        chunks = [(text, {verdict})]
    else:
        worker, cells, header = _grid(config.command, o)
        chunks = _run_cells(cells, worker, o["jobs"])

    out_path = o.get("out")
    if out_path is None:
        out_dir = os.environ.get("MMINF_OUT_DIR", ".")
        out_path = os.path.join(out_dir, f"{config.command}.csv")
    echo = " ".join(
        f"{k}={v}"
        for k, v in sorted(o.items())
        if k not in ("out", "jobs") and v is not None
    )
    try:
        fh = open(out_path, "w", newline="")
    except OSError as exc:
        print(f"mminf: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    verdicts = set()
    with fh:
        fh.write(f"# mminf {__version__} {config.command} {echo}\n{header}")
        for text, cell_verdicts in chunks:  # each cell is written as it finishes
            fh.write(text)
            verdicts |= cell_verdicts

    if "fail" in verdicts:
        return 1
    if o.get("strict") and "untestable" in verdicts:
        return 3
    return 0


def main(argv=None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else list(argv))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
