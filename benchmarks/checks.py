"""Correctness checks for the benchmark's campaigns, independent of mminf.

Nothing here imports the program. Kernel masses are recomputed in exact
integer arithmetic at the float parameters the program actually uses: a float
is a dyadic rational, so B(k, p) * Poisson(b) at lattice point m is

    e^(-b) * G(m) / (pd^k * bd^m * m!)

with G(m) an integer, p = P/pd and b = B/bd. The factor e^(-b) and the
denominators cancel from every ratio the inequalities compare, so a margin is
the log of a ratio of integers, which is decided exactly and evaluated to
about one ulp.

Every check returns a list of error strings; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

import numpy as np

LOG2 = math.log(2.0)
LOG_TWELVE = math.log(12.0)
LOG_MASS_FLOOR = math.log(1e-280)

# A verdict is compared with the exact sign only where the exact margin clears
# the program's error budget by this factor; nearer ties are judged by the
# margin check alone.
WIDE = 10.0

# How far the exact log-mass may sit from the untestable floor before the
# program's testable/untestable call is held against it.
FLOOR_SLACK = 1e-6

MAX_ERRORS = 20


# ---------------------------------------------------------------- exact kernel


def kernel_numerators(k: int, p: Fraction, b: Fraction, m_hi: int) -> list[int]:
    """G(0..m_hi) for B(k, p) * Poisson(b); see the module docstring."""
    big_p, pd = p.numerator, p.denominator
    big_q = pd - big_p
    big_b, bd = b.numerator, b.denominator
    binom = [
        math.comb(k, j) * big_p**j * big_q ** (k - j) * bd**j for j in range(k + 1)
    ]
    b_pow = [1]
    for _ in range(m_hi):
        b_pow.append(b_pow[-1] * big_b)
    out = []
    for m in range(m_hi + 1):
        total = 0
        falling = 1  # m! / (m - j)!
        for j in range(min(k, m) + 1):
            if j:
                falling *= m - j + 1
            total += binom[j] * b_pow[m - j] * falling
        out.append(total)
    return out


def log_ratio(num: int, den: int) -> float:
    """log(num / den) for positive integers, accurate to about one ulp of the
    result when the ratio is near 1."""
    e = num.bit_length() - den.bit_length()
    if e > 0:
        den <<= e
    elif e < 0:
        num <<= -e
    return math.log(num / den) + e * LOG2


def log_mass(g_num: int, k: int, m: int, p: Fraction, b: Fraction) -> float:
    """log of the mass e^(-b) G(m) / (pd^k bd^m m!); -inf for a zero mass."""
    if g_num == 0:
        return -math.inf
    return (
        math.log(g_num)
        - k * math.log(p.denominator)
        - m * math.log(b.denominator)
        - math.lgamma(m + 1)
        - float(b)
    )


def lemma_violated(rho: Fraction, p: Fraction, g: list[int], n: int) -> bool:
    """Exact form of G(n)^2 > K G(n+1) G(n-1), K = ((n+1)/n) / (1 - p^2/D^2),
    D = rho (1-p)^2 + p, on the integer numerators of one kernel row."""
    num, den = lemma_ratio(rho, p, g, n)
    return num < den


def lemma_ratio(rho: Fraction, p: Fraction, g: list[int], n: int) -> tuple[int, int]:
    """(num, den) with num/den = K G(n+1) G(n-1) / G(n)^2, so that the kernel
    margin is log(num/den). The factorials in K and in the masses cancel."""
    d2 = (rho * (1 - p) ** 2 + p) ** 2
    x = d2 - p * p
    num = d2.numerator * x.denominator * g[n + 1] * g[n - 1]
    den = x.numerator * d2.denominator * g[n] ** 2
    return num, den


# ------------------------------------------------------ the program's params


def used_params(rho: float, p: float, mu: float) -> tuple[float, float, float]:
    """(rho, p, b) as floats, derived from a requested (rho, p) the way a
    campaign does: lam = rho mu, t = -log(p)/mu, p = e^(-mu t),
    b = (lam/mu)(1 - e^(-mu t))."""
    lam = rho * mu
    t = -math.log(p) / mu
    rho_used = lam / mu
    return rho_used, math.exp(-mu * t), rho_used * -math.expm1(-mu * t)


# ----------------------------------------------------------------- CSV parsing


def read_report(path: str, command: str, header: list[str]) -> tuple[list, list]:
    """(rows, errors) of a mminf CSV report: comment line, header, rows."""
    errors = []
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(f"# mminf ") or f" {command} " not in first:
            errors.append(f"bad comment line {first.strip()!r}")
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        errors.append(f"bad header {rows[0] if rows else None}")
        return [], errors
    return rows[1:], errors


def _verdict_errors(row, where) -> list[str]:
    verdict = row[-1]
    margin, budget = row[-3], row[-2]
    if verdict == "untestable":
        if margin or budget:
            return [f"{where}: untestable row carries a margin"]
        return []
    try:
        m, e = float(margin), float(budget)
    except ValueError:
        return [f"{where}: unparsable margin/budget {margin!r} {budget!r}"]
    if not (math.isfinite(m) and math.isfinite(e) and e > 0):
        return [f"{where}: margin {m} / budget {e} not finite and positive"]
    expected = "pass" if m >= -e else "fail"
    if verdict != expected:
        return [f"{where}: verdict {verdict!r} but margin {m} vs budget {e}"]
    return []


def _exit_errors(exit_code, verdicts) -> list[str]:
    expected = 1 if "fail" in verdicts else 0
    if exit_code != expected:
        return [f"exit code {exit_code}, verdicts imply {expected}"]
    return []


# ----------------------------------------------------------------------- sweep


def check_sweep(
    path: str,
    exit_code: int,
    rhos,
    ps,
    mu: float,
    kmax: int,
    nmax: int,
    seed: int,
    sample: int,
    whole_cells=(),
) -> list[str]:
    """Check a `mminf sweep` report.

    Keys must be exactly the grid, in (rho, p, k, n) order; verdicts must
    follow margin and budget; the exit code must be 1 exactly when a row
    fails. Every case of `whole_cells` and `sample` seeded cases besides are
    recomputed exactly: each margin must lie within its budget of the exact
    margin, each verdict must agree with the exact sign where that clears the
    budget by WIDE, and testability must agree with the mass floor.
    """
    header = ["rho", "p", "k", "n", "margin", "error_budget", "verdict"]
    rows, errors = read_report(path, "sweep", header)
    if errors:
        return errors
    cells = sorted(used_params(r, p, mu) + (r, p) for r in rhos for p in ps)
    expected = [
        (rho, p, k, n)
        for rho, p, _, _, _ in cells
        for k in range(kmax + 1)
        for n in range(1, nmax + 1)
    ]
    if len(rows) != len(expected):
        errors.append(f"{len(rows)} rows, grid has {len(expected)}")
    for i, (row, key) in enumerate(zip(rows, expected)):
        got = (float(row[0]), float(row[1]), int(row[2]), int(row[3]))
        if got != key:
            errors.append(f"row {i}: key {got}, expected {key}")
            break
    if errors:
        return errors
    for i, row in enumerate(rows):
        errors += _verdict_errors(row, f"row {i}")
        if len(errors) >= MAX_ERRORS:
            return errors
    errors += _exit_errors(exit_code, {row[-1] for row in rows})

    per_cell = kmax * nmax + nmax
    by_cell = {(r, p): ci for ci, (_, _, _, r, p) in enumerate(cells)}
    picks = set()
    for cell in whole_cells:
        if cell in by_cell:
            ci = by_cell[cell]
            picks.update(range(ci * per_cell, (ci + 1) * per_cell))
    rng = random.Random(seed)
    picks.update(rng.sample(range(len(rows)), min(sample, len(rows))))
    by_row = {}
    for i in sorted(picks):
        by_row.setdefault((i // per_cell, (i % per_cell) // nmax), []).append(i)
    for (ci, k), idx in by_row.items():
        rho, p, b, _, _ = cells[ci]
        errors += _exact_lemma_rows(
            rows, idx, Fraction(rho), Fraction(p), Fraction(b), k
        )
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def _exact_lemma_rows(rows, idx, rho, p, b, k) -> list[str]:
    n_hi = max(int(rows[i][3]) for i in idx) + 1
    g = kernel_numerators(k, p, b, n_hi)
    errors = []
    for i in idx:
        row = rows[i]
        n = int(row[3])
        where = f"row {i} (rho={row[0]} p={row[1]} k={k} n={n})"
        lowest = min(log_mass(g[m], k, m, p, b) for m in (n - 1, n, n + 1))
        if row[-1] == "untestable":
            if lowest > LOG_MASS_FLOOR + FLOOR_SLACK:
                errors.append(f"{where}: untestable, but exact log-mass {lowest}")
            continue
        if lowest < LOG_MASS_FLOOR - FLOOR_SLACK:
            errors.append(f"{where}: testable, but exact log-mass {lowest}")
            continue
        errors += _margin_errors(where, row, log_ratio(*lemma_ratio(rho, p, g, n)))
    return errors


def _margin_errors(where, row, exact: float) -> list[str]:
    margin, budget, verdict = float(row[-3]), float(row[-2]), row[-1]
    if not abs(margin - exact) <= budget:
        return [f"{where}: margin {margin}, exact {exact}, budget {budget}"]
    if abs(exact) > WIDE * budget and verdict != ("pass" if exact > 0 else "fail"):
        return [f"{where}: verdict {verdict}, exact margin {exact}"]
    return []


def check_same_bytes(path: str, reference: str) -> list[str]:
    with open(path, "rb") as a, open(reference, "rb") as b:
        if a.read() != b.read():
            return [f"{path} differs from {reference}"]
    return []


# ------------------------------------------------------------------- semigroup


def check_semigroup(
    arrays, exit_code, cells, tables, mu, nmax, seed, sample
) -> list[str]:
    """Check the criterion-4 campaign.

    `arrays` holds margin and budget of shape (cells, tables, 2, nmax), the
    third axis being (sharp, 1/12), NaN where untestable. The 1/12 margin
    minus the sharp margin must be log 12 within four ulps everywhere, and
    `sample` seeded (cell, table) reports are recomputed exactly as
    sum_m f(m) G_n(m).
    """
    margin, budget = arrays["margin"], arrays["budget"]
    shape = (len(cells), len(tables), 2, nmax)
    errors = []
    if exit_code != 0:
        errors.append(f"campaign exit code {exit_code}")
    if margin.shape != shape or budget.shape != shape:
        return errors + [f"report arrays {margin.shape}, expected {shape}"]
    testable = ~np.isnan(margin)
    if not np.array_equal(testable[:, :, 0], testable[:, :, 1]):
        errors.append("sharp and 1/12 reports disagree on testability")
    if not np.all(budget[testable] > 0):
        errors.append("a testable case has a non-positive budget")
    both = testable[:, :, 0] & testable[:, :, 1]
    ms, mg = margin[:, :, 0][both], margin[:, :, 1][both]
    scale = np.maximum(np.maximum(np.abs(ms), np.abs(mg)), LOG_TWELVE)
    off = np.abs((mg - ms) - LOG_TWELVE)
    bad = off > 4.0 * np.spacing(scale)
    if bad.any():
        errors.append(
            f"{int(bad.sum())} cases break the log 12 offset, worst {off.max():.3e}"
        )
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(len(cells) * len(tables)), sample))
    by_cell = {}
    for pick in picks:
        by_cell.setdefault(pick // len(tables), []).append(pick % len(tables))
    for ci, table_ids in by_cell.items():
        rho, p = cells[ci]
        rho_u, p_u, b_u = used_params(rho, p, mu)
        errors += _exact_theorem_cell(
            margin[ci], budget[ci], [tables[t] for t in table_ids], table_ids,
            Fraction(rho_u), Fraction(p_u), Fraction(b_u), nmax, f"rho={rho} p={p}",
        )
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def _exact_theorem_cell(margin, budget, tables, table_ids, rho, p, b, nmax, where):
    d2 = (rho * (1 - p) ** 2 + p) ** 2
    sharp = math.log1p(-float(p * p / d2))
    m_hi = max(m for t in tables for m, _ in t)
    # g[n][m] over the common denominator bd^m_hi m_hi! of every m <= m_hi;
    # the factor pd^n of row n cancels from the Laplacian
    scale = [b.denominator ** (m_hi - m) * math.factorial(m_hi) // math.factorial(m)
             for m in range(m_hi + 1)]
    rows = [kernel_numerators(n, p, b, m_hi) for n in range(nmax + 2)]
    errors = []
    for table, tid in zip(tables, table_ids):
        vals = [(m, Fraction(v)) for m, v in table]
        v_den = math.lcm(*(v.denominator for _, v in vals))
        weights = [
            (m, v.numerator * (v_den // v.denominator) * scale[m]) for m, v in vals
        ]
        a = [sum(w * rows[n][m] for m, w in weights) for n in range(nmax + 2)]
        log_den = (
            math.log(v_den) + m_hi * math.log(b.denominator) + math.lgamma(m_hi + 1)
        )
        log_a = [math.log(a[n]) - n * math.log(p.denominator) - log_den - float(b)
                 for n in range(nmax + 2)]
        floor = LOG_MASS_FLOOR + math.log(max(v for _, v in table))
        for n in range(1, nmax + 1):
            at = f"{where} table {tid} n={n}"
            lowest = min(log_a[n - 1 : n + 2])
            if math.isnan(margin[tid, 0, n - 1]):
                if lowest > floor + FLOOR_SLACK:
                    errors.append(f"{at}: untestable, log A_t f {lowest}")
                continue
            if lowest < floor - FLOOR_SLACK:
                errors.append(f"{at}: testable, log A_t f {lowest}")
                continue
            exact = log_ratio(a[n + 1] * a[n - 1], a[n] ** 2) - sharp
            for j, bound_shift in ((0, 0.0), (1, LOG_TWELVE)):
                row = (margin[tid, j, n - 1], budget[tid, j, n - 1],
                       _verdict(margin[tid, j, n - 1], budget[tid, j, n - 1]))
                errors += _margin_errors(f"{at} bound {j}", row, exact + bound_shift)
    return errors


def _verdict(margin, budget):
    return "pass" if margin >= -budget else "fail"


# ---------------------------------------------------------------------- oracle


def check_oracle(
    path, exit_code, rhos, ps, kmax, tol, row_sum_dev, exact_grid, violations,
    seed, sample_cells,
) -> list[str]:
    """Check an `mminf oracle-check` report and the exact lemma checks.

    The report must hold one row per (rho, p, k) in key order, each with a
    discrepancy within 10 tol and verdict pass, and the exit code must be 0:
    the truncation N is chosen so that no boundary leak occurs, so a failing
    row means the kernel and the uniformization disagree, a fault of the
    program. Every uniformized row must sum to 1 within tol.
    The exact violations at rho = 2, p = 1/10 must include (k, n) = (2, 1),
    where G_2(1)^2 / [G_2(2) G_2(0)] = 16562/8231, and `sample_cells` seeded
    cells of the rational grid are recomputed in full.
    """
    header = ["rho", "p", "k", "max_abs_discrepancy", "tol", "verdict"]
    rows, errors = read_report(path, "oracle-check", header)
    if errors:
        return errors
    expected = [
        (r, p, k) for r in sorted(rhos) for p in sorted(ps) for k in range(kmax + 1)
    ]
    got = [(float(r[0]), float(r[1]), int(r[2])) for r in rows]
    if got != expected:
        errors.append(f"{len(got)} rows; keys differ from the {len(expected)}-row grid")
    for i, row in enumerate(rows):
        disc, row_tol = float(row[3]), float(row[4])
        if row_tol != tol or not 0 <= disc <= 10.0 * tol or row[5] != "pass":
            errors.append(f"row {i}: {row}")
        if len(errors) >= MAX_ERRORS:
            return errors
    if exit_code != 0:
        errors.append(f"exit code {exit_code}, every row passes")
    if not row_sum_dev or not max(row_sum_dev) <= tol:
        errors.append(f"uniformized row sums off 1 by {max(row_sum_dev, default=None)}")

    rho, p = Fraction(2), Fraction(1, 10)
    g = kernel_numerators(2, p, rho * (1 - p), 2)
    # the masses are G(m) / (c m!), so the 2 is 2! / (1! 1!)
    ratio = Fraction(2 * g[1] ** 2, g[2] * g[0])
    if ratio != Fraction(16562, 8231) or not lemma_violated(rho, p, g, 1):
        errors.append(f"exact G_2(1)^2/[G_2(2)G_2(0)] = {ratio}, not 16562/8231 > K")
    pinned = [
        v for (r, q, _, _), v in zip(exact_grid, violations)
        if (Fraction(r), Fraction(q)) == (rho, p)
    ]
    if not pinned or [2, 1] not in pinned[0]:
        errors.append("exact violations at rho=2 p=1/10 miss (k, n) = (2, 1)")
    rng = random.Random(seed)
    for ci in rng.sample(range(len(exact_grid)), min(sample_cells, len(exact_grid))):
        r, q, k_max, n_max = exact_grid[ci]
        r, q = Fraction(r), Fraction(q)
        want = []
        for k in range(k_max + 1):
            g = kernel_numerators(k, q, r * (1 - q), n_max + 1)
            want += [[k, n] for n in range(1, n_max + 1) if lemma_violated(r, q, g, n)]
        if violations[ci] != want:
            errors.append(f"exact violations at rho={r} p={q} differ when recomputed")
    return errors
