"""The sharp semi-log-convexity constants and grid verification of the inequalities.

All comparisons happen in the log domain with an explicit additive error
budget: a case passes when its margin (left side minus right side of the
inequality) is at least minus the budget. Entries whose certified mass falls
below MASS_FLOOR are reported as untestable rather than pass, because
ratios of sub-denormal masses carry no information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .distributions import LOG_ZERO, convolution_log_matrix
from .kernel import (
    Observable,
    QueueParams,
    _entry_log_error,
    _log_semigroup_profile,
    kernel_log_matrix,
)
# not called here, but benchmarks/tracing.py wraps
# mminf.bounds.log_semigroup_apply by name, and without it every traced
# benchmark round fails to start
from .kernel import log_semigroup_apply  # noqa: F401

LOG_TWELVE = math.log(12.0)

# ratios of masses below this floor carry no information: the inequality
# checks report such points untestable rather than pass
MASS_FLOOR = 1e-280
LOG_MASS_FLOOR = math.log(MASS_FLOOR)


def sharp_bound(rho: float, p: float) -> float:
    """Sharp lower bound on the discrete Laplacian of the log-semigroup:
    log(1 - p^2 / [p + rho(1-p)^2]^2). Zero at p=0, -inf at p=1."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p == 1.0:
        return LOG_ZERO
    e = rho * (1.0 - p) ** 2
    ratio = (p / (p + e)) ** 2
    if ratio <= 0.5:  # log1p keeps the relative precision of a small ratio
        return math.log1p(-ratio)
    c = _one_minus_ratio_squared(p, e)
    return math.log(c) if c > 0.0 else LOG_ZERO  # c = 0 where e underflows


def glmrs_bound(rho: float, p: float) -> float:
    """The earlier, non-sharp bound: the sharp one weakened by a factor 1/12."""
    return sharp_bound(rho, p) - LOG_TWELVE


def lemma_K(rho: float, p: float, n: int) -> float:
    """Semi-ultra-log-convexity constant K of the kernel rows at lattice point n:
    K = ((n+1)/n) / (1 - p^2 / [rho(1-p)^2 + p]^2).

    The value is >= (n+1)/n, the ultra-log-convexity constant of the Poisson
    row, with equality (bit for bit) at p = 0; inf means the constant blows up,
    as it does at p = 1."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if n < 1:
        raise ValueError(f"lattice point must be >= 1, got {n}")
    return _ultra_log_convex_ratio(n, _one_minus_ratio_squared(p, rho * (1.0 - p) ** 2))


def remark_M(a: float, b: float, n: int) -> float:
    """Generalized constant for binomial(k, a) * Poisson(b) rows,
    M = ((n+1)/n) / (1 - a^2 / [(1-a)b + a]^2); reduces to lemma_K when a = p
    and b = rho(1-p), for finite b >= 0.

    The value is >= (n+1)/n, with equality (bit for bit) at a = 0; inf means
    the constant blows up, as it does at a = 1 or b = 0."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0,1], got {a}")
    if not 0.0 <= b < math.inf:
        raise ValueError(f"b must be finite and non-negative, got {b}")
    if n < 1:
        raise ValueError(f"lattice point must be >= 1, got {n}")
    if a == 0.0 and b == 0.0:
        raise ValueError("degenerate input: a = 0 and b = 0")
    return _ultra_log_convex_ratio(n, _one_minus_ratio_squared(a, (1.0 - a) * b))


def _one_minus_ratio_squared(a: float, e: float) -> float:
    # 1 - (a/d)^2 with d = a + e, formed as (e/d)((e + 2a)/d). e = (1-a)b is
    # a product, so every term keeps its relative precision; at small
    # x = e/a, 1 - (a/d)^2 ~ 2x would lose it to cancellation. Where a/d is
    # tiny the product can round above 1, so it is clamped there
    d = a + e
    return min((e / d) * ((e + 2.0 * a) / d), 1.0)


def _ultra_log_convex_ratio(n: int, denom: float) -> float:
    # ((n+1)/n) / denom, rounding (n+1)/n once: a correctly rounded division
    # by denom <= 1 cannot fall below it, and denom = 1 returns it exactly
    if denom <= 0.0:
        return math.inf
    return ((n + 1) / n) / denom


def log_laplacian(h_minus: float, h_mid: float, h_plus: float) -> float:
    """Discrete Laplacian of log h at an interior point: log(h+ h- / h^2)."""
    if h_minus <= 0 or h_mid <= 0 or h_plus <= 0:
        raise ValueError("log_laplacian requires strictly positive values")
    return math.log(h_plus) + math.log(h_minus) - 2.0 * math.log(h_mid)


class CaseResult(NamedTuple):
    key: tuple
    margin: float
    budget: float
    testable: bool = True

    @property
    def passed(self) -> bool:
        return self.testable and self.margin >= -self.budget


@dataclass
class VerificationReport:
    """One cell's inequality margins at lattice points n = 1..n_max, as arrays.

    Arrays of shape (rows, n_max) hold rows k = 0, 1, ... whose cases are
    keyed prefix + (k, n); arrays of shape (n_max,) hold one unkeyed row whose
    cases are keyed prefix + (n,). budgets broadcasts against margins: a
    semigroup report holds one float for all its cases. A case passes
    when it is testable and its margin is at least minus its budget."""

    prefix: tuple
    margins: np.ndarray
    budgets: np.ndarray | float
    testable: np.ndarray

    def _row_keys(self) -> list:
        """The key prefix of each row: case n of row k is keyed
        _row_keys()[k] + (n,)."""
        if self.margins.ndim == 1:
            return [self.prefix]
        return [self.prefix + (k,) for k in range(len(self.margins))]

    def rows(self):
        """(key prefix, margins, budgets, testable) of each row, as Python
        values in key order; a float budget is one object for every case."""
        margins, testable = self.margins.tolist(), self.testable.tolist()
        b = self.budgets
        budgets = repeat(b) if isinstance(b, float) else b.tolist()
        if self.margins.ndim == 1:
            margins, budgets, testable = [margins], [budgets], [testable]
        return zip(self._row_keys(), margins, budgets, testable)

    @cached_property
    def cases(self) -> list:
        """Every case as a CaseResult, in key order; built on first read."""
        # tuple.__new__ fills each record in C, without a Python-level
        # CaseResult.__new__ call per case; the records of a row whose cases
        # are all testable are keyed and filled by zip and map alone
        new, cases = tuple.__new__, []
        for key, margins, budgets, testable in self.rows():
            keys = zip(*map(repeat, key), count(1))  # key + (n,), n = 1, 2, ...
            fields = zip(keys, margins, budgets, testable)
            if all(testable):
                cases += map(new, repeat(CaseResult), fields)
            else:  # an untestable case keeps no margin and no budget
                cases += [
                    new(CaseResult, f if f[3] else (f[0], math.nan, 0.0, False))
                    for f in fields
                ]
        return cases

    @property
    def verdict(self) -> bool:
        return bool(np.all((self.margins >= -self.budgets) | ~self.testable))

    @property
    def worst_case(self):
        """The first testable case of least margin, or None; the one record
        of .cases it names, built without the others."""
        where = np.flatnonzero(self.testable)
        if where.size == 0:
            return None
        i = where[np.argmin(self.margins.ravel()[where])]
        k, n = divmod(int(i), self.margins.shape[-1])
        budget = np.broadcast_to(self.budgets, self.margins.shape).flat[i]
        return CaseResult(
            self._row_keys()[k] + (n + 1,), self.margins.flat[i].item(), budget.item()
        )

    @property
    def error_budget(self) -> float:
        budgets = np.broadcast_to(self.budgets, self.margins.shape)
        return float(budgets[self.testable].max(initial=0.0))


def _verify_rows(g: np.ndarray, log_const, prefix: tuple) -> VerificationReport:
    """The cases of log_const(n) + g[k, n+1] + g[k, n-1] - 2 g[k, n] >= 0 for
    every row k of the block g of log masses and 1 <= n <= g.shape[1] - 2."""
    n_max = g.shape[1] - 2
    lc = np.array([log_const(n) for n in range(1, n_max + 1)])
    lm, l0, lp = g[:, :-2], g[:, 1:-1], g[:, 2:]
    testable = np.minimum(np.minimum(lm, l0), lp) >= LOG_MASS_FLOOR
    with np.errstate(invalid="ignore"):  # -inf - -inf where untestable
        margins = lc + lp + lm - 2.0 * l0
    # an entry of row k sums k + 1 log-sum-exp terms
    n_terms = np.arange(1.0, g.shape[0] + 1.0)[:, None]
    budgets = (
        _entry_log_error(lp, n_terms)
        + _entry_log_error(lm, n_terms)
        + 2.0 * _entry_log_error(l0, n_terms)
        + 1e-14
    )
    return VerificationReport(prefix, margins, budgets, testable)


def verify_kernel_lemma(
    params: QueueParams, t: float, k_max: int, n_max: int
) -> VerificationReport:
    """Check G_k(n)^2 <= K * G_k(n+1) * G_k(n-1) for k <= k_max, 1 <= n <= n_max."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    rho, p = params.rho, params.p(t)
    g = kernel_log_matrix(params, t, k_max, n_max + 1)
    return _verify_rows(g, lambda n: math.log(lemma_K(rho, p, n)), (rho, p))


def verify_generalized(
    a: float, b: float, k_max: int, n_max: int
) -> VerificationReport:
    """Check H_k(n)^2 <= M * H_k(n+1) * H_k(n-1) for H_k = B(k,a) * Poisson(b)."""
    if a == 0.0 and b == 0.0:
        raise ValueError("degenerate input: a = 0 and b = 0")
    g = convolution_log_matrix(a, b, k_max, n_max + 1)
    return _verify_rows(g, lambda n: math.log(remark_M(a, b, n)), (a, b))


def verify_theorem(
    params: QueueParams,
    t: float,
    f: Observable,
    n_max: int,
    against: str = "sharp",
) -> VerificationReport:
    """Check the semi-log-convexity of the semigroup: the discrete Laplacian
    of log A_t f at every 1 <= n <= n_max dominates the (sharp or 1/12) bound."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if against not in ("sharp", "glmrs"):
        raise ValueError(f"unknown bound {against!r}")
    rho, p = params.rho, params.p(t)
    bound = sharp_bound(rho, p) if against == "sharp" else glmrs_bound(rho, p)
    logs, err = _log_semigroup_profile(params, t, f, 0, n_max + 1)
    lm, l0, lp = logs[:-2], logs[1:-1], logs[2:]
    floor = LOG_MASS_FLOOR + math.log(max(f.sup, 1e-300))
    if np.minimum.reduce(logs) >= floor:  # lm, l0, lp cover every value
        testable = np.ones(n_max, dtype=bool)
        margins = (lp + lm - 2.0 * l0) - bound
    else:
        testable = np.minimum(np.minimum(lm, l0), lp) >= floor
        with np.errstate(invalid="ignore"):  # -inf - -inf where untestable
            margins = (lp + lm - 2.0 * l0) - bound
    # over the four terms of each case's margin
    return VerificationReport((rho, p), margins, 4.0 * err + 1e-14, testable)


def sharpness_decay(params: QueueParams, f: Observable, n: int, t_sequence) -> list:
    """Magnitudes of both sides of the sharp inequality along increasing t;
    both vanish in the long-time limit for every observable."""
    if n < 1:
        raise ValueError(f"lattice point must be >= 1, got {n}")
    out = []
    for t in t_sequence:
        logs, _ = _log_semigroup_profile(params, t, f, n - 1, n + 1)
        lm, l0, lp = logs.tolist()
        lhs = abs(lp + lm - 2.0 * l0)
        rhs = abs(sharp_bound(params.rho, params.p(t)))
        out.append((t, lhs, rhs))
    return out
