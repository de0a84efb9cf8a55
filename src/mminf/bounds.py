"""The sharp semi-log-convexity constants and grid verification of the inequalities.

All comparisons happen in the log domain with an explicit additive error
budget: a case passes when its margin (left side minus right side of the
inequality) is at least minus the budget. Entries whose certified mass falls
below kernel.MASS_FLOOR are reported as untestable rather than pass, because
ratios of sub-denormal masses carry no information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .distributions import LOG_ZERO, convolution_log_matrix
from .kernel import (
    DEFAULT_DEFICIT,
    LOG_MASS_FLOOR,
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


def sharp_bound(rho: float, p: float) -> float:
    """Sharp lower bound on the discrete Laplacian of the log-semigroup:
    log(1 - p^2 / [p + rho(1-p)^2]^2). Zero at p=0, -inf at p=1."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p == 1.0:
        return LOG_ZERO
    d = p + rho * (1.0 - p) ** 2
    ratio = (p / d) ** 2
    if ratio >= 1.0:
        return LOG_ZERO
    return math.log1p(-ratio)


def glmrs_bound(rho: float, p: float) -> float:
    """The earlier, non-sharp bound: the sharp one weakened by a factor 1/12."""
    return sharp_bound(rho, p) - LOG_TWELVE


def lemma_K(rho: float, p: float, n: int) -> float:
    """Semi-ultra-log-convexity constant K of the kernel rows at lattice point n:
    K = ((n+1)/n) / (1 - p^2 / [rho(1-p)^2 + p]^2).

    The value is >= (n+1)/n, the ultra-log-convexity constant of the Poisson
    row, with equality (bit for bit) at p = 0; inf means the constant blows up,
    as it does at p = 1."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if n < 1:
        raise ValueError(f"lattice point must be >= 1, got {n}")
    d = rho * (1.0 - p) ** 2 + p
    return _ultra_log_convex_ratio(n, 1.0 - (p / d) ** 2)


def remark_M(a: float, b: float, n: int) -> float:
    """Generalized constant for binomial(k, a) * Poisson(b) rows,
    M = ((n+1)/n) / (1 - a^2 / [(1-a)b + a]^2); reduces to lemma_K when a = p
    and b = rho(1-p). b is accepted on [0, inf).

    The value is >= (n+1)/n, with equality (bit for bit) at a = 0; inf means
    the constant blows up, as it does at a = 1 or b = 0."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0,1], got {a}")
    if b < 0:
        raise ValueError(f"b must be non-negative, got {b}")
    if n < 1:
        raise ValueError(f"lattice point must be >= 1, got {n}")
    d = (1.0 - a) * b + a
    if d == 0.0:
        raise ValueError("degenerate input: a = 0 and b = 0")
    return _ultra_log_convex_ratio(n, 1.0 - (a / d) ** 2)


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


@dataclass(frozen=True)
class CaseResult:
    key: tuple
    margin: float
    budget: float
    testable: bool = True

    @property
    def passed(self) -> bool:
        return self.testable and self.margin >= -self.budget


@dataclass
class VerificationReport:
    """Per-case inequality margins over a grid, with verdict and worst case."""

    description: str
    cases: list

    @property
    def testable_cases(self) -> list:
        return [c for c in self.cases if c.testable]

    @property
    def untestable_cases(self) -> list:
        return [c for c in self.cases if not c.testable]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.testable_cases)

    @property
    def worst_case(self):
        cases = self.testable_cases
        if not cases:
            return None
        return min(cases, key=lambda c: c.margin)

    @property
    def error_budget(self) -> float:
        cases = self.testable_cases
        return max((c.budget for c in cases), default=0.0)


def _cases(key_prefix: tuple, margins, budgets, testable) -> list:
    """The cases of lattice points n = 1, 2, ... of one row, keyed
    key_prefix + (n,); the only place a CaseResult is built."""
    return [
        CaseResult(key_prefix + (n,), margin, budget)
        if ok
        else CaseResult(key_prefix + (n,), math.nan, 0.0, testable=False)
        for n, margin, budget, ok in zip(count(1), margins, budgets, testable)
    ]


def _verify_rows(g: np.ndarray, log_const, key_prefix: tuple) -> list:
    """Cases of log_const(n) + g[k, n+1] + g[k, n-1] - 2 g[k, n] >= 0 for every
    row k of the block g of log masses and 1 <= n <= g.shape[1] - 2."""
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
    cases = []
    rows = zip(margins.tolist(), budgets.tolist(), testable.tolist())
    for k, (row_margins, row_budgets, row_testable) in enumerate(rows):
        cases.extend(_cases(key_prefix + (k,), row_margins, row_budgets, row_testable))
    return cases


def verify_kernel_lemma(
    params: QueueParams, t: float, k_max: int, n_max: int
) -> VerificationReport:
    """Check G_k(n)^2 <= K * G_k(n+1) * G_k(n-1) for k <= k_max, 1 <= n <= n_max."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    rho, p = params.rho, params.p(t)
    g = kernel_log_matrix(params, t, k_max, n_max + 1)
    return VerificationReport(
        description=f"kernel semi-ultra-log-convexity rho={rho} p={p} "
        f"k<={k_max} n<={n_max}",
        cases=_verify_rows(g, lambda n: math.log(lemma_K(rho, p, n)), (rho, p)),
    )


def verify_generalized(
    a: float, b: float, k_max: int, n_max: int
) -> VerificationReport:
    """Check H_k(n)^2 <= M * H_k(n+1) * H_k(n-1) for H_k = B(k,a) * Poisson(b)."""
    if a == 0.0 and b == 0.0:
        raise ValueError("degenerate input: a = 0 and b = 0")
    g = convolution_log_matrix(a, b, k_max, n_max + 1)
    return VerificationReport(
        description=f"generalized semi-ultra-log-convexity a={a} b={b} "
        f"k<={k_max} n<={n_max}",
        cases=_verify_rows(g, lambda n: math.log(remark_M(a, b, n)), (a, b)),
    )


def verify_theorem(
    params: QueueParams,
    t: float,
    f: Observable,
    n_max: int,
    deficit: float = DEFAULT_DEFICIT,
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
    logs, per_value_err = _log_semigroup_profile(params, t, f, 0, n_max + 1, deficit)
    lm, l0, lp = logs[:-2], logs[1:-1], logs[2:]
    floor = LOG_MASS_FLOOR + math.log(max(f.sup, 1e-300))
    testable = np.minimum(np.minimum(lm, l0), lp) >= floor
    with np.errstate(invalid="ignore"):  # -inf - -inf where untestable
        margins = (lp + lm - 2.0 * l0) - bound
    # one float object shared by every case, not one per case
    budget = 4.0 * per_value_err + 1e-14
    return VerificationReport(
        description=f"semigroup semi-log-convexity ({against}) rho={rho} p={p} "
        f"n<={n_max}",
        cases=_cases((rho, p), margins.tolist(), [budget] * n_max, testable.tolist()),
    )


def sharpness_decay(
    params: QueueParams,
    f: Observable,
    n: int,
    t_sequence,
    deficit: float = DEFAULT_DEFICIT,
) -> list:
    """Magnitudes of both sides of the sharp inequality along increasing t;
    both vanish in the long-time limit for bounded observables."""
    if n < 1:
        raise ValueError(f"lattice point must be >= 1, got {n}")
    out = []
    for t in t_sequence:
        logs, _ = _log_semigroup_profile(params, t, f, n - 1, n + 1, deficit)
        lm, l0, lp = logs.tolist()
        lhs = abs(lp + lm - 2.0 * l0)
        rhs = abs(sharp_bound(params.rho, params.p(t)))
        out.append((t, lhs, rhs))
    return out
