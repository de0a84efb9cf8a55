"""Transition kernel of the infinite-server queue and its semigroup action.

The time-t law started from k is the convolution of a thinned binomial with a
Poisson innovation: B(k, p) * Poisson(rho * (1 - p)) with p = exp(-mu * t).
Everything here is a pure function of its inputs; rows for different (k, t)
can be computed in parallel with no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import (
    LOG_ZERO,
    CertifiedPmf,
    binomial_log_pmf,
    convolution_log_matrix,
    convolve,
    logsumexp,
    logsumexp_axis0,
    poisson_log_pmf,
)

DEFAULT_DEFICIT = 1e-12

# ratios of masses below this floor carry no information: the inequality
# checks report such points untestable rather than pass
MASS_FLOOR = 1e-280
LOG_MASS_FLOOR = math.log(MASS_FLOOR)


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate lam, per-customer service rate mu; both strictly positive."""

    lam: float
    mu: float

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.lam, self.mu)):
            raise ValueError(
                f"rates must be finite and positive, got lam={self.lam}, mu={self.mu}"
            )

    @property
    def rho(self) -> float:
        return self.lam / self.mu

    def p(self, t: float) -> float:
        """Survival probability of an initial customer over horizon t."""
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        return math.exp(-self.mu * t)

    def q(self, t: float) -> float:
        """1 - p(t), computed without cancellation for small t."""
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        return -math.expm1(-self.mu * t)

    def t_for_p(self, p: float) -> float:
        """Horizon at which the survival probability equals p."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must lie in (0,1], got {p}")
        return -math.log(p) / self.mu


class Observable:
    """A non-negative function on the non-negative integers.

    Either a finite-support table (zero off the table) or a bounded callable
    with a declared supremum. The supremum is needed to certify the truncation
    error of windowed sums; it is spot-checked by sampling and trusted beyond.
    """

    def __init__(self, table=None, func=None, sup=None):
        if (table is None) == (func is None):
            raise ValueError("provide exactly one of table or func")
        if table is not None:
            table = {int(n): float(v) for n, v in table.items()}
            if any(n < 0 for n in table):
                raise ValueError("table keys must be non-negative integers")
            if not all(math.isfinite(v) for v in table.values()):
                raise ValueError("observable values must be finite")
            if any(v < 0 for v in table.values()):
                raise ValueError("observable values must be non-negative")
            if all(v == 0 for v in table.values()):
                raise ValueError("observable must not be identically zero")
            self.table = table
            self.func = None
            self.sup = max(table.values())
        else:
            if sup is None or not (math.isfinite(sup) and sup > 0):
                raise ValueError(
                    "callable observables require a finite positive sup bound"
                )
            for n in range(0, 201, 7):
                v = func(n)
                if not v >= 0:  # NaN too
                    raise ValueError(f"observable is negative or NaN at {n}: {v}")
                if v > sup:
                    raise ValueError(f"declared sup {sup} violated at {n}: {v}")
            self.table = None
            self.func = func
            self.sup = float(sup)

    @classmethod
    def from_table(cls, table) -> "Observable":
        return cls(table=table)

    @classmethod
    def from_callable(cls, func, sup) -> "Observable":
        return cls(func=func, sup=sup)

    @classmethod
    def indicator(cls, points) -> "Observable":
        return cls(table={n: 1.0 for n in points})

    @property
    def is_table(self) -> bool:
        return self.table is not None

    @property
    def support(self) -> list[int]:
        if not self.is_table:
            raise ValueError("callable observables have no finite support")
        return sorted(n for n, v in self.table.items() if v > 0)

    def __call__(self, n: int) -> float:
        if n == -1:
            n = 0  # boundary convention of the generator
        if self.is_table:
            return self.table.get(n, 0.0)
        return self.func(n)


@dataclass(frozen=True)
class SemigroupValue:
    """A semigroup evaluation together with its certified truncation error."""

    value: float
    error: float


@lru_cache(maxsize=2_000_000)
def _kernel_log_entry(lam: float, mu: float, t: float, k: int, n: int) -> float:
    p = math.exp(-mu * t)
    b = (lam / mu) * (-math.expm1(-mu * t))
    j_hi = min(k, n)
    return logsumexp(
        binomial_log_pmf(k, p, j) + poisson_log_pmf(b, n - j) for j in range(j_hi + 1)
    )


def kernel_entry(params: QueueParams, t: float, k: int, n: int) -> float:
    """log P(state = n at time t | start = k), via the finite convolution sum.

    Each entry is a single log-sum-exp over min(k, n) + 1 terms, so it carries
    an error bound independent of any recursion in k.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if k < 0 or n < 0:
        raise ValueError("states must be non-negative")
    if t == 0:
        return 0.0 if n == k else LOG_ZERO
    return _kernel_log_entry(params.lam, params.mu, t, k, n)


def kernel_log_matrix(params: QueueParams, t: float, k_max: int, n_max: int) -> np.ndarray:
    """Array G[k, n] of log transition masses for k <= k_max, n <= n_max."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    p = params.p(t)
    b = params.rho * params.q(t)
    return convolution_log_matrix(p, b, k_max, n_max)


def kernel_log_column(
    params: QueueParams, t: float, k_max: int, n: int, k_min: int = 0
) -> np.ndarray:
    """Column n of kernel_log_matrix(params, t, k_max, n), log P(n | k) for
    k_min <= k <= k_max, without the columns before it.

    Each entry sums the same binomial * Poisson terms as the matrix does, so
    the two agree to rounding; the cost is (k_max + 1 - k_min) *
    (min(k_max, n) + 1) terms, whatever the size of n.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    p = params.p(t)
    b = params.rho * params.q(t)
    j_hi = min(k_max, n)
    pois = [poisson_log_pmf(b, n - j) for j in range(j_hi + 1)]
    terms = np.full((j_hi + 1, k_max + 1 - k_min), LOG_ZERO)
    for k in range(k_min, k_max + 1):
        for j in range(min(k, n) + 1):
            terms[j, k - k_min] = binomial_log_pmf(k, p, j) + pois[j]
    return logsumexp_axis0(terms)


def mehler_row(
    params: QueueParams, t: float, k: int, deficit: float = DEFAULT_DEFICIT
) -> CertifiedPmf:
    """Full certified row of the time-t kernel started from k.

    At t = 0 the row degenerates to the Dirac mass at k; the downstream
    inequality checks are vacuous there.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if k < 0:
        raise ValueError(f"initial state must be non-negative, got {k}")
    if t == 0:
        return CertifiedPmf(offset=k, log_masses=np.array([0.0]), tail_deficit=0.0)
    return convolve(k, params.p(t), params.rho * params.q(t), deficit)


def semigroup_apply(
    params: QueueParams,
    t: float,
    f: Observable,
    k: int,
    deficit: float = DEFAULT_DEFICIT,
) -> SemigroupValue:
    """Expected value of f at time t started from k, with certified error:
    the exponential of log_semigroup_apply.

    Table observables are summed exactly over their support (no truncation
    error); bounded callables are summed over a certified window and carry a
    sup * deficit truncation bound.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if t == 0:
        return SemigroupValue(value=f(k), error=0.0)
    return SemigroupValue(
        value=math.exp(log_semigroup_apply(params, t, f, k, deficit)),
        error=0.0 if f.is_table else f.sup * deficit,
    )


def log_semigroup_apply(
    params: QueueParams,
    t: float,
    f: Observable,
    k: int,
    deficit: float = DEFAULT_DEFICIT,
) -> float:
    """log of the semigroup action, accumulated in the log domain so that
    far-from-support evaluations stay meaningful."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if k < 0:
        raise ValueError(f"initial state must be non-negative, got {k}")
    if f.is_table:
        logs, _ = _log_semigroup_profile(params, t, f, k, k, deficit)
        return float(logs[0])
    pmf = mehler_row(params, t, k, deficit)
    terms = []
    for n in range(pmf.offset, pmf.support_end + 1):
        v = f(n)
        if v > 0:
            terms.append(math.log(v) + pmf.log_mass(n))
    return logsumexp(terms) if terms else LOG_ZERO


def _entry_log_error(log_mass, n_terms):
    # conservative absolute-error bound for a log-domain mass assembled from
    # n_terms log-sum-exp terms of log/lgamma evaluations; floats or arrays
    return 2e-14 * (abs(log_mass) + n_terms + 10.0)


@lru_cache(maxsize=256)
def _kernel_column(
    lam: float, mu: float, t: float, k_min: int, k_max: int, n: int
) -> np.ndarray:
    # G[k, n] for k_min <= k <= k_max, shared read-only by every table
    # observable of one (rho, p) cell whose support holds n: its sharp and its
    # 1/12 reports
    column = kernel_log_column(QueueParams(lam, mu), t, k_max, n, k_min)
    column.flags.writeable = False
    return column


def _log_semigroup_profile(
    params: QueueParams, t: float, f: Observable, n_lo: int, n_hi: int, deficit: float
) -> tuple[np.ndarray, float]:
    """log A_t f(n) for n = n_lo..n_hi, and an error bound valid for each value.

    A table is summed over its support from kernel columns, in one row-wise
    log-sum-exp; a callable is summed over the certified row of each n."""
    if f.is_table:
        support = f.support
        g = np.stack(
            [_kernel_column(params.lam, params.mu, t, n_lo, n_hi, m) for m in support]
        )
        log_f = np.array([math.log(f.table[m]) for m in support])
        # terms[i, n] = log f(m_i) + G[n, m_i], summed over the support
        logs = logsumexp_axis0(g + log_f[:, None])
        finite = np.abs(logs[logs > LOG_ZERO])
        per_value_err = (
            _entry_log_error(finite.max(), len(support)) if finite.size else 0.0
        )
        return logs, float(per_value_err)
    logs = np.array(
        [log_semigroup_apply(params, t, f, n, deficit) for n in range(n_lo, n_hi + 1)]
    )
    n_terms = 64
    per_value_err = 0.0
    for lv in logs:
        if lv > LOG_ZERO:
            trunc = f.sup * deficit / math.exp(max(lv, LOG_MASS_FLOOR))
            per_value_err = max(per_value_err, _entry_log_error(lv, n_terms) + trunc)
    return logs, per_value_err


def generator_apply(params: QueueParams, f: Observable, n: int) -> float:
    """Generator action lam*[f(n+1)-f(n)] + n*mu*[f(n-1)-f(n)], with f(-1)=f(0)."""
    if n < 0:
        raise ValueError(f"state must be non-negative, got {n}")
    up = params.lam * (f(n + 1) - f(n))
    down = n * params.mu * (f(n - 1) - f(n))
    return up + down


def reversibility_defect(
    params: QueueParams, t: float, i: int, j: int, deficit: float = DEFAULT_DEFICIT
) -> float:
    """|P(i|j) pi(j) - P(j|i) pi(i)| under the stationary Poisson(rho) law."""
    if i == j:
        return 0.0
    lhs = kernel_entry(params, t, j, i) + poisson_log_pmf(params.rho, j)
    rhs = kernel_entry(params, t, i, j) + poisson_log_pmf(params.rho, i)
    a = 0.0 if lhs == LOG_ZERO else math.exp(lhs)
    b = 0.0 if rhs == LOG_ZERO else math.exp(rhs)
    return abs(a - b)
