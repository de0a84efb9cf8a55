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
    convolution_log_matrix,
    logsumexp_axis0,
    poisson_log_pmf,
)


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
    """A non-negative function on the non-negative integers with finite
    support: a table of values, zero off the table."""

    def __init__(self, table):
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
        self.sup = max(table.values())
        # the ascending support and its logs, read by every profile
        self.points = sorted(n for n, v in table.items() if v > 0)
        self.log_values = np.array([math.log(table[n]) for n in self.points])

    @classmethod
    def from_table(cls, table) -> "Observable":
        return cls(table)

    @classmethod
    def indicator(cls, points) -> "Observable":
        return cls({n: 1.0 for n in points})

    def __call__(self, n: int) -> float:
        if n == -1:
            n = 0  # boundary convention of the generator
        return self.table.get(n, 0.0)


@lru_cache(maxsize=2_000_000)
def _kernel_log_entry(lam: float, mu: float, t: float, k: int, n: int) -> float:
    # the 1 x 1 block: bit for bit entry (k, n) of any block that holds it
    return float(_kernel_log_block(lam, mu, t, k, k, n)[0, 0])


def _kernel_log_block(lam, mu, t, k_min, k_max, n):
    # log P(n | k) for k_min <= k <= k_max, as a one-column block
    params = QueueParams(lam, mu)
    b = params.rho * params.q(t)
    return convolution_log_matrix(params.p(t), b, k_max, n, k_min, cols=[n])


def kernel_entry(params: QueueParams, t: float, k: int, n: int) -> float:
    """log P(state = n at time t | start = k), via the finite convolution sum.

    Each entry is a single log-sum-exp over min(k, n) + 1 terms, so it carries
    an error bound independent of any recursion in k, and it equals
    kernel_log_matrix(params, t, k_max, n_max)[k, n] bit for bit.
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
    return convolution_log_matrix(params.p(t), params.rho * params.q(t), k_max, n_max)


def semigroup_apply(params: QueueParams, t: float, f: Observable, k: int) -> float:
    """Expected value of f at time t started from k: the exponential of
    log_semigroup_apply, and f(k) at t = 0."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if t == 0:
        return f(k)
    return math.exp(log_semigroup_apply(params, t, f, k))


def log_semigroup_apply(
    params: QueueParams, t: float, f: Observable, k: int
) -> float:
    """log of the semigroup action, accumulated in the log domain so that
    far-from-support evaluations stay meaningful."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if k < 0:
        raise ValueError(f"initial state must be non-negative, got {k}")
    logs, _ = _log_semigroup_profile(params, t, f, k, k)
    return float(logs[0])


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
    column = _kernel_log_block(lam, mu, t, k_min, k_max, n)[:, 0]
    column.flags.writeable = False
    return column


def _log_semigroup_profile(params, t, f, n_lo, n_hi):
    """log A_t f(n) for n = n_lo..n_hi, and one float that bounds the
    rounding error of each value.

    f is summed over its support m in one row-wise log-sum-exp of
    log f(m) + G[n, m], read from cached kernel columns. The support is
    finite, so the sum is complete: nothing is truncated."""
    g = np.array(
        [_kernel_column(params.lam, params.mu, t, n_lo, n_hi, m) for m in f.points]
    )
    # terms[i, n] = log f(m_i) + G[n, m_i], summed over the support
    g += f.log_values[:, None]
    logs = logsumexp_axis0(g)
    lo, hi = np.minimum.reduce(logs), np.maximum.reduce(logs)
    if not lo > LOG_ZERO:  # a value is zero: the extremes of the others
        finite = logs[logs > LOG_ZERO]
        if finite.size == 0:
            return logs, 0.0
        lo, hi = finite.min(), finite.max()
    # the rounding error grows with |log value|: take the largest
    return logs, _entry_log_error(float(max(abs(lo), abs(hi))), len(f.points))


def generator_apply(params: QueueParams, f: Observable, n: int) -> float:
    """Generator action lam*[f(n+1)-f(n)] + n*mu*[f(n-1)-f(n)], with f(-1)=f(0)."""
    if n < 0:
        raise ValueError(f"state must be non-negative, got {n}")
    up = params.lam * (f(n + 1) - f(n))
    down = n * params.mu * (f(n - 1) - f(n))
    return up + down


def reversibility_defect(params: QueueParams, t: float, i: int, j: int) -> float:
    """|P(i|j) pi(j) - P(j|i) pi(i)| under the stationary Poisson(rho) law."""
    if i == j:
        return 0.0
    lhs = kernel_entry(params, t, j, i) + poisson_log_pmf(params.rho, j)
    rhs = kernel_entry(params, t, i, j) + poisson_log_pmf(params.rho, i)
    a = 0.0 if lhs == LOG_ZERO else math.exp(lhs)
    b = 0.0 if rhs == LOG_ZERO else math.exp(rhs)
    return abs(a - b)
