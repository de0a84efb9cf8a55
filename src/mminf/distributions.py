"""Log-domain Poisson and binomial laws and their certified windowed convolution.

All masses are stored and combined in the log domain; linear-domain products
of small lattice masses underflow long before the inequality checks downstream
stop being meaningful. Window truncation is certified: every finite window
carries a provable upper bound on the discarded tail mass, obtained from a
Chernoff bound refined by exact partial summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_ZERO = float("-inf")


def logsumexp(values) -> float:
    """Stable log(sum(exp(values))) for an iterable of floats (-inf allowed)."""
    vals = list(values)
    m = max(vals)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(sum(math.exp(v - m) for v in vals))


def logsumexp_axis0(arr: np.ndarray) -> np.ndarray:
    """Column-wise stable log-sum-exp of a 2-D array (-inf entries allowed)."""
    m = np.max(arr, axis=0)
    out = np.full(arr.shape[1], LOG_ZERO)
    ok = m > LOG_ZERO
    if np.any(ok):
        shifted = arr[:, ok] - m[ok]
        out[ok] = m[ok] + np.log(np.sum(np.exp(shifted), axis=0))
    return out


def poisson_log_pmf(rate: float, n: int) -> float:
    """log of the Poisson(rate) mass at n; rate 0 is the Dirac mass at 0."""
    if rate < 0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    if n < 0:
        raise ValueError(f"lattice point must be non-negative, got {n}")
    if rate == 0:
        return 0.0 if n == 0 else LOG_ZERO
    return n * math.log(rate) - rate - math.lgamma(n + 1)


def binomial_log_pmf(k: int, a: float, j: int) -> float:
    """log of the binomial(k, a) mass at j, with the Dirac conventions at a=0, a=1."""
    if k < 0:
        raise ValueError(f"trial count must be non-negative, got {k}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"success probability must lie in [0,1], got {a}")
    if j < 0 or j > k:
        return LOG_ZERO
    if a == 0.0:
        return 0.0 if j == 0 else LOG_ZERO
    if a == 1.0:
        return 0.0 if j == k else LOG_ZERO
    return math.log(math.comb(k, j)) + j * math.log(a) + (k - j) * math.log1p(-a)


def _poisson_chernoff_log_tail(rate: float, n: int) -> float:
    """log of the Chernoff bound on P(X >= n), valid for n > rate > 0."""
    return -rate + n * (1.0 + math.log(rate) - math.log(n))


def poisson_window(rate: float, deficit: float) -> tuple[int, int]:
    """Smallest window [0, N] with certified Poisson tail mass beyond N <= deficit.

    A Chernoff bound locates a safe truncation point, after which exact partial
    summation tightens N to the minimum.
    """
    if not 0.0 < deficit < 1.0:
        raise ValueError(f"deficit must lie in (0,1), got {deficit}")
    if rate < 0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    if rate == 0:
        return (0, 0)
    log_deficit = math.log(deficit)
    # tail beyond N0 is P(X >= N0 + 1); push the Chernoff bound below deficit/2
    n0 = max(int(math.ceil(rate)) + 1, 2)
    while _poisson_chernoff_log_tail(rate, n0 + 1) > log_deficit + math.log(0.5):
        n0 *= 2
    pmf = np.exp(np.array([poisson_log_pmf(rate, n) for n in range(n0 + 1)]))
    chernoff_rest = math.exp(_poisson_chernoff_log_tail(rate, n0 + 1))
    # tail[N] bounds the mass beyond N; summed back-to-front so it never relies
    # on cancellation, with a guard absorbing the relative error of each
    # exp(log-pmf) evaluation
    tail = chernoff_rest
    best = n0
    for n in range(n0, 0, -1):
        tail += pmf[n] * (1.0 + 1e-12)
        if tail > deficit:
            break
        best = n - 1
    return (0, best)


@dataclass(frozen=True)
class CertifiedPmf:
    """A pmf on a finite window of the integers, stored as log-masses.

    ``tail_deficit`` is a certified upper bound on the probability mass
    outside the window, so the windowed mass always brackets 1 from below
    by ``1 - tail_deficit`` (up to arithmetic rounding).
    """

    offset: int
    log_masses: np.ndarray
    tail_deficit: float

    def __post_init__(self):
        object.__setattr__(
            self, "log_masses", np.asarray(self.log_masses, dtype=float)
        )
        if self.tail_deficit < 0:
            raise ValueError("tail_deficit must be non-negative")

    def __len__(self) -> int:
        return len(self.log_masses)

    @property
    def support_end(self) -> int:
        """Last index inside the window."""
        return self.offset + len(self.log_masses) - 1

    def log_mass(self, n: int) -> float:
        if n < self.offset or n > self.support_end:
            return LOG_ZERO
        return float(self.log_masses[n - self.offset])

    def mass(self, n: int) -> float:
        lm = self.log_mass(n)
        return 0.0 if lm == LOG_ZERO else math.exp(lm)

    def windowed_mass(self) -> float:
        finite = self.log_masses[np.isfinite(self.log_masses)]
        if len(finite) == 0:
            return 0.0
        return float(math.exp(logsumexp(finite)))


def convolution_log_matrix(
    a: float, b: float, k_max: int, n_hi: int, k_min: int = 0
) -> np.ndarray:
    """log-masses of B(k, a) * Poisson(b) at 0..n_hi, one row for each
    k_min <= k <= k_max, each entry via log-sum-exp over the at most k+1
    binomial terms; the Poisson factor is evaluated once for all rows."""
    if k_min < 0:
        raise ValueError(f"trial count must be non-negative, got {k_min}")
    pois = np.array([poisson_log_pmf(b, m) for m in range(n_hi + 1)])
    rows = np.empty((k_max + 1 - k_min, n_hi + 1))
    for k in range(k_min, k_max + 1):
        binom = np.array([binomial_log_pmf(k, a, j) for j in range(k + 1)])
        terms = np.full((k + 1, n_hi + 1), LOG_ZERO)
        for j in range(min(k, n_hi) + 1):
            terms[j, j:] = binom[j] + pois[: n_hi + 1 - j]
        rows[k - k_min] = logsumexp_axis0(terms)
    return rows


def convolve(k: int, a: float, b: float, deficit: float) -> CertifiedPmf:
    """Certified windowed pmf of the convolution B(k, a) * Poisson(b).

    The binomial factor has bounded support, so the tail of the convolution
    beyond k + N is controlled by the certified Poisson tail beyond N.
    """
    _, n_pois = poisson_window(b, deficit)
    log_masses = convolution_log_matrix(a, b, k, k + n_pois, k_min=k)[0]
    return CertifiedPmf(offset=0, log_masses=log_masses, tail_deficit=deficit)
