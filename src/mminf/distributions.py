"""Log-domain Poisson and binomial laws, their convolution, and certified
Poisson windows.

All masses are stored and combined in the log domain; linear-domain products
of small lattice masses underflow long before the inequality checks downstream
stop being meaningful. Window truncation is certified: poisson_window bounds
the discarded tail mass by a Chernoff bound refined by exact partial summation.
"""

from __future__ import annotations

import math

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
    """Stable log-sum-exp of an N-D array over its first axis (-inf allowed).

    The exponentials are added as a running sum in index order (.sum would
    add pairwise, in an order set by length and layout), so a result depends
    only on its own terms, and -inf terms add exact zeros. A slice that is
    -inf throughout sums to 0, and its log is skipped."""
    m = np.maximum.reduce(arr, axis=0)
    # ok is None when every slice holds a finite term, as a rule: no masks
    ok = None if np.minimum.reduce(m, axis=None) > LOG_ZERO else m > LOG_ZERO
    e = arr - (m if ok is None else np.where(ok, m, 0.0))
    s = np.exp(e, out=e)[0]
    if s.size < 256:  # narrow slices: one accumulate costs less than a loop
        s = np.add.accumulate(e, axis=0, out=e)[-1]
    else:  # wide ones: one add each, with no partial sums written back
        for row in e[1:]:
            s += row
    if ok is None:
        return m + np.log(s)
    return m + np.log(s, out=np.full_like(m, LOG_ZERO), where=ok)


def poisson_log_pmf(rate: float, n: int) -> float:
    """log of the Poisson(rate) mass at n; rate 0 is the Dirac mass at 0."""
    if rate < 0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    if n < 0:
        raise ValueError(f"lattice point must be non-negative, got {n}")
    if rate == 0:
        return 0.0 if n == 0 else LOG_ZERO
    return n * math.log(rate) - rate - math.lgamma(n + 1)


def poisson_log_row(rate: float, lo: int, hi: int) -> np.ndarray:
    """poisson_log_pmf(rate, n) for lo <= n <= hi, hi >= 0, and -inf for
    n < 0: the same floats, by the same operations on a vector of n."""
    if rate < 0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    n = np.arange(max(lo, 0), hi + 1)
    lgamma = np.array(list(map(math.lgamma, (n + 1).tolist())))
    row = n * math.log(rate) - rate - lgamma if rate else np.where(n > 0, LOG_ZERO, 0.0)
    return row if lo >= 0 else np.concatenate([np.full(-lo, LOG_ZERO), row])


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


_log_comb_tables: dict = {}  # {(k_min, k_max): the one table kept}


def _log_comb_table(k_min: int, k_max: int, j_hi: int) -> np.ndarray:
    """Read-only log C(k, j) at [k - k_min, j] for k_min <= k <= k_max and
    j <= j_hi, -inf for j > k. Only the last row range's table is kept, for
    every p; it widens to at least twice its width, never past k_max + 1, so
    each entry is computed once and it is at most twice the widest slice."""
    table = _log_comb_tables.get((k_min, k_max), np.empty((k_max + 1 - k_min, 0)))
    width = table.shape[1]
    if width <= j_hi:
        new = range(width, min(k_max + 1, max(j_hi + 1, 2 * width)))
        table = np.hstack([table, [
            [math.log(math.comb(k, j)) if j <= k else LOG_ZERO for j in new]
            for k in range(k_min, k_max + 1)
        ]])
        table.flags.writeable = False
        _log_comb_tables.clear()
        _log_comb_tables[(k_min, k_max)] = table
    return table[:, : j_hi + 1]


def binomial_log_rows(a: float, k_min: int, k_max: int, j_hi: int) -> np.ndarray:
    """binomial_log_pmf(k, a, j) at [k - k_min, j] for k_min <= k <= k_max and
    j <= j_hi <= k_max: the same floats, by the same operations on log C(k, j)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"success probability must lie in [0,1], got {a}")
    k = np.arange(k_min, k_max + 1)[:, None]
    j = np.arange(j_hi + 1)
    if a == 0.0 or a == 1.0:  # the Dirac mass at j = 0 or at j = k
        return np.where(j == k * (a == 1.0), 0.0, LOG_ZERO)
    log_comb = _log_comb_table(k_min, k_max, j_hi)
    return log_comb + j * math.log(a) + (k - j) * math.log1p(-a)


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
    pmf = np.exp(poisson_log_row(rate, 0, n0))
    # tail[N] bounds the mass beyond N; summed back-to-front so it never relies
    # on cancellation, with a guard absorbing the relative error of each
    # exp(log-pmf) evaluation
    tail = math.exp(_poisson_chernoff_log_tail(rate, n0 + 1))
    best = n0
    for n in range(n0, 0, -1):
        tail += pmf[n] * (1.0 + 1e-12)
        if tail > deficit:
            break
        best = n - 1
    return (0, best)


_BLOCK_TERMS = 1 << 15  # terms summed at once: 8 bytes each, twice over


def convolution_log_matrix(
    a: float, b: float, k_max: int, n_hi: int, k_min: int = 0, cols=None
) -> np.ndarray:
    """log-masses of B(k, a) * Poisson(b), one row for each k_min <= k <= k_max,
    one column for each of the ascending points cols in 0..n_hi (default all).

    Entry (k, n) sums log B(k, a)(j) + log Poisson(b)(n - j) over j, each term
    the same float in any block, in one log-sum-exp in order of j: so it is
    the same float whatever rows and columns its block holds. The block is
    summed in chunks of rows and columns of at most _BLOCK_TERMS terms (or one
    entry's terms, if more), each without its trailing terms j > min(k, n),
    which add exact zeros."""
    if k_min < 0:
        raise ValueError(f"trial count must be non-negative, got {k_min}")
    cols = np.arange(n_hi + 1) if cols is None else np.asarray(cols)
    j_top = min(k_max, n_hi)
    lo = int(cols[0]) - j_top  # pois holds the points lo..n_hi, -inf below 0
    pois = poisson_log_row(b, lo, n_hi)
    binom = np.ascontiguousarray(binomial_log_rows(a, k_min, k_max, j_top).T)
    out = np.empty((k_max + 1 - k_min, len(cols)))
    c_step = max(1, _BLOCK_TERMS // (j_top + 1))
    for c in range(0, len(cols), c_step):
        chunk = cols[c : c + c_step]
        # terms[j, k, c] = log B(k, a)(j) + log Poisson(b)(chunk[c] - j)
        j_cols = min(j_top, int(chunk[-1])) + 1
        pois_j = pois[chunk - lo - np.arange(j_cols)[:, None]]
        r_step = max(1, _BLOCK_TERMS // pois_j.size)
        for r in range(0, len(out), r_step):
            j_end = min(j_cols, k_min + r + r_step)
            out[r : r + r_step, c : c + c_step] = logsumexp_axis0(
                binom[:j_end, r : r + r_step, None] + pois_j[:j_end, None, :]
            )
    return out
