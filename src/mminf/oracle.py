"""Independent ground-truth generators for the transition kernel.

Three routes that share no code with the closed-form kernel: matrix
uniformization of the truncated generator, stochastic simulation of the jump
chain, and exact rational arithmetic on the convolution sum. The rational
route defers the transcendental factor exp(-b) to comparison time, so
inequality checks whose two sides share that factor are exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import poisson_log_row, poisson_window
from .kernel import QueueParams

MAX_EVENTS_PER_PATH = 10_000_000
_POWER_FLOATS = 1 << 22  # 32 MiB of powers of P per uniformization at most


@dataclass(frozen=True)
class SimulationConfig:
    """Deterministic Monte Carlo run description (PCG64 stream keyed by seed)."""

    seed: int
    replications: int
    horizon: float

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")


def truncated_generator(params: QueueParams, n_states: int) -> np.ndarray:
    """Generator matrix on {0,...,N}; the birth at the boundary is suppressed
    (reflecting), so rows sum to zero and the truncation bias is monitored
    rather than assumed away."""
    if n_states < 2:
        raise ValueError("need at least states {0, 1}")
    births = np.full(n_states - 1, params.lam)
    q = np.diag(births, 1) + np.diag(np.arange(1, n_states) * params.mu, -1)
    return q - np.diag(q.sum(axis=1))


def uniformized_kernel(
    params: QueueParams, t: float, N: int, tol: float
) -> np.ndarray:
    """Transition matrix exp(t Q_N) on {0,...,N} by uniformization.

    With Lam = lam + N mu and P = I + Q/Lam, the result is the Poisson(Lam t)
    mixture of powers of P, truncated where the certified Poisson tail drops
    below tol; rows therefore sum to 1 within tol.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    big = params.lam + N * params.mu
    _, m_hi = poisson_window(big * t, tol)
    # Paterson-Stockmeyer: blocks of s ~ sqrt(m_hi) weights against P^0..P^(s-1),
    # joined by Horner in P^s from the top block down, take ~2 sqrt(m_hi)
    # products, not m_hi. Weights and entries of P are >= 0: nothing cancels.
    s = max(1, min(math.isqrt(m_hi + 1), _POWER_FLOATS // (N + 1) ** 2))
    powers = np.empty((s + 1, N + 1, N + 1))
    powers[0] = np.eye(N + 1)
    powers[1] = powers[0] + truncated_generator(params, N + 1) / big
    for i in range(1, s):
        np.matmul(powers[i], powers[1], out=powers[i + 1])
    w = np.exp(poisson_log_row(big * t, 0, m_hi))
    *blocks, top = [w[lo : lo + s] for lo in range(0, m_hi + 1, s)]
    # a block's weighted sum of powers is one product with the flat table
    flat, shape = powers.reshape(s + 1, -1), (N + 1, N + 1)
    acc = np.dot(top, flat[: len(top)]).reshape(shape)
    for block in reversed(blocks):
        acc = acc @ powers[s] + np.dot(block, flat[:s]).reshape(shape)
    boundary = float(acc[: max(1, N // 2), N].max())
    if boundary > 100.0 * tol:
        warnings.warn(
            f"uniformization boundary leak {boundary:.3e} exceeds 100*tol; "
            f"increase N for these parameters",
            RuntimeWarning,
        )
    return acc


def gillespie_terminal_states(
    params: QueueParams, k: int, config: SimulationConfig
) -> np.ndarray:
    """Terminal states of config.replications independent paths, vectorized.

    All replications advance in lockstep: one exponential holding time and one
    birth/death coin per round for every still-active path. Identical seed and
    config reproduce identical states.
    """
    rng = np.random.default_rng(config.seed)
    reps = config.replications
    states = np.full(reps, k, dtype=np.int64)
    clocks = np.zeros(reps)
    active = np.ones(reps, dtype=bool)
    rounds = 0
    while active.any():
        rounds += 1
        if rounds > MAX_EVENTS_PER_PATH:
            raise RuntimeError(f"event cap {MAX_EVENTS_PER_PATH} exceeded")
        idx = np.flatnonzero(active)
        rates = params.lam + states[idx] * params.mu
        clocks[idx] += rng.exponential(1.0 / rates)
        fire = clocks[idx] <= config.horizon
        active[idx[~fire]] = False
        firing = idx[fire]
        if len(firing) == 0:
            continue
        u = rng.random(len(firing))
        birth = u < params.lam / (params.lam + states[firing] * params.mu)
        states[firing] += np.where(birth, 1, -1)
    return states


def empirical_pmf(states: np.ndarray, n_max: int) -> np.ndarray:
    """Empirical masses at 0..n_max."""
    counts = np.bincount(states, minlength=n_max + 1)[: n_max + 1]
    return counts / len(states)


def exact_rational_convolution(
    k: int, a: Fraction, b: Fraction, n_max: int
) -> list:
    """Exact masses of B(k, a) * Poisson(b) at 0..n_max, omitting the common
    exp(-b) factor (reattached only when comparing against floating point)."""
    if k < 0 or n_max < 0:
        raise ValueError("k and n_max must be non-negative")
    a = Fraction(a)
    b = Fraction(b)
    if not 0 <= a <= 1:
        raise ValueError(f"a must lie in [0,1], got {a}")
    if b < 0:
        raise ValueError(f"b must be non-negative, got {b}")
    binom = [
        Fraction(math.comb(k, j)) * a**j * (1 - a) ** (k - j) for j in range(k + 1)
    ]
    out = []
    for n in range(n_max + 1):
        total = Fraction(0)
        for j in range(min(k, n) + 1):
            total += binom[j] * b ** (n - j) / math.factorial(n - j)
        out.append(total)
    return out


def log_fraction(fr: Fraction) -> float:
    """Accurate log of a positive rational, safe for huge numerators."""
    if fr <= 0:
        raise ValueError("log_fraction requires a positive rational")
    return math.log(fr.numerator) - math.log(fr.denominator)  # ints of any size


def exact_lemma_check(
    rho: Fraction, p: Fraction, k_max: int, n_max: int
) -> list:
    """Cleared-denominator exact check of the kernel inequality at rational
    parameters: n (D^2 - p^2) g(n)^2 <= (n+1) D^2 g(n+1) g(n-1), with
    D = rho(1-p)^2 + p and g the masses without the exp(-b) factor.

    Returns the list of (k, n) violations; empty means zero-slack pass.
    """
    rho = Fraction(rho)
    p = Fraction(p)
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0,1), got {p}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    # at a = p, b = rho(1-p) the generalized D = (1-a) b + a is this D
    return exact_generalized_check(p, rho * (1 - p), k_max, n_max)


def exact_generalized_check(
    a: Fraction, b: Fraction, k_max: int, n_max: int
) -> list:
    """Cleared-denominator exact check of the generalized inequality at
    rational (a, b): n (D^2 - a^2) h(n)^2 <= (n+1) D^2 h(n+1) h(n-1) with
    D = (1-a) b + a. Returns the list of (k, n) violations.

    Runs on integers: for a = A/a_d, b = B/b_d in lowest terms, H_k(n) =
    n! a_d^k b_d^n h_k(n) has H_0(n) = B^n and, one trial more, Pascal's rule
    H_{k+1}(n) = (a_d - A) H_k(n) + A b_d n H_k(n-1). With n!, a_d^k, b_d^n
    cancelled the check reads (D^2 - a^2) H(n)^2 <= D^2 H(n+1) H(n-1)."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a <= 1 or b < 0:
        raise ValueError(f"need a in [0,1] and b >= 0, got a = {a}, b = {b}")
    d2 = ((1 - a) * b + a) ** 2
    if d2 == 0:
        raise ValueError("degenerate input: a = 0 and b = 0")
    x = d2 - a * a
    lhs, rhs = x.numerator * d2.denominator, d2.numerator * x.denominator
    stay, step = a.denominator - a.numerator, a.numerator * b.denominator
    h = [b.numerator**n for n in range(n_max + 2)]
    failures = []
    for k in range(k_max + 1):
        for n in range(1, n_max + 1):
            if lhs * h[n] ** 2 > rhs * h[n + 1] * h[n - 1]:
                failures.append((k, n))
        pairs = enumerate(zip([0] + h, h))  # n, (H(n-1), H(n))
        h = [stay * hn + step * n * hm for n, (hm, hn) in pairs]
    return failures
