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

from .distributions import poisson_log_pmf, poisson_window
from .kernel import QueueParams

MAX_EVENTS_PER_PATH = 10_000_000


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
    n = n_states - 1
    q = np.zeros((n_states, n_states))
    for i in range(n_states):
        if i < n:
            q[i, i + 1] = params.lam
        if i > 0:
            q[i, i - 1] = i * params.mu
        q[i, i] = -(q[i].sum())
    return q


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
    q = truncated_generator(params, N + 1)
    big = params.lam + N * params.mu
    p_mat = np.eye(N + 1) + q / big
    _, m_hi = poisson_window(big * t, tol)
    acc = np.zeros((N + 1, N + 1))
    power = np.eye(N + 1)
    for m in range(m_hi + 1):
        w = math.exp(poisson_log_pmf(big * t, m))
        if w > 0.0:
            acc += w * power
        if m < m_hi:
            power = power @ p_mat
    boundary = float(acc[: max(1, N // 2), N].max())
    if boundary > 100.0 * tol:
        warnings.warn(
            f"uniformization boundary leak {boundary:.3e} exceeds 100*tol; "
            f"increase N for these parameters",
            RuntimeWarning,
        )
    return acc


def gillespie_sample(
    params: QueueParams, t: float, k: int, rng: np.random.Generator
) -> int:
    """Terminal state of one simulated path over horizon t started from k."""
    if t < 0:
        raise ValueError(f"horizon must be non-negative, got {t}")
    if k < 0:
        raise ValueError(f"initial state must be non-negative, got {k}")
    state = k
    clock = 0.0
    for _ in range(MAX_EVENTS_PER_PATH):
        rate = params.lam + state * params.mu
        clock += rng.exponential(1.0 / rate)
        if clock > t:
            return state
        if rng.random() < params.lam / rate:
            state += 1
        else:
            state -= 1
    raise RuntimeError(f"event cap {MAX_EVENTS_PER_PATH} exceeded")


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
    return _log_int(fr.numerator) - _log_int(fr.denominator)


def _log_int(n: int) -> float:
    if n < (1 << 53):
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * math.log(2.0)


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
    D = (1-a) b + a. Returns the list of (k, n) violations."""
    a = Fraction(a)
    b = Fraction(b)
    d = (1 - a) * b + a
    if d == 0:
        raise ValueError("degenerate input: a = 0 and b = 0")
    d2 = d * d
    a2 = a * a
    failures = []
    for k in range(k_max + 1):
        h = exact_rational_convolution(k, a, b, n_max + 1)
        for n in range(1, n_max + 1):
            lhs = n * (d2 - a2) * h[n] ** 2
            rhs = (n + 1) * d2 * h[n + 1] * h[n - 1]
            if lhs > rhs:
                failures.append((k, n))
    return failures
