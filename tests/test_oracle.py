"""Oracle tests: uniformization, stochastic simulation, exact rationals,
and the triple-agreement property across all three routes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mminf import oracle
from mminf.distributions import poisson_log_pmf, poisson_window
from mminf.kernel import QueueParams, kernel_entry, kernel_log_matrix
from mminf.oracle import (
    SimulationConfig,
    empirical_pmf,
    exact_generalized_check,
    exact_lemma_check,
    exact_rational_convolution,
    gillespie_terminal_states,
    log_fraction,
    truncated_generator,
    uniformized_kernel,
)

PARAMS = QueueParams(lam=1.0, mu=1.0)


def term_by_term_uniformization(params, t, N, tol):
    """exp(t Q_N) as the Poisson(Lam t) mixture of powers of P, one matrix
    product per term, and the last term m_hi of the certified window."""
    big = params.lam + N * params.mu
    p_mat = np.eye(N + 1) + truncated_generator(params, N + 1) / big
    _, m_hi = poisson_window(big * t, tol)
    acc = np.zeros((N + 1, N + 1))
    power = np.eye(N + 1)
    for m in range(m_hi + 1):
        acc += math.exp(poisson_log_pmf(big * t, m)) * power
        power = power @ p_mat
    return acc, m_hi


def fraction_check(a, b, k_max, n_max):
    """The generalized inequality's violations, decided on the rational
    masses with the denominators n, n + 1 cleared."""
    d2 = ((1 - a) * b + a) ** 2
    failures = []
    for k in range(k_max + 1):
        h = exact_rational_convolution(k, a, b, n_max + 1)
        for n in range(1, n_max + 1):
            if n * (d2 - a * a) * h[n] ** 2 > (n + 1) * d2 * h[n + 1] * h[n - 1]:
                failures.append((k, n))
    return failures


class TestTruncatedGenerator:
    def test_structure(self):
        q = truncated_generator(QueueParams(2.0, 0.5), 5)
        assert q.shape == (5, 5)
        # off-diagonals non-negative, rows sum to zero with the reflecting
        # boundary convention
        off = q - np.diag(np.diag(q))
        assert (off >= 0).all()
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-14)
        assert q[1, 2] == 2.0
        assert q[3, 2] == 3 * 0.5

    def test_boundary_birth_suppressed(self):
        q = truncated_generator(PARAMS, 4)
        assert q[3, 3] == -3 * PARAMS.mu


class TestUniformizedKernel:
    def test_rows_sum_to_one(self):
        mat = uniformized_kernel(PARAMS, 0.7, 40, 1e-10)
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-9

    def test_short_time_near_identity(self):
        t = 1e-4
        mat = uniformized_kernel(PARAMS, t, 30, 1e-12)
        assert np.abs(np.diag(mat) - 1.0).max() <= 50 * t

    def test_matches_mehler_row(self):
        t = 0.7
        mat = uniformized_kernel(PARAMS, t, 60, 1e-10)
        row = np.exp(kernel_log_matrix(PARAMS, t, 3, 15)[3])
        for n in range(16):
            assert mat[3, n] == pytest.approx(row[n], abs=1e-9)

    def test_boundary_leak_stability(self):
        # adding 20 states must not move any interior entry by more than tol
        t = 1.0
        a = uniformized_kernel(PARAMS, t, 40, 1e-10)
        b = uniformized_kernel(PARAMS, t, 60, 1e-10)
        assert np.abs(a[:21, :21] - b[:21, :21]).max() <= 1e-10

    @pytest.mark.parametrize(
        "rho,p,N",
        [(0.5, 0.5, 40), (2.0, 0.1, 80), (10.0, 0.9, 60), (1.0, 0.05, 30)],
    )
    def test_matches_term_by_term_sum(self, rho, p, N):
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        ref, _ = term_by_term_uniformization(params, t, N, 1e-10)
        assert np.abs(uniformized_kernel(params, t, N, 1e-10) - ref).max() <= 1e-14

    def test_single_term_window(self):
        t = 1e-14
        ref, m_hi = term_by_term_uniformization(PARAMS, t, 10, 1e-10)
        assert m_hi == 0
        assert np.abs(uniformized_kernel(PARAMS, t, 10, 1e-10) - ref).max() <= 1e-14

    @pytest.mark.parametrize("rho,t,N", [(5.0, 2.0, 5), (0.25, 0.1, 1)])
    def test_leaking_boundary_still_warns(self, rho, t, N):
        params = QueueParams(lam=rho, mu=1.0)
        ref, _ = term_by_term_uniformization(params, t, N, 1e-10)
        with pytest.warns(RuntimeWarning, match="boundary leak"):
            mat = uniformized_kernel(params, t, N, 1e-10)
        assert np.abs(mat - ref).max() <= 1e-14

    def test_capped_power_table(self, monkeypatch):
        # with room for only 3 powers of P, the blocks hold 3 weights each
        params = QueueParams(lam=2.0, mu=1.0)
        ref, m_hi = term_by_term_uniformization(params, 1.5, 20, 1e-10)
        monkeypatch.setattr(oracle, "_POWER_FLOATS", 3 * 21**2)
        assert m_hi > 9
        mat = uniformized_kernel(params, 1.5, 20, 1e-10)
        assert np.abs(mat - ref).max() <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            uniformized_kernel(PARAMS, -1.0, 10, 1e-8)
        with pytest.raises(ValueError):
            uniformized_kernel(PARAMS, 1.0, 0, 1e-8)
        with pytest.raises(ValueError):
            uniformized_kernel(PARAMS, 1.0, 10, 0.0)


class TestGillespie:
    def test_zero_horizon_returns_start(self):
        cfg = SimulationConfig(seed=0, replications=100, horizon=0.0)
        assert (gillespie_terminal_states(PARAMS, 7, cfg) == 7).all()

    def test_vanishing_arrivals_stay_at_zero(self):
        params = QueueParams(lam=1e-9, mu=1.0)
        cfg = SimulationConfig(seed=1, replications=100, horizon=1.0)
        assert (gillespie_terminal_states(params, 0, cfg) == 0).all()

    def test_determinism(self):
        cfg = SimulationConfig(seed=123, replications=500, horizon=0.8)
        a = gillespie_terminal_states(PARAMS, 4, cfg)
        b = gillespie_terminal_states(PARAMS, 4, cfg)
        assert (a == b).all()

    def test_vectorized_matches_mean(self):
        cfg = SimulationConfig(seed=7, replications=50_000, horizon=1.0)
        states = gillespie_terminal_states(PARAMS, 5, cfg)
        expected = 5 * PARAMS.p(1.0) + PARAMS.rho * PARAMS.q(1.0)
        assert states.mean() == pytest.approx(expected, abs=0.05)

    def test_empirical_pmf_within_bands(self):
        cfg = SimulationConfig(seed=2024, replications=100_000, horizon=1.0)
        states = gillespie_terminal_states(PARAMS, 2, cfg)
        emp = empirical_pmf(states, 10)
        for n in range(11):
            q = math.exp(kernel_entry(PARAMS, 1.0, 2, n))
            se = math.sqrt(q * (1 - q) / cfg.replications)
            assert abs(emp[n] - q) <= 5 * se + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=0, replications=0, horizon=1.0)


class TestExactRational:
    def test_pure_poisson(self):
        out = exact_rational_convolution(0, Fraction(0), Fraction(3, 2), 4)
        for n in range(5):
            assert out[n] == Fraction(3, 2) ** n / math.factorial(n)

    def test_single_trial_case(self):
        # k=1, a=b=1/2: mass at 1 (before e^{-b}) is (1/2)(1/2) + (1/2) = 3/4
        out = exact_rational_convolution(1, Fraction(1, 2), Fraction(1, 2), 1)
        assert out[1] == Fraction(3, 4)

    def test_log_fraction_handles_huge_integers(self):
        fr = Fraction(10**400, 3)
        assert log_fraction(fr) == pytest.approx(
            400 * math.log(10) - math.log(3), rel=1e-14
        )

    def test_lemma_clear_denominator_passes_in_valid_regime(self):
        assert exact_lemma_check(Fraction(1), Fraction(1, 2), 8, 12) == []
        assert exact_lemma_check(Fraction(2), Fraction(9, 10), 8, 12) == []

    def test_lemma_clear_denominator_finds_counterexample(self):
        # rho=2, p=1/10: the paper's constant is violated from k=2 onward
        fails = exact_lemma_check(Fraction(2), Fraction(1, 10), 4, 4)
        assert (2, 1) in fails

    def test_pinned_counterexample(self):
        # rho = 2, p = 1/10, k = 2, n = 1: the kernel ratio beats the paper's
        # constant K = 2 D^2 / (D^2 - p^2), D = rho (1-p)^2 + p, exactly
        rho, p = Fraction(2), Fraction(1, 10)
        g = exact_rational_convolution(2, p, rho * (1 - p), 2)
        ratio = g[1] ** 2 / (g[2] * g[0])
        assert ratio == Fraction(16562, 8231)
        d2 = (rho * (1 - p) ** 2 + p) ** 2
        assert ratio > 2 * d2 / (d2 - p * p)
        assert exact_lemma_check(rho, p, 2, 1) == [(2, 1)]

    @pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
    @pytest.mark.parametrize(
        "x",
        [Fraction(1414, 1000), Fraction(1415, 1000), Fraction(173, 100),
         Fraction(174, 100), Fraction(2)],
    )
    def test_sharp_constant_fails_at_n_one_iff_x_squared_exceeds_k(self, p, x):
        # with x = rho (1-p)^2 / p, row k breaks the paper's inequality at
        # n = 1 iff (x + 1) sqrt(k) > k + x, that is iff (k - 1)(x^2 - k) > 0:
        # never for x <= sqrt(2), and at x = 2 row k = 4 is an exact tie
        rho = x * p / (1 - p) ** 2
        expected = [(k, 1) for k in range(2, 9) if x * x > k]
        assert exact_lemma_check(rho, p, 8, 1) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(0, 1, max_denominator=12),
        st.fractions(0, 8, max_denominator=12),
        st.integers(0, 6),
        st.integers(0, 8),
    )
    @example(a=Fraction(0), b=Fraction(3, 2), k_max=4, n_max=6)
    @example(a=Fraction(1), b=Fraction(5, 7), k_max=4, n_max=6)
    @example(a=Fraction(1), b=Fraction(0), k_max=4, n_max=6)
    @example(a=Fraction(2, 5), b=Fraction(0), k_max=5, n_max=7)
    @example(a=Fraction(1, 10), b=Fraction(9, 5), k_max=6, n_max=4)
    @example(a=Fraction(0), b=Fraction(0), k_max=3, n_max=3)
    def test_integer_route_matches_fractions(self, a, b, k_max, n_max):
        if a == 0 and b == 0:
            with pytest.raises(ValueError, match="degenerate"):
                exact_generalized_check(a, b, k_max, n_max)
        else:
            assert exact_generalized_check(a, b, k_max, n_max) == fraction_check(
                a, b, k_max, n_max
            )

    def test_generalized_check_reduction(self):
        # a=p, b=rho(1-p) reproduces the kernel inequality exactly
        rho, p = Fraction(1), Fraction(1, 2)
        assert exact_generalized_check(p, rho * (1 - p), 6, 10) == []


class TestTripleAgreement:
    @pytest.mark.parametrize("rho,p", [(0.5, 0.5), (2.0, 0.9)])
    def test_three_routes_agree(self, rho, p):
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        mat = uniformized_kernel(params, t, 60, 1e-10)
        a = Fraction(params.p(t))
        b = Fraction(params.rho * params.q(t))
        for k in (0, 3, 10):
            exact = exact_rational_convolution(k, a, b, 20)
            for n in range(21):
                closed = math.exp(kernel_entry(params, t, k, n))
                rational = float(exact[n]) * math.exp(-float(b))
                assert closed == pytest.approx(rational, rel=1e-12, abs=1e-300)
                assert mat[k, n] == pytest.approx(closed, abs=1e-9)

    def test_monte_carlo_concordance(self):
        cfg = SimulationConfig(seed=99, replications=200_000, horizon=1.0)
        states = gillespie_terminal_states(PARAMS, 5, cfg)
        emp = empirical_pmf(states, 15)
        for n in range(16):
            q = math.exp(kernel_entry(PARAMS, 1.0, 5, n))
            se = math.sqrt(q * (1 - q) / cfg.replications)
            assert abs(emp[n] - q) <= 5 * se + 1e-12
