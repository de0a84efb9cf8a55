"""Distribution-layer tests: log pmfs, certified windows, convolution."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mminf.distributions import (
    LOG_ZERO,
    binomial_log_pmf,
    convolution_log_matrix,
    convolve,
    logsumexp,
    poisson_log_pmf,
    poisson_window,
)
from mminf.oracle import exact_rational_convolution, log_fraction


class TestPoissonLogPmf:
    def test_dirac_at_zero(self):
        assert poisson_log_pmf(0.0, 0) == 0.0
        assert poisson_log_pmf(0.0, 3) == LOG_ZERO

    def test_rate_one_at_two(self):
        # exact rational evaluation: 1^2 e^{-1} / 2! = e^{-1}/2
        expected = math.log(0.5) - 1.0
        assert poisson_log_pmf(1.0, 2) == pytest.approx(expected, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_log_pmf(-1.0, 0)
        with pytest.raises(ValueError):
            poisson_log_pmf(1.0, -1)

    def test_log_factorial_against_exact_integers(self):
        # lgamma route must agree with exact integer factorials below 20
        for n in range(20):
            exact = math.log(math.factorial(n))
            assert math.lgamma(n + 1) == pytest.approx(exact, rel=1e-14, abs=1e-14)

    @given(st.floats(min_value=1e-3, max_value=50.0), st.integers(0, 100))
    def test_masses_in_unit_interval(self, rate, n):
        lm = poisson_log_pmf(rate, n)
        assert lm <= 1e-15


class TestBinomialLogPmf:
    def test_fair_coin(self):
        assert binomial_log_pmf(2, 0.5, 1) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_dirac_conventions(self):
        assert binomial_log_pmf(3, 1.0, 3) == 0.0
        assert binomial_log_pmf(3, 1.0, 1) == LOG_ZERO
        assert binomial_log_pmf(3, 0.0, 0) == 0.0
        assert binomial_log_pmf(3, 0.0, 2) == LOG_ZERO

    def test_exact_rational_case(self):
        # C(4,2) (3/10)^2 (7/10)^2 = 6 * 0.09 * 0.49
        expected = math.log(6 * 0.09 * 0.49)
        assert binomial_log_pmf(4, 0.3, 2) == pytest.approx(expected, rel=1e-13)

    def test_outside_support(self):
        assert binomial_log_pmf(4, 0.3, 5) == LOG_ZERO
        assert binomial_log_pmf(4, 0.3, -1) == LOG_ZERO

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binomial_log_pmf(4, 1.5, 2)
        with pytest.raises(ValueError):
            binomial_log_pmf(-1, 0.5, 0)

    @given(st.integers(0, 40), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_masses_sum_to_one(self, k, a):
        total = math.fsum(
            math.exp(binomial_log_pmf(k, a, j)) for j in range(k + 1)
        )
        assert total == pytest.approx(1.0, abs=max(k, 1) * 2.3e-16)


class TestPoissonWindow:
    def test_dirac(self):
        assert poisson_window(0.0, 1e-12) == (0, 0)

    def test_rate_one_half_deficit(self):
        # pi_1(0) + pi_1(1) = 2 e^{-1} ~ 0.7358, so the window stops at 1
        assert poisson_window(1.0, 0.5) == (0, 1)

    def test_rate_ten_tiny_deficit(self):
        lo, hi = poisson_window(10.0, 1e-15)
        assert lo == 0
        assert hi <= 80
        # exact partial-sum oracle for the certified tail
        tail = 1.0 - math.fsum(math.exp(poisson_log_pmf(10.0, n)) for n in range(hi + 1))
        assert tail <= 1e-15 + 1e-16

    @given(
        st.floats(min_value=1e-3, max_value=40.0),
        st.floats(min_value=1e-14, max_value=0.1),
    )
    @settings(max_examples=100)
    def test_window_is_sound(self, rate, deficit):
        # reference tail summed from the tail side to avoid cancellation
        _, hi = poisson_window(rate, deficit)
        tail = math.fsum(
            math.exp(poisson_log_pmf(rate, n)) for n in range(hi + 1, hi + 500)
        )
        assert tail <= deficit * (1 + 1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_window(1.0, 0.0)
        with pytest.raises(ValueError):
            poisson_window(1.0, 1.0)


class TestConvolve:
    def test_binomial_zero_trials_is_poisson(self):
        pmf = convolve(0, 0.3, 2.0, 1e-12)
        for n in range(len(pmf)):
            assert pmf.log_mass(n) == pytest.approx(
                poisson_log_pmf(2.0, n), abs=1e-14
            )

    def test_poisson_dirac_side(self):
        pmf = convolve(1, 0.3, 0.0, 1e-12)
        assert pmf.mass(0) == pytest.approx(0.7, rel=1e-15)
        assert pmf.mass(1) == pytest.approx(0.3, rel=1e-15)

    def test_two_trials_fair_coin_at_zero(self):
        pmf = convolve(2, 0.5, 1.0, 1e-12)
        assert pmf.mass(0) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-13)

    def test_windowed_mass_brackets_one(self):
        for k, a, b in [(0, 0.0, 1.0), (3, 0.4, 2.5), (10, 0.9, 0.3)]:
            pmf = convolve(k, a, b, 1e-10)
            m = pmf.windowed_mass()
            assert 1.0 - 1e-10 <= m <= 1.0 + len(pmf) * 2.3e-16

    def test_deficit_recorded(self):
        pmf = convolve(2, 0.5, 1.0, 1e-9)
        assert pmf.tail_deficit == 1e-9


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=40.0),
    k_max=st.integers(0, 40),
    n_hi=st.integers(0, 70),
    k=st.integers(0, 40),
)
@settings(max_examples=100, deadline=None)
def test_block_row_equals_single_row(a, b, k_max, n_hi, k):
    # every row of a block is built alone from the shared Poisson vector, so a
    # row taken on its own matches it bit for bit
    k = min(k, k_max)
    block = convolution_log_matrix(a, b, k_max, n_hi)
    assert block.shape == (k_max + 1, n_hi + 1)
    single = convolution_log_matrix(a, b, k, n_hi, k_min=k)
    assert single.shape == (1, n_hi + 1)
    assert np.array_equal(block[k], single[0])


class TestAgainstRationalOracle:
    # representative slice of the k <= 30 grid; each cell cross-checks every
    # windowed mass against exact rational arithmetic
    GRID_K = [0, 1, 2, 5, 13, 30]
    GRID_A = [0.0, 0.1, 0.5, 0.9, 1.0]
    GRID_B = [0.0, 0.5, 1.0, 2.0, 10.0]

    @pytest.mark.parametrize("k", GRID_K)
    @pytest.mark.parametrize("b", GRID_B)
    def test_log_domain_matches_exact_rationals(self, k, b):
        for a in self.GRID_A:
            n_hi = k + 25
            logs = convolution_log_matrix(a, b, k, n_hi, k_min=k)[0]
            exact = exact_rational_convolution(k, Fraction(a), Fraction(b), n_hi)
            for n in range(n_hi + 1):
                if exact[n] == 0:
                    assert logs[n] == LOG_ZERO
                    continue
                log_exact = log_fraction(exact[n]) - b
                if log_exact < math.log(1e-300):
                    continue
                assert abs(math.expm1(logs[n] - log_exact)) <= 1e-12


def test_logsumexp_all_neg_inf():
    assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_law_validation():
    with pytest.raises(ValueError):
        convolve(2, 0.5, -0.5, 1e-12)
    with pytest.raises(ValueError):
        convolve(-1, 0.5, 1.0, 1e-12)
    with pytest.raises(ValueError):
        convolve(2, 1.5, 1.0, 1e-12)
