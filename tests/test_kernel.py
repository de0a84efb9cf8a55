"""Kernel-layer tests: Mehler rows, single entries, semigroup, generator,
reversibility, Chapman-Kolmogorov consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mminf.distributions import LOG_ZERO, poisson_log_pmf
from mminf.kernel import (
    Observable,
    QueueParams,
    generator_apply,
    kernel_entry,
    kernel_log_column,
    kernel_log_matrix,
    log_semigroup_apply,
    mehler_row,
    reversibility_defect,
    semigroup_apply,
)
from mminf.oracle import exact_rational_convolution, log_fraction


PARAMS = QueueParams(lam=1.0, mu=1.0)


class TestQueueParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueueParams(0.0, 1.0)
        with pytest.raises(ValueError):
            QueueParams(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError):
            QueueParams(bad, 1.0)
        with pytest.raises(ValueError):
            QueueParams(1.0, bad)

    def test_derived_quantities(self):
        params = QueueParams(lam=3.0, mu=2.0)
        assert params.rho == 1.5
        assert params.p(0.0) == 1.0
        t = params.t_for_p(0.25)
        assert params.p(t) == pytest.approx(0.25, rel=1e-15)
        assert params.q(t) == pytest.approx(0.75, rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PARAMS.p(-1.0)


class TestKernelEntry:
    def test_k_zero_is_poisson(self):
        t = PARAMS.t_for_p(0.5)
        b = PARAMS.rho * PARAMS.q(t)
        for n in range(15):
            assert kernel_entry(PARAMS, t, 0, n) == pytest.approx(
                poisson_log_pmf(b, n), abs=1e-14
            )

    def test_k_one_closed_form(self):
        # (1-p) pi_b(n) + p pi_b(n-1) = ((1-p) + p n / b) pi_b(n)
        t = PARAMS.t_for_p(0.5)
        p = PARAMS.p(t)
        b = PARAMS.rho * PARAMS.q(t)
        for n in range(1, 20):
            closed = math.log((1 - p) + p * n / b) + poisson_log_pmf(b, n)
            got = kernel_entry(PARAMS, t, 1, n)
            assert abs(math.expm1(got - closed)) <= 1e-12

    def test_k_one_n_one_value(self):
        # rho=1, p=1/2: G_1(1) = 0.75 e^{-1/2} by brute-force convolution
        t = PARAMS.t_for_p(0.5)
        got = math.exp(kernel_entry(PARAMS, t, 1, 1))
        oracle = float(
            exact_rational_convolution(1, Fraction(1, 2), Fraction(1, 2), 1)[1]
        ) * math.exp(-0.5)
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got == pytest.approx(0.75 * math.exp(-0.5), rel=1e-13)

    def test_matches_rational_oracle(self):
        t = PARAMS.t_for_p(0.5)
        a = Fraction(PARAMS.p(t))
        b = Fraction(PARAMS.rho * PARAMS.q(t))
        for k in (2, 5):
            exact = exact_rational_convolution(k, a, b, 12)
            for n in range(13):
                log_exact = log_fraction(exact[n]) - float(b)
                got = kernel_entry(PARAMS, t, k, n)
                assert abs(math.expm1(got - log_exact)) <= 1e-12

    def test_time_zero_is_dirac(self):
        assert kernel_entry(PARAMS, 0.0, 4, 4) == 0.0
        assert kernel_entry(PARAMS, 0.0, 4, 3) == LOG_ZERO


class TestMehlerRow:
    def test_k_zero_row_is_poisson(self):
        t = 0.7
        row = mehler_row(PARAMS, t, 0, 1e-12)
        b = PARAMS.rho * PARAMS.q(t)
        for n in range(row.support_end + 1):
            assert row.log_mass(n) == pytest.approx(
                poisson_log_pmf(b, n), abs=1e-14
            )

    def test_row_stochasticity(self):
        params = QueueParams(lam=2.0, mu=1.0)
        row = mehler_row(params, math.log(2.0), 3, 1e-12)
        m = row.windowed_mass()
        assert 1.0 - 1e-12 <= m <= 1.0 + len(row) * 2.3e-16

    def test_time_zero_degenerate(self):
        row = mehler_row(PARAMS, 0.0, 5)
        assert (row.offset, len(row)) == (5, 1)
        assert row.mass(5) == 1.0
        assert row.tail_deficit == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            mehler_row(PARAMS, -0.1, 2)

    def test_positive_masses_for_positive_time(self):
        row = mehler_row(PARAMS, 1.0, 4, 1e-10)
        assert np.all(np.isfinite(row.log_masses))


class TestSemigroup:
    def test_constant_function(self):
        one = Observable.from_callable(lambda n: 1.0, sup=1.0)
        out = semigroup_apply(PARAMS, 0.8, one, 3, deficit=1e-12)
        assert out.value == pytest.approx(1.0, abs=1e-11)
        assert out.error == pytest.approx(1e-12)

    def test_indicator_zero_from_zero(self):
        f = Observable.indicator([0])
        t = 1.3
        out = semigroup_apply(PARAMS, t, f, 0)
        assert out.value == pytest.approx(
            math.exp(-PARAMS.rho * PARAMS.q(t)), rel=1e-13
        )
        assert out.error == 0.0

    def test_linear_mean_identity(self):
        # E[X_t | X_0=k] = k p + rho (1-p); table support wide enough that the
        # missing tail is far below double precision
        f = Observable.from_table({n: float(n) for n in range(1, 200)})
        t = 0.6
        for k in (0, 2, 7):
            out = semigroup_apply(PARAMS, t, f, k)
            expected = k * PARAMS.p(t) + PARAMS.rho * PARAMS.q(t)
            assert out.value == pytest.approx(expected, rel=1e-12)

    def test_time_zero(self):
        f = Observable.from_table({2: 5.0})
        out = semigroup_apply(PARAMS, 0.0, f, 2)
        assert out.value == 5.0

    def test_log_route_agrees(self):
        # semigroup_apply is exp(log_semigroup_apply); the linear-domain sum
        # over the support is the independent reference for both
        f = Observable.from_table({0: 1.0, 1: 3.0, 4: 2.0})
        for k in (0, 3, 9):
            lin = sum(
                v * math.exp(kernel_entry(PARAMS, 0.9, k, m))
                for m, v in f.table.items()
            )
            assert log_semigroup_apply(PARAMS, 0.9, f, k) == pytest.approx(
                math.log(lin), abs=1e-13
            )
            assert semigroup_apply(PARAMS, 0.9, f, k).value == pytest.approx(
                lin, rel=1e-13
            )


class TestObservable:
    def test_rejects_identically_zero(self):
        with pytest.raises(ValueError):
            Observable.from_table({0: 0.0, 1: 0.0})

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Observable.from_table({0: -1.0})

    def test_callable_requires_sup(self):
        with pytest.raises(ValueError):
            Observable.from_callable(lambda n: 1.0, sup=None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Observable.from_table({0: 1.0, 2: bad})
        with pytest.raises(ValueError, match="finite"):
            Observable.from_callable(lambda n: 1.0, sup=bad)
        with pytest.raises(ValueError):
            Observable.from_callable(lambda n: bad, sup=1.0)

    def test_callable_sup_spot_check(self):
        with pytest.raises(ValueError):
            Observable.from_callable(lambda n: float(n), sup=10.0)

    def test_table_off_support_is_zero(self):
        f = Observable.from_table({3: 2.0})
        assert f(5) == 0.0
        assert f(-1) == 0.0  # boundary convention maps -1 to 0


class TestGenerator:
    def test_constant_vanishes(self):
        f = Observable.from_table({n: 4.0 for n in range(10)})
        for n in range(8):
            assert generator_apply(PARAMS, f, n) == 0.0

    def test_linear_function(self):
        params = QueueParams(lam=2.5, mu=0.5)
        f = Observable.from_table({n: float(n) for n in range(1, 30)})
        for n in range(1, 20):
            assert generator_apply(params, f, n) == pytest.approx(
                params.lam - n * params.mu, rel=1e-14
            )

    def test_boundary_convention(self):
        f = Observable.from_table({0: 2.0, 1: 7.0})
        # the death term vanishes at 0 because f(-1) is read as f(0)
        assert generator_apply(PARAMS, f, 0) == PARAMS.lam * (7.0 - 2.0)

    def test_short_time_consistency(self):
        # (A_t f - f)/t converges to the generator action at first order
        f = Observable.from_table({n: (n - 3.0) ** 2 + 1.0 for n in range(26)})
        errs = {}
        for t in (1e-3, 1e-4, 1e-5):
            errs[t] = max(
                abs(
                    (semigroup_apply(PARAMS, t, f, n).value - f(n)) / t
                    - generator_apply(PARAMS, f, n)
                )
                for n in range(8)
            )
        assert errs[1e-3] <= 50 * 1e-3
        assert errs[1e-4] <= 50 * 1e-4
        assert errs[1e-5] <= 50 * 1e-5


class TestReversibility:
    def test_diagonal_is_exact_zero(self):
        assert reversibility_defect(PARAMS, 0.8, 4, 4) == 0.0

    def test_small_cases(self):
        t = PARAMS.t_for_p(0.5)
        assert reversibility_defect(PARAMS, t, 0, 1) <= 1e-13

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_detailed_balance_grid(self, rho, p):
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        worst = max(
            reversibility_defect(params, t, i, j)
            for i in range(0, 21, 4)
            for j in range(0, 21, 4)
        )
        assert worst <= 1e-12

    def test_larger_states_within_budget(self):
        params = QueueParams(lam=3.0, mu=1.0)
        t = params.t_for_p(0.9)
        assert reversibility_defect(params, t, 2, 5) <= 1e-13


def test_chapman_kolmogorov():
    # applying the semigroup at s to n -> G_n(m; t) reproduces the (s+t) kernel
    s, t, m = 0.4, 0.7, 3
    g = Observable.from_callable(
        lambda n: math.exp(kernel_entry(PARAMS, t, n, m)), sup=1.0
    )
    for k in (0, 2, 6):
        lhs = semigroup_apply(PARAMS, s, g, k, deficit=1e-13).value
        rhs = math.exp(kernel_entry(PARAMS, s + t, k, m))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_kernel_log_matrix_consistent_with_entries():
    t = 0.9
    g = kernel_log_matrix(PARAMS, t, 6, 12)
    for k in range(7):
        for n in range(13):
            assert g[k, n] == pytest.approx(
                kernel_entry(PARAMS, t, k, n), abs=1e-13
            )


@given(
    rho=st.floats(min_value=0.01, max_value=20.0),
    p=st.floats(min_value=0.001, max_value=0.999),
    k_max=st.integers(0, 45),
    n=st.integers(0, 45),
    k_min=st.integers(0, 45),
)
@settings(max_examples=60, deadline=None)
def test_kernel_log_column_matches_matrix(rho, p, k_max, n, k_min):
    # the same terms summed in another numpy reduction order: a few ulps apart
    k_min = min(k_min, k_max)
    params = QueueParams(lam=rho, mu=1.0)
    t = params.t_for_p(p)
    col = kernel_log_column(params, t, k_max, n, k_min)
    ref = kernel_log_matrix(params, t, k_max, n)[k_min:, n]
    assert col.shape == (k_max + 1 - k_min,)
    assert np.all(np.abs(col - ref) <= 4.0 * np.spacing(np.maximum(np.abs(ref), 1.0)))
