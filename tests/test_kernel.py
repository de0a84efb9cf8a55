"""Kernel-layer tests: Mehler rows, single entries, semigroup, generator,
reversibility, Chapman-Kolmogorov consistency."""

import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mminf.distributions as distributions_module
from mminf.bounds import sharpness_decay
from mminf.distributions import (
    LOG_ZERO,
    _log_comb_table,
    binomial_log_pmf,
    binomial_log_rows,
    poisson_log_pmf,
    poisson_window,
)
from mminf.kernel import (
    Observable,
    QueueParams,
    _kernel_column,
    _log_semigroup_profile,
    generator_apply,
    kernel_entry,
    kernel_log_matrix,
    log_semigroup_apply,
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
    """Rows of the kernel, B(k, p) * Poisson(rho (1-p)), and the semigroup of
    a bounded callable, which sums over them on a certified window."""

    def test_k_zero_row_is_poisson(self):
        # A_t 1{m}(0) is the Poisson(b) mass at m for m in the window
        t = 0.7
        b = PARAMS.rho * PARAMS.q(t)
        for m in range(poisson_window(b, 1e-12)[1] + 1):
            point = Observable.from_callable(lambda n, m=m: float(n == m), sup=1.0)
            assert log_semigroup_apply(PARAMS, t, point, 0) == pytest.approx(
                poisson_log_pmf(b, m), abs=1e-14
            )

    def test_row_stochasticity(self):
        # the window of row k holds all but deficit of its mass:
        # 1 - deficit - rounding <= A_t 1(k) <= 1 + rounding
        params = QueueParams(lam=2.0, mu=1.0)
        t, deficit = math.log(2.0), 1e-12
        one = Observable.from_callable(lambda n: 1.0, sup=1.0)
        _, n_pois = poisson_window(params.rho * params.q(t), deficit)
        for k in (0, 3, 40):
            value = math.exp(log_semigroup_apply(params, t, one, k, deficit))
            rounding = (k + n_pois + 1) * 2.3e-16
            assert 1.0 - deficit - rounding <= value <= 1.0 + rounding

    def test_time_zero_degenerate(self):
        # at t = 0 the row is the Dirac mass at k
        f = Observable.from_callable(lambda n: 1.0 / (n + 1.0), sup=1.0)
        out = semigroup_apply(PARAMS, 0.0, f, 5)
        assert (out.value, out.error) == (1.0 / 6.0, 0.0)

    def test_negative_time_rejected(self):
        one = Observable.from_callable(lambda n: 1.0, sup=1.0)
        with pytest.raises(ValueError):
            semigroup_apply(PARAMS, -0.1, one, 2)
        with pytest.raises(ValueError):
            log_semigroup_apply(PARAMS, -0.1, one, 2)

    def test_positive_masses_for_positive_time(self):
        _, n_pois = poisson_window(PARAMS.rho * PARAMS.q(1.0), 1e-10)
        row = kernel_log_matrix(PARAMS, 1.0, 4, 4 + n_pois)[4]
        assert np.all(np.isfinite(row))


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

    @pytest.mark.parametrize("rho,p", [(0.5, 0.1), (2.5, 0.55), (10.0, 0.9)])
    def test_callable_matches_table_on_its_window(self, rho, p):
        # a callable is summed over the window 0..n_hi + N; a table of the
        # same values there is summed over the same points, without a
        # truncation error: the same floats, so within the callable's budget
        params = QueueParams(lam=rho, mu=1.0)
        t, n_hi, deficit = params.t_for_p(p), 12, 1e-12
        func = lambda n: 1.0 / (1.0 + (n - 5.0) ** 2)  # noqa: E731
        _, n_pois = poisson_window(params.rho * params.q(t), deficit)
        table = {m: func(m) for m in range(n_hi + n_pois + 1)}
        f = Observable.from_callable(func, sup=1.0)
        logs, err = _log_semigroup_profile(params, t, f, 0, n_hi, deficit)
        ref, ref_err = _log_semigroup_profile(
            params, t, Observable.from_table(table), 0, n_hi, deficit
        )
        assert np.array_equal(logs, ref)
        assert err > ref_err > 0.0

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


def running_sum_kernel_log(params, t, k, n):
    """log G_k(n) from the scalar binomial_log_pmf + poisson_log_pmf terms,
    added one at a time in order of j by a Python loop: a reference that
    shares no code with the kernel's block."""
    p_t, b = params.p(t), params.rho * params.q(t)
    terms = [
        binomial_log_pmf(k, p_t, j) + poisson_log_pmf(b, n - j)
        for j in range(min(k, n) + 1)
    ]
    m = max(terms)
    if m == LOG_ZERO:
        return LOG_ZERO
    s = 0.0
    for x in np.exp(np.array(terms) - m):
        s += x
    return m + np.log(s)


def test_kernel_log_matrix_consistent_with_entries():
    t = 0.9
    g = kernel_log_matrix(PARAMS, t, 6, 12)
    for k in range(7):
        for n in range(13):
            assert g[k, n] == running_sum_kernel_log(PARAMS, t, k, n)
            assert kernel_entry(PARAMS, t, k, n) == g[k, n]


@given(
    rho=st.floats(min_value=0.01, max_value=20.0),
    p=st.floats(min_value=0.001, max_value=0.999),
    k_max=st.integers(0, 45),
    n=st.integers(0, 60),
    k_min=st.integers(0, 45),
)
@settings(max_examples=60, deadline=None)
def test_kernel_column_is_matrix_column(rho, p, k_max, n, k_min):
    # a column is a one-column block of the same primitive: the same floats
    k_min = min(k_min, k_max)
    params = QueueParams(lam=rho, mu=1.0)
    t = params.t_for_p(p)
    col = _kernel_column(params.lam, params.mu, t, k_min, k_max, n)
    assert col.shape == (k_max + 1 - k_min,)
    assert not col.flags.writeable
    assert np.array_equal(col, kernel_log_matrix(params, t, k_max, n)[k_min:, n])


@given(
    rho=st.floats(min_value=0.01, max_value=20.0),
    p=st.floats(min_value=0.001, max_value=0.999),
    k_max=st.integers(0, 45),
    n=st.integers(0, 60),
    k_min=st.integers(0, 45),
)
@settings(max_examples=60, deadline=None)
def test_kernel_column_is_running_sum_of_scalar_terms(rho, p, k_max, n, k_min):
    k_min = min(k_min, k_max)
    params = QueueParams(lam=rho, mu=1.0)
    t = params.t_for_p(p)
    ref = [running_sum_kernel_log(params, t, k, n) for k in range(k_min, k_max + 1)]
    col = _kernel_column(params.lam, params.mu, t, k_min, k_max, n)
    assert np.array_equal(col, ref)


def test_log_comb_table_read_only():
    table = _log_comb_table(2, 6, 3)
    assert table.shape == (5, 4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[2, 1] = 0.0
    assert np.shares_memory(_log_comb_table(2, 6, 1), table)
    assert table[4, 2] == math.log(math.comb(6, 2))
    assert table[0, 3] == LOG_ZERO


@pytest.fixture
def comb_calls(monkeypatch):
    """Every (k, j) the distributions module asks math.comb for, starting
    from no kept log C(k, j) table."""
    calls = []

    def counted(k, j):
        calls.append((k, j))
        return math.comb(k, j)

    counting_math = types.SimpleNamespace(**{**vars(math), "comb": counted})
    monkeypatch.setattr(distributions_module, "math", counting_math)
    monkeypatch.setattr(distributions_module, "_log_comb_tables", {})
    return calls


def test_log_comb_table_widens_computing_each_entry_once(comb_calls):
    # one table for every p: widening and a new p compute no entry twice
    k_min, k_max = 3, 40
    widths = []
    for p, j_hi in zip((0.45, 0.1, 0.45, 0.9, 0.3, 0.7), (2, 5, 6, 1, 30, 40)):
        rows = binomial_log_rows(p, k_min, k_max, j_hi)
        assert rows.shape == (k_max + 1 - k_min, j_hi + 1)
        (table,) = distributions_module._log_comb_tables.values()
        widths.append(table.shape[1])
        for k in range(k_min, k_max + 1):
            for j in range(min(k, j_hi) + 1):
                scalar = (
                    math.log(math.comb(k, j))
                    + j * math.log(p)
                    + (k - j) * math.log1p(-p)
                )
                assert rows[k - k_min, j] == scalar
            assert (rows[k - k_min, k + 1 :] == LOG_ZERO).all()
    # each width is the asked j_hi + 1, or twice the last, capped at k_max + 1
    assert widths == [3, 6, 12, 12, 31, 41]
    assert len(comb_calls) == len(set(comb_calls))
    assert len(comb_calls) == sum(k + 1 for k in range(k_min, k_max + 1))


def test_semigroup_tables_sized_to_the_rows_and_support(comb_calls):
    # three rows near n = 2000 of a one-point support read one 3 x 1 table
    # for all three t, not the triangle of every row up to n + 1
    params = QueueParams(lam=1.7, mu=1.0)
    sharpness_decay(params, Observable.indicator([0]), 2000, [0.5, 1.0, 2.0])
    assert sorted(comb_calls) == [(1999, 0), (2000, 0), (2001, 0)]
    comb_calls.clear()
    log_semigroup_apply(params, 0.75, Observable.indicator([0, 1]), 3000)
    assert sorted(comb_calls) == [(3000, 0), (3000, 1)]
    (table,) = distributions_module._log_comb_tables.values()
    assert table.shape == (1, 2)


def test_large_row_callable_memory_is_bounded():
    # one row at k = 2000 over a window of ~2,020 points sums ~4M terms; in
    # chunks of rows and columns it peaks near 1 MB, where one gather of all
    # its Poisson terms took 97 MB. The value is the float it had before.
    params = QueueParams(lam=1.7, mu=1.0)
    f = Observable.from_callable(lambda n: 1.0 / (1.0 + n), sup=1.0)
    value = float.fromhex("-0x1.b68ce8a339da0p+2")
    # the first call computes the 2,001 log C(2000, j), whose big integers
    # tracemalloc would make slow to trace
    assert log_semigroup_apply(params, 0.75, f, 2000) == value
    tracemalloc.start()
    try:
        assert log_semigroup_apply(params, 0.75, f, 2000) == value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
