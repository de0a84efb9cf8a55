"""Bound constants and inequality verification tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mminf.bounds import (
    LOG_TWELVE,
    glmrs_bound,
    lemma_K,
    log_laplacian,
    remark_M,
    sharp_bound,
    sharpness_decay,
    verify_generalized,
    verify_kernel_lemma,
    verify_theorem,
)
from mminf.distributions import LOG_ZERO, logsumexp
from mminf.kernel import (
    Observable,
    QueueParams,
    _log_semigroup_profile,
    kernel_entry,
)

rho_st = st.floats(min_value=1e-2, max_value=50.0)


def scalar_log_semigroup(params, t, f, n):
    """log A_t f(n) summed over the support from scalar kernel entries."""
    return logsumexp(
        math.log(v) + kernel_entry(params, t, n, m) for m, v in f.table.items()
    )
p_st = st.floats(min_value=0.0, max_value=0.999)


class TestSharpBound:
    def test_endpoints(self):
        assert sharp_bound(2.0, 0.0) == 0.0
        assert sharp_bound(2.0, 1.0) == LOG_ZERO

    def test_exact_rational_point(self):
        # rho=1, p=1/2: 1 - (1/4)/(9/16) = 5/9
        assert sharp_bound(1.0, 0.5) == pytest.approx(math.log(5 / 9), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sharp_bound(-1.0, 0.5)

    @given(rho_st, p_st)
    def test_never_positive(self, rho, p):
        assert sharp_bound(rho, p) <= 0.0


class TestGlmrsBound:
    def test_p_zero_is_minus_log_twelve(self):
        assert glmrs_bound(3.0, 0.0) == pytest.approx(-math.log(12.0), rel=1e-15)

    def test_rational_point(self):
        expected = math.log(5 / 9) - math.log(12.0)
        assert glmrs_bound(1.0, 0.5) == pytest.approx(expected, rel=1e-14)

    @given(rho_st, p_st)
    @example(rho=0.01171875, p=0.99609375)
    @example(rho=0.5, p=0.999)
    def test_offset_identity(self, rho, p):
        # glmrs_bound rounds sharp - log 12 once, so the difference can only
        # be trusted to a few ulps of the operands: |sharp_bound| reaches ~15
        # near p = 0.999, where one ulp is 1.8e-15
        sharp = sharp_bound(rho, p)
        tol = 4.0 * math.ulp(max(abs(sharp), LOG_TWELVE))
        assert sharp - glmrs_bound(rho, p) == pytest.approx(LOG_TWELVE, abs=tol)


class TestLemmaK:
    def test_simplest_case(self):
        assert lemma_K(1.0, 0.0, 1) == pytest.approx(2.0, rel=1e-15)

    def test_p_zero_is_ultra_log_convex_constant(self):
        for n in (1, 2, 7):
            assert lemma_K(5.0, 0.0, n) == pytest.approx((n + 1) / n, rel=1e-15)

    def test_exact_rational_point(self):
        # rho=1, p=1/2, n=2: 1 / [(2/3)(5/9)] = 27/10
        assert lemma_K(1.0, 0.5, 2) == pytest.approx(2.7, rel=1e-14)

    def test_p_one_sentinel(self):
        assert lemma_K(1.0, 1.0, 3) == math.inf

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            lemma_K(1.0, 0.5, 0)

    @given(rho_st, p_st, st.integers(1, 50))
    def test_exceeds_ultra_log_convex_constant(self, rho, p, n):
        assert lemma_K(rho, p, n) >= (n + 1) / n


class TestRemarkM:
    def test_a_zero(self):
        for n in (1, 3):
            assert remark_M(0.0, 2.0, n) == pytest.approx((n + 1) / n, rel=1e-15)

    def test_exact_rational_point(self):
        # a=3/10, b=2: M^{-1} = (1/2)(1 - (9/100)/(289/100)) = 140/289
        expected = Fraction(289, 140)
        assert remark_M(0.3, 2.0, 1) == pytest.approx(float(expected), rel=1e-14)

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            remark_M(0.0, 0.0, 1)

    @pytest.mark.parametrize("n", [28, 30, 69])
    def test_zero_survival_is_exactly_ultra_log_convex_constant(self, n):
        # lattice points where computing 1 / ((n/(n+1)) * 1) rounds below (n+1)/n
        assert lemma_K(1.0, 0.0, n) == (n + 1) / n
        assert remark_M(0.0, 2.0, n) == (n + 1) / n

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.integers(1, 50),
    )
    def test_exceeds_ultra_log_convex_constant(self, a, b, n):
        assume(a > 0.0 or b > 0.0)
        assert remark_M(a, b, n) >= (n + 1) / n

    @given(p_st.filter(lambda p: p > 0), rho_st, st.integers(1, 30))
    def test_reduction_to_lemma_constant(self, p, rho, n):
        b = rho * (1.0 - p)
        assert remark_M(p, b, n) == pytest.approx(
            lemma_K(rho, p, n), rel=1e-12
        )


class TestLogLaplacian:
    def test_constant(self):
        assert log_laplacian(3.0, 3.0, 3.0) == 0.0

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-2, max_value=1e2),
    )
    def test_geometric_sequence_vanishes(self, c, r):
        got = log_laplacian(c, c * r, c * r * r)
        assert got == pytest.approx(0.0, abs=1e-11)

    def test_direct_value(self):
        assert log_laplacian(1.0, 2.0, 5.0) == pytest.approx(
            math.log(5 / 4), rel=1e-14
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log_laplacian(1.0, 0.0, 2.0)


class TestVerifyKernelLemma:
    def test_k_zero_equality_diagnostic(self):
        # Poisson row: margin reduces to log K - log((n+1)/n) for every n
        params = QueueParams(lam=1.0, mu=1.0)
        t = params.t_for_p(0.5)
        report = verify_kernel_lemma(params, t, 0, 10)
        for case in report.cases:
            n = case.key[-1]
            expected = math.log(lemma_K(1.0, 0.5, n)) - math.log((n + 1) / n)
            assert case.margin == pytest.approx(expected, abs=1e-12)

    def test_equality_at_k1_n1(self):
        # the lemma constant is attained at k=1, n=1
        params = QueueParams(lam=1.0, mu=1.0)
        report = verify_kernel_lemma(params, params.t_for_p(0.5), 1, 1)
        case = [c for c in report.cases if c.key[-2:] == (1, 1)][0]
        assert abs(case.margin) <= case.budget

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_passes_where_survival_dominates_innovation(self, rho, p):
        # the inequality holds when rho (1-p)^2 is small relative to p
        params = QueueParams(lam=rho, mu=1.0)
        report = verify_kernel_lemma(params, params.t_for_p(p), 15, 30)
        assert report.verdict
        assert report.worst_case.margin >= -report.error_budget

    def test_detects_violation_in_heavy_innovation_regime(self):
        # for rho (1-p)^2 >> p the claimed constant is too strong: at rho=2,
        # p=0.1 the exact-rational oracle and the uniformization oracle both
        # confirm G_2(1)^2 > K G_2(2) G_2(0); the verifier must say fail
        params = QueueParams(lam=2.0, mu=1.0)
        report = verify_kernel_lemma(params, params.t_for_p(0.1), 5, 5)
        assert not report.verdict
        worst = report.worst_case
        assert worst.margin < -1e-4
        assert worst.margin == pytest.approx(-0.0078014, abs=1e-6)

    def test_time_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_kernel_lemma(QueueParams(1.0, 1.0), 0.0, 2, 2)


class TestVerifyTheorem:
    PARAMS = QueueParams(lam=1.0, mu=1.0)

    def test_constant_observable(self):
        one = Observable.from_callable(lambda n: 1.0, sup=1.0)
        report = verify_theorem(self.PARAMS, 1.0, one, 10)
        assert report.verdict
        # Laplacian of a constant is 0, so each margin is -sharp_bound >= 0
        expected = -sharp_bound(1.0, self.PARAMS.p(1.0))
        for case in report.cases:
            assert case.margin == pytest.approx(expected, abs=1e-10)

    def test_indicator_pipeline(self):
        f = Observable.indicator([0])
        report = verify_theorem(self.PARAMS, 1.0, f, 20)
        assert report.verdict
        assert all(case.budget > 0 for case in report.cases)
        # one budget object for the whole report, not one float per case
        assert len({id(case.budget) for case in report.testable_cases}) == 1

    def test_glmrs_margin_offset(self):
        f = Observable.from_table({0: 1.0, 2: 3.0})
        sharp = verify_theorem(self.PARAMS, 0.8, f, 15, against="sharp")
        loose = verify_theorem(self.PARAMS, 0.8, f, 15, against="glmrs")
        for cs, cl in zip(sharp.cases, loose.cases):
            assert cl.margin - cs.margin == pytest.approx(LOG_TWELVE, abs=1e-12)

    @given(
        rho=st.floats(min_value=0.25, max_value=10.0),
        p=st.floats(min_value=0.05, max_value=0.95),
        table=st.dictionaries(
            st.integers(0, 15), st.floats(min_value=0.1, max_value=10.0),
            min_size=1, max_size=8,
        ),
        n_hi=st.integers(0, 41),
        n_lo=st.integers(0, 41),
    )
    @settings(max_examples=50, deadline=None)
    def test_table_profile_matches_scalar_route(self, rho, p, table, n_hi, n_lo):
        # the cached kernel columns and a sum of scalar kernel entries differ
        # only in rounding, a few ulps of log A_t f
        n_lo = min(n_lo, n_hi)
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        f = Observable.from_table(table)
        logs, _ = _log_semigroup_profile(params, t, f, n_lo, n_hi, 1e-12)
        scalar = np.array(
            [scalar_log_semigroup(params, t, f, n) for n in range(n_lo, n_hi + 1)]
        )
        tol = 1e-14 + 8.0 * np.spacing(np.abs(scalar))
        assert np.all(np.abs(logs - scalar) <= tol)

    def test_table_point_far_beyond_n_max(self):
        # a support point far past the profile costs a few kernel entries,
        # not a block reaching out to it
        t = self.PARAMS.t_for_p(0.5)
        f = Observable.indicator([0, 5000])
        logs, _ = _log_semigroup_profile(self.PARAMS, t, f, 0, 6, 1e-12)
        scalar = np.array(
            [scalar_log_semigroup(self.PARAMS, t, f, n) for n in range(7)]
        )
        assert np.all(np.abs(logs - scalar) <= 1e-14 + 8.0 * np.spacing(np.abs(scalar)))
        report = verify_theorem(self.PARAMS, t, f, 5)
        assert [case.key[2] for case in report.cases] == [1, 2, 3, 4, 5]
        assert all(case.testable for case in report.cases)

    def test_lemma_implies_theorem(self):
        # wherever the kernel lemma passes, single-point observables inherit a
        # non-negative theorem margin through the Cauchy-Schwarz step
        for p in (0.5, 0.7):
            t = self.PARAMS.t_for_p(p)
            lemma = verify_kernel_lemma(self.PARAMS, t, 5, 10)
            assert lemma.verdict
            for m in (0, 1, 4):
                thm = verify_theorem(self.PARAMS, t, Observable.indicator([m]), 10)
                assert thm.verdict


class TestVerifyGeneralized:
    def test_a_zero_is_equality_case(self):
        report = verify_generalized(0.0, 1.5, 5, 15)
        assert report.verdict
        for case in report.cases:
            assert case.margin == pytest.approx(0.0, abs=case.budget)

    def test_reduction_matches_kernel_lemma(self):
        params = QueueParams(lam=1.0, mu=1.0)
        lemma = verify_kernel_lemma(params, params.t_for_p(0.5), 6, 12)
        gen = verify_generalized(0.5, 0.5, 6, 12)
        for cl, cg in zip(lemma.cases, gen.cases):
            assert cg.margin == pytest.approx(cl.margin, abs=1e-11)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            verify_generalized(0.0, 0.0, 2, 2)

    def test_b_zero_binomial_edge(self):
        # pure binomial rows: the constant is infinite inside the support and
        # the off-support entries are reported untestable, not failed
        report = verify_generalized(0.5, 0.0, 4, 10)
        assert report.verdict
        assert len(report.untestable_cases) > 0


class TestSharpnessDecay:
    PARAMS = QueueParams(lam=1.0, mu=1.0)

    def test_constant_observable_left_side_zero(self):
        one = Observable.from_callable(lambda n: 1.0, sup=1.0)
        rows = sharpness_decay(self.PARAMS, one, 1, [1.0, 4.0])
        for _, lhs, _ in rows:
            assert lhs <= 1e-10

    def test_both_sides_decay(self):
        f = Observable.indicator([0, 1])
        rows = sharpness_decay(self.PARAMS, f, 1, [1.0, 2.0, 4.0, 8.0, 16.0])
        t_last, lhs, rhs = rows[-1]
        assert t_last == 16.0
        assert lhs < 1e-6
        assert rhs < 1e-6

    def test_right_side_small_p_asymptotics(self):
        # |log(1-x)| <= x/(1-x); at large t the bound magnitude is ~ p^2
        t = 16.0
        p = self.PARAMS.p(t)
        d = p + self.PARAMS.rho * (1 - p) ** 2
        x = (p / d) ** 2
        assert abs(sharp_bound(self.PARAMS.rho, p)) <= x / (1 - x) + 1e-16
