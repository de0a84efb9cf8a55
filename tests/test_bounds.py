"""Bound constants and inequality verification tests."""

import math
from fractions import Fraction
from functools import partial
from itertools import count

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mminf.bounds import (
    LOG_MASS_FLOOR,
    LOG_TWELVE,
    CaseResult,
    VerificationReport,
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
from mminf.distributions import LOG_ZERO, logsumexp, poisson_window
from mminf.kernel import (
    Observable,
    QueueParams,
    _entry_log_error,
    _kernel_column,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constants_refuse_non_finite_intensity(bad):
    # 1 - (a/d)^2 is formed as (e/d)((e + 2a)/d), which is nan at e = inf
    for constant in (
        lambda: sharp_bound(bad, 0.5),
        lambda: lemma_K(bad, 0.5, 1),
        lambda: remark_M(0.5, bad, 1),
    ):
        with pytest.raises(ValueError, match="finite"):
            constant()


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
        # the indicator of 0..W - 1, W past the Poisson window of row 11, is
        # 1 on the profile's rows to within the deficit
        _, n_pois = poisson_window(self.PARAMS.rho * self.PARAMS.q(1.0), 1e-12)
        one = Observable.indicator(range(11 + n_pois + 1))
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
        assert report.testable.all()
        assert all(case.budget > 0 for case in report.cases)

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
        logs, _ = _log_semigroup_profile(params, t, f, n_lo, n_hi)
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
        logs, _ = _log_semigroup_profile(self.PARAMS, t, f, 0, 6)
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
        assert not report.testable.all()
        untestable = [case for case in report.cases if not case.testable]
        assert len(untestable) == report.testable.size - report.testable.sum()
        for key, margin, budget, testable in untestable:
            assert key[:2] == (0.5, 0.0) and len(key) == 4
            assert math.isnan(margin)
            assert budget == 0.0 and testable is False


def first_least_case(cases):
    """The first testable case of least margin, as min picks it, or None."""
    testable = [case for case in cases if case.testable]
    return min(testable, key=lambda case: case.margin) if testable else None


def _kernel_report(rho, p, k_max, n_max):
    params = QueueParams(lam=rho, mu=1.0)
    return verify_kernel_lemma(params, params.t_for_p(p), k_max, n_max)


def _theorem_report(rho, p, points, n_max):
    params = QueueParams(lam=rho, mu=1.0)
    f = Observable.indicator(points)
    return verify_theorem(params, params.t_for_p(p), f, n_max)


class TestCaseRecords:
    KEY = (2.0, 0.1, 3, 1)

    def test_fields_immutable(self):
        case = CaseResult(self.KEY, -0.5, 1e-12)
        for field in ("key", "margin", "budget", "testable"):
            with pytest.raises(AttributeError):
                setattr(case, field, None)
        assert case == (self.KEY, -0.5, 1e-12, True)

    def test_passed(self):
        assert CaseResult(self.KEY, 0.0, 0.0).passed
        assert CaseResult(self.KEY, -1e-12, 1e-12).passed
        assert not CaseResult(self.KEY, -2e-12, 1e-12).passed
        assert not CaseResult(self.KEY, 1.0, 0.0, False).passed
        assert not CaseResult(self.KEY, math.nan, 1.0).passed

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _kernel_report(2.0, 0.1, 5, 5),  # fails
            lambda: _kernel_report(0.01, 0.01, 3, 200),  # untestable cases
            lambda: verify_generalized(0.5, 5.0, 6, 8),
            lambda: verify_generalized(0.5, 0.0, 4, 10),  # untestable, inf margins
            lambda: verify_generalized(0.0, 1.5, 5, 15),  # equal rows: ties in k
            lambda: _theorem_report(2.0, 0.1, [2], 10),
            lambda: _theorem_report(1.0, 0.999, [0], 150),  # untestable cases
            lambda: VerificationReport(
                (1.0,),
                np.array([[0.5, -1.0], [-1.0, -3.0]]),
                np.array([[0.1, 0.2], [0.3, 0.4]]),
                np.array([[True, True], [True, False]]),
            ),
            lambda: VerificationReport(
                (1.0, 0.5), np.array([0.0, 1.0]), 1e-14, np.array([False, False])
            ),
        ],
    )
    def test_worst_case_is_first_least_testable_case(self, build):
        report = build()
        worst = report.worst_case
        assert "cases" not in report.__dict__  # one record, not the view
        assert worst == first_least_case(report.cases)
        if worst is not None:
            assert type(worst.margin) is float and type(worst.budget) is float


class TestSharpnessDecay:
    PARAMS = QueueParams(lam=1.0, mu=1.0)

    def test_constant_observable_left_side_zero(self):
        # the indicator of 0..W - 1, W past the Poisson window of row 2 at
        # t = 4, the wider one, is 1 on rows 0..2 to within the deficit
        _, n_pois = poisson_window(self.PARAMS.rho * self.PARAMS.q(4.0), 1e-12)
        one = Observable.indicator(range(2 + n_pois + 1))
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


# References for the table path of verify_theorem and for .cases, as they
# read before their fast paths: the general route for every report, with
# masks, boolean indexing and one Python-level record per case. The fast
# paths must give the same floats, flags, types and records.


def masked_logsumexp_axis0(arr):
    # profiles are narrow: their slices are summed by one accumulate
    m = arr.max(axis=0)
    ok = m > LOG_ZERO
    e = arr - np.where(ok, m, 0.0)
    s = np.add.accumulate(np.exp(e, out=e), axis=0, out=e)[-1]
    return m + np.log(s, out=np.full_like(m, LOG_ZERO), where=ok)


def reference_verify_theorem(params, t, f, n_max, against):
    """(margins, budget, testable) of verify_theorem on a table observable."""
    rho, p = params.rho, params.p(t)
    bound = sharp_bound(rho, p) if against == "sharp" else glmrs_bound(rho, p)
    points = sorted(n for n, v in f.table.items() if v > 0)
    g = np.array(
        [_kernel_column(params.lam, params.mu, t, 0, n_max + 1, m) for m in points]
    )
    log_f = np.array([math.log(f.table[m]) for m in points])
    logs = masked_logsumexp_axis0(g + log_f[:, None])
    finite = logs[logs > LOG_ZERO]
    per_value_err = 0.0
    if finite.size:
        per_value_err = _entry_log_error(float(np.abs(finite).max()), len(points))
    lm, l0, lp = logs[:-2], logs[1:-1], logs[2:]
    floor = LOG_MASS_FLOOR + math.log(max(f.sup, 1e-300))
    testable = np.minimum(np.minimum(lm, l0), lp) >= floor
    with np.errstate(invalid="ignore"):
        margins = (lp + lm - 2.0 * l0) - bound
    return margins, 4.0 * per_value_err + 1e-14, testable


def reference_cases(report):
    record = partial(tuple.__new__, CaseResult)
    return [
        record((key + (n,), margin, budget, True))
        if ok
        else record((key + (n,), math.nan, 0.0, False))
        for key, margins, budgets, testable in report.rows()
        for n, margin, budget, ok in zip(count(1), margins, budgets, testable)
    ]


def assert_same_cases(report):
    # repr tells every float apart, -0.0 and nan included; types too
    cases, ref = report.cases, reference_cases(report)
    assert repr(cases) == repr(ref)
    assert [tuple(map(type, c)) for c in cases] == [tuple(map(type, c)) for c in ref]
    assert all(type(case) is CaseResult for case in cases)


@st.composite
def drawn_reports(draw):
    # 1-D reports share one float budget, 2-D ones hold a budget per case
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=12))
    margins = draw(hnp.arrays(np.float64, shape))
    testable = draw(hnp.arrays(np.bool_, shape))
    if draw(st.booleans()):
        testable[...] = True  # every row fully testable
    if len(shape) == 1:
        budgets = draw(st.floats(min_value=0.0, allow_infinity=False))
    else:
        budgets = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    prefix = draw(st.tuples(*[st.floats(0.0, 10.0)] * draw(st.integers(0, 2))))
    return VerificationReport(prefix, margins, budgets, testable)


class TestFastPathsAreTheGeneralRoute:
    @given(
        rho=st.floats(min_value=0.01, max_value=50.0),
        # p = 1 in floating point (-inf masses below the diagonal), p = 0,
        # and the campaign's range between
        t=st.one_of(st.floats(0.01, 5.0), st.sampled_from([1e-17, 800.0])),
        table=st.dictionaries(
            st.one_of(st.integers(0, 60), st.sampled_from([700, 3000, 5000])),
            st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e3)),
            min_size=1, max_size=8,
        ),
        n_max=st.integers(1, 40),
        against=st.sampled_from(["sharp", "glmrs"]),
    )
    @example(rho=1.0, t=1.0, table={0: 2.0}, n_max=40, against="sharp")
    @example(rho=1.0, t=1.0, table={5000: 1.0}, n_max=5, against="glmrs")
    @example(rho=0.5, t=1e-17, table={0: 1.0}, n_max=3, against="sharp")
    @example(rho=1.0, t=0.1, table={0: 1.0, 3000: 1e-300}, n_max=40, against="sharp")
    # only the last value of the profile, or only the first, below the floor
    @example(rho=1.0, t=1.05e-7, table={0: 1.0}, n_max=40, against="sharp")
    @example(rho=1.0, t=math.log(2.0), table={139: 1.0}, n_max=40, against="sharp")
    @settings(max_examples=40, deadline=None)
    def test_table_report(self, rho, t, table, n_max, against):
        assume(any(table.values()))
        params = QueueParams(lam=rho, mu=1.0)
        f = Observable.from_table(table)
        report = verify_theorem(params, t, f, n_max, against=against)
        margins, budget, testable = reference_verify_theorem(
            params, t, f, n_max, against
        )
        assert np.array_equal(report.margins, margins, equal_nan=True)
        assert report.testable.dtype == bool
        assert np.array_equal(report.testable, testable)
        assert type(report.budgets) is float and report.budgets == budget
        assert_same_cases(report)

    @given(report=drawn_reports())
    @settings(max_examples=40, deadline=None)
    def test_cases_of_drawn_reports(self, report):
        assert_same_cases(report)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _kernel_report(2.0, 0.1, 5, 5),
            lambda: _kernel_report(0.01, 0.01, 3, 200),  # untestable cases
            lambda: verify_generalized(0.5, 0.0, 4, 10),  # untestable, inf margins
            lambda: _theorem_report(1.0, 0.999, [0], 150),  # untestable cases
            lambda: _theorem_report(2.0, 0.1, [2, 7], 40),
        ],
    )
    def test_cases_of_verified_reports(self, build):
        assert_same_cases(build())
