"""The constants at small x = rho (1-p)^2 / p: no false fail at k = 1, n = 1,
and log K, log M and the sharp bound within a few ulps of 50-digit mpmath.

1 - (a/d)^2 with d = a + (1-a) b is about 2x at small x; formed by that
subtraction it loses a relative u / (2x), which at x = 1e-5 already decides
the verdict of a case that holds with equality."""

import math

import mpmath
import pytest

from mminf.bounds import (
    lemma_K,
    remark_M,
    sharp_bound,
    verify_generalized,
    verify_kernel_lemma,
    verify_theorem,
)
from mminf.kernel import Observable, QueueParams

XS = [10.0**e for e in range(-12, 4)]  # 1e-12 to 1e3


def lemma_cell(x, p):
    """(rho, p) of the cell at x."""
    return x * p / (1.0 - p) ** 2, p


@pytest.mark.parametrize("x", XS)
def test_k1_n1_passes_at_every_x(x):
    # case k = 1, n = 1 holds with equality for every x; at p = 0.1 its
    # masses stay above the floor up to x = 1e3
    rho, p = lemma_cell(x, 0.1)
    params = QueueParams(lam=rho, mu=1.0)
    t = params.t_for_p(p)
    lemma = verify_kernel_lemma(params, t, 1, 1)
    generalized = verify_generalized(p, rho * (1.0 - p), 1, 1)
    theorem = verify_theorem(params, t, Observable.indicator([1]), 1)
    for case in (lemma.cases[1], generalized.cases[1], theorem.cases[0]):
        assert case.key[-1] == 1 and case.testable
        assert case.passed, case


def one_minus_ratio_squared(a, e):
    """1 - (a/d)^2, d = a + e, in 50-digit arithmetic from the float inputs."""
    d = a + e
    return 1 - (a / d) ** 2


@pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-4, 1e-3])
@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_constants_match_mpmath(x, p, n):
    # 1 - p is exact for p >= 1/2, so the reference sees the inputs the
    # float code sees
    rho, p = lemma_cell(x, p)
    b = rho * (1.0 - p)
    with mpmath.workdps(50):
        mp_p, mp_rho, mp_b = mpmath.mpf(p), mpmath.mpf(rho), mpmath.mpf(b)
        c_kernel = one_minus_ratio_squared(mp_p, mp_rho * (1 - mp_p) ** 2)
        c_general = one_minus_ratio_squared(mp_p, (1 - mp_p) * mp_b)
        ratio = mpmath.mpf(n + 1) / n
        refs = [
            (math.log(lemma_K(rho, p, n)), float(mpmath.log(ratio / c_kernel))),
            (math.log(remark_M(p, b, n)), float(mpmath.log(ratio / c_general))),
            (sharp_bound(rho, p), float(mpmath.log(c_kernel))),
        ]
    for got, ref in refs:
        assert abs(got - ref) <= 4.0 * math.ulp(ref), (got, ref)


@pytest.mark.parametrize("x", [1e3, 1e6, 1e9])
def test_sharp_bound_relative_precision_at_large_x(x):
    # there the bound is about -(p/d)^2, tiny; log1p(-(p/d)^2) keeps its
    # relative precision, which the log of a product near 1 would lose
    rho, p = lemma_cell(x, 0.5)
    with mpmath.workdps(50):
        mp_p = mpmath.mpf(p)
        c = one_minus_ratio_squared(mp_p, mpmath.mpf(rho) * (1 - mp_p) ** 2)
        ref = float(mpmath.log(c))
    got = sharp_bound(rho, p)
    assert abs(got - ref) <= 4.0 * math.ulp(ref), (got, ref)
