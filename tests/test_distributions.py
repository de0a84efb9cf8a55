"""Distribution-layer tests: log pmfs, certified windows, convolution."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mminf.distributions as distributions_module
import mminf.oracle as oracle_module
from mminf.distributions import (
    LOG_ZERO,
    binomial_log_pmf,
    binomial_log_rows,
    convolution_log_matrix,
    logsumexp,
    logsumexp_axis0,
    poisson_log_pmf,
    poisson_log_row,
    poisson_window,
)
from mminf.kernel import QueueParams, kernel_entry, kernel_log_matrix
from mminf.oracle import exact_rational_convolution, log_fraction, uniformized_kernel


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
    """Rows of the block B(k, a) * Poisson(b)."""

    def test_binomial_zero_trials_is_poisson(self):
        row = convolution_log_matrix(0.3, 2.0, 0, 40)[0]
        for n in range(41):
            assert row[n] == pytest.approx(poisson_log_pmf(2.0, n), abs=1e-14)

    def test_poisson_dirac_side(self):
        row = np.exp(convolution_log_matrix(0.3, 0.0, 1, 3, k_min=1)[0])
        assert row[0] == pytest.approx(0.7, rel=1e-15)
        assert row[1] == pytest.approx(0.3, rel=1e-15)
        assert row[2:].tolist() == [0.0, 0.0]

    def test_two_trials_fair_coin_at_zero(self):
        lm = convolution_log_matrix(0.5, 1.0, 2, 0, k_min=2)[0, 0]
        assert math.exp(lm) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-13)

    def test_windowed_mass_brackets_one(self):
        # row k holds all but deficit of its mass in 0..k + N, N the Poisson
        # window of b at the deficit
        for k, a, b in [(0, 0.0, 1.0), (3, 0.4, 2.5), (10, 0.9, 0.3)]:
            _, n_pois = poisson_window(b, 1e-10)
            row = convolution_log_matrix(a, b, k, k + n_pois, k_min=k)[0]
            m = math.exp(logsumexp(row))
            assert 1.0 - 1e-10 <= m <= 1.0 + len(row) * 2.3e-16


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=40.0),
    k_max=st.integers(0, 40),
    n_hi=st.integers(0, 70),
    k_range=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    points=st.sets(st.integers(0, 70), min_size=1),
)
@example(a=0.0, b=3.0, k_max=12, n_hi=20, k_range=(2, 9), points={0, 5, 20})
@example(a=1.0, b=3.0, k_max=12, n_hi=20, k_range=(2, 9), points={0, 5, 20})
@example(a=0.4, b=0.0, k_max=12, n_hi=20, k_range=(2, 9), points={0, 5, 20})
@settings(max_examples=100, deadline=None)
def test_block_row_equals_single_row(a, b, k_max, n_hi, k_range, points):
    # an entry is the same float in any block that holds it: a sub-block
    # with a row range and a column subset, a one-column block, a single row
    block = convolution_log_matrix(a, b, k_max, n_hi)
    assert block.shape == (k_max + 1, n_hi + 1)
    k_min, k_hi = sorted(min(k, k_max) for k in k_range)
    cols = sorted({n % (n_hi + 1) for n in points})
    rows = block[k_min : k_hi + 1]
    sub = convolution_log_matrix(a, b, k_hi, cols[-1], k_min, cols)
    assert np.array_equal(sub, rows[:, cols])
    for n in cols:
        one = convolution_log_matrix(a, b, k_hi, n, k_min, [n])
        assert np.array_equal(one[:, 0], rows[:, n])
    single = convolution_log_matrix(a, b, k_hi, n_hi, k_min=k_hi)
    assert np.array_equal(single[0], block[k_hi])
    if 0.0 < a < 1.0 and b > 0.0:
        # kernel_entry reads the 1 x 1 block of the kernel's own (p, b)
        params = QueueParams(lam=b, mu=1.0)
        t = params.t_for_p(a)
        g = kernel_log_matrix(params, t, k_max, n_hi)
        for k in (k_min, k_hi):
            for n in cols:
                assert kernel_entry(params, t, k, n) == g[k, n]


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=40.0),
    k_max=st.integers(0, 40),
    n_hi=st.integers(0, 70),
    k_min=st.integers(0, 40),
    budget=st.integers(1, 5000),
)
@settings(max_examples=100, deadline=None)
def test_block_chunks_give_the_same_floats(a, b, k_max, n_hi, k_min, budget):
    # splitting the rows into chunks, each dropping its trailing -inf terms,
    # leaves every entry the same float
    k_min = min(k_min, k_max)
    whole = convolution_log_matrix(a, b, k_max, n_hi, k_min)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions_module, "_BLOCK_TERMS", budget)
        chunked = convolution_log_matrix(a, b, k_max, n_hi, k_min)
    assert np.array_equal(chunked, whole)


@given(
    a=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    k_min=st.integers(0, 60),
    rows=st.integers(0, 40),
    j_hi=st.integers(0, 100),
)
@example(a=0.0, k_min=0, rows=5, j_hi=5)
@example(a=1.0, k_min=2, rows=5, j_hi=7)
@example(a=5e-324, k_min=0, rows=30, j_hi=30)
@settings(max_examples=100, deadline=None)
def test_binomial_log_rows_are_the_scalar_floats(a, k_min, rows, j_hi):
    # exact equality, the -inf past j = k included
    k_max = k_min + rows
    j_hi = min(j_hi, k_max)
    ref = [
        [binomial_log_pmf(k, a, j) for j in range(j_hi + 1)]
        for k in range(k_min, k_max + 1)
    ]
    assert np.array_equal(binomial_log_rows(a, k_min, k_max, j_hi), ref)


def scalar_poisson_log_row(rate, lo, hi):
    """The Poisson log-masses at lo..hi from scalar calls, -inf below 0."""
    return np.array(
        [poisson_log_pmf(rate, n) if n >= 0 else LOG_ZERO for n in range(lo, hi + 1)]
    )


@given(
    rate=st.one_of(
        st.sampled_from([0.0, 1e-4, 5.0, 1e4]),
        st.floats(0.0, 50.0),
        st.floats(0.0, 1e6),
    ),
    lo=st.integers(-60, 60),
    width=st.integers(0, 120),
)
@example(rate=0.0, lo=-5, width=10)
@example(rate=3.0, lo=-8, width=9)
@settings(max_examples=100, deadline=None)
def test_poisson_log_row_is_the_scalar_floats(rate, lo, width):
    # exact equality, the -inf padding below 0 included
    hi = max(lo + width, 0)
    got = poisson_log_row(rate, lo, hi)
    assert np.array_equal(got, scalar_poisson_log_row(rate, lo, hi))


@pytest.mark.parametrize("rate", [0.0, 1e-4, 5.0, 1e4])
def test_poisson_window_pinned_to_scalar_masses(rate, monkeypatch):
    deficits = [0.5, 1e-3, 1e-10, 1e-15]
    windows = [poisson_window(rate, d) for d in deficits]
    hi = windows[-1][1]
    # the masses a window sums, and the uniformization weights
    ref = np.exp(scalar_poisson_log_row(rate, 0, hi))
    assert np.array_equal(np.exp(poisson_log_row(rate, 0, hi)), ref)
    monkeypatch.setattr(distributions_module, "poisson_log_row", scalar_poisson_log_row)
    assert [poisson_window(rate, d) for d in deficits] == windows


@pytest.mark.parametrize("rate", [1e-4, 5.0, 1e4])
def test_uniformization_weights_pinned_to_scalar_masses(rate, monkeypatch):
    # the kernel is the same array when its Poisson weights are scalar calls
    params, n_states = QueueParams(lam=1.5, mu=1.0), 30
    t = rate / (params.lam + n_states * params.mu)
    fast = uniformized_kernel(params, t, n_states, 1e-12)
    monkeypatch.setattr(oracle_module, "poisson_log_row", scalar_poisson_log_row)
    assert np.array_equal(uniformized_kernel(params, t, n_states, 1e-12), fast)


def test_block_memory_is_bounded():
    # a 201 x 202 block sums 201 terms per entry: 8.2M terms, 65 MB at once;
    # chunked by rows it peaks at a few MB
    tracemalloc.start()
    try:
        convolution_log_matrix(0.4, 3.0, 200, 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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
        convolution_log_matrix(0.5, -0.5, 2, 4)
    with pytest.raises(ValueError):
        convolution_log_matrix(0.5, 1.0, 2, 4, k_min=-1)
    with pytest.raises(ValueError):
        convolution_log_matrix(1.5, 1.0, 2, 4)


def running_sum_logsumexp_axis0(arr):
    """Reference: each slice along axis 0 summed by a Python loop, in order."""
    flat = arr.reshape(arr.shape[0], -1)
    out = np.full(flat.shape[1], LOG_ZERO)
    for c in range(flat.shape[1]):
        m = flat[:, c].max()
        if m == LOG_ZERO:
            continue
        s = 0.0
        for x in np.exp(flat[:, c] - m):
            s += x
        out[c] = m + np.log(s)
    return out.reshape(arr.shape[1:])


@st.composite
def log_blocks(draw):
    # 1-40 rows over a 1-D or 2-D trailing shape: NumPy sums more than 8 rows
    # pairwise, so the summation order shows where the terms are of one
    # size; -inf entries, and slices that are -inf throughout
    shape = (draw(st.integers(1, 40)),) + draw(
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=12)
    )
    entry = st.one_of(
        st.floats(-4.0, 4.0), st.floats(-750.0, 50.0), st.just(LOG_ZERO)
    )
    arr = draw(hnp.arrays(np.float64, shape, elements=entry))
    empty = draw(hnp.arrays(np.bool_, shape[1:]))
    arr[:, empty] = LOG_ZERO
    return arr


def _seeded_block(columns=12):
    # 40 rows of one size: running and pairwise sums differ in 4 of the 11
    # finite columns of the default; 300 columns take the loop over wide
    # slices, where drawn blocks take the accumulate
    rng = np.random.default_rng(7)
    arr = rng.uniform(-3.0, 3.0, (40, columns))
    arr[rng.random(arr.shape) < 0.1] = LOG_ZERO
    arr[:, 5] = LOG_ZERO
    return arr


@given(arr=log_blocks(), pad=st.integers(1, 30))
@example(arr=_seeded_block(), pad=1)
@example(arr=_seeded_block()[:, :5], pad=9)
@example(arr=_seeded_block(300), pad=2)
@settings(max_examples=300, deadline=None)
def test_logsumexp_axis0_is_running_sum(arr, pad):
    # the same floats in any layout, and with -inf rows appended
    ref = running_sum_logsumexp_axis0(arr)
    assert np.array_equal(logsumexp_axis0(arr), ref)
    assert np.array_equal(logsumexp_axis0(np.asfortranarray(arr)), ref)
    padded = np.concatenate([arr, np.full((pad,) + arr.shape[1:], LOG_ZERO)])
    assert np.array_equal(logsumexp_axis0(padded), ref)


def masked_logsumexp_axis0(arr):
    """Reference: logsumexp_axis0 with every slice masked, as it read before
    its fast path for blocks whose every slice holds a finite term."""
    m = arr.max(axis=0)
    ok = m > LOG_ZERO
    e = arr - np.where(ok, m, 0.0)
    s = np.exp(e, out=e)[0]
    if s.size < 256:
        s = np.add.accumulate(e, axis=0, out=e)[-1]
    else:
        for row in e[1:]:
            s += row
    return m + np.log(s, out=np.full_like(m, LOG_ZERO), where=ok)


@st.composite
def finite_or_masked_blocks(draw):
    # narrow trailing shapes take the accumulate, 256 or more columns the
    # loop; a block takes the fast path unless a slice is -inf throughout
    rows = draw(st.integers(1, 40))
    if draw(st.booleans()):  # seeded: drawing each entry would be slow
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arr = rng.uniform(-750.0, 50.0, (rows, draw(st.integers(256, 300))))
        arr[rng.random(arr.shape) < 0.2] = LOG_ZERO
    else:
        shape = (rows,) + draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=12))
        entry = st.one_of(st.floats(-750.0, 50.0), st.just(LOG_ZERO))
        arr = draw(hnp.arrays(np.float64, shape, elements=entry))
    if arr.ndim > 1:
        flat = arr.reshape(rows, -1)
        flat[0, np.all(flat == LOG_ZERO, axis=0)] = 0.0  # a finite term each
        if draw(st.booleans()):  # then mask one slice
            flat[:, draw(st.integers(0, flat.shape[1] - 1))] = LOG_ZERO
    return arr


@given(arr=finite_or_masked_blocks())
@example(arr=_seeded_block(300))
@example(arr=np.where(_seeded_block(300) == LOG_ZERO, 0.0, _seeded_block(300)))
@example(arr=np.array([0.0, 1.0, LOG_ZERO]))
@example(arr=np.array([LOG_ZERO, LOG_ZERO]))
@settings(max_examples=50, deadline=None)
def test_logsumexp_axis0_fast_path_is_masked_route(arr):
    # bit for bit, with or without slices to mask, and the same type: a
    # 1-D block sums to a scalar
    out, ref = logsumexp_axis0(arr.copy()), masked_logsumexp_axis0(arr.copy())
    assert type(out) is type(ref)
    assert np.array_equal(out, ref, equal_nan=True)
