"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Criteria 3, 4 and 7 are implemented exactly as stated and are expected to
FAIL: the claimed sharp constant for the kernel inequality is violated in the
heavy-innovation regime (e.g. rho=2, p=0.1, k=2, n=1), as confirmed
independently by exact rational arithmetic, uniformization of the truncated
generator, and scipy-free matrix exponentials. The weaker 1/12 bound and the
constant-offset relation between the two bounds (criterion 5) do hold.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mminf.bounds import (
    LOG_TWELVE,
    sharp_bound,
    sharpness_decay,
    verify_generalized,
    verify_kernel_lemma,
    verify_theorem,
)
from mminf.kernel import (
    Observable,
    QueueParams,
    generator_apply,
    kernel_entry,
    reversibility_defect,
    semigroup_apply,
)
from mminf.oracle import (
    SimulationConfig,
    empirical_pmf,
    exact_lemma_check,
    exact_rational_convolution,
    gillespie_terminal_states,
    log_fraction,
    uniformized_kernel,
)

KERNEL_GRID = [
    (rho, p) for rho in (0.5, 1.0, 2.0, 5.0) for p in (0.1, 0.5, 0.9)
]
DEFAULT_RHO = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_P = tuple(round(0.05 * i, 2) for i in range(1, 20))

OBSERVABLE_SEED = 20250824


def _criterion(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_kernel_triple_agreement():
    start = time.monotonic()
    worst_rational = 0.0
    worst_unif = 0.0
    for rho, p in KERNEL_GRID:
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        a = Fraction(params.p(t))
        b = Fraction(params.rho * params.q(t))
        mat = uniformized_kernel(params, t, 80, 1e-10)
        for k in range(11):
            exact = exact_rational_convolution(k, a, b, 20)
            for n in range(21):
                log_g = kernel_entry(params, t, k, n)
                log_exact = log_fraction(exact[n]) - float(b)
                if log_exact >= math.log(1e-300):
                    rel = abs(math.expm1(log_g - log_exact))
                    worst_rational = max(worst_rational, rel)
                worst_unif = max(worst_unif, abs(math.exp(log_g) - mat[k, n]))
    elapsed = time.monotonic() - start
    ok = worst_rational <= 1e-12 and worst_unif <= 1e-9 and elapsed <= 60.0
    _criterion(
        1,
        ok,
        f"kernel triple agreement: rational rel err {worst_rational:.2e} "
        f"(<=1e-12), uniformization abs err {worst_unif:.2e} (<=1e-9), "
        f"{elapsed:.1f}s (<=60s)",
    )


def test_criterion_2_detailed_balance():
    worst = 0.0
    for rho, p in KERNEL_GRID:
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        for i in range(41):
            for j in range(i + 1, 41):
                worst = max(worst, reversibility_defect(params, t, i, j))
    ok = worst <= 1e-11
    _criterion(2, ok, f"detailed balance: worst defect {worst:.2e} (<=1e-11)")


def test_criterion_3_kernel_inequality():
    start = time.monotonic()
    failing_cells = []
    worst = None
    for rho in DEFAULT_RHO:
        for p in DEFAULT_P:
            params = QueueParams(lam=rho, mu=1.0)
            report = verify_kernel_lemma(params, params.t_for_p(p), 30, 60)
            wc = report.worst_case
            if worst is None or wc.margin < worst.margin:
                worst = wc
            if not report.verdict:
                failing_cells.append((rho, p))
    exact_failures = []
    for rho in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(10)):
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            for k, n in exact_lemma_check(rho, p, 12, 25):
                exact_failures.append((rho, p, k, n))
    elapsed = time.monotonic() - start
    ok = not failing_cells and not exact_failures
    _criterion(
        3,
        ok,
        f"kernel semi-ultra-log-convexity: {len(failing_cells)}/114 grid cells "
        f"fail (worst margin {worst.margin:.2e} at {worst.key}), "
        f"{len(exact_failures)} exact-rational violations "
        f"(e.g. {exact_failures[0] if exact_failures else 'none'}), "
        f"{elapsed:.1f}s",
    )


def _random_observables(count):
    rng = np.random.default_rng(OBSERVABLE_SEED)
    observables = []
    while len(observables) < count:
        size = int(rng.integers(1, 9))
        support = rng.choice(16, size=size, replace=False)
        values = rng.uniform(0.1, 10.0, size=size)
        observables.append(
            Observable.from_table({int(n): float(v) for n, v in zip(support, values)})
        )
    return observables

THEOREM_GRID = [
    (rho, p) for rho in (0.5, 1.0, 2.0) for p in (round(0.1 * i, 1) for i in range(1, 10))
]


def _theorem_campaign():
    observables = _random_observables(200)
    violations = 0
    total = 0
    worst_margin = math.inf
    worst_offset = 0.0
    for rho, p in THEOREM_GRID:
        params = QueueParams(lam=rho, mu=1.0)
        t = params.t_for_p(p)
        for f in observables:
            sharp = verify_theorem(params, t, f, 40, against="sharp")
            loose = verify_theorem(params, t, f, 40, against="glmrs")
            total += 1
            if not sharp.verdict:
                violations += 1
            if sharp.worst_case is not None:
                worst_margin = min(worst_margin, sharp.worst_case.margin)
            for cs, cl in zip(sharp.cases, loose.cases):
                if cs.testable and cl.testable:
                    worst_offset = max(
                        worst_offset, abs((cl.margin - cs.margin) - LOG_TWELVE)
                    )
    return violations, total, worst_margin, worst_offset


_campaign_cache = {}


def _campaign():
    if "result" not in _campaign_cache:
        start = time.monotonic()
        _campaign_cache["result"] = _theorem_campaign()
        _campaign_cache["elapsed"] = time.monotonic() - start
    return _campaign_cache["result"], _campaign_cache["elapsed"]


def test_criterion_4_semigroup_inequality():
    (violations, total, worst_margin, _), elapsed = _campaign()
    ok = violations == 0 and elapsed <= 300.0
    _criterion(
        4,
        ok,
        f"semigroup semi-log-convexity (seed {OBSERVABLE_SEED}): "
        f"{violations}/{total} observable-cell reports fail, worst margin "
        f"{worst_margin:.2e}, {elapsed:.1f}s (<=300s)",
    )


def test_criterion_5_strict_improvement_offset():
    (_, _, _, worst_offset), _ = _campaign()
    ok = worst_offset <= 1e-12
    _criterion(
        5,
        ok,
        f"bound offset identity: |margin difference - log 12| <= "
        f"{worst_offset:.2e} (<=1e-12) across all criterion-4 cases",
    )


def test_criterion_6_sharpness():
    params = QueueParams(lam=1.0, mu=1.0)
    f = Observable.indicator([0, 1])
    rows = sharpness_decay(params, f, 1, [1.0, 2.0, 4.0, 8.0, 16.0])
    t, lhs, rhs = rows[-1]
    ok = t == 16.0 and lhs < 1e-6 and rhs < 1e-6
    _criterion(
        6,
        ok,
        f"sharpness decay at t=16: |laplacian| {lhs:.2e}, |bound| {rhs:.2e} "
        f"(both <1e-6)",
    )


def test_criterion_7_generalized_inequality():
    failing = []
    worst = None
    for a in (0.0, 0.25, 0.5, 0.75, 0.9):
        for b in (0.0, 0.5, 1.0, 2.0, 5.0):
            if a == 0.0 and b == 0.0:
                continue  # degenerate pair, rejected by construction
            report = verify_generalized(a, b, 20, 40)
            wc = report.worst_case
            if wc is not None and (worst is None or wc.margin < worst.margin):
                worst = wc
            if not report.verdict:
                failing.append((a, b))
    ok = not failing
    _criterion(
        7,
        ok,
        f"generalized inequality (incl. b>1): {len(failing)}/24 (a,b) cells "
        f"fail, worst margin {worst.margin:.2e} at {worst.key}",
    )


def test_criterion_8_monte_carlo_concordance():
    start = time.monotonic()
    params = QueueParams(lam=1.0, mu=1.0)
    cfg = SimulationConfig(seed=OBSERVABLE_SEED, replications=1_000_000, horizon=1.0)
    states = gillespie_terminal_states(params, 5, cfg)
    emp = empirical_pmf(states, 15)
    worst_sigma = 0.0
    for n in range(16):
        q = math.exp(kernel_entry(params, 1.0, 5, n))
        se = math.sqrt(q * (1 - q) / cfg.replications)
        worst_sigma = max(worst_sigma, abs(emp[n] - q) / se)
    elapsed = time.monotonic() - start
    ok = worst_sigma <= 4.0 and elapsed <= 120.0
    _criterion(
        8,
        ok,
        f"Monte Carlo concordance (seed {cfg.seed}, 1e6 reps): worst deviation "
        f"{worst_sigma:.2f} sigma (<=4), {elapsed:.1f}s (<=120s)",
    )


def test_criterion_9_generator_consistency():
    params = QueueParams(lam=1.0, mu=1.0)
    f = Observable.from_table({n: (n - 3.0) ** 2 + 1.0 for n in range(26)})
    deviations = {}
    for t in (1e-3, 1e-4):
        deviations[t] = max(
            abs(
                (semigroup_apply(params, t, f, n) - f(n)) / t
                - generator_apply(params, f, n)
            )
            for n in range(11)
        )
    ratio = deviations[1e-3] / deviations[1e-4]
    c = deviations[1e-3] / 1e-3
    ok = (
        5.0 <= ratio <= 15.0
        and deviations[1e-3] <= c * 1e-3 * (1 + 1e-12)
        and deviations[1e-4] <= c * 1e-4 * 1.5
    )
    _criterion(
        9,
        ok,
        f"generator consistency: first-order deviations {deviations[1e-3]:.3e} "
        f"@1e-3, {deviations[1e-4]:.3e} @1e-4, ratio {ratio:.2f} (in [5,15])",
    )
