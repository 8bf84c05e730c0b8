"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Expensive adaptive runs are shared across criteria
through a module-scoped cache.
"""

import math

import numpy as np
import pytest

from reachtune.modelio import random_system, run_fixed_baseline
from reachtune.reach import (ExponentialAccumulator, LinearSystem,
                             build_step_sets, propagated_error)
from reachtune.sampling import check_containment, sample_trajectories
from reachtune.taylor import (MatrixPowers, TaylorSeries, taylor_partial_sum,
                              truncation_remainder)
from reachtune.tuner import run
from reachtune.zonotope import (Zonotope, enclosure_radius, interval_hull,
                                minkowski_sum, support)


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def adaptive():
    cache = {}

    def get(dim, seed, eps=0.05):
        key = (dim, seed, eps)
        if key not in cache:
            cache[key] = run(random_system(dim, seed), eps)
        return cache[key]

    return get


def test_criterion_1_budget_compliance(adaptive):
    # 20 random systems per dimension, eps_max = 0.05, T = 3: the ledger
    # respects every budget with zero tolerance
    failures = []
    runs = 0
    for dim in (2, 5, 10):
        for seed in range(1, 21):
            result = adaptive(dim, seed)
            runs += 1
            budget = result.budget
            ledger = result.ledger
            if not ledger.input_acc <= budget.input_max:
                failures.append((dim, seed, "input", ledger.input_acc))
            if not ledger.reduction_acc <= budget.reduction_max:
                failures.append((dim, seed, "reduction", ledger.reduction_acc))
            bad_steps = [r for r in ledger.records
                         if not r.hom_error <= budget.hom_max]
            if bad_steps:
                failures.append((dim, seed, "hom", bad_steps[0].hom_error))
            if not math.isclose(result.segments[-1].t_hi, 3.0, rel_tol=0,
                                abs_tol=0.0):
                failures.append((dim, seed, "horizon", result.segments[-1].t_hi))
    report(1, not failures,
           f"budget compliance on {runs} runs (dims 2/5/10, seeds 1-20)"
           + (f"; first failure {failures[0]}" if failures else ""))


def test_criterion_2_trajectory_containment(adaptive):
    # 100 sampled trajectories per system, RK4 at dt_min/100, must all stay
    # inside the covering segments at tol = 1e-6
    total_checked = 0
    bad = []
    for dim in (2, 4):
        for seed in range(1, 6):
            if dim == 2:
                result = adaptive(dim, seed)
            else:
                result = run(random_system(dim, seed), 0.05)
            system = random_system(dim, seed)
            batch = sample_trajectories(system, count=100, seed=1000 + seed,
                                        step=result.dt_min / 100.0)
            rep = check_containment(result.segments, batch, tol=1e-6)
            total_checked += rep.checked
            if not rep.all_contained:
                bad.append((dim, seed, rep.checked - rep.contained,
                            rep.failures[:3]))
    report(2, not bad,
           f"containment of {total_checked} sampled states across 10 systems"
           + (f"; misses {bad}" if bad else ""))


def test_criterion_3_remainder_superlinear():
    # 500 random (A, dt, eta, phi): remainder halfwidth at phi*dt is at most
    # phi times the halfwidth at dt, entrywise, exact comparison
    rng = np.random.default_rng(2024)
    checked = 0
    violations = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2, 2, size=(n, n))
        dt = float(rng.uniform(1e-3, 1.0))
        eta = int(rng.integers(1, 7))
        powers = MatrixPowers(a)
        if powers.norm_inf * dt / (eta + 2) >= 1:
            continue
        phi = float(rng.uniform(0.01, 0.99))
        small = truncation_remainder(powers, phi * dt, eta)
        big = truncation_remainder(powers, dt, eta)
        if not np.all(small.hi <= phi * big.hi):
            violations += 1
        checked += 1
    report(3, violations == 0,
           f"remainder superlinearity on {checked} samples, "
           f"{violations} violations")


def test_criterion_4_step_input_error_superlinear():
    # per-step input error at phi*dt is at most phi times the error at dt
    # for phi in {0.1, 0.5, 0.9}, exact comparison, 100 random systems/steps
    rng = np.random.default_rng(77)
    checked = 0
    violations = 0
    while checked < 100:
        dim = int(rng.integers(2, 7))
        system = random_system(dim, seed=int(rng.integers(0, 10000)))
        powers = MatrixPowers(system.a)
        acc = ExponentialAccumulator.identity(dim)
        for _ in range(int(rng.integers(0, 4))):
            pre_dt = float(rng.uniform(0.02, 0.1))
            acc = acc.advanced(taylor_partial_sum(powers, pre_dt, 8),
                               truncation_remainder(powers, pre_dt, 8))
        dt = float(rng.uniform(0.05, 0.3))
        eta = int(rng.integers(1, 6))
        if powers.norm_inf * dt / (eta + 2) >= 1:
            continue
        def input_error(width):
            pieces = TaylorSeries(powers, width).pieces(eta)
            sets = build_step_sets(system, pieces)
            return propagated_error(acc, sets.inh_error)

        base = input_error(dt)
        for phi in (0.1, 0.5, 0.9):
            if not input_error(phi * dt) <= phi * base:
                violations += 1
        checked += 1
    report(4, violations == 0,
           f"step input-error superlinearity on {checked} systems x 3 ratios, "
           f"{violations} violations")


def test_criterion_5_enclosure_radius_bounds_hausdorff():
    # 200 random 2-D/3-D pairs: directional Hausdorff over 360 directions
    # is below the enclosure radius of the added set (plus 1e-9)
    rng = np.random.default_rng(55)
    angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    dirs2 = np.column_stack((np.cos(angles), np.sin(angles)))
    raw = rng.normal(size=(360, 3))
    dirs3 = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    worst = -math.inf
    violations = 0
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        dirs = dirs2 if n == 2 else dirs3
        base_g = rng.uniform(-2, 2, size=(n, int(rng.integers(1, 5))))
        base = Zonotope(rng.uniform(-2, 2, size=n), base_g)
        gens = int(rng.integers(1, 5))
        extra_g = rng.uniform(-1, 1, size=(n, gens))
        beta = rng.uniform(-0.9, 0.9, size=gens)
        extra = Zonotope(-extra_g @ beta, extra_g)      # contains the origin
        total = minkowski_sum(base, extra)
        gap = max(support(total, d) - support(base, d) for d in dirs)
        excess = gap - enclosure_radius(extra)
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    report(5, violations == 0,
           f"enclosure radius bounds directional Hausdorff on 200 pairs "
           f"(worst excess {worst:.2e})")


def test_criterion_6_scalar_analytic_oracle():
    # x' = -x, X0 = [0.9, 1.1], U = [-0.05, 0.05], T = 1, eps_max = 0.01:
    # segments must contain the exact reachable interval and exceed it by
    # at most eps_max + 1e-3 in Hausdorff distance
    eps_max = 0.01
    system = LinearSystem(np.array([[-1.0]]),
                          Zonotope([1.0], np.array([[0.1]])),
                          Zonotope([0.0], np.array([[0.05]])), 1.0)
    result = run(system, eps_max)

    def exact(t):
        decay = math.exp(-t)
        return 0.9 * decay - 0.05 * (1 - decay), 1.1 * decay + 0.05 * (1 - decay)

    worst = 0.0
    contained = True
    for seg in result.segments:
        lo_hi_start = exact(seg.t_lo)
        lo_hi_end = exact(seg.t_hi)
        exact_lo = min(lo_hi_start[0], lo_hi_end[0])
        exact_hi = max(lo_hi_start[1], lo_hi_end[1])
        hull = interval_hull(seg.set)
        if hull.lo[0] > exact_lo or hull.hi[0] < exact_hi:
            contained = False
        worst = max(worst, exact_lo - hull.lo[0], hull.hi[0] - exact_hi)
    ok = contained and worst <= eps_max + 1e-3
    report(6, ok,
           f"scalar oracle: exact interval contained in all "
           f"{result.steps} segments, worst Hausdorff excess {worst:.5f} "
           f"<= {eps_max + 1e-3}")


def test_criterion_7_adaptive_beats_fixed_step_count(adaptive):
    # on 10 random 5-D systems the adaptive step count never exceeds the
    # fixed-step count at dt = the adaptive run's dt_min
    wins = 0
    rows = []
    for seed in range(1, 11):
        result = adaptive(5, seed)
        system = random_system(5, seed)
        eta = max(r.taylor_order for r in result.ledger.records)
        baseline, _ = run_fixed_baseline(system, dt=result.dt_min,
                                         eta=eta, rho=10.0)
        rows.append((result.steps, baseline.steps))
        if result.steps <= baseline.steps:
            wins += 1
    report(7, wins == 10,
           f"adaptive step count <= fixed baseline at dt_min on {wins}/10 "
           f"systems (adaptive, fixed): {rows}")


def test_criterion_8_monotone_tightening(adaptive):
    # shrinking eps_max through {0.5, 0.05, 0.005} never enlarges the
    # final-time interval hull radius (slack 1e-6); tuning overhead stays
    # below 0.9 of the runtime for these small systems
    scalar = LinearSystem(np.array([[-1.0]]),
                          Zonotope([1.0], np.array([[0.1]])),
                          Zonotope([0.0], np.array([[0.05]])), 1.0)
    cases = [("scalar", None)] + [("2d", seed) for seed in range(1, 6)]
    bad = []
    fractions = []
    for name, seed in cases:
        radii = []
        for eps in (0.5, 0.05, 0.005):
            if seed is None:
                result = run(scalar, eps)
            else:
                result = adaptive(2, seed, eps)
            hull = interval_hull(result.final_set)
            radii.append(float(np.linalg.norm(0.5 * (hull.hi - hull.lo))))
            fractions.append(result.tuning_time_fraction)
        if not (radii[0] >= radii[1] - 1e-6 and radii[1] >= radii[2] - 1e-6):
            bad.append((name, seed, radii))
    frac_ok = all(f < 0.9 for f in fractions)
    report(8, not bad and frac_ok,
           f"final hull radius non-increasing over eps 0.5/0.05/0.005 on "
           f"{len(cases)} systems, max tuning fraction "
           f"{max(fractions):.2f} < 0.9"
           + (f"; violations {bad}" if bad else ""))
