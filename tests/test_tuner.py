import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtune import reach, tuner
from reachtune.modelio import random_system, run_fixed_baseline
from reachtune.reach import LinearSystem
from reachtune.sampling import check_containment, sample_trajectories
from reachtune.taylor import TaylorSeries
from reachtune.tuner import (ErrorBudget, ErrorLedger, ReachResult, StepRecord,
                             TuningFailedError, admissible_share,
                             reduce_accumulated, run)
from reachtune.zonotope import (Zonotope, interval_hull, reduce_order, support)

from strategies import accumulated_sets


def unit_box(n, center=0.0, half=1.0):
    return Zonotope(np.full(n, center), half * np.eye(n))


def test_split_budget_default_thirds():
    budget = ErrorBudget.split(0.05)
    assert budget.hom_max == pytest.approx(0.05 / 3)
    assert budget.input_max == pytest.approx(0.05 / 3)
    assert budget.reduction_max == pytest.approx(0.05 / 3)
    assert budget.total == pytest.approx(0.05)


def test_split_budget_degenerate_weights():
    budget = ErrorBudget.split(0.05, (1.0, 0.0, 0.0))
    assert budget.hom_max == 0.05
    assert budget.input_max == 0.0
    assert budget.reduction_max == 0.0


def test_split_budget_total_reproduced():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        budget = ErrorBudget.split(0.2, tuple(w))
        assert budget.total == pytest.approx(0.2, rel=1e-12)


def test_split_budget_invalid():
    with pytest.raises(ValueError):
        ErrorBudget.split(0.0)
    with pytest.raises(ValueError):
        ErrorBudget.split(0.05, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        ErrorBudget.split(0.05, (-0.5, 1.0, 0.5))


@pytest.mark.parametrize("channel", ["input", "reduction"])
def test_admissible_share_values(channel):
    budget = (ErrorBudget(0.0, 0.05, 0.0) if channel == "input"
              else ErrorBudget(0.0, 0.0, 0.05))
    ledger = ErrorLedger()

    def share(acc, dt, t, horizon):
        # the expression the tuner passes for this channel
        setattr(ledger, f"{channel}_acc", acc)
        return admissible_share(getattr(budget, f"{channel}_max")
                                - getattr(ledger, f"{channel}_acc"),
                                dt, t, horizon)

    assert share(0.0, 0.3, 0.0, 3.0) == pytest.approx(0.005)
    # last step gets the full remaining budget
    assert share(0.0, 3.0, 0.0, 3.0) == pytest.approx(0.05)
    assert share(0.05, 0.3, 0.0, 3.0) == 0.0
    assert share(0.01, 1.0, 1.0, 3.0) == pytest.approx(0.02)
    assert share(0.05, 1.0, 1.0, 3.0) == 0.0
    assert share(0.0, 1e-12, 0.0, 3.0) == pytest.approx(0.05 * 1e-12 / 3.0)
    with pytest.raises(ValueError):
        share(0.05, 0.1, 3.0, 3.0)
    with pytest.raises(ValueError):
        share(0.0, 0.0, 0.0, 3.0)


def test_run_static_system_single_step():
    sys = LinearSystem(np.zeros((2, 2)), unit_box(2, 5.0, 0.25),
                       Zonotope.point([0.0, 0.0]), 2.0)
    result = run(sys, eps_max=0.05)
    assert result.steps == 1
    seg = result.segments[0]
    assert seg.t_lo == 0.0 and seg.t_hi == 2.0
    hull = interval_hull(seg.set)
    np.testing.assert_allclose(hull.lo, [4.75, 4.75], atol=1e-14)
    np.testing.assert_allclose(hull.hi, [5.25, 5.25], atol=1e-14)
    record = result.ledger.records[0]
    assert record.taylor_order == 1
    assert record.hom_error == 0.0
    assert record.input_error == 0.0
    assert record.reduction_error == 0.0
    assert result.ledger.input_acc == 0.0


def test_run_pure_integrator_accumulates_inputs():
    sys = LinearSystem(np.zeros((2, 2)), Zonotope.point([0.0, 0.0]),
                       unit_box(2), 1.0)
    result = run(sys, eps_max=0.05)
    hull = interval_hull(result.final_set)
    np.testing.assert_allclose(hull.lo, [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(hull.hi, [1.0, 1.0], atol=1e-12)
    assert result.ledger.input_acc == 0.0
    assert result.ledger.max_hom_error == 0.0


def test_run_segments_tile_horizon_exactly():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(2, 2))
    sys = LinearSystem(a, unit_box(2, 10.0, 0.25), unit_box(2, 1.0, 0.05), 3.0)
    result = run(sys, eps_max=0.05)
    assert result.segments[0].t_lo == 0.0
    assert result.segments[-1].t_hi == 3.0
    for a_seg, b_seg in zip(result.segments, result.segments[1:]):
        assert a_seg.t_hi == b_seg.t_lo
    widths = [r.t_hi - r.t_lo for r in result.ledger.records]
    assert min(widths) > 0


def test_run_budget_compliance_and_ledger_additivity():
    rng = np.random.default_rng(7)
    for trial in range(3):
        a = rng.uniform(-1, 1, size=(3, 3))
        sys = LinearSystem(a, unit_box(3, 10.0, 0.25),
                           unit_box(3, 1.0, 0.05), 3.0)
        result = run(sys, eps_max=0.05)
        budget = result.budget
        ledger = result.ledger
        assert ledger.input_acc <= budget.input_max
        assert ledger.reduction_acc <= budget.reduction_max
        assert all(r.hom_error <= budget.hom_max for r in ledger.records)
        assert ledger.input_acc == pytest.approx(
            math.fsum(r.input_error for r in ledger.records), rel=1e-12, abs=1e-300)
        assert ledger.reduction_acc == pytest.approx(
            math.fsum(r.reduction_error for r in ledger.records), rel=1e-12, abs=1e-300)


def test_run_deterministic():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, size=(2, 2))
    sys = LinearSystem(a, unit_box(2, 10.0, 0.25), unit_box(2, 1.0, 0.05), 3.0)
    first = run(sys, eps_max=0.05)
    second = run(sys, eps_max=0.05)
    assert len(first.ledger.records) == len(second.ledger.records)
    for r1, r2 in zip(first.ledger.records, second.ledger.records):
        assert r1 == r2


def test_run_shrink_sequence_is_geometric():
    # every accepted dt, the last one included, is its search's start shrunk
    # k times: the enlarged previous dt, or the remaining horizon if smaller
    rng = np.random.default_rng(13)
    a = rng.uniform(-1, 1, size=(2, 2))
    sys = LinearSystem(a, unit_box(2, 10.0, 0.25), unit_box(2, 1.0, 0.05), 3.0)
    result = run(sys, eps_max=0.05)
    shrink = 0.9
    dt_prev = 3.0 * shrink
    for record in result.ledger.records:
        start = min(dt_prev / shrink, 3.0 - record.t_lo)
        k = math.log(record.dt / start) / math.log(shrink)
        assert k > -1e-9
        assert abs(k - round(k)) < 1e-6
        dt_prev = record.dt


@pytest.mark.parametrize("seed, steps, branch", [
    (2, 16, "wider"), (4, 86, "sliver"), (1, 36, "clamp")])
def test_run_final_step_branches(seed, steps, branch):
    # each run ends with a step of the full remaining width T - t, which
    # ends exactly at T: wider than the step before, a sliver of at most a
    # quarter of it, or narrower than it but more than a quarter
    records = run(random_system(2, seed), eps_max=0.05).ledger.records
    last, before = records[-1], records[-2]
    assert len(records) == steps
    assert last.t_hi == 3.0
    assert last.dt == 3.0 - last.t_lo
    if branch == "wider":
        assert last.dt > before.dt
    elif branch == "sliver":
        assert 0.0 < 3.0 - before.t_hi <= 0.25 * before.dt
    else:
        assert 3.0 - before.t_hi > 0.25 * before.dt
        assert last.dt < before.dt


@pytest.mark.parametrize("system", ["stiff", "random-2-2"])
def test_run_tries_no_step_past_the_horizon(system, monkeypatch):
    # every step size the search builds a Taylor series for fits in the
    # horizon left at the start of its step
    sys = {"stiff": stiff_system(100.0), "random-2-2": random_system(2, 2)}[system]
    tried, starts = [], []
    tune_step, series = tuner.tune_step, tuner.TaylorSeries

    def tune(*args):
        starts.append(args[4])      # the step's start time t
        return tune_step(*args)

    def build(powers, dt):
        tried.append((starts[-1], dt))
        return series(powers, dt)

    monkeypatch.setattr(tuner, "tune_step", tune)
    monkeypatch.setattr(tuner, "TaylorSeries", build)
    result = run(sys, eps_max=0.05)
    assert len(starts) == result.steps
    assert tried
    for t, dt in tried:
        assert dt <= sys.horizon - t


@pytest.mark.parametrize("case", ["unstable", "tight-eps", "zero-input"])
def test_run_robustness_cases_end_with_a_valid_ledger(case):
    # random_system(2, 1)'s initial and input sets, T 3: an unstable matrix,
    # a budget 500x tighter than usual, and no input
    base = random_system(2, 1)
    a, input_set, eps = {
        "unstable": (np.diag([1.0, 0.5]), base.input_set, 0.05),
        "tight-eps": (base.a, base.input_set, 1e-4),
        "zero-input": (base.a, Zonotope.point([0.0, 0.0]), 0.05),
    }[case]
    sys = LinearSystem(a, base.initial_set, input_set, 3.0)
    result = run(sys, eps_max=eps)
    segments = result.segments
    assert segments[0].t_lo == 0.0 and segments[-1].t_hi == 3.0
    assert all(s.t_hi == n.t_lo for s, n in zip(segments, segments[1:]))
    assert all(s.t_hi > s.t_lo for s in segments)
    budget, ledger = result.budget, result.ledger
    assert ledger.max_hom_error <= budget.hom_max
    assert ledger.input_acc <= budget.input_max
    assert ledger.reduction_acc <= budget.reduction_max
    batch = sample_trajectories(sys, 5, seed=0, step=0.01)
    containment = check_containment(segments, batch)
    assert containment.checked == batch.states.shape[0] * 5
    assert containment.all_contained


def test_run_zero_input_budget_with_inputs_fails():
    rng = np.random.default_rng(17)
    a = rng.uniform(-1, 1, size=(2, 2))
    sys = LinearSystem(a, unit_box(2, 10.0, 0.25), unit_box(2, 1.0, 0.05), 3.0)
    with pytest.raises(TuningFailedError):
        run(sys, eps_max=0.05, weights=(0.5, 0.0, 0.5))


def test_run_all_budget_on_homogeneous_disables_reduction():
    sys = LinearSystem(np.array([[-1.0]]), Zonotope([1.0], np.array([[0.1]])),
                       Zonotope.point([0.0]), 1.0)
    result = run(sys, eps_max=0.05, weights=(1.0, 0.0, 0.0))
    assert result.ledger.reduction_acc == 0.0
    assert result.ledger.input_acc == 0.0


def test_reduce_accumulated_zero_budget_is_noop():
    p = Zonotope([0.0, 0.0], np.random.default_rng(3).uniform(-1, 1, (2, 6)))
    budget = ErrorBudget(0.05, 0.05, 0.0)
    out, err = reduce_accumulated(p, budget, ErrorLedger(), 0.1, 0.0, 3.0)
    assert out is p and err == 0.0


def test_reduce_accumulated_minimum_order_is_noop():
    p = Zonotope([0.0, 0.0], np.eye(2))
    budget = ErrorBudget(0.0, 0.0, 1.0)
    out, err = reduce_accumulated(p, budget, ErrorLedger(), 0.1, 0.0, 3.0)
    assert out is p and err == 0.0


def test_reduce_accumulated_respects_admissible_brute_force():
    rng = np.random.default_rng(23)
    dirs = np.column_stack((np.cos(np.linspace(0, 2 * math.pi, 360, endpoint=False)),
                            np.sin(np.linspace(0, 2 * math.pi, 360, endpoint=False))))
    for trial in range(10):
        g = rng.uniform(-1, 1, size=(2, 7))
        p = Zonotope(rng.uniform(-1, 1, size=2), g)
        budget = ErrorBudget(0.0, 0.0, 10.0)
        ledger = ErrorLedger()
        dt, t, horizon = 1.0, 0.0, 3.0
        adm = admissible_share(budget.reduction_max - ledger.reduction_acc,
                               dt, t, horizon)
        out, err = reduce_accumulated(p, budget, ledger, dt, t, horizon)
        assert err < adm
        assert out.num_generators <= p.num_generators
        gap = max(support(out, d) - support(p, d) for d in dirs)
        assert gap <= err + 1e-9


# ---------------------------------------------------------------------------
# The one-cut reduction, and the per-round loop it replaces as a reference.
# ---------------------------------------------------------------------------

def reduce_by_rounds(p_accum, budget, ledger, dt, t, horizon):
    """Per-round reference: ``reduce_order`` to one generator fewer per round,
    re-scoring and re-sorting every generator each time. Also returns the
    number of rounds kept."""
    n = p_accum.dim
    if p_accum.num_generators <= n or budget.reduction_max <= 0:
        return p_accum, 0.0, 0
    admissible = admissible_share(budget.reduction_max - ledger.reduction_acc,
                                  dt, t, horizon)
    current = p_accum
    total = 0.0
    rounds = 0
    while current.num_generators > n:
        target = (current.num_generators - 1) / n
        candidate, err = reduce_order(current, target)
        if (total + err >= admissible
                or ledger.reduction_acc + total + err > budget.reduction_max):
            break
        current = candidate
        total += err
        rounds += 1
    return current, total, rounds


@settings(max_examples=300, deadline=None)
@given(p=accumulated_sets(), budget=st.floats(1e-6, 10.0),
       spent=st.sampled_from([0.0, 0.25]), dt=st.sampled_from([1.0, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_reduce_accumulated_encloses_within_its_certified_error(p, budget, spent,
                                                                dt, seed):
    budget = ErrorBudget(0.0, 0.0, budget)
    ledger = ErrorLedger(reduction_acc=min(spent, budget.reduction_max))
    admissible = admissible_share(budget.reduction_max - ledger.reduction_acc,
                                  dt, 0.0, 1.0)
    out, err = reduce_accumulated(p, budget, ledger, dt, 0.0, 1.0)
    assert err == 0.0 or err < admissible
    assert ledger.reduction_acc + err <= budget.reduction_max
    assert out.num_generators <= p.num_generators
    assert np.array_equal(out.center, p.center)
    # the certificate covers every non-axis generator the output lacks
    kept = Counter(map(tuple, out.generators.T))
    removed = np.zeros(p.dim)
    for col in p.generators.T:
        if np.count_nonzero(col) > 1:
            if kept[tuple(col)]:
                kept[tuple(col)] -= 1
            else:
                removed += np.abs(col)
    assert err >= np.linalg.norm(removed) * (1.0 - 1e-12)
    n = p.dim
    dirs = np.random.default_rng(seed).normal(size=(8, n))
    dirs = np.vstack((dirs / np.linalg.norm(dirs, axis=1)[:, None],
                      np.eye(n), -np.eye(n)))
    tol = 1e-12 * (1.0 + np.abs(p.center).sum() + np.abs(p.generators).sum())
    for d in dirs:
        gap = support(out, d) - support(p, d)
        assert -tol <= gap <= err + tol


def test_tuning_seconds_are_search_less_construction_plus_reduction(monkeypatch):
    # a clock that moves only inside the wrapped calls: 3 s per step search,
    # 2 s per construction metered by the workspace, 7 s per reduction.
    # Tuning time is the search less its construction plus the reduction;
    # the run's total time is all three.
    clock, builds = [0.0], []
    search, build, reduce = (tuner.tune_step, tuner._Workspace.build,
                             tuner.reduce_accumulated)

    def ticking(fn, seconds):
        def call(*args):
            clock[0] += seconds
            return fn(*args)
        return call

    def metered(workspace, construct, *args):
        builds.append(construct)
        return build(workspace, ticking(construct, 2.0), *args)

    monkeypatch.setattr(tuner.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(tuner, "tune_step", ticking(search, 3.0))
    monkeypatch.setattr(tuner, "reduce_accumulated", ticking(reduce, 7.0))
    monkeypatch.setattr(tuner._Workspace, "build", metered)
    result = run(random_system(2, 1), eps_max=0.05)
    assert builds
    assert result.tuning_seconds == 10.0 * result.steps
    assert result.total_seconds == 10.0 * result.steps + 2.0 * len(builds)


@pytest.mark.parametrize("dim", [2, 10])
def test_run_with_the_cut_matches_the_per_round_reduction(dim, monkeypatch):
    def summary(result):
        segs = result.segments
        widths = [2.0 * np.abs(s.set.generators).sum() * (s.t_hi - s.t_lo)
                  for s in segs]
        return ([r.dt for r in result.ledger.records], sum(widths),
                segs[-1].set.num_generators)

    system = random_system(dim, 1)
    cut = run(system, 0.05)
    monkeypatch.setattr(tuner, "reduce_accumulated",
                        lambda *args: reduce_by_rounds(*args)[:2])
    rounds = run(system, 0.05)
    cut_dts, cut_width, cut_gens = summary(cut)
    ref_dts, ref_width, ref_gens = summary(rounds)
    assert cut_dts == ref_dts
    assert cut_width == pytest.approx(ref_width, rel=1e-9, abs=0.0)
    assert cut_gens <= ref_gens
    assert cut.ledger.reduction_acc <= cut.budget.reduction_max
    assert cut.ledger.input_acc <= cut.budget.input_max
    assert max(r.hom_error for r in cut.ledger.records) <= cut.budget.hom_max


# ---------------------------------------------------------------------------
# Independent scalar re-derivation of the per-step error values.
# ---------------------------------------------------------------------------

def scalar_oracle_errors(a, c0, s0, cu, su, records, shrink_unused=None):
    """Recompute each step's error values with plain-float formulas."""
    def tail(dt, eta):
        zeta = abs(a) * dt / (eta + 2)
        assert zeta < 1
        return (abs(a) * dt) ** (eta + 1) / math.factorial(eta + 1) / (1 - zeta)

    def interval_map_1d(mlo, mhi, c, s):
        mid, rad = 0.5 * (mlo + mhi), 0.5 * (mhi - mlo)
        return mid * c, abs(mid) * s + rad * (abs(c) + s)

    phi_lo, phi_hi = 1.0, 1.0
    out = []
    for rec in records:
        dt, eta = rec.dt, rec.taylor_order
        e_hat = tail(dt, eta)
        f_lo = -e_hat
        f_hi = e_hat
        for k in range(2, eta + 1):
            coeff = (k ** (-k / (k - 1)) - k ** (-1 / (k - 1))) * dt ** k
            term = coeff * a ** k / math.factorial(k)
            f_lo += min(term, 0.0)
            f_hi += max(term, 0.0)
        fu_lo = -e_hat * dt
        fu_hi = e_hat * dt
        for k in range(2, eta + 2):
            coeff = (k ** (-k / (k - 1)) - k ** (-1 / (k - 1))) * dt ** k
            term = coeff * a ** (k - 1) / math.factorial(k)
            fu_lo += min(term, 0.0)
            fu_hi += max(term, 0.0)
        hc1, hs1 = interval_map_1d(f_lo, f_hi, c0, s0)
        hc2, hs2 = interval_map_1d(fu_lo, fu_hi, cu, 0.0)
        hc, hs = hc1 + hc2, hs1 + hs2
        ec, es = interval_map_1d(phi_lo * 1, phi_hi, *interval_map_1d(
            -e_hat * dt, e_hat * dt, cu, su))
        mapped_c, mapped_s = interval_map_1d(phi_lo, phi_hi, hc, hs)
        out.append((abs(mapped_c) + mapped_s, abs(ec) + es))
        w = sum((a * dt) ** k / math.factorial(k) for k in range(eta + 1))
        cands = [(w - e_hat) * phi_lo, (w - e_hat) * phi_hi,
                 (w + e_hat) * phi_lo, (w + e_hat) * phi_hi]
        phi_lo, phi_hi = min(cands), max(cands)
    return out


def test_run_scalar_errors_match_independent_rederivation():
    a, c0, s0, cu, su = -1.0, 1.0, 0.1, 0.0, 0.05
    sys = LinearSystem(np.array([[a]]), Zonotope([c0], np.array([[s0]])),
                       Zonotope([cu], np.array([[su]])), 1.0)
    result = run(sys, eps_max=0.05)
    budget = result.budget
    oracle = scalar_oracle_errors(a, c0, s0, cu, su, result.ledger.records)
    input_acc = 0.0
    t = 0.0
    for rec, (err_h, err_p) in zip(result.ledger.records, oracle):
        assert rec.hom_error == pytest.approx(err_h, rel=1e-9, abs=1e-300)
        assert rec.input_error == pytest.approx(err_p, rel=1e-9, abs=1e-300)
        assert err_h <= budget.hom_max * (1 + 1e-12)
        admissible = (budget.input_max - input_acc) * rec.dt / (sys.horizon - t)
        assert err_p <= admissible * (1 + 1e-9)
        input_acc += rec.input_error
        t = rec.t_hi


def stiff_system(lam):
    return LinearSystem(np.diag([-lam, -1.0]), Zonotope.box([1.0, 1.0], [0.1, 0.1]),
                        Zonotope.box([0.0, 0.0], [0.05, 0.05]), 0.3)


def test_run_stiff_search_evaluates_pinned_candidates():
    # the (dt, eta) sweep on the stiff model: any change to which
    # candidates the search evaluates shows here. The homogeneous error
    # floor skips the hopeless step sizes without moving the accepted step
    # (the blind sweep evaluated 1469 candidates in the first step and 1639
    # in all, the floor sigma_min(mid) * max(v) 83 and 248)
    result = run(stiff_system(100.0), eps_max=0.05)
    records = result.ledger.records
    retries = [r.retries for r in records]
    assert result.steps == 25
    assert records[0].dt == 0.003232579099291748
    assert retries[0] == 35
    assert sum(retries) == 200
    assert [r.taylor_order for r in records] == [
        3, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 3, 2, 3, 3, 4, 6, 3, 5, 2, 5, 1]


@pytest.mark.parametrize("system", ["random-5-1", "stiff"])
def test_run_retries_count_every_candidate(system, monkeypatch):
    # the ledger's retries add up to the Taylor pieces the run asked for,
    # one per candidate (dt, eta) evaluated
    sys = {"random-5-1": random_system(5, 1), "stiff": stiff_system(100.0)}[system]
    asked = []
    pieces = TaylorSeries.pieces

    def count(series, eta):
        asked.append(eta)
        return pieces(series, eta)

    monkeypatch.setattr(TaylorSeries, "pieces", count)
    records = run(sys, eps_max=0.05).ledger.records
    assert sum(r.retries for r in records) == len(asked)


def test_run_zero_homogeneous_weight_fails_without_sweeping(monkeypatch):
    # the floor on the homogeneous error is positive, so with no
    # homogeneous budget every step size is skipped down to the underflow
    built = []
    series = tuner.TaylorSeries

    def build(*args):
        built.append(args)
        return series(*args)

    monkeypatch.setattr(tuner, "TaylorSeries", build)
    with pytest.raises(TuningFailedError, match="underflow"):
        run(stiff_system(100.0), eps_max=0.05, weights=(0.0, 0.5, 0.5))
    assert built == []


@pytest.mark.parametrize("system", ["random-2-1", "random-10-1", "random-20-1",
                                    "stiff"])
def test_homogeneous_error_floor_skips_only_what_no_order_passes(system,
                                                                 monkeypatch):
    # with the floor at zero the search sweeps every step size; the floor
    # skips step sizes only, so the segments and the ledger stay the same
    sys = {"random-2-1": random_system(2, 1), "random-10-1": random_system(10, 1),
           "random-20-1": random_system(20, 1), "stiff": stiff_system(100.0)}[system]
    floored = run(sys, eps_max=0.05)
    monkeypatch.setattr(tuner, "homogeneous_error_floor",
                        lambda sys: np.zeros(sys.dim))
    swept = run(sys, eps_max=0.05)
    assert len(floored.segments) == len(swept.segments)
    for a, b in zip(floored.segments, swept.segments):
        assert (a.t_lo, a.t_hi) == (b.t_lo, b.t_hi)
        np.testing.assert_array_equal(a.set.center, b.set.center)
        np.testing.assert_array_equal(a.set.generators, b.set.generators)
    errors = ("dt", "taylor_order", "hom_error", "input_error", "reduction_error")
    for a, b in zip(floored.ledger.records, swept.ledger.records):
        assert [getattr(a, f) for f in errors] == [getattr(b, f) for f in errors]
        assert a.retries <= b.retries
    assert (floored.ledger.input_acc, floored.ledger.reduction_acc) == (
        swept.ledger.input_acc, swept.ledger.reduction_acc)
    assert sum(r.retries for r in floored.ledger.records) < sum(
        r.retries for r in swept.ledger.records)


@pytest.mark.parametrize("dim, steps", [(5, 44), (20, 93)])
def test_step_sets_are_built_once_per_step_outside_the_search(
        dim, steps, monkeypatch):
    # the search scores its candidates in closed form and builds no set:
    # the stepping loop builds the homogeneous error and the step sets once
    # per step, never while tune_step runs (the runs evaluate 463 and 784
    # candidates); the fixed run builds them once per distinct width
    built, searching = Counter(), [False]

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            built[name] += 1
            built["in search"] += searching[0]
            return original(*args)
        monkeypatch.setattr(module, name, call)

    def search(*args):
        searching[0] = True
        try:
            return tune_step(*args)
        finally:
            searching[0] = False

    tune_step = tuner.tune_step
    monkeypatch.setattr(tuner, "tune_step", search)
    counted(reach, "homogeneous_error")
    counted(tuner, "build_step_sets")
    result = run(random_system(dim, 1), eps_max=0.05)
    assert result.steps == steps
    assert built["homogeneous_error"] == built["build_step_sets"] == steps
    assert built["in search"] == 0
    assert sum(r.retries for r in result.ledger.records) > 5 * steps

    built.clear()
    fixed, _ = run_fixed_baseline(random_system(8, 1), 0.03, 4, 10)
    assert fixed.steps == 100
    widths = {r.dt for r in fixed.ledger.records}
    assert built["homogeneous_error"] == built["build_step_sets"] == len(widths)
