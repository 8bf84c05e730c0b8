import math
import warnings

import numpy as np
import pytest

from reachtune import sampling
from reachtune.intervals import IntervalMatrix
from reachtune.modelio import random_system, run_fixed_baseline
from reachtune.reach import LinearSystem, ReachSegment
from reachtune.sampling import (TrajectoryBatch, _min_inf_norm, batch_contains,
                                check_containment, sample_trajectories)
from reachtune.tuner import run
from reachtune.zonotope import Zonotope, interval_map


def static_system():
    return LinearSystem(np.zeros((2, 2)),
                        Zonotope(np.full(2, 10.0), 0.25 * np.eye(2)),
                        Zonotope.point([0.0, 0.0]), 1.0)


def test_static_trajectories_are_constant():
    batch = sample_trajectories(static_system(), count=5, seed=1, step=0.01)
    for k in range(batch.states.shape[0]):
        np.testing.assert_array_equal(batch.states[k], batch.states[0])


def test_initial_states_lie_in_initial_set():
    sys = random_system(3, seed=2)
    batch = sample_trajectories(sys, count=50, seed=3, step=0.05)
    assert batch_contains(sys.initial_set, batch.states[0], 1e-9).all()


def test_scalar_decay_matches_analytic_solution():
    sys = LinearSystem(np.array([[-1.0]]), Zonotope.point([1.0]),
                       Zonotope.point([0.0]), 1.0)
    batch = sample_trajectories(sys, count=1, seed=5, step=1e-3)
    assert batch.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert batch.states[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_forced_scalar_matches_analytic_solution():
    # constant input u: x(t) = u + (x0 - u) e^{-t}
    sys = LinearSystem(np.array([[-1.0]]), Zonotope.point([2.0]),
                       Zonotope.point([0.5]), 1.0)
    batch = sample_trajectories(sys, count=1, seed=5, step=1e-3)
    expected = 0.5 + (2.0 - 0.5) * math.exp(-1.0)
    assert batch.states[-1, 0, 0] == pytest.approx(expected, abs=1e-9)


def test_input_switch_times_align_with_grid():
    sys = random_system(2, seed=6)
    batch = sample_trajectories(sys, count=2, seed=7, step=0.021)
    # 10 pieces, each with an integer number of steps
    steps = batch.times.size - 1
    assert steps % 10 == 0
    assert batch.times[1] <= 0.021 + 1e-12


def test_batch_contains_agrees_with_exact_lp():
    # membership is a linear program: the smallest ||beta||_inf with
    # c + G beta = x is at most 1 + tol exactly for the points inside
    rng = np.random.default_rng(8)
    inside = 0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        z = Zonotope(rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, n + 2)))
        pts = rng.uniform(-3, 3, size=(40, n))
        got = batch_contains(z, pts, tol=1e-6)
        for x, flag in zip(pts, got):
            scale = max(1.0, np.abs(z.center).max(), np.abs(x).max())
            beta_norm = _min_inf_norm(z.generators, x - z.center, 1e-9 * scale)
            assert flag == (beta_norm <= 1.0 + 1e-6)
        inside += int(got.sum())
    assert 0 < inside < 400


def test_batch_contains_examples():
    box = Zonotope([0.0, 0.0], np.eye(2))
    assert batch_contains(box, [0.0, 0.0], 0.0)[0]
    assert batch_contains(box, [1.0, 1.0], 0.0)[0]          # vertex
    assert not batch_contains(box, [1.5, 0.0], 0.4)[0]
    assert batch_contains(box, [1.5, 0.0], 0.5)[0]
    p = Zonotope.point([2.0, 2.0])
    assert batch_contains(p, [2.0, 2.0], 0.0)[0]
    assert not batch_contains(p, [2.1, 2.0], 0.0)[0]


def test_batch_contains_skewed_generators():
    # the plain least-squares witness misses this member
    g = np.array([[1.0, 1.0], [0.0, 1e-3]])
    z = Zonotope([0.0, 0.0], g)
    x = g @ np.array([1.0, -1.0])
    assert batch_contains(z, x, 1e-9)[0]
    assert not batch_contains(z, [2.5, 0.0], 0.0)[0]


def test_membership_on_badly_scaled_generators():
    # a thin set whose second row is near 1e-9: the LP keeps its entries
    m = IntervalMatrix([[0.0], [0.0]], [[1.0], [3.3772239580290567e-10]])
    z = Zonotope([0.0], [[4.5e-230, 4.0, 1.0, 1.0]])
    image = m.hi @ (z.center - z.generators.sum(axis=1))
    thin = interval_map(m, z)
    assert batch_contains(thin, image, tol=1e-9).all()
    assert _min_inf_norm(thin.generators, image - thin.center, 1e-9) == pytest.approx(1.0)
    # a generator column of norm below 1e-154 splits without dividing by 0
    tiny = Zonotope([0.0, 0.0], [[1.0, 0.1, 1e-255], [1.0, -0.1, 2e-255]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = batch_contains(tiny, [[0.9, -0.9], [1.05, 0.95]], tol=1e-9)
    np.testing.assert_array_equal(inside, [False, True])


def counting_lp(monkeypatch) -> list:
    """Patch the membership LP to record its calls; returns the record."""
    calls = []
    exact = sampling._min_inf_norm

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(sampling, "_min_inf_norm", counted)
    return calls


def test_near_boundary_verdicts_agree_with_the_lp(monkeypatch):
    # points c + s G beta for sign vectors beta: at s = 1 each is a member
    # the search must find without the LP; at s = 0.99 and 1.01 the verdict
    # must be the LP's
    rng = np.random.default_rng(21)
    calls = counting_lp(monkeypatch)
    for _ in range(24):
        n = int(rng.integers(2, 11))
        coupled = rng.normal(size=(n, int(rng.integers(n, 15 * n + 1))))
        axis = np.zeros((n, int(rng.integers(0, n + 1))))
        axis[rng.integers(n, size=axis.shape[1]), np.arange(axis.shape[1])] = \
            rng.uniform(0.01, 0.5, axis.shape[1])
        g = np.hstack((coupled, axis))
        z = Zonotope(rng.normal(size=n), g)
        signs = rng.choice([-1.0, 1.0], size=(6, g.shape[1]))
        for s in (0.99, 1.0, 1.01):
            pts = z.center + s * signs @ g.T
            before = len(calls)
            got = batch_contains(z, pts, tol=1e-6)
            if s == 1.0:
                assert got.all() and len(calls) == before
                continue
            for x, flag in zip(pts, got):
                scale = max(1.0, np.abs(z.center).max(), np.abs(x).max())
                beta_norm = _min_inf_norm(g, x - z.center, 1e-9 * scale)
                assert flag == (beta_norm <= 1.0 + 1e-6)


@pytest.mark.parametrize("points_per_block", [1, 4])
def test_witness_search_in_blocks_keeps_every_verdict(points_per_block,
                                                      monkeypatch):
    # the search over blocks of a few points reaches the verdicts, and sends
    # the same points to the LP, as over one block of all points
    rng = np.random.default_rng(5)
    calls = counting_lp(monkeypatch)
    one_block = sampling.WITNESS_BLOCK_DOUBLES
    lp_points = 0
    for _ in range(12):
        n = int(rng.integers(2, 9))
        g = np.hstack((rng.normal(size=(n, int(rng.integers(n, 8 * n)))),
                       0.2 * np.eye(n)[:, :int(rng.integers(0, n + 1))]))
        z = Zonotope(rng.normal(size=n), g)
        signs = rng.choice([-1.0, 1.0], size=(8, g.shape[1]))
        pts = z.center + np.vstack([s * signs @ g.T for s in (0.99, 1.0, 1.01)])
        verdicts, sent = [], []
        for doubles in (one_block, points_per_block * g.size):
            monkeypatch.setattr(sampling, "WITNESS_BLOCK_DOUBLES", doubles)
            before = len(calls)
            verdicts.append(batch_contains(z, pts, tol=1e-6))
            sent.append([args[1] for args in calls[before:]])
        np.testing.assert_array_equal(verdicts[1], verdicts[0])
        assert len(sent[1]) == len(sent[0])
        for r_blocks, r_whole in zip(*sent):
            np.testing.assert_array_equal(r_blocks, r_whole)
        lp_points += len(sent[0])
    assert lp_points > 0  # 5 of the 288 points need the LP


def test_fixed_baseline_containment_needs_no_lp(monkeypatch):
    # the witness search settles every state of a fixed-parameter run; a
    # change that sends states to the LP would show here before it shows
    # as a slower check
    system = random_system(8, 1)
    result, _ = run_fixed_baseline(system, 0.03, 4, 10)
    batch = sample_trajectories(system, count=20, seed=0, step=0.003)
    calls = counting_lp(monkeypatch)
    report = check_containment(result.segments, batch)
    assert report.all_contained, report.failures
    assert report.checked == batch.times.size * 20
    assert len(calls) == 0


def test_membership_with_collinear_generators(monkeypatch):
    # the coupled generators all lie on one line, so every Gram matrix the
    # search builds is singular but for its ridge; the off-line point below
    # saturates every coefficient, which leaves the free set empty
    line = np.ones(3)
    g = np.column_stack((2.0 * line, line, [0.0, 0.0, 0.5], [0.0, 0.0, 0.5]))
    z = Zonotope(np.zeros(3), g)
    calls = counting_lp(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        on_line = batch_contains(z, [[1.5, 1.5, 1.5], [3.0, 3.0, 4.0]], tol=1e-9)
        assert len(calls) == 0
        off_line = batch_contains(z, [3.0, 3.0, -4.0], tol=1e-9)
    np.testing.assert_array_equal(on_line, [True, True])
    assert not off_line[0] and len(calls) == 1


def test_batch_contains_rejects_bad_input():
    z = Zonotope([0.0, 0.0], np.eye(2))
    assert batch_contains(z, [0.5, 0.5], 0.0).shape == (1,)
    with pytest.raises(ValueError):
        batch_contains(z, [[0.5]], 1e-6)
    with pytest.raises(ValueError):
        batch_contains(z, np.zeros((4, 3)), 1e-6)
    with pytest.raises(ValueError):
        batch_contains(z, [0.5, 0.5], -1e-6)
    # a NaN tolerance fails every comparison, so it would reject the center
    assert batch_contains(z, [[0.0, 0.0], [0.0, 0.0]], 0.0).tolist() == [True, True]
    with pytest.raises(ValueError, match="tol"):
        batch_contains(z, [[0.0, 0.0], [0.0, 0.0]], math.nan)
    batch = TrajectoryBatch(times=np.zeros(1), states=np.zeros((1, 2, 1)))
    with pytest.raises(ValueError, match="tol"):
        check_containment([ReachSegment(0.0, 1.0, z)], batch, tol=math.nan)


def test_batch_contains_point_zonotope():
    z = Zonotope.point([1.0, 2.0])
    pts = np.array([[1.0, 2.0], [1.0, 2.1]])
    got = batch_contains(z, pts, tol=1e-6)
    assert got.tolist() == [True, False]


def test_containment_of_sampled_trajectories_in_reach_result():
    sys = random_system(2, seed=11)
    result = run(sys, eps_max=0.05)
    batch = sample_trajectories(sys, count=20, seed=12,
                                step=result.dt_min / 100.0)
    report = check_containment(result.segments, batch, tol=1e-6)
    assert report.all_contained, report.failures
    assert report.checked == batch.times.size * 20


def test_check_containment_rejects_wrong_dimension():
    segment = ReachSegment(0.0, 1.0, Zonotope([0.0, 0.0], np.eye(2)))
    batch = TrajectoryBatch(times=np.linspace(0.0, 1.0, 3),
                            states=np.full((3, 2, 1), 0.5))
    with pytest.raises(ValueError):
        check_containment([segment], batch)


def test_check_containment_rejects_uncovered_times():
    # segments through t 1.437 of a run to T 3, against a batch to T 3:
    # the later samples have no segment, so nothing may be reported
    sys = random_system(2, seed=1)
    segments = run(sys, eps_max=0.05).segments
    head = [seg for seg in segments if seg.t_hi <= 1.437]
    batch = sample_trajectories(sys, count=5, seed=0, step=0.01)
    with pytest.raises(ValueError, match="not covered"):
        check_containment(head, batch)
    with pytest.raises(ValueError, match="sample time 0 "):
        check_containment(segments[1:], batch)
    in_gap = batch.times[batch.times > segments[3].t_lo][0]
    with pytest.raises(ValueError, match=f"sample time {in_gap:.6g} "):
        check_containment(segments[:3] + segments[4:], batch)
    with pytest.raises(ValueError, match="no segments"):
        check_containment([], batch)
    assert check_containment(segments, batch).checked == batch.times.size * 5


def test_check_containment_rejects_segments_out_of_time_order():
    # [1, 2] then [0, 1] cover [0, 2], but not in order: say so, instead of
    # reporting a covered time as uncovered
    box = Zonotope([0.0, 0.0], np.eye(2))
    first, second = ReachSegment(0.0, 1.0, box), ReachSegment(1.0, 2.0, box)
    batch = TrajectoryBatch(times=np.array([0.5, 1.5]),
                            states=np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="segments are not sorted by t_lo: "
                       "segment 1 starts at 0, before segment 0 at 1"):
        check_containment([second, first], batch)
    assert check_containment([first, second], batch).all_contained


def test_sample_validation():
    sys = static_system()
    with pytest.raises(ValueError):
        sample_trajectories(sys, count=0, seed=1, step=0.1)
    with pytest.raises(ValueError):
        sample_trajectories(sys, count=1, seed=1, step=0.0)
