import math
import warnings

import numpy as np
import pytest

from reachtune.intervals import IntervalMatrix
from reachtune.modelio import random_system
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


def test_batch_contains_rejects_bad_input():
    z = Zonotope([0.0, 0.0], np.eye(2))
    assert batch_contains(z, [0.5, 0.5], 0.0).shape == (1,)
    with pytest.raises(ValueError):
        batch_contains(z, [[0.5]], 1e-6)
    with pytest.raises(ValueError):
        batch_contains(z, np.zeros((4, 3)), 1e-6)
    with pytest.raises(ValueError):
        batch_contains(z, [0.5, 0.5], -1e-6)


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
