"""Trajectory sampling oracle: random runs of the system, checked per segment.

Initial states are drawn from the initial set (a mix of vertex and interior
coefficient draws), inputs are piecewise-constant samples from the input set
on a uniform grid of 10 switches, and integration is classical fixed-step
RK4 with switch times aligned to step boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import rk4_piecewise
from .reach import LinearSystem, ReachSegment
from .zonotope import Zonotope

INPUT_SWITCHES = 10
# Active-set rounds of the witness search before the undecided points go
# to the LP: a member the least-squares start misses takes a few rounds,
# rarely more than 10.
WITNESS_ROUNDS = 50
# Doubles (8 MB) in the Gram temporary of one block of the witness search.
WITNESS_BLOCK_DOUBLES = 2 ** 20
# Uncontained states that a containment report lists.
MAX_FAILURES = 10


@dataclass(frozen=True)
class TrajectoryBatch:
    """Dense states of ``count`` sampled trajectories on a shared time grid."""

    times: np.ndarray          # (k,)
    states: np.ndarray         # (k, count, dim)

    @property
    def count(self) -> int:
        return self.states.shape[1]


def _sample_coefficients(rng, gamma: int, count: int,
                         vertex_fraction: float) -> np.ndarray:
    """(count, gamma) coefficient draws, a mix of vertices and interior."""
    beta = rng.uniform(-1.0, 1.0, size=(count, gamma))
    vertex = rng.random(count) < vertex_fraction
    if gamma and vertex.any():
        signs = rng.choice([-1.0, 1.0], size=(int(vertex.sum()), gamma))
        beta[vertex] = signs
    return beta


def _sample_points(rng, z: Zonotope, count: int,
                   vertex_fraction: float) -> np.ndarray:
    beta = _sample_coefficients(rng, z.num_generators, count, vertex_fraction)
    return z.center[None, :] + beta @ z.generators.T


def sample_trajectories(system: LinearSystem, count: int, seed: int,
                        step: float) -> TrajectoryBatch:
    """Integrate ``count`` random trajectories with RK4 steps of at most ``step``.

    The horizon is split into 10 input pieces; the actual step size divides
    each piece exactly so the input never switches inside an RK4 step.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive, got {step}")
    rng = np.random.default_rng(seed)
    x0 = _sample_points(rng, system.initial_set, count, vertex_fraction=0.5)
    inputs = np.empty((INPUT_SWITCHES, count, system.dim))
    for p in range(INPUT_SWITCHES):
        inputs[p] = _sample_points(rng, system.input_set, count,
                                   vertex_fraction=0.3)
    piece = system.horizon / INPUT_SWITCHES
    steps_per_piece = max(1, math.ceil(piece / step - 1e-12))
    h = piece / steps_per_piece
    states = rk4_piecewise(system.a, x0, inputs, steps_per_piece, h)
    times = np.linspace(0.0, system.horizon, states.shape[0])
    return TrajectoryBatch(times=times, states=states)


def batch_contains(z: Zonotope, points: np.ndarray, tol: float) -> np.ndarray:
    """Membership of each row of ``points`` (a single point counts as one
    row) in ``z``: is there ``beta`` with ``||beta||_inf <= 1 + tol`` and
    ``c + G beta = x``?

    Rejects points outside the (tol-inflated) box hull. For the accept side,
    axis-aligned generators are folded into per-axis slack (their Minkowski
    sum is exactly a box), so a point is in the set iff coefficients for
    the remaining generators leave a residual within that slack. Witnesses
    start from the clipped least-squares coefficients and are searched by
    active-set least-norm corrections (Stark and Parker's bounded-variable
    least squares), over blocks of points sized by ``WITNESS_BLOCK_DOUBLES``;
    stragglers are settled by an exact linear program. Every accept carries
    an explicit coefficient witness, checked on the unscaled generators, so
    no false accepts arise; a reject comes from the box check or the LP alone.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != z.dim:
        raise ValueError(f"points of shape {points.shape} do not have width {z.dim}")
    # The LP's module loads on every call, not only when a point reaches
    # the LP: it adds about 40 MB, and a command's memory should not hinge
    # on whether some sampled state happens to be a straggler.
    import scipy.optimize  # noqa: F401
    r = points - z.center[None, :]
    scale = max(1.0, float(np.abs(z.center).max(initial=0.0)),
                float(np.abs(points).max(initial=0.0)))
    eq_tol = 1e-9 * scale
    bound = 1.0 + tol
    if z.num_generators == 0:
        return np.all(np.abs(r) <= eq_tol, axis=1)
    out = np.zeros(points.shape[0], dtype=bool)
    half = np.abs(z.generators).sum(axis=1)
    inside_box = np.all(np.abs(r) <= bound * half[None, :] + eq_tol, axis=1)
    if not inside_box.any():
        return out
    idx = np.flatnonzero(inside_box)

    nonzero = np.count_nonzero(z.generators, axis=0)
    axis = nonzero == 1
    slack = bound * np.abs(z.generators[:, axis]).sum(axis=1) + eq_tol
    if not np.any(nonzero > 1):
        out[idx] = np.all(np.abs(r[idx]) <= slack[None, :], axis=1)
        return out

    # The search solves c + G beta = x over all generators; the witness
    # test then trades the axis coefficients for their slack, through G
    # with its axis columns zeroed. Corrections use G over its largest
    # entry, and a ridge keeps each Gram invertible.
    coupled = np.where(nonzero > 1, z.generators, 0.0)
    unit = np.abs(z.generators).max()
    gu = z.generators / unit
    ridge = 1e-10 * np.sum(gu * gu) / z.dim * np.eye(z.dim)
    block = max(1, WITNESS_BLOCK_DOUBLES // gu.size)
    pinv = np.linalg.pinv(z.generators)
    for lo in range(0, idx.size, block):
        b_idx, b_r = idx[lo:lo + block], r[idx[lo:lo + block]]
        beta = np.clip(b_r @ pinv.T, -bound, bound)
        step = np.zeros_like(beta)
        for _ in range(WITNESS_ROUNDS):
            residual = beta @ coupled.T - b_r
            excess = residual - np.clip(residual, -slack, slack)
            keep = ~(np.max(np.abs(excess), axis=1) <= eq_tol)
            out[b_idx[~keep]] = True
            b_idx, b_r, beta, step = b_idx[keep], b_r[keep], beta[keep], step[keep]
            if not b_idx.size:
                break
            # least-norm correction of the residual on each point's free
            # coefficients: inside the bounds, or pushed inward last round
            free = (np.abs(beta) < bound) | (beta * step < 0.0)
            gram = (free[:, None, :] * gu) @ gu.T + ridge
            target = beta @ gu.T - b_r / unit
            step = -(np.linalg.solve(gram, target[:, :, None])[:, :, 0] @ gu)
            beta = np.clip(beta + np.where(free, step, 0.0), -bound, bound)
        for pos, k in enumerate(b_idx):
            out[k] = _min_inf_norm(z.generators, b_r[pos], eq_tol) <= bound
    return out


def _min_inf_norm(g: np.ndarray, r: np.ndarray, eq_tol: float) -> float:
    # LP over (beta, s): minimize s subject to G beta = r, |beta_j| <= s.
    # Imported here: scipy.optimize takes most of the package's import time,
    # and only the membership test uses it (batch_contains loads it first).
    from scipy.optimize import linprog

    n, gamma = g.shape
    c = np.zeros(gamma + 1)
    c[-1] = 1.0
    # rows scaled to a largest entry of 1: HiGHS drops entries below 1e-9
    rows = np.abs(g).max(axis=1, initial=0.0)
    rows[rows == 0.0] = 1.0
    a_eq = np.hstack((g / rows[:, None], np.zeros((n, 1))))
    ones = np.ones((gamma, 1))
    a_ub = np.block([[np.eye(gamma), -ones], [-np.eye(gamma), -ones]])
    b_ub = np.zeros(2 * gamma)
    bounds = [(None, None)] * gamma + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=r / rows,
                  bounds=bounds, method="highs")
    if not res.success:
        # Equalities infeasible: the point is off the generator span.
        return np.inf
    beta = res.x[:gamma]
    if np.max(np.abs(g @ beta - r)) > max(eq_tol, 1e-9):
        return np.inf
    return float(res.fun)


@dataclass(frozen=True)
class ContainmentReport:
    checked: int
    contained: int
    failures: list

    @property
    def all_contained(self) -> bool:
        return self.contained == self.checked


def check_containment(segments: list[ReachSegment], batch: TrajectoryBatch,
                      tol: float = 1e-6) -> ContainmentReport:
    """Verify that every sampled state lies in the segment covering its time.

    Each sample time goes to the last segment starting at or before it.
    Raises ``ValueError`` when the segments are not sorted by ``t_lo``, or
    naming the first sample time that segment does not cover: one before
    the first segment, after the last, or in a gap.
    """
    if not segments:
        raise ValueError("no segments to check the samples against")
    t_lo = np.array([seg.t_lo for seg in segments])
    t_hi = np.array([seg.t_hi for seg in segments])
    unsorted = np.flatnonzero(np.diff(t_lo) < 0)
    if unsorted.size:
        i = int(unsorted[0]) + 1
        raise ValueError(
            f"segments are not sorted by t_lo: segment {i} starts at "
            f"{t_lo[i]:.6g}, before segment {i - 1} at {t_lo[i - 1]:.6g}")
    seg_idx = np.searchsorted(t_lo, batch.times, side="right") - 1
    uncovered = (seg_idx < 0) | (batch.times > t_hi[np.maximum(seg_idx, 0)])
    if uncovered.any():
        first = int(np.argmax(uncovered))
        raise ValueError(
            f"sample time {batch.times[first]:.6g} is not covered by the "
            f"segments [{t_lo[0]:.6g}, {t_hi[-1]:.6g}]: check that they "
            f"tile the batch's time span")
    checked = 0
    contained = 0
    failures = []
    for i, seg in enumerate(segments):
        rows = np.flatnonzero(seg_idx == i)
        if rows.size == 0:
            continue
        pts = batch.states[rows].reshape(-1, batch.states.shape[2])
        ok = batch_contains(seg.set, pts, tol)
        checked += ok.size
        contained += int(ok.sum())
        if not ok.all() and len(failures) < MAX_FAILURES:
            bad = np.flatnonzero(~ok)
            count = batch.count
            for b in bad[:MAX_FAILURES - len(failures)]:
                failures.append({
                    "segment": i,
                    "time": float(batch.times[rows[b // count]]),
                    "trajectory": int(b % count),
                })
    return ContainmentReport(checked=checked, contained=contained,
                             failures=failures)
