"""Per-step reachable-set construction and propagation across time steps.

One step over ``[0, dt]`` splits both the homogeneous and the input-driven
(inhomogeneous) solution into an exactly-computed part and an error part
containing the origin; the error parts are what the tuner measures and
budgets. Propagation multiplies by an interval enclosure of ``exp(A t)``
that is accumulated step by step, so every propagated set and every
reported error stays sound under variable step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalMatrix
from .taylor import TaylorPieces
from .zonotope import (Zonotope, _halfwidths, enclosure_radius, hull_of,
                       interval_map, linear_map, minkowski_sum)


@dataclass(frozen=True)
class LinearSystem:
    """Time-invariant dynamics ``x' = A x + u`` with bounded initial and input sets.

    ``input_set`` is in state space: systems with an input matrix B are
    handled by mapping the raw input set through B beforehand.
    """

    a: np.ndarray
    initial_set: Zonotope
    input_set: Zonotope
    horizon: float

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"system matrix must be square, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("system matrix entries must be finite")
        object.__setattr__(self, "a", a)
        n = a.shape[0]
        if self.initial_set.dim != n:
            raise ValueError(
                f"initial set dimension {self.initial_set.dim} != {n}")
        if self.input_set.dim != n:
            raise ValueError(f"input set dimension {self.input_set.dim} != {n}")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class StepSets:
    """Local reachable-set pieces of one step, built by the stepping loop.

    ``hom_exact`` carries the step's constant-input drift inside the hull;
    ``inh_exact`` is the full local input solution used for accumulation
    and ``inh_centered`` its drift-free version used in the step window.
    ``hom_error`` and ``inh_error`` both contain the origin, which is what
    makes their enclosure radii sound Hausdorff bounds.
    """

    hom_exact: Zonotope
    hom_error: Zonotope
    inh_exact: Zonotope
    inh_error: Zonotope

    @property
    def inh_centered(self) -> Zonotope:
        # drift-free input solution: the step's constant drift already rides
        # in the homogeneous hull, so the step window only adds the centered
        # part; inh_exact has no zero column, so none needs dropping
        return Zonotope._trusted(np.zeros(self.inh_exact.dim),
                                 self.inh_exact.generators)


@dataclass(frozen=True)
class ExponentialAccumulator:
    """Running interval enclosure of ``exp(A t)`` at the current step start."""

    enclosure: IntervalMatrix

    @classmethod
    def identity(cls, n: int) -> "ExponentialAccumulator":
        return cls(IntervalMatrix.identity(n))

    def advanced(self, propagator: np.ndarray,
                 remainder: IntervalMatrix) -> "ExponentialAccumulator":
        """Compose one step: ``phi' = phi @ ([W, W] + E)``.

        The remainder ``E`` is centred at zero, so the step interval is
        ``(W, rad(E))``. Interval products skip validation, so an enclosure
        that outgrows the float range is caught here, once per step.
        """
        enclosure = self.enclosure @ IntervalMatrix._trusted(propagator, remainder.rad)
        if not (np.isfinite(enclosure.mid).all() and np.isfinite(enclosure.rad).all()):
            raise ValueError("enclosure of exp(A t) overflowed")
        return ExponentialAccumulator(enclosure)


def homogeneous_error(sys: LinearSystem, pieces: TaylorPieces) -> Zonotope:
    """Error part of the step-window solution without the time-varying input:
    curvature enclosure applied to the initial set plus the input correction
    applied to the input-set center."""
    return minkowski_sum(
        interval_map(pieces.curvature, sys.initial_set),
        interval_map(pieces.correction, Zonotope.point(sys.input_set.center)))


def homogeneous_error_floor(sys: LinearSystem) -> np.ndarray:
    """``v``, where ``dt**2 * v`` is an entrywise floor on the box halfwidths
    of the homogeneous error set.

    At every step size and order ``eta >= 1`` the set ``E`` that
    ``homogeneous_error`` returns has box halfwidths ``h >= dt**2 * v``
    entrywise, with ``v = (|A^2| (|c_X0| + sum_j |g_X0,j|) + |A| |c_U|) / 16``:
    the curvature enclosure's radius is at least that of its k = 2 term,
    ``dt**2 |A^2| / 16`` (at eta = 1 the remainder ``|A|^2 dt^2 / 2 / (1 -
    zeta)`` is larger still), the correction's radius is at least
    ``dt**2 |A| / 16``, and ``interval_map`` turns those radii into the
    halfwidths ``h``. ``homogeneous_floor_rate`` carries the floor to the
    current time.
    """
    a = sys.a
    x0 = sys.initial_set
    corner = np.abs(x0.center) + np.abs(x0.generators).sum(axis=1)
    return (np.abs(a @ a) @ corner + np.abs(a) @ np.abs(sys.input_set.center)) / 16.0


# Relative rounding margin of ``homogeneous_floor_rate``.
_FLOOR_MARGIN = 1.0 - 1e-9


def homogeneous_floor_rate(acc: ExponentialAccumulator, v: np.ndarray) -> float:
    """``||(|M| + R) v||_2``, less a rounding margin, where ``M`` and ``R``
    are the midpoint and radius of ``acc.enclosure`` and ``v`` is
    ``homogeneous_error_floor(sys)``: at every step size ``dt`` and order

        rate * dt**2 <= propagated_homogeneous_error(acc, sys, pieces).

    That score is the norm of a corner vector whose terms are all
    nonnegative, among them ``|M| h`` and ``R h`` for the error set's
    halfwidths ``h >= dt**2 v``; so the corner is at least
    ``dt**2 (|M| + R) v`` entrywise, and the norm is monotone on nonnegative
    vectors. The floor and the score's ``(|M| + R) h`` part are computed as
    sums and products of nonnegative numbers, to which the score only adds
    nonnegative terms, and a sum of ``k`` such numbers is within a relative
    ``k * 2**-53`` of its exact value in any order; the margin of ``1e-9``
    covers that for ``k`` (about the dimension plus the generator count) up
    to 10**6, away from underflow.
    """
    return _FLOOR_MARGIN * _propagated_box_radius(acc, v)


def _propagated_box_radius(acc: ExponentialAccumulator, h: np.ndarray) -> float:
    """``||(|M| + R) h||_2``: ``propagated_error`` of the box ``[-h, h]``."""
    m, r = acc.enclosure.mid, acc.enclosure.rad
    return float(np.linalg.norm((np.abs(m) + r) @ h))


def build_step_sets(sys: LinearSystem, pieces: TaylorPieces) -> StepSets:
    """All local pieces of one step, around its homogeneous error
    ``homogeneous_error(sys, pieces)``.

    Step window without the time-varying input: the exact part is the hull
    of the initial set and its endpoint image, which is the Taylor
    propagator applied to the initial set shifted by the constant drift of
    the input-set center. Keeping the drift endpoint inside the hull is
    what covers intermediate times when the input set is not centered at
    the origin; its interpolation defect is exactly what the
    input-correction term of ``hom_error`` bounds.

    Local input solution over ``[0, dt]``: the exact part is
    ``(sum_{k=0}^{eta} A^k dt^(k+1) / (k+1)!) U``, the error part
    ``(remainder * dt) U``.
    """
    w = pieces.partial_sum
    drift = pieces.input_propagator @ sys.input_set.center
    endpoint = Zonotope(w @ sys.initial_set.center + drift,
                        w @ sys.initial_set.generators)
    return StepSets(
        hom_exact=hull_of(sys.initial_set, endpoint),
        hom_error=homogeneous_error(sys, pieces),
        inh_exact=linear_map(pieces.input_propagator, sys.input_set),
        inh_error=interval_map(pieces.remainder.scale(pieces.dt), sys.input_set))


def propagate_step(acc: ExponentialAccumulator, sets: StepSets,
                   p_prev: Zonotope) -> tuple[Zonotope, Zonotope]:
    """Map the local step sets to the current time and extend the input sum.

    Returns the mapped step-window piece (hull, error and drift-free input
    parts; adding the accumulated input set of the step start completes the
    segment) and the accumulated input solution through the step end.
    """
    local = minkowski_sum(minkowski_sum(sets.hom_exact, sets.hom_error),
                          minkowski_sum(sets.inh_centered, sets.inh_error))
    window = interval_map(acc.enclosure, local)
    p_step = interval_map(acc.enclosure,
                          minkowski_sum(sets.inh_exact, sets.inh_error))
    return window, minkowski_sum(p_prev, p_step)


def propagated_error(acc: ExponentialAccumulator, error_set: Zonotope) -> float:
    """Enclosure radius of an error set after mapping it to the current time."""
    return enclosure_radius(interval_map(acc.enclosure, error_set))


def propagated_homogeneous_error(acc: ExponentialAccumulator, sys: LinearSystem,
                                 pieces: TaylorPieces) -> float:
    """``propagated_error(acc, homogeneous_error(sys, pieces))``, no set built:
    for that set's center ``c``, generators ``G`` and box halfwidths ``h``,
    the norm of ``|M c| + sum_j |M g_j| + |M| h + R (|c| + sum_j |g_j| + h)``."""
    x0, u_c = sys.initial_set, sys.input_set.center
    curv, corr = pieces.curvature, pieces.correction
    c = curv.mid @ x0.center + corr.mid @ u_c
    g = curv.mid @ x0.generators
    h = curv.rad @ (np.abs(x0.center) + _halfwidths(x0)) + corr.rad @ np.abs(u_c)
    m, r = acc.enclosure.mid, acc.enclosure.rad
    corner = (np.abs(m @ c) + np.abs(m @ g).sum(axis=1) + np.abs(m) @ h
              + r @ (np.abs(c) + np.abs(g).sum(axis=1) + h))
    return float(np.linalg.norm(corner))


def propagated_input_error(acc: ExponentialAccumulator, sys: LinearSystem,
                           pieces: TaylorPieces) -> float:
    """``propagated_error(acc, build_step_sets(sys, pieces).inh_error)``, no
    set built: that set is the box of halfwidths ``h = (rad(E) dt) (|c_U| +
    sum_j |g_U,j|)`` around the origin, since ``E`` is centred at zero."""
    u = sys.input_set
    h = (pieces.remainder.rad * pieces.dt) @ (np.abs(u.center) + _halfwidths(u))
    return _propagated_box_radius(acc, h)


@dataclass(frozen=True)
class ReachSegment:
    """Reachable set over one time window ``[t_lo, t_hi]``."""

    t_lo: float
    t_hi: float
    set: Zonotope
