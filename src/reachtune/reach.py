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
from .zonotope import (Zonotope, enclosure_radius, hull_of, interval_map,
                       linear_map, minkowski_sum)


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
    """Local reachable-set pieces for one candidate step.

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
    propagator: np.ndarray
    remainder: IntervalMatrix

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

    def min_gain(self) -> float:
        """Lower bound on ``||mid(enclosure) x|| / ||x||``: the smallest
        singular value, less its floating-point error (a small multiple of
        ``n * eps`` times the largest, by Weyl's inequality)."""
        s = np.linalg.svd(self.enclosure.mid, compute_uv=False)
        slack = 2 * s.size * np.finfo(float).eps * s[0]
        return max(float(s[-1] - slack), 0.0)


def homogeneous_error(sys: LinearSystem, pieces: TaylorPieces) -> Zonotope:
    """Error part of the step-window solution without the time-varying input:
    curvature enclosure applied to the initial set plus the input correction
    applied to the input-set center."""
    return minkowski_sum(
        interval_map(pieces.curvature, sys.initial_set),
        interval_map(pieces.correction, Zonotope.point(sys.input_set.center)))


def homogeneous_error_floor(sys: LinearSystem) -> float:
    """``max(v)``, where ``dt**2 * v`` is a floor on the homogeneous error
    set's box corner.

    At every step size and order ``eta >= 1`` the set ``E`` that
    ``homogeneous_error`` returns has ``|c| + sum_j |g_j| >= dt**2 * v``
    entrywise, with ``v = (|A^2| (|c_X0| + sum_j |g_X0,j|) + |A| |c_U|) / 16``:
    the curvature enclosure's radius is at least that of its k = 2 term,
    ``dt**2 |A^2| / 16`` (at eta = 1 the remainder ``|A|^2 dt^2 / 2 / (1 -
    zeta)`` is larger still), the correction's radius is at least
    ``dt**2 |A| / 16``, and ``interval_map`` turns those radii into box
    halfwidths of ``E``. The point of ``E`` that attains its largest
    coordinate keeps at least ``sigma_min(M)`` of its length under a point
    matrix ``M``, so

        propagated_error(acc, E) >= sigma_min(mid(acc.enclosure)) * dt**2 * max(v).

    ``ExponentialAccumulator.min_gain`` gives the ``sigma_min`` factor.
    """
    a = sys.a
    x0 = sys.initial_set
    corner = np.abs(x0.center) + np.abs(x0.generators).sum(axis=1)
    v = (np.abs(a @ a) @ corner + np.abs(a) @ np.abs(sys.input_set.center)) / 16.0
    return float(v.max())


def build_step_sets(sys: LinearSystem, pieces: TaylorPieces,
                    hom_error: Zonotope) -> StepSets:
    """All local pieces for one candidate step, around its homogeneous error
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
        hom_exact=hull_of(sys.initial_set, endpoint), hom_error=hom_error,
        inh_exact=linear_map(pieces.input_propagator, sys.input_set),
        inh_error=interval_map(pieces.remainder.scale(pieces.dt), sys.input_set),
        propagator=w, remainder=pieces.remainder)


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


@dataclass(frozen=True)
class ReachSegment:
    """Reachable set over one time window ``[t_lo, t_hi]``."""

    t_lo: float
    t_hi: float
    set: Zonotope
