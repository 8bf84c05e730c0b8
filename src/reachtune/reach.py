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
from .zonotope import (Zonotope, _halfwidths, _nonzero_columns, enclosure_radius,
                       hull_of, interval_map, linear_map, minkowski_sum)


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
        for name, z in (("initial", self.initial_set), ("input", self.input_set)):
            if z.dim != n:
                raise ValueError(f"{name} set dimension {z.dim} != {n}")
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(np.abs(z.center) + _halfwidths(z))):
                    raise ValueError(f"{name} set corner |c| + sum_j |g_j| is not finite")
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
    ``hom_error`` and ``inh_error`` are the sets of the parts the step
    search scores, one box each; both contain the origin, which is what
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


def _homogeneous_parts(sys: LinearSystem, pieces: TaylorPieces) -> tuple:
    """Center ``c``, generators ``G`` and box halfwidths ``h`` of the
    homogeneous error set ``C X0 + D c_U``, for the curvature enclosure ``C``
    and input correction ``D``: ``c = mid(C) c_X0 + mid(D) c_U``, ``G = mid(C)
    G_X0`` and ``h = rad(C) (|c_X0| + sum_j |g_X0,j|) + rad(D) |c_U|``."""
    x0, u_c = sys.initial_set, sys.input_set.center
    curv, corr = pieces.curvature, pieces.correction
    return (curv.mid @ x0.center + corr.mid @ u_c, curv.mid @ x0.generators,
            curv.rad @ (np.abs(x0.center) + _halfwidths(x0)) + corr.rad @ np.abs(u_c))


def _input_parts(sys: LinearSystem, pieces: TaylorPieces) -> tuple:
    """Parts of the input error set ``(E dt) U``: the remainder ``E`` is
    centred at zero, so it is the box of halfwidths ``h = (rad(E) dt) (|c_U|
    + sum_j |g_U,j|)`` around the origin."""
    u = sys.input_set
    h = (pieces.remainder.rad * pieces.dt) @ (np.abs(u.center) + _halfwidths(u))
    return np.zeros(u.dim), np.zeros((u.dim, 0)), h


def _error_set(c: np.ndarray, g: np.ndarray, h: np.ndarray) -> Zonotope:
    """The zonotope of center ``c``, generators ``G`` and the box ``[-h, h]``."""
    return Zonotope._trusted(c, _nonzero_columns(np.hstack((g, np.diag(h)))))


def _propagated_radius(acc: ExponentialAccumulator, c: np.ndarray,
                       g: np.ndarray, h: np.ndarray) -> float:
    """``propagated_error(acc, _error_set(c, g, h))``, no set built: for the
    midpoint ``M`` and radius ``R`` of ``acc.enclosure``, the norm of the
    corner ``|M c| + sum_j |M g_j| + |M| h + R (|c| + sum_j |g_j| + h)``."""
    m, r = acc.enclosure.mid, acc.enclosure.rad
    corner = (np.abs(m @ c) + np.abs(m @ g).sum(axis=1) + np.abs(m) @ h
              + r @ (np.abs(c) + np.abs(g).sum(axis=1) + h))
    return float(np.linalg.norm(corner))


def homogeneous_error(sys: LinearSystem, pieces: TaylorPieces) -> Zonotope:
    """Error part of the step-window solution without the time-varying
    input: the set of ``_homogeneous_parts``, whose radii make one box."""
    return _error_set(*_homogeneous_parts(sys, pieces))


def homogeneous_error_floor(sys: LinearSystem) -> np.ndarray:
    """``v = (|A^2| (|c_X0| + sum_j |g_X0,j|) + |A| |c_U|) / 16``: at every
    step size and order ``eta >= 1``, the homogeneous parts have ``h >= dt**2
    v``, since the curvature enclosure's radius is at least its k = 2 term's,
    ``dt**2 |A^2| / 16`` (at eta = 1 the remainder ``|A|^2 dt^2 / 2 / (1 -
    zeta)`` is larger still), and the correction's at least ``dt**2 |A| / 16``.
    """
    a, x0 = sys.a, sys.initial_set
    corner = np.abs(x0.center) + _halfwidths(x0)
    return (np.abs(a @ a) @ corner + np.abs(a) @ np.abs(sys.input_set.center)) / 16.0


# Relative rounding margin of ``homogeneous_floor_rate``.
_FLOOR_MARGIN = 1.0 - 1e-9


def homogeneous_floor_rate(acc: ExponentialAccumulator, v: np.ndarray) -> float:
    """The scores' corner norm at the parts ``(0, none, v)`` for ``v =
    homogeneous_error_floor(sys)``, less a rounding margin: at every ``dt``
    and order, ``rate * dt**2 <= propagated_homogeneous_error(acc, sys,
    pieces)``. Every term of the corner is nonnegative, those in ``h`` are
    monotone in it, and the scored parts have ``h >= dt**2 v``; so the floor
    bounds the score. The margin of ``1e-9`` covers rounding: a sum of ``k``
    nonnegative terms is within a relative ``k * 2**-53`` of its exact
    value, for ``k`` up to 10**6."""
    return _FLOOR_MARGIN * _propagated_radius(acc, 0 * v, np.zeros((v.size, 0)), v)


def build_step_sets(sys: LinearSystem, pieces: TaylorPieces) -> StepSets:
    """All local pieces of one step, both error sets built from their parts.

    Step window without the time-varying input: the exact part is the hull
    of the initial set and its endpoint image, which is the Taylor
    propagator applied to the initial set shifted by the constant drift of
    the input-set center. Keeping the drift endpoint inside the hull is
    what covers intermediate times when the input set is not centered at
    the origin; its interpolation defect is exactly what the
    input-correction term of ``hom_error`` bounds.

    Local input solution over ``[0, dt]``: the exact part is
    ``(sum_{k=0}^{eta} A^k dt^(k+1) / (k+1)!) U``, the error part the box
    of ``_input_parts``, which encloses ``(remainder * dt) U``.
    """
    w = pieces.partial_sum
    drift = pieces.input_propagator @ sys.input_set.center
    endpoint = Zonotope(w @ sys.initial_set.center + drift,
                        w @ sys.initial_set.generators)
    return StepSets(
        hom_exact=hull_of(sys.initial_set, endpoint),
        hom_error=homogeneous_error(sys, pieces),
        inh_exact=linear_map(pieces.input_propagator, sys.input_set),
        inh_error=_error_set(*_input_parts(sys, pieces)))


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
    """``propagated_error(acc, homogeneous_error(sys, pieces))``."""
    return _propagated_radius(acc, *_homogeneous_parts(sys, pieces))


def propagated_input_error(acc: ExponentialAccumulator, sys: LinearSystem,
                           pieces: TaylorPieces) -> float:
    """``propagated_error(acc, build_step_sets(sys, pieces).inh_error)``."""
    return _propagated_radius(acc, *_input_parts(sys, pieces))


@dataclass(frozen=True)
class ReachSegment:
    """Reachable set over one time window ``[t_lo, t_hi]``."""

    t_lo: float
    t_hi: float
    set: Zonotope
