"""Truncated Taylor expansion of the matrix exponential with certified bounds.

Provides the point partial sum, the input propagator, a symmetric interval
enclosure of the truncation remainder, the curvature enclosure covering all
intermediate times of a step, the matching input correction term, and the
automatic cut-off order for the series.

``TaylorSeries`` gives every piece for every order at one step size. It
keeps running sums of the terms, computes each term once, and adds the
remainder, which depends on the order, last. The per-order functions build
each piece from scratch, summing the same terms in the same order; they are
the reference the series is tested against, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalMatrix


class NotConvergentError(ArithmeticError):
    """Remainder bound diverges: ``|A|*dt / (eta+2) >= 1``.

    Callers recover by raising the order or shrinking the time step.
    """


class MatrixPowers:
    """Per-matrix cache of ``A**k`` and ``|A|**k``, grown on demand.

    Confined to one analysis run; not safe for concurrent mutation.
    """

    def __init__(self, a: np.ndarray):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        self.a = a
        self.dim = a.shape[0]
        self.norm_inf = float(np.max(np.abs(a).sum(axis=1))) if a.size else 0.0
        self._pow = [np.eye(self.dim), a]
        self._abs_pow = [np.eye(self.dim), np.abs(a)]

    def power(self, k: int) -> np.ndarray:
        while len(self._pow) <= k:
            self._pow.append(self._pow[-1] @ self.a)
        return self._pow[k]

    def abs_power(self, k: int) -> np.ndarray:
        while len(self._abs_pow) <= k:
            self._abs_pow.append(self._abs_pow[-1] @ self._abs_pow[1])
        return self._abs_pow[k]


def _as_powers(a) -> MatrixPowers:
    return a if isinstance(a, MatrixPowers) else MatrixPowers(a)


def _check_step(dt: float, eta: int) -> None:
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if eta < 1:
        raise ValueError(f"Taylor order must be >= 1, got {eta}")


def _dt_power(dt: float, k: int, over_factorial: bool = True) -> float:
    """``dt^k / k!``, or ``dt^k`` alone; ``inf`` where it leaves the float
    range, so that ``TaylorSeries.pieces`` rejects the terms built on it."""
    try:
        if not over_factorial:
            return dt ** k
        if k <= 150:
            return dt ** k / math.factorial(k)
        return math.exp(k * math.log(dt) - math.lgamma(k + 1))
    except OverflowError:
        return math.inf


def _point_term(powers: MatrixPowers, dt: float, k: int, p: int) -> np.ndarray:
    """``A^p dt^k / k!``."""
    return powers.power(p) * _dt_power(dt, k)


def _mixed_term(powers: MatrixPowers, dt: float, k: int, p: int) -> np.ndarray:
    """Midpoint and radius of ``[c_k dt^k, 0] A^p / k!`` stacked as one
    ``(2, n, n)`` array, unchecked; k >= 2.

    ``c_k = k^(-k/(k-1)) - k^(-1/(k-1)) < 0`` is the spread of ``t^k``-type
    terms over a step relative to its endpoints; ``[c, 0] P = (c/2 P, |c/2 P|)``.
    """
    c_k = k ** (-k / (k - 1.0)) - k ** (-1.0 / (k - 1.0))
    half = 0.5 * c_k * _dt_power(dt, k, over_factorial=False)
    mid = half * (powers.power(p) / math.factorial(k))
    return np.stack((mid, np.abs(mid)))


def taylor_partial_sum(a, dt: float, eta: int) -> np.ndarray:
    """Point matrix ``sum_{k=0}^{eta} (A dt)^k / k!`` (identity term included)."""
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = np.eye(powers.dim)
    for k in range(1, eta + 1):
        total = total + _point_term(powers, dt, k, k)
    return total


def input_propagator(a, dt: float, eta: int) -> np.ndarray:
    """Step integral of the Taylor flow: ``sum_{k=0}^{eta} A^k dt^(k+1)/(k+1)!``."""
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = np.zeros((powers.dim, powers.dim))
    for k in range(eta + 1):
        total = total + _point_term(powers, dt, k + 1, k)
    return total


def convergence_ratio(a, dt: float, eta: int) -> float:
    """Geometric ratio of the remainder tail; must be < 1 for the bound."""
    powers = _as_powers(a)
    return powers.norm_inf * dt / (eta + 2)


def truncation_remainder(a, dt: float, eta: int) -> IntervalMatrix:
    """Symmetric interval enclosing the Taylor remainder after ``eta`` terms.

    The halfwidth is the geometric-tail closed form
    ``(|A| dt)^(eta+1) / (eta+1)! * 1 / (1 - zeta)`` with
    ``zeta = ||A||_inf dt / (eta+2)``.

    Raises NotConvergentError when ``zeta >= 1``.
    """
    return IntervalMatrix.symmetric(_remainder_halfwidth(_as_powers(a), dt, eta))


def _remainder_halfwidth(powers: MatrixPowers, dt: float, eta: int) -> np.ndarray:
    _check_step(dt, eta)
    zeta = convergence_ratio(powers, dt, eta)
    if zeta >= 1.0:
        raise NotConvergentError(
            f"remainder tail ratio {zeta:.3g} >= 1 at dt={dt:.3g}, eta={eta}")
    return powers.abs_power(eta + 1) * (_dt_power(dt, eta + 1) / (1.0 - zeta))


def curvature_enclosure(a, dt: float, eta: int) -> IntervalMatrix:
    """Interval matrix covering all in-step times of the homogeneous flow.

    ``sum_{k=2}^{eta} [c_k dt^k, 0] A^k / k!  +  remainder`` with
    ``c_k = k^(-k/(k-1)) - k^(-1/(k-1)) < 0``.
    """
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = np.zeros((2, powers.dim, powers.dim))
    for k in range(2, eta + 1):
        total = total + _mixed_term(powers, dt, k, k)
    return IntervalMatrix._finite(total[0],
                                  total[1] + _remainder_halfwidth(powers, dt, eta))


def input_correction(a, dt: float, eta: int) -> IntervalMatrix:
    """Interval matrix mapping a constant input center over one step.

    ``sum_{k=2}^{eta+1} [c_k dt^k, 0] A^(k-1) / k!  +  remainder * dt``.
    """
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = np.zeros((2, powers.dim, powers.dim))
    for k in range(2, eta + 2):
        total = total + _mixed_term(powers, dt, k, k - 1)
    return IntervalMatrix._finite(total[0],
                                  total[1] + _remainder_halfwidth(powers, dt, eta) * dt)


@dataclass(frozen=True)
class TaylorPieces:
    """Every Taylor piece of ``exp(A dt)`` at one step size and order, all
    finite: the point sums and the three interval enclosures."""

    dt: float
    eta: int
    partial_sum: np.ndarray
    input_propagator: np.ndarray
    remainder: IntervalMatrix
    curvature: IntervalMatrix
    correction: IntervalMatrix


class TaylorSeries:
    """Every Taylor piece of ``exp(A dt)`` at one step size, for any order.

    The partial sum, the input propagator and the sums of the curvature
    and correction terms are running sums, grown term by term on demand
    up to the highest order asked for, like ``MatrixPowers``; each
    interval sum is one stacked ``(mid, rad)`` array. The remainder depends
    on the order, so it is added last. Confined to one analysis run; not
    safe for concurrent mutation.
    """

    def __init__(self, a, dt: float):
        _check_step(dt, 1)
        self.powers = _as_powers(a)
        self.dt = dt
        n = self.powers.dim
        no_terms = np.zeros((2, n, n))
        # each sum at index k holds its terms through dt^k / k!; the
        # curvature and correction terms start at k = 2
        self._partial = [np.eye(n)]
        self._propagator = [np.zeros((n, n))]
        self._curvature = [no_terms, no_terms]
        self._correction = [no_terms, no_terms]

    def _grow(self, sums: list, k: int, term, shift: int) -> np.ndarray:
        """``sums[k]``, first appending ``term`` of ``A^(j - shift)`` for
        every missing index ``j``."""
        for j in range(len(sums), k + 1):
            sums.append(sums[-1] + term(self.powers, self.dt, j, j - shift))
        return sums[k]

    def partial_sum(self, eta: int) -> np.ndarray:
        """As ``taylor_partial_sum``."""
        _check_step(self.dt, eta)
        return self._grow(self._partial, eta, _point_term, 0)

    def input_propagator(self, eta: int) -> np.ndarray:
        """As ``input_propagator``."""
        _check_step(self.dt, eta)
        return self._grow(self._propagator, eta + 1, _point_term, 1)

    def pieces(self, eta: int) -> TaylorPieces | None:
        """Every piece at order ``eta``, each equal to its per-order
        function's; ``None`` when the remainder does not converge or a
        piece overflows, as the powers of a stiff matrix do at high
        orders."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                half = _remainder_halfwidth(self.powers, self.dt, eta)
            except NotConvergentError:
                return None
            curv_mid, curv_rad = self._grow(self._curvature, eta, _mixed_term, 0)
            corr_mid, corr_rad = self._grow(self._correction, eta + 1, _mixed_term, 1)
            pieces = TaylorPieces(
                self.dt, eta, self.partial_sum(eta), self.input_propagator(eta),
                remainder=IntervalMatrix._trusted(np.zeros_like(half), half),
                curvature=IntervalMatrix._trusted(curv_mid, curv_rad + half),
                correction=IntervalMatrix._trusted(corr_mid, corr_rad + half * self.dt))
        # each radius adds the remainder to a running sum of |terms|, which
        # bounds the midpoint sum's magnitude as rounding is monotone: finite
        # radii mean a finite remainder and finite midpoints
        arrays = (pieces.partial_sum, pieces.input_propagator,
                  pieces.curvature.rad, pieces.correction.rad)
        return pieces if all(np.isfinite(x).all() for x in arrays) else None


MAX_ORDER_CAP = 100
MAX_ORDER_REL_FLOOR = 1e-12


def max_taylor_order(a, dt: float) -> int:
    """Smallest useful series cut-off for the given matrix and step.

    Returns the smallest ``eta`` whose remainder tail ratio is < 1 and whose
    scalar tail bound ``(||A||dt)^(eta+1)/(eta+1)!/(1-zeta)`` drops below
    ``MAX_ORDER_REL_FLOOR`` relative to the partial sum's inf-norm, capped
    at ``MAX_ORDER_CAP``.

    ``a`` is the matrix, its ``MatrixPowers``, or a ``TaylorSeries`` at step
    ``dt``; the partial sums are read from that series, which keeps them.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if isinstance(a, TaylorSeries):
        if a.dt != dt:
            raise ValueError(f"series is at step {a.dt}, not {dt}")
        series = a
    else:
        series = TaylorSeries(a, dt)
    alpha = series.powers.norm_inf * dt
    log_alpha = math.log(alpha) if alpha > 0 else -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for eta in range(1, MAX_ORDER_CAP + 1):
            partial = series.partial_sum(eta)
            zeta = alpha / (eta + 2)
            if zeta >= 1.0:
                continue
            log_tail = ((eta + 1) * log_alpha - math.lgamma(eta + 2)
                        - math.log1p(-zeta))
            norm_partial = float(np.max(np.abs(partial).sum(axis=1)))
            if not math.isfinite(norm_partial):
                norm_partial = math.inf
            if norm_partial == 0.0:
                # relative floor of an exactly cancelled sum: only a zero
                # tail can pass
                if log_tail == -math.inf:
                    return eta
                continue
            if log_tail <= math.log(MAX_ORDER_REL_FLOOR) + math.log(norm_partial):
                return eta
    return MAX_ORDER_CAP
