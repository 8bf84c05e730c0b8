"""Truncated Taylor expansion of the matrix exponential with certified bounds.

Provides the point partial sum, the input propagator, a symmetric interval
enclosure of the truncation remainder, the curvature enclosure covering all
intermediate times of a step, the matching input correction term, and the
automatic cut-off order for the series. The per-order functions build each
piece from scratch; ``TaylorSeries`` gives the same pieces for every order
at one step size and computes each term once.
"""

from __future__ import annotations

import math

import numpy as np

from .intervals import (IntervalMatrix, scaled_bounds,
                        scaled_interval_times_matrix)


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


def _dt_pow_over_factorial(dt: float, k: int) -> float:
    if k <= 150:
        return dt ** k / math.factorial(k)
    return math.exp(k * math.log(dt) - math.lgamma(k + 1))


def taylor_partial_sum(a, dt: float, eta: int) -> np.ndarray:
    """Point matrix ``sum_{k=0}^{eta} (A dt)^k / k!`` (identity term included)."""
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = np.eye(powers.dim)
    for k in range(1, eta + 1):
        total = total + powers.power(k) * _dt_pow_over_factorial(dt, k)
    return total


def input_propagator(a, dt: float, eta: int) -> np.ndarray:
    """Step integral of the Taylor flow: ``sum_{k=0}^{eta} A^k dt^(k+1)/(k+1)!``."""
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = np.zeros((powers.dim, powers.dim))
    for k in range(eta + 1):
        total = total + powers.power(k) * (dt ** (k + 1) / math.factorial(k + 1))
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
    return powers.abs_power(eta + 1) * (
        _dt_pow_over_factorial(dt, eta + 1) / (1.0 - zeta))


_MIX_COEFF: dict[int, float] = {}


def _mix_coefficient(k: int) -> float:
    # k**(-k/(k-1)) - k**(-1/(k-1)), the (negative) spread of t^k/k!-type
    # terms over a step relative to its endpoints; k >= 2.
    c = _MIX_COEFF.get(k)
    if c is None:
        c = k ** (-k / (k - 1.0)) - k ** (-1.0 / (k - 1.0))
        _MIX_COEFF[k] = c
    return c


def curvature_enclosure(a, dt: float, eta: int) -> IntervalMatrix:
    """Interval matrix covering all in-step times of the homogeneous flow.

    ``sum_{k=2}^{eta} [c_k dt^k, 0] A^k / k!  +  remainder`` with
    ``c_k = k^(-k/(k-1)) - k^(-1/(k-1)) < 0``.
    """
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = truncation_remainder(powers, dt, eta)
    for k in range(2, eta + 1):
        coeff = _mix_coefficient(k) * dt ** k
        term = scaled_interval_times_matrix(
            coeff, 0.0, powers.power(k) / math.factorial(k))
        total = total + term
    return total


def input_correction(a, dt: float, eta: int) -> IntervalMatrix:
    """Interval matrix mapping a constant input center over one step.

    ``sum_{k=2}^{eta+1} [c_k dt^k, 0] A^(k-1) / k!  +  remainder * dt``.
    """
    powers = _as_powers(a)
    _check_step(dt, eta)
    total = truncation_remainder(powers, dt, eta).scale(dt)
    for k in range(2, eta + 2):
        coeff = _mix_coefficient(k) * dt ** k
        term = scaled_interval_times_matrix(
            coeff, 0.0, powers.power(k - 1) / math.factorial(k))
        total = total + term
    return total


class _MixedTerms:
    """Stacked endpoints of ``[c_k dt^k, 0] A^(k - shift) / k!`` for k >= 2.

    Row ``k - 1`` holds term k as a ``(lo, hi)`` pair; row 0 takes the
    starting value of each sum.
    """

    def __init__(self, powers: MatrixPowers, dt: float, shift: int):
        self.powers = powers
        self.dt = dt
        self.shift = shift
        self.rows = np.empty((8, 2, powers.dim, powers.dim))
        self.filled = 1

    def sum(self, lo: np.ndarray, hi: np.ndarray,
            count: int) -> tuple[np.ndarray, np.ndarray]:
        """``[lo, hi]`` plus terms ``k = 2 .. count + 1``, added in that order."""
        used = count + 1
        if used > len(self.rows):
            grown = np.empty((max(used, 2 * len(self.rows)),) + self.rows.shape[1:])
            grown[:self.filled] = self.rows[:self.filled]
            self.rows = grown
        for k in range(self.filled + 1, used + 1):
            coeff = _mix_coefficient(k) * self.dt ** k
            self.rows[k - 1] = scaled_bounds(
                coeff, 0.0, self.powers.power(k - self.shift) / math.factorial(k))
        self.filled = max(self.filled, used)
        self.rows[0, 0] = lo
        self.rows[0, 1] = hi
        # accumulate, unlike add.reduce, adds strictly in row order
        total = np.add.accumulate(self.rows[:used], axis=0)[-1]
        return total[0].copy(), total[1].copy()


class TaylorSeries:
    """Every Taylor piece of ``exp(A dt)`` at one step size, for any order.

    Each piece at order ``eta`` equals, bit for bit, what the per-order
    function of the same name returns, but terms are computed once and on
    demand, up to the highest order asked for, like ``MatrixPowers``. The
    partial sum and the input propagator are running sums. The curvature
    and correction sums start from the remainder, which depends on ``eta``,
    so their terms are kept stacked and added to it in the same order.

    At high orders the powers of a stiff matrix overflow; ``is_finite``
    says whether the pieces of an order can be used. Confined to one
    analysis run; not safe for concurrent mutation.
    """

    def __init__(self, a, dt: float):
        _check_step(dt, 1)
        self.powers = _as_powers(a)
        self.dt = dt
        n = self.powers.dim
        self._partial = [np.eye(n)]  # order eta at index eta
        self._propagator = [np.zeros((n, n))]  # order eta at index eta + 1
        self._curvature = _MixedTerms(self.powers, dt, 0)
        self._correction = _MixedTerms(self.powers, dt, 1)
        # curvature and correction of the last order is_finite passed
        self._finite_eta: int | None = None
        self._finite_pieces: tuple[IntervalMatrix, IntervalMatrix] | None = None

    def partial_sum(self, eta: int) -> np.ndarray:
        """As ``taylor_partial_sum``."""
        _check_step(self.dt, eta)
        powers, dt = self.powers, self.dt
        for k in range(len(self._partial), eta + 1):
            self._partial.append(
                self._partial[-1] + powers.power(k) * _dt_pow_over_factorial(dt, k))
        return self._partial[eta]

    def input_propagator(self, eta: int) -> np.ndarray:
        """As ``input_propagator``."""
        _check_step(self.dt, eta)
        powers, dt = self.powers, self.dt
        for k in range(len(self._propagator) - 1, eta + 1):
            self._propagator.append(
                self._propagator[-1]
                + powers.power(k) * (dt ** (k + 1) / math.factorial(k + 1)))
        return self._propagator[eta + 1]

    def remainder(self, eta: int) -> IntervalMatrix:
        """As ``truncation_remainder``."""
        return IntervalMatrix.symmetric(_remainder_halfwidth(self.powers, self.dt, eta))

    def curvature(self, eta: int) -> IntervalMatrix:
        """As ``curvature_enclosure``."""
        if eta == self._finite_eta:
            return self._finite_pieces[0]
        return IntervalMatrix(*self._curvature_bounds(eta))

    def correction(self, eta: int) -> IntervalMatrix:
        """As ``input_correction``."""
        if eta == self._finite_eta:
            return self._finite_pieces[1]
        return IntervalMatrix(*self._correction_bounds(eta))

    def is_finite(self, eta: int) -> bool:
        """Whether every piece at order ``eta`` is finite.

        The curvature and correction of the last order that passes are
        kept, so asking for them at that order computes nothing again.
        Raises NotConvergentError where the remainder does.
        """
        if eta == self._finite_eta:
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            curvature = self._curvature_bounds(eta)
            correction = self._correction_bounds(eta)
            pieces = (self.partial_sum(eta), self.input_propagator(eta),
                      _remainder_halfwidth(self.powers, self.dt, eta),
                      *curvature, *correction)
        if not all(np.isfinite(p).all() for p in pieces):
            return False
        self._finite_eta = eta
        self._finite_pieces = (IntervalMatrix._trusted(*curvature),
                               IntervalMatrix._trusted(*correction))
        return True

    def _curvature_bounds(self, eta: int) -> tuple[np.ndarray, np.ndarray]:
        half = _remainder_halfwidth(self.powers, self.dt, eta)
        return self._curvature.sum(-half, half, eta - 1)

    def _correction_bounds(self, eta: int) -> tuple[np.ndarray, np.ndarray]:
        half = _remainder_halfwidth(self.powers, self.dt, eta)
        return self._correction.sum(-half * self.dt, half * self.dt, eta)


MAX_ORDER_CAP = 100
MAX_ORDER_REL_FLOOR = 1e-12


def max_taylor_order(a, dt: float, rel_floor: float = MAX_ORDER_REL_FLOOR,
                     cap: int = MAX_ORDER_CAP) -> int:
    """Smallest useful series cut-off for the given matrix and step.

    Returns the smallest ``eta`` whose remainder tail ratio is < 1 and whose
    scalar tail bound ``(||A||dt)^(eta+1)/(eta+1)!/(1-zeta)`` drops below
    ``rel_floor`` relative to the partial sum's inf-norm, capped at ``cap``.

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
        for eta in range(1, cap + 1):
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
            if log_tail <= math.log(rel_floor) + math.log(norm_partial):
                return eta
    return cap
