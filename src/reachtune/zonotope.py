"""Zonotopes: the single set representation used throughout the engine.

A zonotope is ``{c + G @ beta : ||beta||_inf <= 1}`` with center ``c`` and
generator matrix ``G`` (one generator per column). All operations are pure;
zero generator columns are dropped eagerly since they inflate the order
without changing the set.

The public constructor validates its input. The set operations below
derive finite, well-shaped arrays from sets that already passed it, so they
build their results through ``Zonotope._trusted`` without the checks,
dropping zero columns only where an operation can create them.
"""

from __future__ import annotations

import numpy as np

from .intervals import IntervalMatrix, IntervalVector


class Zonotope:
    __slots__ = ("center", "generators")

    def __init__(self, center: np.ndarray, generators: np.ndarray | None = None):
        center = np.asarray(center, dtype=float).reshape(-1)
        n = center.shape[0]
        if generators is None:
            generators = np.zeros((n, 0))
        else:
            generators = np.asarray(generators, dtype=float)
            if generators.ndim == 1:
                generators = generators.reshape(n, -1)
        if generators.shape[0] != n:
            raise ValueError(
                f"generator rows {generators.shape[0]} != dimension {n}")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(generators))):
            raise ValueError("zonotope data must be finite")
        self.center = center
        # fixed memory order keeps reductions deterministic across sources
        self.generators = np.ascontiguousarray(_nonzero_columns(generators))

    @classmethod
    def _trusted(cls, center: np.ndarray, generators: np.ndarray) -> "Zonotope":
        """Store a float center of length n and an ``(n, m)`` float generator
        matrix without checks; the caller guarantees both are finite. Zero
        columns are kept: pass ``_nonzero_columns(generators)`` where the
        caller's operation can create them."""
        z = object.__new__(cls)
        z.center = center
        z.generators = np.ascontiguousarray(generators)
        return z

    @classmethod
    def point(cls, center: np.ndarray) -> "Zonotope":
        return cls(center)

    @classmethod
    def box(cls, center: np.ndarray, halfwidths: np.ndarray) -> "Zonotope":
        """Axis-aligned box as a zonotope with diagonal generators."""
        halfwidths = np.asarray(halfwidths, dtype=float).reshape(-1)
        if np.any(halfwidths < 0):
            raise ValueError("halfwidths must be nonnegative")
        return cls(center, np.diag(halfwidths))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def num_generators(self) -> int:
        return self.generators.shape[1]

    @property
    def order(self) -> float:
        return self.num_generators / self.dim

    def __add__(self, other: "Zonotope") -> "Zonotope":
        return minkowski_sum(self, other)

    def __repr__(self) -> str:
        return f"Zonotope(dim={self.dim}, generators={self.num_generators})"


def _nonzero_columns(g: np.ndarray) -> np.ndarray:
    """``g`` without its all-zero columns."""
    if g.shape[1]:
        nonzero = np.any(g != 0.0, axis=0)
        if not nonzero.all():
            return g[:, nonzero]
    return g


def _halfwidths(z: Zonotope) -> np.ndarray:
    """Halfwidths of the box hull: ``sum_j |G[i, j]|``."""
    return np.abs(z.generators).sum(axis=1)


def minkowski_sum(z1: Zonotope, z2: Zonotope) -> Zonotope:
    """Exact Minkowski sum: centers add, generator columns concatenate."""
    if z1.dim != z2.dim:
        raise ValueError(f"dimension mismatch: {z1.dim} vs {z2.dim}")
    # neither operand has a zero column, so neither has the result
    return Zonotope._trusted(z1.center + z2.center,
                             np.hstack((z1.generators, z2.generators)))


def linear_map(m: np.ndarray, z: Zonotope) -> Zonotope:
    """Exact image ``{M x : x in Z}`` under a point matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[1] != z.dim:
        raise ValueError(f"matrix columns {m.shape[1]} != dimension {z.dim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return Zonotope._trusted(m @ z.center, _nonzero_columns(m @ z.generators))


def interval_map(m: IntervalMatrix, z: Zonotope) -> Zonotope:
    """Enclosure of ``{M x : M in m, x in Z}`` via the center-radius split.

    Maps by the midpoint matrix and adds an axis-aligned box whose
    halfwidths are ``rad(m) @ (|c| + sum_j |g_j|)``.
    """
    if m.shape[1] != z.dim:
        raise ValueError(f"matrix columns {m.shape[1]} != dimension {z.dim}")
    mapped = Zonotope._trusted(m.mid @ z.center, _nonzero_columns(m.mid @ z.generators))
    if not m.rad.any():
        return mapped
    halfwidths = m.rad @ (np.abs(z.center) + _halfwidths(z))
    box = Zonotope._trusted(np.zeros(m.shape[0]),
                            _nonzero_columns(np.diag(halfwidths)))
    return minkowski_sum(mapped, box)


def hull_of(z1: Zonotope, z2: Zonotope) -> Zonotope:
    """Zonotope enclosure of the convex hull of two zonotopes.

    In one dimension the hull of two intervals is an interval, so it is
    returned exactly. Otherwise generators are paired by column index (the
    shorter matrix is padded with zeros): center ``(c1 + c2)/2``,
    generators ``(g1 + g2)/2`` and ``(g1 - g2)/2`` per pair plus the
    column ``(c1 - c2)/2``.
    """
    if z1.dim != z2.dim:
        raise ValueError(f"dimension mismatch: {z1.dim} vs {z2.dim}")
    if z1.dim == 1:
        c1, c2 = z1.center[0], z2.center[0]
        h1, h2 = _halfwidths(z1)[0], _halfwidths(z2)[0]
        lo = min(c1 - h1, c2 - h2)
        hi = max(c1 + h1, c2 + h2)
        return Zonotope._trusted(np.array([0.5 * (lo + hi)]),
                                 _nonzero_columns(np.array([[0.5 * (hi - lo)]])))
    g1, g2 = z1.generators, z2.generators
    width = max(g1.shape[1], g2.shape[1])
    if g1.shape[1] < width:
        g1 = np.hstack((g1, np.zeros((z1.dim, width - g1.shape[1]))))
    if g2.shape[1] < width:
        g2 = np.hstack((g2, np.zeros((z2.dim, width - g2.shape[1]))))
    diff = 0.5 * (z1.center - z2.center)
    gens = np.hstack((0.5 * (g1 + g2), 0.5 * (g1 - g2), diff[:, None]))
    return Zonotope._trusted(0.5 * (z1.center + z2.center), _nonzero_columns(gens))


def interval_hull(z: Zonotope) -> IntervalVector:
    """Tightest axis-aligned box: ``c_i +- sum_j |G[i, j]|``."""
    half = _halfwidths(z)
    return IntervalVector(z.center - half, z.center + half)


def enclosure_radius(z: Zonotope) -> float:
    """Radius of the smallest origin-centered hypersphere around the box hull,
    whose farthest corner is ``|c| + sum_j |g_j|``.

    Over-approximates the Hausdorff distance ``d_H(S, S + Z)`` for any set S
    whenever ``0 in Z``.
    """
    return float(np.linalg.norm(np.abs(z.center) + _halfwidths(z)))


def support(z: Zonotope, direction: np.ndarray) -> float:
    """Support value ``max {d . x : x in Z} = d.c + sum_j |d.g_j|``."""
    direction = np.asarray(direction, dtype=float).reshape(-1)
    if direction.shape[0] != z.dim:
        raise ValueError(f"direction length {direction.shape[0]} != {z.dim}")
    return float(direction @ z.center + np.abs(direction @ z.generators).sum())


def _cut_ranked_prefix(z: Zonotope, choose_cut) -> tuple[Zonotope, float]:
    """Girard's box-merge order reduction, cut at a prefix of one ranking.

    Axis-aligned generators (one nonzero entry) join the box exactly; the
    others are ranked by ``||g||_1 - ||g||_inf``, ties by index. Merging the
    first ``k`` costs ``errs[k - 1]``, the enclosure radius of their box, and
    ``choose_cut(errs)`` picks ``k``. The kept generators, in index order,
    precede the box's nonzero columns; a merge that would not lower the
    generator count returns ``(z, 0.0)``."""
    g = z.generators
    axis = np.count_nonzero(g, axis=0) <= 1
    others = np.flatnonzero(~axis)
    mag = np.abs(g[:, others])
    ranked = np.argsort(mag.sum(axis=0) - mag.max(axis=0), kind="stable")
    # column k: box halfwidths of the first k + 1 ranked generators
    widening = np.cumsum(mag[:, ranked], axis=1)
    errs = np.linalg.norm(widening, axis=0)
    cut = choose_cut(errs)
    box_half = np.abs(g[:, axis]).sum(axis=1)
    if cut:
        box_half += widening[:, cut - 1]
    box_axes = np.flatnonzero(box_half)
    if np.count_nonzero(axis) + cut <= len(box_axes):
        return z, 0.0
    kept = g[:, np.sort(others[ranked[cut:]])]
    box = np.diag(box_half)[:, box_axes]
    return (Zonotope._trusted(z.center, np.hstack((kept, box))),
            float(errs[cut - 1]) if cut else 0.0)


def reduce_order(z: Zonotope, target_order: float) -> tuple[Zonotope, float]:
    """Cap the order, returning the superset and its certified error: cut the
    shortest prefix of ``_cut_ranked_prefix``'s ranking that leaves at most
    ``floor(dim * target_order)`` generators."""
    if target_order < 1:
        raise ValueError(f"target order must be >= 1, got {target_order}")
    n = z.dim
    max_gens = int(np.floor(n * target_order + 1e-12))
    if z.num_generators <= max_gens:
        return z, 0.0
    return _cut_ranked_prefix(z, lambda errs: max(0, len(errs) - (max_gens - n)))
