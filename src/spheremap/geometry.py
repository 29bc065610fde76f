"""Sphere-pair geometry used by the graph edge rule and redundancy pruning.

The link rule has one kernel, :func:`intersection_radii`: ``SphereMap._links``
(edges) and ``link_radii`` (portals) price sphere pairs with it.
"""

from __future__ import annotations

import numpy as np


def intersection_radii(d: np.ndarray, r1, r2: np.ndarray) -> np.ndarray:
    """Radius of the circle where two sphere surfaces intersect, for centre
    distances ``d``, radii ``r1`` (broadcast to ``d``) and ``r2``.

    Disjoint or externally tangent spheres give 0; when one sphere contains
    the other the smaller radius is returned. The larger radius goes first
    in the formula, so swapping the two spheres gives the same bits.
    """
    d = np.asarray(d, dtype=float)
    r1 = np.broadcast_to(np.asarray(r1, dtype=float), d.shape)
    r2 = np.asarray(r2, dtype=float)
    big, small = np.maximum(r1, r2), np.minimum(r1, r2)
    out = np.zeros(d.shape)
    contained = d <= big - small
    out[contained] = small[contained]
    cross = ~contained & (d < big + small)
    if np.any(cross):
        dc, a, b = d[cross], big[cross], small[cross]
        val = 4.0 * dc * dc * a * a - (dc * dc - b * b + a * a) ** 2
        out[cross] = np.sqrt(np.maximum(val, 0.0)) / (2.0 * dc)
    return out


def _coverage(r, d, R) -> np.ndarray:
    """Share of each radius-r sphere's volume inside the radius-R sphere whose
    center is d away (r, d and R broadcast). Containment (d <= R - r) counts
    as full coverage, a smaller sphere inside covers (R / r)^3, and the lens
    volume is evaluated only on partially overlapping pairs."""
    r, d, R = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(d, dtype=float),
                                  np.asarray(R, dtype=float))
    frac = np.zeros(d.shape)
    frac[d <= R - r] = 1.0
    gap = np.abs(r - R)
    lens = np.nonzero((d > gap) & (d < r + R))
    if len(lens[0]):
        rl, Rl, dl = r[lens], R[lens], d[lens]
        vol = (np.pi * (rl + Rl - dl) ** 2
               * (dl * dl + 2.0 * dl * (rl + Rl) - 3.0 * (rl - Rl) ** 2) / (12.0 * dl))
        frac[lens] = vol / (4.0 / 3.0 * np.pi * rl ** 3)
    inner = np.nonzero((d <= gap) & (R < r))
    if len(inner[0]):
        frac[inner] = (R[inner] / r[inner]) ** 3
    return frac


def covered_fractions(r: float, d: np.ndarray, r_other: np.ndarray) -> np.ndarray:
    """Fraction of a radius-r sphere's volume covered by each other sphere."""
    return _coverage(r, d, r_other)


def coverage_matrix(r_small: np.ndarray, d: np.ndarray, r_big: np.ndarray,
                    pairs) -> np.ndarray:
    """Coverage of sphere i (radius ``r_small[i]``) by sphere j (``r_big[j]``)
    for each index pair of ``pairs = (i, j)``, whose centre distances ``d``
    holds: one fraction per pair, as :func:`covered_fractions` gives it."""
    r_small, r_big = np.asarray(r_small, dtype=float), np.asarray(r_big, dtype=float)
    return _coverage(r_small[pairs[0]], d, r_big[pairs[1]])


def ritter_step(center: np.ndarray, radius: float, p: np.ndarray, r: float):
    """Ritter's step: the bound (center, radius) grown just enough to hold (p, r)."""
    gap = p - center
    dist = float(np.linalg.norm(gap))
    reach = dist + r
    if reach <= radius:
        return center, radius
    new_radius = (radius + reach) / 2.0
    if dist > 1e-12:
        center = center + gap * ((reach - new_radius) / dist)
    return center, new_radius


def enclosing_sphere(positions: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, float]:
    """Centroid-seeded Ritter-style sphere enclosing a set of spheres.

    Not minimal, but deterministic and cheap; used only to bound segment growth.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    center = positions.mean(axis=0)
    radius = 0.0
    for p, r in zip(positions, radii):
        center, radius = ritter_step(center, radius, p, r)
    # Second pass absorbs floating-point slack so containment is exact.
    radius = float(np.max(np.linalg.norm(positions - center, axis=1) + radii))
    return center, radius
