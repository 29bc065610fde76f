"""Synthetic benchmark worlds (fully known: free/occupied only).

All generators carve free space out of a solid block, so the free set is
connected by construction; a flood-fill check enforces that at least half of
the free voxels sit in one component before a grid is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError
from .voxelgrid import FREE, OCCUPIED, OccupancyGrid


@dataclass
class WorldSpec:
    kind: str
    extent: tuple[float, float, float]
    seed: int = 0
    resolution: float = 0.2
    corridor_width_range: tuple[float, float] = (2.0, 5.0)
    room_size_range: tuple[float, float] = (6.0, 12.0)
    passage_width: float = 2.0

    def __post_init__(self):
        if self.kind not in ("corridor-maze", "perforated-cave", "room-grid"):
            raise ConfigError(f"unknown world kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (*self.extent, self.resolution,
                                              *self.corridor_width_range,
                                              *self.room_size_range, self.passage_width)):
            raise ConfigError("world spec sizes must be finite")
        if self.resolution <= 0:
            raise ConfigError("resolution must be positive")
        if any(e <= 0 for e in self.extent):
            raise ConfigError("extent must be positive")
        if not 0 < self.corridor_width_range[0] <= self.corridor_width_range[1]:
            raise ConfigError("bad corridor width range")
        if not 0 < self.room_size_range[0] <= self.room_size_range[1]:
            raise ConfigError("bad room size range")
        if self.passage_width <= 0:
            raise ConfigError("passage width must be positive")


def _solid(spec_or_res, extent) -> OccupancyGrid:
    res = spec_or_res
    dims = tuple(max(int(round(e / res)), 1) for e in extent)
    return OccupancyGrid.filled(res, np.zeros(3), dims, OCCUPIED)


def _carve(grid: OccupancyGrid, lo, hi, state=FREE) -> None:
    """Set the world-coordinate box [lo, hi] keeping a one-voxel outer shell."""
    res = grid.resolution
    dims = np.asarray(grid.states.shape)
    a = np.maximum(np.floor((np.asarray(lo, dtype=float) - grid.origin) / res).astype(int), 1)
    b = np.minimum(np.ceil((np.asarray(hi, dtype=float) - grid.origin) / res).astype(int), dims - 1)
    if np.all(a < b):
        grid.states[a[0]:b[0], a[1]:b[1], a[2]:b[2]] = state


def _carve_ball(grid: OccupancyGrid, center, radii, state=FREE) -> None:
    res = grid.resolution
    dims = np.asarray(grid.states.shape)
    center = np.asarray(center, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (3,))
    a = np.maximum(np.floor((center - radii - grid.origin) / res).astype(int), 1)
    b = np.minimum(np.ceil((center + radii - grid.origin) / res).astype(int), dims - 1)
    if np.any(a >= b):
        return
    idx = np.stack(np.meshgrid(*(np.arange(x, y) for x, y in zip(a, b)),
                               indexing="ij"), axis=-1)
    pts = grid.origin + res * (idx + 0.5)
    inside = np.sum(((pts - center) / radii) ** 2, axis=-1) <= 1.0
    sub = grid.states[a[0]:b[0], a[1]:b[1], a[2]:b[2]]
    sub[inside] = state


def largest_free_component_fraction(grid: OccupancyGrid) -> float:
    """Share of free voxels in the largest 6-connected free component."""
    free = grid.states == FREE
    if not free.any():
        return 0.0
    labels, n = ndimage.label(free, structure=ndimage.generate_binary_structure(3, 1))
    counts = np.bincount(labels.ravel())[1:]
    return float(counts.max()) / float(free.sum())


def _maze_edges(cx: int, cy: int, rng) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Depth-first spanning tree over a cx * cy cell lattice."""
    start = (0, 0)
    visited = {start}
    stack = [start]
    edges = []
    while stack:
        cur = stack[-1]
        nbrs = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if 0 <= nxt[0] < cx and 0 <= nxt[1] < cy and nxt not in visited:
                nbrs.append(nxt)
        if not nbrs:
            stack.pop()
            continue
        nxt = nbrs[int(rng.integers(len(nbrs)))]
        visited.add(nxt)
        edges.append((cur, nxt))
        stack.append(nxt)
    return edges


def generate_world(spec: WorldSpec) -> OccupancyGrid:
    """Deterministic world synthesis for the given spec (seeded)."""
    rng = np.random.default_rng(spec.seed)
    grid = _solid(spec.resolution, spec.extent)
    ex, ey, ez = spec.extent
    res = spec.resolution

    if spec.kind == "corridor-maze":
        w_lo, w_hi = spec.corridor_width_range
        pitch = w_hi + 2.0
        cx = int((ex - 2 * res) // pitch)
        cy = int((ey - 2 * res) // pitch)
        if cx < 1 or cy < 1 or w_hi + 2 * res > min(ex, ey):
            raise ConfigError("corridor width does not fit the extent")
        x0 = (ex - cx * pitch) / 2.0
        y0 = (ey - cy * pitch) / 2.0

        def cell_center(c):
            return np.array([x0 + (c[0] + 0.5) * pitch, y0 + (c[1] + 0.5) * pitch])

        z_lo, z_hi = res, ez - res
        for cxy in [(i, j) for i in range(cx) for j in range(cy)]:
            w = rng.uniform(w_lo, w_hi)
            c = cell_center(cxy)
            _carve(grid, (c[0] - w / 2, c[1] - w / 2, z_lo), (c[0] + w / 2, c[1] + w / 2, z_hi))
        for a, b in _maze_edges(cx, cy, rng):
            w = rng.uniform(w_lo, w_hi)
            ca, cb = cell_center(a), cell_center(b)
            lo = np.minimum(ca, cb) - w / 2
            hi = np.maximum(ca, cb) + w / 2
            _carve(grid, (lo[0], lo[1], z_lo), (hi[0], hi[1], z_hi))

    elif spec.kind == "room-grid":
        r_lo, r_hi = spec.room_size_range
        wall = max(2 * res, 0.6)
        nx = max(int((ex - wall) // (r_lo + wall)), 1)
        ny = max(int((ey - wall) // (r_lo + wall)), 1)
        if r_lo + 2 * res > min(ex, ey):
            raise ConfigError("room size does not fit the extent")
        px, py = ex / nx, ey / ny
        z_lo, z_hi = res, ez - res
        for i in range(nx):
            for j in range(ny):
                cx_ = (i + 0.5) * px
                cy_ = (j + 0.5) * py
                w = min(rng.uniform(r_lo, r_hi), px - wall)
                h = min(rng.uniform(r_lo, r_hi), py - wall)
                _carve(grid, (cx_ - w / 2, cy_ - h / 2, z_lo), (cx_ + w / 2, cy_ + h / 2, z_hi))
                pw = spec.passage_width
                if i + 1 < nx:
                    _carve(grid, ((i + 1) * px - wall, cy_ - pw / 2, z_lo),
                           ((i + 1) * px + wall, cy_ + pw / 2, z_hi))
                if j + 1 < ny:
                    _carve(grid, (cx_ - pw / 2, (j + 1) * py - wall, z_lo),
                           (cx_ + pw / 2, (j + 1) * py + wall, z_hi))

    else:  # perforated-cave
        r_lo, r_hi = spec.room_size_range
        margin = r_hi / 2.0 + 2 * res
        if 2 * margin >= min(ex, ey):
            raise ConfigError("chambers do not fit the extent")
        n = max(3, min(int(ex * ey / (r_hi * r_hi)), 30))
        centers = np.column_stack([
            rng.uniform(margin, ex - margin, n),
            rng.uniform(margin, ey - margin, n),
            np.full(n, ez / 2.0)])
        semi = np.column_stack([
            rng.uniform(r_lo / 2, r_hi / 2, n),
            rng.uniform(r_lo / 2, r_hi / 2, n),
            np.minimum(rng.uniform(r_lo / 2, r_hi / 2, n), ez / 2.0 - res)])
        for c, s in zip(centers, semi):
            _carve_ball(grid, c, s)
        # Prim-style tree keeps every chamber reachable.
        in_tree = [0]
        out = list(range(1, n))
        tunnel_r = max(spec.passage_width / 2.0, 1.5 * res)
        while out:
            best = None
            for i in in_tree:
                for j in out:
                    d = float(np.linalg.norm(centers[i] - centers[j]))
                    if best is None or d < best[0]:
                        best = (d, i, j)
            _, i, j = best
            steps = max(int(best[0] / (res / 2.0)), 1)
            for t in np.linspace(0.0, 1.0, steps + 1):
                _carve_ball(grid, centers[i] + t * (centers[j] - centers[i]), tunnel_r)
            in_tree.append(j)
            out.remove(j)
        for c, s in zip(centers, semi):
            for _ in range(int(rng.integers(0, 3))):
                offset = rng.uniform(-0.5, 0.5, 3) * s
                pr = rng.uniform(0.4, max(0.5, float(min(s[:2]) * 0.25)))
                _carve_ball(grid, c + offset * np.array([1, 1, 0.3]), pr, state=OCCUPIED)

    if not (grid.states == FREE).any():
        raise ConfigError("generated world has no free space")
    if largest_free_component_fraction(grid) < 0.5:
        raise ConfigError("generated world violates the connectivity invariant")
    return grid


def two_route_world(resolution: float = 0.2, narrow_width: float = 2.0,
                    wide_width: float = 8.0):
    """Fixture with a short narrow passage and a long wide detour.

    Returns (grid, start, goal) with both endpoints in the end rooms.
    """
    ex, ey, ez = 60.0, 44.0, 4.8
    grid = _solid(resolution, (ex, ey, ez))
    z_lo, z_hi = resolution, ez - resolution
    zc = ez / 2.0
    yc = 10.0
    _carve(grid, (2, yc - 5, z_lo), (12, yc + 5, z_hi))        # start room
    _carve(grid, (48, yc - 5, z_lo), (58, yc + 5, z_hi))       # goal room
    _carve(grid, (12, yc - narrow_width / 2, z_lo), (48, yc + narrow_width / 2, z_hi))
    _carve(grid, (2, yc - 5, z_lo), (2 + wide_width, 32 + wide_width, z_hi))   # left leg
    _carve(grid, (58 - wide_width, yc - 5, z_lo), (58, 32 + wide_width, z_hi))  # right leg
    _carve(grid, (2, 32, z_lo), (58, 32 + wide_width, z_hi))   # top corridor
    start = np.array([6.0, yc, zc])
    goal = np.array([54.0, yc, zc])
    return grid, start, goal
