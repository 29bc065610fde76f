"""Nearest-neighbor structures.

``ObstacleIndex`` is a static k-d tree over obstacle and frontier points and
the one clearance source: map updates build it over the obstacle surface of
each padded update cube (``voxelgrid.surface_points``), and the grid
baselines (through its subclass ``planner.ClearanceField``), the clearance
invariant check and the benchmark scenarios over a whole grid
(``voxelgrid.grid_obstacles``). ``NodeIndex`` is a dynamic bucketed spatial
hash over sphere centers with exact vectorized post-filtering; all queries
match a linear scan, with distance ties broken by lower id.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

_EMPTY_QUERY = (np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty(0), np.empty(0))


class ObstacleIndex:
    """Immutable point index answering exact nearest-distance queries."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.points = points
        self._tree = cKDTree(points) if len(points) else None

    @classmethod
    def build(cls, obstacles: np.ndarray, frontiers: np.ndarray) -> "ObstacleIndex":
        """Index over the union of occupied-voxel and frontier centroids."""
        parts = [np.asarray(p, dtype=float).reshape(-1, 3) for p in (obstacles, frontiers)]
        return cls(np.concatenate(parts, axis=0))

    def __len__(self) -> int:
        return len(self.points)

    def nearest_distance(self, q) -> float:
        """Exact minimum Euclidean distance from q to the point set (inf if empty)."""
        if self._tree is None:
            return math.inf
        d, _ = self._tree.query(np.asarray(q, dtype=float))
        return float(d)

    def nearest_distances(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized nearest_distance for an (N, 3) query array."""
        qs = np.asarray(qs, dtype=float).reshape(-1, 3)
        if self._tree is None:
            return np.full(len(qs), np.inf)
        d, _ = self._tree.query(qs)
        return np.asarray(d, dtype=float)


class NodeIndex:
    """Dynamic index of (id, position, aux scalar) entries.

    Rows live in flat arrays; a uniform spatial hash maps cells to row lists.
    ``query`` returns exact results sorted by (distance, id). Single writer,
    no internal locking.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self._slot: dict[int, int] = {}
        self._free: list[int] = []
        cap = 256
        self._ids = np.full(cap, -1, dtype=np.int64)
        self._pos = np.zeros((cap, 3))
        self._aux = np.zeros(cap)
        self._cells: dict[tuple[int, int, int], list[int]] = {}

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot

    def _cell_of(self, p) -> tuple[int, int, int]:
        return (int(math.floor(p[0] / self.cell_size)),
                int(math.floor(p[1] / self.cell_size)),
                int(math.floor(p[2] / self.cell_size)))

    def insert(self, node_id: int, p, aux: float = 0.0) -> None:
        if node_id in self._slot:
            raise KeyError(f"id {node_id} already present")
        p = np.asarray(p, dtype=float)
        if self._free:
            row = self._free.pop()
        else:
            row = len(self._slot)
            if row >= len(self._ids):
                grow = len(self._ids)
                self._ids = np.concatenate([self._ids, np.full(grow, -1, dtype=np.int64)])
                self._pos = np.vstack([self._pos, np.zeros((grow, 3))])
                self._aux = np.concatenate([self._aux, np.zeros(grow)])
        self._slot[node_id] = row
        self._ids[row] = node_id
        self._pos[row] = p
        self._aux[row] = aux
        self._cells.setdefault(self._cell_of(p), []).append(row)

    def remove(self, node_id: int) -> None:
        if node_id not in self._slot:
            raise KeyError(f"id {node_id} not present")
        row = self._slot.pop(node_id)
        cell = self._cell_of(self._pos[row])
        bucket = self._cells[cell]
        bucket.remove(row)
        if not bucket:
            del self._cells[cell]
        self._ids[row] = -1
        self._free.append(row)

    def set_aux(self, node_id: int, value: float) -> None:
        self._aux[self._slot[node_id]] = value

    def _rows_in_box(self, lo_cell, hi_cell) -> np.ndarray:
        rows: list[int] = []
        for cx in range(lo_cell[0], hi_cell[0] + 1):
            for cy in range(lo_cell[1], hi_cell[1] + 1):
                for cz in range(lo_cell[2], hi_cell[2] + 1):
                    bucket = self._cells.get((cx, cy, cz))
                    if bucket:
                        rows.extend(bucket)
        return np.asarray(rows, dtype=np.int64)

    def query(self, q, radius: float):
        """Entries within ``radius`` (inclusive): (ids, positions, aux, distances),
        all sorted by (distance, id)."""
        if radius < 0 or not self._slot:
            return _EMPTY_QUERY
        q = np.asarray(q, dtype=float)
        lo = self._cell_of(q - radius)
        hi = self._cell_of(q + radius)
        rows = self._rows_in_box(lo, hi)
        if not len(rows):
            return _EMPTY_QUERY
        pos = self._pos[rows]
        delta = pos - q
        d2 = np.einsum("ij,ij->i", delta, delta)
        mask = d2 <= radius * radius
        if not mask.any():
            return _EMPTY_QUERY
        rows = rows[mask]
        d = np.sqrt(d2[mask])
        ids = self._ids[rows]
        order = np.lexsort((ids, d))
        rows = rows[order]
        return ids[order], self._pos[rows], self._aux[rows], d[order]

    def within_radius(self, q, radius: float) -> list[int]:
        """Ids within ``radius`` (inclusive) of q, sorted by (distance, id)."""
        ids, _, _, _ = self.query(q, radius)
        return [int(i) for i in ids]
