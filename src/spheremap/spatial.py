"""Nearest-neighbor structures.

``ObstacleIndex`` is a static k-d tree over obstacle and frontier points and
the one clearance source: map updates build it over the obstacle surface of
each padded update cube (``voxelgrid.surface_points``), and the grid
baselines (through its subclass ``planner.ClearanceField``), the clearance
invariant check and the benchmark scenarios over a whole grid
(``voxelgrid.grid_obstacles``). ``NodeIndex`` is the sphere map's one node
store: each live node's centre and radius live only in its packed row. Its
radius queries are one vectorized scan over every live row: exact by
construction, ties broken by lower id, and O(live rows) each.
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

    Live rows stay packed at the front of flat arrays (``remove`` moves the
    last row into the hole), and ``query`` masks them all by distance and
    sorts by (distance, id). A query costs O(live rows): with 10,000 uniform
    points in a 48 m cube, a 2 m query takes about 105 us on a 2-CPU Xeon,
    where a spatial hash of 4 m cells takes 50 us (8 m: 145 against 240 us).
    The bench maps and the 144 m acceptance maze (about 5,300 nodes) build no
    slower with the scan. Single writer, no internal locking.
    """

    def __init__(self):
        self._slot: dict[int, int] = {}
        self._ids = np.zeros(256, dtype=np.int64)
        self._pos = np.zeros((256, 3))
        self._aux = np.zeros(256)

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot

    def insert(self, node_id: int, p, aux: float = 0.0) -> None:
        if node_id in self._slot:
            raise KeyError(f"id {node_id} already present")
        row = len(self._slot)
        if row == len(self._ids):
            self._ids = np.resize(self._ids, 2 * row)
            self._pos = np.resize(self._pos, (2 * row, 3))
            self._aux = np.resize(self._aux, 2 * row)
        self._slot[node_id] = row
        self._ids[row] = node_id
        self._pos[row] = np.asarray(p, dtype=float)
        self._aux[row] = aux

    def remove(self, node_id: int) -> None:
        if node_id not in self._slot:
            raise KeyError(f"id {node_id} not present")
        row = self._slot.pop(node_id)
        last = len(self._slot)
        if row != last:
            moved = int(self._ids[last])
            self._ids[row] = moved
            self._pos[row] = self._pos[last]
            self._aux[row] = self._aux[last]
            self._slot[moved] = row

    def row(self, node_id: int) -> tuple[np.ndarray, float]:
        """(position, aux) of one entry, copied: ``remove`` moves rows."""
        slot = self._slot[node_id]
        return self._pos[slot].copy(), float(self._aux[slot])

    def rows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """(positions, aux values) of the entries ``ids``, in that order."""
        slots = np.fromiter(map(self._slot.__getitem__, ids), dtype=np.int64)
        return self._pos[slots], self._aux[slots]

    def set_aux(self, node_id: int, value: float) -> None:
        self._aux[self._slot[node_id]] = value

    def max_aux(self) -> float:
        """Largest aux value over the live rows (0.0 when empty)."""
        n = len(self._slot)
        return float(self._aux[:n].max()) if n else 0.0

    def query(self, q, radius: float):
        """Entries within ``radius`` (inclusive): (ids, positions, aux, distances),
        all sorted by (distance, id)."""
        n = len(self._slot)
        if radius < 0 or not n:
            return _EMPTY_QUERY
        pos, q = self._pos[:n], np.asarray(q, dtype=float)
        dx, dy, dz = pos[:, 0] - q[0], pos[:, 1] - q[1], pos[:, 2] - q[2]
        # Twice as fast as np.einsum("ij,ij->i") and bit-equal to it: einsum
        # rounds a row as (dx² + dz²) + dy², so the maps do not change.
        d2 = dx * dx + dz * dz
        d2 += dy * dy
        rows = np.flatnonzero(d2 <= radius * radius)
        if not len(rows):
            return _EMPTY_QUERY
        d = np.sqrt(d2[rows])
        ids = self._ids[rows]
        order = np.lexsort((ids, d))
        rows = rows[order]
        return ids[order], self._pos[rows], self._aux[rows], d[order]

    def within_radius(self, q, radius: float) -> list[int]:
        """Ids within ``radius`` (inclusive) of q, sorted by (distance, id)."""
        ids, _, _, _ = self.query(q, radius)
        return [int(i) for i in ids]
