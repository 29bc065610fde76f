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

Every k-d tree of the package comes from :func:`kdtree`: the obstacle
index, ``ltv._cluster_goals``' tree over frontier goals, and the candidate
tree over the query centres of each redundancy check
(``SphereMap._find_coverers``; ``expand`` also scans it for the later
candidates an added sphere covers). It has one fixed configuration:
scipy's sliding-midpoint split (``balanced_tree=False``, Maneewongvatana
and Mount, "It's okay to be skinny, if your friends are fat", 1999), node
boxes bounded by the split planes (``compact_nodes=False``) and
``LEAF_SIZE`` points per leaf; most points are voxel centres on a lattice.
Against scipy's default tree on a 2-CPU x86-64 box, the 51 trees of one
maze-sweep benchmark pass built in 0.67 s instead of 1.90 s, and a 96 m
maze's whole-grid tree (2.6 M points) built 3.2-3.5x faster, answered
2.5 M queries 12-26% faster and took 60 MB instead of 77 MB.
``tools/kdprobe.py`` re-measures the choice on a benchmark workload.

Results do not depend on the tree's shape. A distance is the square root of
a sum of per-axis squares, and a node's box bound sums the squares of the
per-axis gaps between the query and the box, each no larger than the gap to
any point inside it. Float rounding is monotone, so a bound summed in the
same order never exceeds the computed distance of a point in the box:
pruning never drops the nearest point or a point inside a ball, and every
nearest distance and ball membership equals a linear scan's, bit for bit.
A tree may update a bound one axis at a time rather than sum it afresh, so
the equality is tested as well: ``tests/test_spatial.py`` compares this
tree, scipy's default tree and a linear scan on voxel lattices.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

_EMPTY_QUERY = (np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty(0), np.empty(0))
# Points per k-d tree leaf. In build plus query time on the three benchmark
# passes (tools/kdprobe.py), 32, 64 and 128 came within 9-16% of each other;
# 16, scipy's default, took 16-21% more than 64.
LEAF_SIZE = 64


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from the rows of ``a`` to ``b`` (one point, or one
    row per row of ``a``), rounded (dx² + dz²) + dy² as ``np.einsum("ij,ij->i")``
    rounds them, at twice its speed. Every node distance is this sum's root."""
    dx, dy, dz = (a[:, k] - b[..., k] for k in range(3))
    d2 = dx * dx + dz * dz
    d2 += dy * dy
    return d2


def kdtree(points: np.ndarray) -> cKDTree:
    """The package's k-d tree over ``points``: sliding-midpoint splits,
    split-plane node boxes, ``LEAF_SIZE`` points per leaf."""
    return cKDTree(points, leafsize=LEAF_SIZE, balanced_tree=False, compact_nodes=False)


class ObstacleIndex:
    """Immutable point index answering exact nearest-distance queries.

    The tree is :func:`kdtree`'s; each distance equals the linear scan
    ``sqrt(min((dx*dx + dy*dy) + dz*dz))`` bit for bit (module docstring).
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.points = points
        self._tree = kdtree(points) if len(points) else None

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
        d2 = sq_dists(self._pos[:n], np.asarray(q, dtype=float))
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
