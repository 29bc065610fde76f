"""Incremental two-layer sphere map.

The dense layer is an undirected graph of free-space spheres (center, radius =
nearest-obstacle distance); two spheres are connected when their intersection
circle radius exceeds ``r_min``. A node is an id: its center and radius live
only in its ``NodeIndex`` row (``node_index.row`` / ``rows``), its links and
their step costs (priced by ``_recompute_edges``) in ``adj`` and its segment
label in ``segment_of``. The sparse layer partitions the nodes into roughly
convex segments joined by portals; each segment keeps one planning table, a
CSR view of its edges and the csgraph Dijkstra rows from its portal
endpoints, so a rebuild reads only the segment's own edges. Every mutation
adds the labels whose members, links or portals it touched to the map's one
``altered`` set, and rebuilding a segment's table takes its label out again.

One ``update_iteration`` mutates only the cube around the vehicle, in three
steps: radius recomputation + pruning, expansion by sampling, then
segmentation (split / grow / seed / merge / portal + cache refresh). The map
has a single mutator; planning reads it between iterations.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse.csgraph import connected_components, dijkstra

from . import geometry, planner
from .spatial import NodeIndex, ObstacleIndex, kdtree, sq_dists
from .voxelgrid import (FREE, OCCUPIED, OccupancyGrid, UpdateCube, frontier_points,
                        raycast_free, surface_points)


@dataclass
class BuildParams:
    """Knobs of the map-growing iteration.

    ``r_cap`` bounds sphere radii and doubles as the margin by which the
    obstacle-extraction cube is padded, so a radius computed from the local
    obstacle set is either exact or capped, never optimistic. ``xi`` and
    ``d_max`` weigh the segments' portal tables and paths, and so every
    ``plan_cached`` search; a query's own weights only price its result.
    """

    r_min: float = 0.8
    cube_side: float = 60.0
    r_exp: float = 5.0
    r_merge: float = 20.0
    kappa: float = 0.9
    per_voxel_samples: bool = True
    voxel_stride: int = 1
    ray_count: int = 64
    samples_per_ray: int = 8
    eps_r: float = 1e-6
    r_cap: float = 8.0
    frontier_connectivity: int = 6
    xi: float = 7.0
    d_max: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.cube_side <= 0:
            raise ValueError("cube_side must be positive")
        if not self.r_exp < self.r_merge:
            raise ValueError("r_exp must be smaller than r_merge")
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must be in (0, 1]")
        if self.voxel_stride < 1:
            raise ValueError("voxel_stride must be >= 1")
        if self.r_cap <= self.r_min:
            raise ValueError("r_cap must exceed r_min")
        if self.samples_per_ray < 1 or self.ray_count < 0:
            raise ValueError("bad ray sampling configuration")
        if self.frontier_connectivity not in (6, 26):
            raise ValueError("frontier_connectivity must be 6 or 26")

    def planner_params(self) -> "planner.PlannerParams":
        return planner.PlannerParams(xi=self.xi, d_max=self.d_max, r_min=self.r_min)


@dataclass
class Segment:
    """Connected, roughly convex cluster of nodes: members, bounding sphere
    and one planning table, rebuilt together: ``view`` of the members and the
    csgraph Dijkstra rows ``dist``/``pred`` from each of ``ends``, its sorted
    portal endpoints. The optimal path between ends a < b is read off a's row."""

    label: int
    members: set[int]
    center: np.ndarray
    radius: float
    view: "planner.GraphView | None" = None
    ends: list[int] = field(default_factory=list)
    dist: np.ndarray | None = None
    pred: np.ndarray | None = None


@dataclass
class Portal:
    """Widest edge between the segments keying it: ``a`` is in the lower label."""

    a: int
    b: int
    radius: float


@dataclass
class IterationReport:
    """What one ``update_iteration`` did.

    ``timings`` holds the seconds of each stage: ``extract`` (the cube's
    surface and frontier voxels), ``index`` (the obstacle k-d tree),
    ``prune``, ``expand`` and ``segment``. ``counters`` holds the counts of
    indexed points (``index.surface_points``, ``index.frontier_points``) and
    the stats of the three steps, keyed ``<stage>.<stat>``. Both stay empty
    when the cube misses the grid.
    """

    timings: dict[str, float]
    counters: dict[str, int] = field(default_factory=dict)
    nodes_added: int = 0
    nodes_removed: int = 0
    node_count: int = 0
    edge_count: int = 0
    segment_count: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())


class SphereMap:
    """Mutable sphere map; see the module docstring for the layer semantics."""

    def __init__(self, params: BuildParams | None = None, seed: int = 0):
        self.params = params if params is not None else BuildParams()
        self.plan_params = self.params.planner_params()
        self.adj: dict[int, dict[int, float]] = {}
        self.node_index = NodeIndex()
        self.segment_of: dict[int, int | None] = {}
        self.segments: dict[int, Segment] = {}
        self.portals: dict[tuple[int, int], Portal] = {}
        self.altered: set[int] = set()  # live labels whose table is stale
        self.frontiers = np.empty((0, 3))
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.last_cube: UpdateCube | None = None
        self.mutation_token = 0
        self.map_view = self.meta_graph = None  # planner caches: (key, value)
        self._edge_count = 0
        self.coverage_pairs = 0  # pairs the coverage rule has tested, a work counter
        self._next_node_id = 0
        self._next_label = 0

    # ------------------------------------------------------------------
    # graph layer
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        return len(self.node_index)

    def edge_count(self) -> int:
        return self._edge_count

    def edges(self):
        for a, nbrs in self.adj.items():
            for b in nbrs:
                if a < b:
                    yield a, b

    def _add_node(self, p, r: float, nid: int | None = None) -> int:
        """Insert a sphere under a fresh id, or under ``nid`` (map loading)."""
        if nid is None:
            nid = self._next_node_id
            self._next_node_id += 1
        # Coordinates and radii are quantized to float32 so SMAP snapshots
        # round-trip the structure exactly.
        p = np.asarray(np.asarray(p, dtype=np.float32), dtype=float)
        r = float(np.float32(r))
        self.segment_of[nid] = None
        self.adj[nid] = {}
        self.node_index.insert(nid, p, aux=r)
        self.mutation_token += 1
        return nid

    def _mark_altered(self, nid: int) -> None:
        label = self.segment_of[nid]
        if label is not None:
            self.altered.add(label)

    def _remove_node(self, nid: int) -> None:
        label = self.segment_of.pop(nid)
        for nb in self.adj.pop(nid):
            del self.adj[nb][nid]
            self._edge_count -= 1
            self._mark_altered(nb)
        self.node_index.remove(nid)
        if label is not None:
            seg = self.segments[label]
            seg.members.discard(nid)
            self.altered.add(label)
            if not seg.members:
                self._drop_segment(label)
        self.mutation_token += 1

    def _set_radius(self, nid: int, r: float) -> None:
        self.node_index.set_aux(nid, r)
        self._mark_altered(nid)
        self.mutation_token += 1

    def _recompute_edges(self, nid: int):
        """Re-derive this node's links (intersection rule) and their costs (one
        ``transition_cost`` call); return the neighbours' ids, positions, radii, distances."""
        p, r = self.node_index.row(nid)
        ids, pos, aux, d = self.node_index.query(p, r + self.node_index.max_aux())
        keep = (geometry.intersection_radii(d, r, aux) > self.params.r_min) & (ids != nid)
        ids, pos, aux, d = ids[keep], pos[keep], aux[keep], d[keep]
        dl, dz = planner.transition_cost(p, r, pos, aux, self.plan_params)
        new = dict(zip(ids.tolist(), (dl + dz).tolist()))
        old = self.adj[nid]
        for nb in new.keys() ^ old.keys():
            self._mark_altered(nb)
        for nb in old.keys() - new.keys():
            del self.adj[nb][nid]
        for nb, w in new.items():
            self.adj[nb][nid] = w
        if new != old:  # a new price alone means a new radius, marked already
            self._mark_altered(nid)
            self._edge_count += len(new) - len(old)
            self.adj[nid] = new
            self.mutation_token += 1
        return ids, pos, aux, d

    def link_radii(self, a_ids, b_ids) -> np.ndarray:
        """Intersection radius of each node pair (a_ids[k], b_ids[k]), from one
        gather per side: the bits ``_recompute_edges`` compares with ``r_min``,
        as ``sq_dists`` rounds the distance either way round."""
        pa, ra = self.node_index.rows(a_ids)
        pb, rb = self.node_index.rows(b_ids)
        return geometry.intersection_radii(np.sqrt(sq_dists(pa, pb)), ra, rb)

    def _covering(self, radii: np.ndarray, aux: np.ndarray, pairs, d2: np.ndarray,
                  strict: bool):
        """The one coverage rule over index-array pairs ``(i, j)``: the
        (i, j, d) in which sphere j (radius ``aux[j]``) holds >= kappa of query
        sphere i (``radii[i]``) and is larger (or, not ``strict``, as large).
        ``d2`` holds the squared distances as ``spatial.sq_dists`` rounds them,
        so d is ``NodeIndex.query``'s, bit for bit. Expansion is not strict, so
        resampling a spot converges instead of stacking twins. Only overlapping
        pairs (``d < r + R``) cover, so a squared-reach prefilter, loose by
        1e-9, leaves the pairs worth a ``sqrt`` and a lens volume.
        """
        i, j = pairs
        self.coverage_pairs += len(i)
        reach = radii[i] + aux[j]
        near = d2 <= reach * reach * (1.0 + 1e-9)
        near &= (aux[j] > radii[i]) if strict else (aux[j] >= radii[i])
        i, j, d = i[near], j[near], np.sqrt(d2[near])
        ok = d < reach[near]
        i, j, d = i[ok], j[ok], d[ok]
        ok = geometry.coverage_matrix(radii, d, aux, pairs=(i, j)) >= self.params.kappa
        return i[ok], j[ok], d[ok]

    def _reach(self, coverer_r, covered_r: float):
        """How far, padded by 1e-9 for rounding, from a coverer of radius
        ``coverer_r`` the centre of a sphere it covers (of radius at most
        ``covered_r``) can lie. For kappa > 1/2 a coverer holds that centre:
        were the centre outside it, the plane through the centre facing the
        coverer would leave the whole coverer on one side, and with it at
        most half the covered sphere. Otherwise only overlap bounds it."""
        if self.params.kappa <= 0.5:
            coverer_r = coverer_r + covered_r
        return coverer_r * (1.0 + 1e-9)

    def is_redundant(self, nid: int) -> bool:
        """True iff a strictly larger live node covers this one."""
        p, r = self.node_index.row(nid)
        coverer, _ = self._find_coverers(p[None, :], np.array([r]), strict=True)
        return bool(coverer[0] >= 0)

    def nodes_in_cube(self, cube: UpdateCube) -> list[int]:
        reach = cube.side / 2.0 * math.sqrt(3.0) + 1e-9
        ids, pos, _, _ = self.node_index.query(cube.center, reach)
        if not len(ids):
            return []
        inside = np.all(np.abs(pos - cube.center) <= cube.side / 2.0, axis=1)
        return [int(i) for i in ids[inside]]

    # ------------------------------------------------------------------
    # step 1: radius update and pruning
    # ------------------------------------------------------------------

    def recompute_and_prune(self, index: ObstacleIndex, grid: OccupancyGrid,
                            cube: UpdateCube) -> dict:
        """Re-measure the cube's nodes and drop the unsafe and the redundant.

        ``index`` may hold only the obstacle surface, which is exact outside
        rock only, so a node whose centre voxel is occupied counts as unsafe.
        """
        stats = {"removed_unsafe": 0, "removed_redundant": 0, "radius_changed": 0,
                 "coverage_pairs": 0}
        ids = sorted(self.nodes_in_cube(cube))
        if not ids:
            return stats
        pos, radii = self.node_index.rows(ids)
        dists = np.minimum(index.nearest_distances(pos), self.params.r_cap)
        dists[grid.states_at(pos) == OCCUPIED] = 0.0
        changed = []
        for nid, dist, r_old in zip(ids, dists, radii.tolist()):
            r_new = float(np.float32(dist))
            if r_new < self.params.r_min:
                self._remove_node(nid)
                stats["removed_unsafe"] += 1
            elif r_new != r_old:
                self._set_radius(nid, r_new)
                changed.append(nid)
        for nid in changed:
            self._recompute_edges(nid)
        stats["radius_changed"] = len(changed)
        pairs = self.coverage_pairs
        stats["removed_redundant"] = self._prune_redundant(ids)
        stats["coverage_pairs"] = self.coverage_pairs - pairs
        return stats

    def _find_coverers(self, pts: np.ndarray, radii: np.ndarray, strict: bool, tree=None):
        """For each query sphere, the nearest covering node and its center
        distance, ties to the lower id: (ids, distances), -1 and inf where
        nothing covers.

        One ``NodeIndex.query`` gathers the nodes around the query set, and a
        k-d tree over the query centres (``tree``, or one built here; a lone
        query needs none) pairs each node with the centres within its
        :meth:`_reach`; :meth:`_covering` decides those pairs. It reads the map
        as it is now; the caller re-verifies liveness, so a coverer is only a
        witness.
        """
        out = np.full(len(pts), -1, dtype=np.int64)
        out_d = np.full(len(pts), np.inf)
        if not len(pts) or not len(self.node_index):
            return out, out_d
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        r_max = float(radii.max())
        reach = float(np.linalg.norm(hi - lo)) / 2.0 + self._reach(self.node_index.max_aux(), r_max)
        ids, pos, aux, dist = self.node_index.query((lo + hi) / 2.0, reach)
        ball = self._reach(aux, r_max)
        if len(pts) == 1:  # a lone query: NodeIndex.query measured each pair
            i, j = np.nonzero((dist <= ball)[None, :])
        else:
            tree = kdtree(pts) if tree is None else tree
            hits = tree.query_ball_point(pos, ball, return_sorted=False)
            j = np.repeat(np.arange(len(ids)), [len(h) for h in hits])
            i = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=len(j))
        i, j, d = self._covering(radii, aux, (i, j), sq_dists(pts[i], pos[j]), strict)
        order = np.lexsort((ids[j], d, i))
        first = order[np.unique(i[order], return_index=True)[1]]
        out[i[first]], out_d[i[first]] = ids[j[first]], d[first]
        return out, out_d

    def _prune_redundant(self, ids) -> int:
        """Remove redundant nodes in ascending-radius order, re-evaluating as we go.

        One strict ``_find_coverers`` sweep records a witness per node. Since
        pruning only removes nodes, a node without a witness can never become
        redundant, and a node whose witness is still alive still is; only a
        node whose witness was removed is tested again.
        """
        ids = sorted(i for i in ids if i in self.node_index)
        pts, radii = self.node_index.rows(ids)
        order = np.argsort(radii, kind="stable")
        pts, radii = pts[order], radii[order]
        witness, _ = self._find_coverers(pts, radii, strict=True)
        removed = 0
        for nid, wit in zip([ids[k] for k in order.tolist()], witness):
            if wit < 0 or nid not in self.node_index:
                continue
            if int(wit) in self.node_index or self.is_redundant(nid):
                self._remove_node(nid)
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # step 2: expansion
    # ------------------------------------------------------------------

    def _sample_candidates(self, grid: OccupancyGrid, cube: UpdateCube, uav) -> np.ndarray:
        parts = []
        p = self.params
        if p.per_voxel_samples:
            rng = cube.voxel_range(grid)
            if rng is not None:
                (i0, j0, k0), (i1, j1, k1) = rng
                st = p.voxel_stride
                sub = grid.states[i0:i1:st, j0:j1:st, k0:k1:st]
                idx = np.argwhere(sub == FREE)
                if len(idx):
                    idx = idx * st + (i0, j0, k0)
                    parts.append(grid.origin + grid.resolution * (idx + 0.5))
        if p.ray_count > 0:
            # Directions are always drawn so the RNG stream only depends on
            # the iteration sequence, not on what the rays hit.
            dirs = self.rng.normal(size=(p.ray_count, 3))
            norms = np.linalg.norm(dirs, axis=1)
            norms[norms < 1e-12] = 1.0
            dirs /= norms[:, None]
            uav = np.asarray(uav, dtype=float)
            steps = np.arange(1, p.samples_per_ray + 1) * (cube.side / 2.0 / p.samples_per_ray)
            pts = uav[None, None, :] + dirs[:, None, :] * steps[None, :, None]
            blocked = grid.states_at(pts) != FREE
            stop = np.where(blocked.any(axis=1), blocked.argmax(axis=1), p.samples_per_ray)
            keep = np.arange(p.samples_per_ray)[None, :] < stop[:, None]
            if keep.any():
                parts.append(pts[keep])
        if not parts:
            return np.empty((0, 3))
        return np.concatenate(parts, axis=0)

    def expand(self, index: ObstacleIndex, grid: OccupancyGrid, cube: UpdateCube, uav) -> dict:
        """Add, in order, the sampled candidates that no live sphere covers
        (:meth:`_covering`, not strict).

        One ``_find_coverers`` sweep gives each candidate a witness, and each
        added sphere becomes the witness of the later candidates it covers,
        read off the sweep's candidate tree within its :meth:`_reach`. The
        loop only adds and removes nodes, so only a candidate whose witness
        has died needs a query. A sweep witness at distance 0.0 is a twin (a
        node on the candidate's position, no smaller): it rules the candidate
        out even after this loop removes it, which catches nearly every
        lattice candidate of a converged cube.
        """
        stats = {"candidates": 0, "added": 0, "removed_redundant": 0, "coverage_pairs": 0}
        pairs = self.coverage_pairs
        cands = self._sample_candidates(grid, cube, uav)
        stats["candidates"] = len(cands)
        cands = np.asarray(np.asarray(cands, dtype=np.float32), dtype=float)
        radii = np.minimum(index.nearest_distances(cands), self.params.r_cap)
        radii = np.asarray(np.asarray(radii, dtype=np.float32), dtype=float)
        order = radii >= self.params.r_min
        cands, radii = cands[order], radii[order]
        tree = kdtree(cands)
        witness, witness_d = self._find_coverers(cands, radii, strict=False, tree=tree)
        r_max = float(radii.max(initial=0.0))
        added = []
        for i, p in enumerate(cands):
            wit, r = int(witness[i]), radii[i:i + 1]
            if witness_d[i] == 0.0 or wit in self.node_index:
                continue
            if wit >= 0 and self._find_coverers(p[None, :], r, strict=False)[0][0] >= 0:
                continue
            nid = self._add_node(p, r[0])
            added.append((nid, p, r[0]))
            near = np.array(tree.query_ball_point(p, self._reach(r[0], r_max)), dtype=np.int64)
            near = near[near > i]
            pair = (near, np.zeros_like(near))
            witness[self._covering(radii, r, pair, sq_dists(cands[near], p), strict=False)[0]] = nid
            # Only the fresh sphere can have made a surviving neighbor
            # redundant, so a pairwise coverage check suffices; sqrt(d * d)
            # is d in binary floating point, so the distances carry over.
            nbrs, _, nbr_r, nbr_d = self._recompute_edges(nid)
            pair = (np.arange(len(nbrs)), np.zeros_like(nbrs))
            covered, _, _ = self._covering(nbr_r, r, pair, nbr_d * nbr_d, strict=True)
            for nb in sorted(nbrs[covered].tolist()):
                self._remove_node(nb)
                stats["removed_redundant"] += 1
            stats["added"] += 1
        # New spheres are the only fresh coverage sources, and a node one
        # covers strictly is smaller and centred within its _reach: sweeping
        # those nodes restores cube-wide redundancy-freeness.
        suspects: set[int] = set()
        for nid, p, r in added:
            if nid in self.node_index:
                suspects.update(self.node_index.within_radius(p, self._reach(r, r)))
        stats["removed_redundant"] += self._prune_redundant(suspects)
        stats["coverage_pairs"] = self.coverage_pairs - pairs
        return stats

    # ------------------------------------------------------------------
    # step 3: segmentation
    # ------------------------------------------------------------------

    def _new_segment(self, members: set[int], center, radius: float) -> int:
        """A fresh label over ``members``, altered until its table is built."""
        label = self._next_label
        self._next_label += 1
        self.segments[label] = Segment(label, members, center, radius)
        for nid in members:
            self.segment_of[nid] = label
        self.altered.add(label)
        return label

    def _drop_segment(self, label: int) -> None:
        del self.segments[label]
        self.altered.discard(label)
        for pair in [p for p in self.portals if label in p]:
            del self.portals[pair]
            self.altered.add(pair[0] if pair[1] == label else pair[1])

    def _refresh_bounds(self, label: int) -> None:
        seg = self.segments[label]
        seg.center, seg.radius = geometry.enclosing_sphere(
            *self.node_index.rows(sorted(seg.members)))

    def _split_disconnected(self) -> list[int]:
        """Split each altered segment (only a mutation unlinks members) into
        its connected components; the largest keeps the label."""
        created = []
        for label in sorted(self.altered):
            seg = self.segments[label]
            view = planner.graph_view(self, seg.members)
            # A view is symmetric: strong components are connected ones.
            count, comp_of = connected_components(view.graph, connection="strong")
            if count <= 1:
                continue
            comps = [set(view.ids[comp_of == k].tolist()) for k in range(count)]
            comps.sort(key=lambda c: (-len(c), min(c)))
            seg.members = comps[0]
            created += [self._new_segment(comp, np.zeros(3), 0.0) for comp in comps[1:]]
            self._refresh_bounds(label)
        for label in created:
            self._refresh_bounds(label)
        return created

    def _grow_segment(self, label: int) -> None:
        """Flood-fill unassigned nodes, keeping the bounding sphere within r_exp.

        The bound grows by one Ritter step per accepted node, so each test is
        O(1). A node inside the bound is accepted even when a merge or a large
        seed has pushed the bound past r_exp. Nodes pop in (distance when
        offered, id) order, whatever the order of the offers.
        """
        seg = self.segments[label]
        center = np.asarray(seg.center, dtype=float)
        radius = float(seg.radius)
        heap: list[tuple[float, int]] = []
        queued: dict[int, tuple[np.ndarray, float]] = {}

        def offer(nids) -> None:
            fresh = [n for n in nids if n not in queued and self.segment_of[n] is None]
            if not fresh:
                return
            pos, rad = self.node_index.rows(fresh)
            delta = pos - center
            for nid, d, p, r in zip(fresh, np.sqrt(np.vecdot(delta, delta)).tolist(),
                                    pos, rad.tolist()):
                queued[nid] = (p, r)
                heapq.heappush(heap, (d, nid))

        offer({nb for mid in seg.members for nb in self.adj[mid]})
        while heap:
            _, nid = heapq.heappop(heap)
            new_center, new_radius = geometry.ritter_step(center, radius, *queued[nid])
            if new_radius > max(radius, self.params.r_exp):
                continue
            center, radius = new_center, new_radius
            seg.members.add(nid)
            self.segment_of[nid] = label
            self.altered.add(label)
            offer(self.adj[nid])
        seg.center, seg.radius = center, radius

    def _adjacent_labels(self, label: int) -> set[int]:
        out = set()
        for nid in self.segments[label].members:
            for nb in self.adj[nid]:
                other = self.segment_of[nb]
                if other is not None and other != label:
                    out.add(other)
        return out

    def _can_merge(self, a: int, b: int, grid: OccupancyGrid):
        ids = sorted(self.segments[a].members) + sorted(self.segments[b].members)
        center, radius = geometry.enclosing_sphere(*self.node_index.rows(ids))
        if radius > self.params.r_merge:
            return None
        if not raycast_free(grid, self.segments[a].center, self.segments[b].center):
            return None
        return center, radius

    def _merge(self, target: int, source: int, bounds) -> None:
        seg_t, seg_s = self.segments[target], self.segments[source]
        for nid in seg_s.members:
            self.segment_of[nid] = target
        seg_t.members |= seg_s.members
        seg_t.center, seg_t.radius = bounds
        self.altered.add(target)
        self._drop_segment(source)

    def _recompute_portals(self, label: int) -> None:
        """Widest edge to each adjacent segment, priced by one :meth:`link_radii`
        call. Ties go to the lowest (a, b), ``a`` in the lower label, so both
        sides pick the same edge. A changed or dropped portal alters both
        segments."""
        edges = [(a, b, self.segment_of[b]) for a in sorted(self.segments[label].members)
                 for b in sorted(self.adj[a]) if self.segment_of[b] not in (None, label)]
        radii = self.link_radii([a for a, _, _ in edges], [b for _, b, _ in edges]).tolist()
        best: dict[int, tuple[float, int, int]] = {}
        for (nid, nb, other), ir in zip(edges, radii):
            a, b = (nid, nb) if label < other else (nb, nid)
            cur = best.get(other)
            if cur is None or ir > cur[0] or (ir == cur[0] and (a, b) < cur[1:]):
                best[other] = (ir, a, b)
        stale = [pair for pair in self.portals if label in pair]
        for pair in stale:
            if (pair[0] if pair[1] == label else pair[1]) not in best:
                del self.portals[pair]
                self.altered.update(pair)
        for other, (ir, a, b) in best.items():
            pair = (label, other) if label < other else (other, label)
            old = self.portals.get(pair)
            if old is None or (old.a, old.b) != (a, b) or old.radius != ir:
                self.portals[pair] = Portal(a, b, ir)
                self.altered.update(pair)

    def segment_portal_nodes(self, label: int) -> list[int]:
        """Node ids of this segment's portal endpoints, sorted."""
        out = set()
        for pair, portal in self.portals.items():
            if pair[0] == label:
                out.add(portal.a)
            elif pair[1] == label:
                out.add(portal.b)
        return sorted(out)

    def _portal_tables(self, label: int):
        """(view, ends, dist, pred) of one segment: one csgraph Dijkstra from
        all portal endpoints ``ends`` over the segment's view. The one kernel
        behind ``_rebuild_cache`` and ``check_structure``."""
        view = planner.graph_view(self, self.segments[label].members)
        ends = self.segment_portal_nodes(label)
        dist, pred = dijkstra(view.graph, indices=view.rank(ends), return_predecessors=True)
        return view, ends, dist, pred

    def _rebuild_cache(self, label: int) -> None:
        seg = self.segments[label]
        seg.view, seg.ends, seg.dist, seg.pred = self._portal_tables(label)
        self.altered.discard(label)

    def segment_update(self, grid: OccupancyGrid, cube: UpdateCube, added=()) -> dict:
        stats = {"split": 0, "created": 0, "merged": 0, "caches_rebuilt": 0, "edges_read": 0}
        # Split and growth neither add nor remove nodes: one query serves both.
        in_cube = self.nodes_in_cube(cube)
        stats["split"] = len(self._split_disconnected())
        near = {self.segment_of[i] for i in in_cube} - {None} | self.altered

        # Grow existing segments over unassigned nodes, then seed new ones.
        for label in sorted(near):
            self._grow_segment(label)
        # Seeds: unlabelled nodes of the cube and of ``added``, the ids expand
        # added, since float32 can round one of those just outside the cube.
        unassigned = sorted(i for i in {*in_cube, *added}
                            if i in self.node_index and self.segment_of[i] is None)
        _, radii = self.node_index.rows(unassigned)
        for k in np.argsort(-radii, kind="stable").tolist():
            nid = unassigned[k]
            if self.segment_of[nid] is not None:
                continue
            label = self._new_segment({nid}, *self.node_index.row(nid))
            self._grow_segment(label)
            near.add(label)
            stats["created"] += 1

        # Merge attempt over adjacent pairs touching the near set.
        merged_into: dict[int, int] = {}

        def resolve(lbl: int) -> int:
            while lbl in merged_into:
                lbl = merged_into[lbl]
            return lbl

        pairs = set()
        for label in sorted(near):
            for other in self._adjacent_labels(label):
                pairs.add((min(label, other), max(label, other)))
        for s1, s2 in sorted(pairs):
            a, b = resolve(s1), resolve(s2)
            if a == b or a not in self.segments or b not in self.segments:
                continue
            bounds = self._can_merge(a, b, grid)
            if bounds is None:
                continue
            target, source = min(a, b), max(a, b)
            self._merge(target, source, bounds)
            merged_into[source] = target
            stats["merged"] += 1

        # Portals for every altered segment, then the tables of every segment
        # altered by now, the far sides of changed portals too: a new meta-graph.
        self.mutation_token += 1
        for label in sorted(self.altered):
            self._recompute_portals(label)
        for label in sorted(self.altered):
            self._rebuild_cache(label)
            stats["edges_read"] += self.segments[label].view.read
            stats["caches_rebuilt"] += 1
        return stats

    # ------------------------------------------------------------------
    # orchestration
    # ------------------------------------------------------------------

    def _update_frontier_store(self, cube: UpdateCube, fresh: np.ndarray) -> None:
        if len(self.frontiers):
            rel = np.abs(self.frontiers - cube.center)
            outside = np.any(rel > cube.side / 2.0, axis=1)
            kept = self.frontiers[outside]
        else:
            kept = self.frontiers
        self.frontiers = np.concatenate([kept, fresh.reshape(-1, 3)], axis=0)

    def update_iteration(self, grid: OccupancyGrid, uav) -> IterationReport:
        """Run extraction + the three update steps on the cube centered on the UAV."""
        timings: dict[str, float] = {}
        report = IterationReport(timings)
        cube = UpdateCube(np.asarray(uav, dtype=float), self.params.cube_side)
        padded = cube.padded(self.params.r_cap)
        if padded.voxel_range(grid) is None:
            report.node_count = self.node_count()
            report.edge_count = self.edge_count()
            report.segment_count = len(self.segments)
            return report

        t = time.perf_counter()
        frontiers = frontier_points(grid, padded, self.params.frontier_connectivity)
        surface = surface_points(grid, padded)
        self._update_frontier_store(padded, frontiers)
        timings["extract"] = time.perf_counter() - t

        t = time.perf_counter()
        index = ObstacleIndex.build(surface, frontiers)
        timings["index"] = time.perf_counter() - t

        t = time.perf_counter()
        prune_stats = self.recompute_and_prune(index, grid, cube)
        timings["prune"] = time.perf_counter() - t

        t = time.perf_counter()
        first_added = self._next_node_id
        expand_stats = self.expand(index, grid, cube, uav)
        timings["expand"] = time.perf_counter() - t

        t = time.perf_counter()
        segment_stats = self.segment_update(grid, cube, range(first_added, self._next_node_id))
        timings["segment"] = time.perf_counter() - t

        self.last_cube = cube
        report.nodes_added = expand_stats["added"]
        report.nodes_removed = (prune_stats["removed_unsafe"]
                                + prune_stats["removed_redundant"]
                                + expand_stats["removed_redundant"])
        report.node_count = self.node_count()
        report.edge_count = self.edge_count()
        report.segment_count = len(self.segments)
        report.counters = {"index.surface_points": len(surface),
                           "index.frontier_points": len(frontiers)}
        for stage, stats in (("prune", prune_stats), ("expand", expand_stats),
                             ("segment", segment_stats)):
            report.counters.update({f"{stage}.{k}": v for k, v in stats.items()})
        return report
