"""Safety-aware path planning.

Edge costs follow the discretized criterion: a step contributes its length
plus ``xi * max(0, d_max - mean clearance)^2 * length`` of risk. That risk
expression is written once, in ``_risk``, and ``transition_cost`` is the one
step kernel around it, row-wise over any batch of steps: the map's stored
edge costs (``SphereMap.adj``), repricing, path assembly, endpoint steps and
RRT* all call it; grid A* keeps a commented inline copy of ``_risk``. Planners
over the sphere map (full graph and cached portal planning) and two
occupancy-grid baselines (A* in safety / length-only mode, RRT*) all share
this cost model and the clearance floor ``r_min``.

Searches run on two kernels. Over spheres, ``scipy.sparse.csgraph.dijkstra``
over a ``GraphView`` (a CSR copy of the stored costs) of the whole map or of
one segment: on the 987-node, 20,918-edge cave-mission map a full-graph
query took about 1.1 ms against 4.9 ms for a Python A*. Over the portal
meta-graph (HPA*'s portal abstraction, Botea, Mueller & Schaeffer 2004),
tens of nodes, the Python heap ``_best_first``: 6-13 us against 137-237 us
for csgraph, most of it building the CSR. Cached planning reads a segment's
costs, legs and paths off its one table (``Segment.ends``/``dist``/``pred``).

All planners are pure functions over read-only inputs; run them between map
updates.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .spatial import ObstacleIndex
from .voxelgrid import FREE, OccupancyGrid, grid_obstacles


@dataclass
class PlannerParams:
    xi: float = 7.0
    d_max: float = 2.0
    r_min: float = 0.8

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.xi, self.d_max, self.r_min)):
            raise ValueError("xi, d_max and r_min must be finite")
        if self.xi < 0:
            raise ValueError("xi must be non-negative")
        if not self.d_max >= self.r_min > 0:
            raise ValueError("need d_max >= r_min > 0")


@dataclass
class PlanResult:
    """A planned path with its per-waypoint clearances and cost split."""

    waypoints: np.ndarray
    clearances: np.ndarray
    length: float
    risk: float
    mode: str
    planning_time: float = 0.0

    @property
    def cost(self) -> float:
        return self.length + self.risk

    @property
    def min_clearance(self) -> float:
        return float(np.min(self.clearances))

    def to_record(self) -> str:
        """Line-oriented text record consumed by the bench CSV writer."""
        pts = ";".join(f"{p[0]:.4f},{p[1]:.4f},{p[2]:.4f}" for p in self.waypoints)
        return (f"{self.mode} {self.planning_time:.6f} {self.length:.6f} "
                f"{self.risk:.6f} {self.cost:.6f} {pts}")


def _risk(dl, r_sum, params: PlannerParams):
    """Risk of a step of length ``dl`` whose end clearances sum to ``r_sum``:
    ``xi * max(0, d_max - mean clearance)^2 * dl``, elementwise on arrays."""
    m = np.maximum(0.0, params.d_max - r_sum / 2.0)
    return params.xi * m * m * dl


def transition_cost(p1, r1, p2, r2, params: PlannerParams):
    """(length, risk) of straight steps between cleared points: points or
    broadcasting (n, 3) rows, with clearances to match. ``sqrt(vecdot)``
    rounds each row as the 1-D ``np.linalg.norm`` does (``norm(axis=1)``
    does not), so a step costs the same in any batch."""
    delta = np.asarray(p1, dtype=float) - np.asarray(p2, dtype=float)
    dl = np.sqrt(np.vecdot(delta, delta))
    return dl, _risk(dl, np.add(r1, r2), params)


def _chain_cost(waypoints, clearances, params: PlannerParams) -> tuple[float, float]:
    """(length, risk) of a waypoint chain: one kernel call over its steps,
    summed in path order (``np.cumsum`` adds sequentially, ``np.sum`` in pairs)."""
    w, c = np.asarray(waypoints, dtype=float), np.asarray(clearances)
    dl, dz = transition_cost(w[:-1], c[:-1], w[1:], c[1:], params)
    sums = np.cumsum([np.append(0.0, dl), np.append(0.0, dz)], axis=1)
    return float(sums[0, -1]), float(sums[1, -1])


def _plan_result(waypoints, clearances, mode, t0, params: PlannerParams) -> PlanResult:
    length, risk = _chain_cost(waypoints, clearances, params)
    return PlanResult(waypoints, clearances, length, risk, mode,
                      planning_time=time.perf_counter() - t0)


def evaluate_path(waypoints, clearance_source, params: PlannerParams):
    """(L, Z, J, min clearance) of a waypoint path, clearances re-queried
    from ``clearance_source.nearest_distance``."""
    waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    clearances = np.array([clearance_source.nearest_distance(p) for p in waypoints])
    length, risk = _chain_cost(waypoints, clearances, params)
    return length, risk, length + risk, float(np.min(clearances))


# ----------------------------------------------------------------------
# sphere-graph planning
# ----------------------------------------------------------------------

def _attach(smap, p):
    """Containing sphere with the largest clearance margin r - |p - center|,
    the first in ``NodeIndex.query`` order on a tie; (None, -inf) if none."""
    p = np.asarray(p, dtype=float)
    ids, pos, radii, _ = smap.node_index.query(p, smap.params.r_cap)
    delta = p - pos
    margin = radii - np.sqrt(np.vecdot(delta, delta))
    ok = margin >= 0.0
    if not ok.any():
        return None, -math.inf
    k = int(np.argmax(np.where(ok, margin, -np.inf)))
    return int(ids[k]), float(margin[k])


def _step_cost(p1, r1, p2, r2, params: PlannerParams) -> float:
    dl, dz = transition_cost(p1, r1, p2, r2, params)
    return float(dl + dz)


@dataclass
class GraphView:
    """CSR view of the sphere graph over a node set: row ``i`` is node
    ``ids[i]``, ids ascending and columns sorted, so equal maps (a map and its
    reload) break Dijkstra's ties alike. ``read``: adjacency entries read."""

    ids: np.ndarray
    graph: csr_matrix
    read: int

    def rank(self, nids):
        return np.searchsorted(self.ids, nids)

    def unwind(self, pred, target: int) -> list[int]:
        """Node ids from the source to rank ``target`` along csgraph's ``pred``."""
        path = [target]
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        return self.ids[path[::-1]].tolist()


def graph_view(smap, members=None, params: PlannerParams | None = None) -> GraphView:
    """View of the edges among ``members`` (default: all nodes) at the costs
    ``adj`` stores, or repriced under other ``params`` by one kernel call
    (row-wise and symmetric, so an edge gets the same bits either way)."""
    ids = np.array(sorted(smap.adj if members is None else members), dtype=np.int64)
    n = len(ids)
    rows = [smap.adj[u] for u in ids.tolist()]
    counts = np.fromiter(map(len, rows), np.int64, n)
    read = int(counts.sum())
    cols = np.fromiter(chain.from_iterable(rows), np.int64, read)
    costs = np.fromiter(chain.from_iterable(r.values() for r in rows), float, read)
    src = np.repeat(np.arange(n), counts)
    at = np.searchsorted(ids, cols)
    keep = ids[np.minimum(at, n - 1)] == cols
    src, at, costs = src[keep], at[keep].astype(np.int32), costs[keep]
    if params is not None and params != smap.plan_params:
        pos, radii = smap.node_index.rows(ids.tolist())
        dl, dz = transition_cost(pos[src], radii[src], pos[at], radii[at], params)
        costs = dl + dz
    indptr = np.searchsorted(src, np.arange(n + 1)).astype(np.int32)
    return GraphView(ids, csr_matrix((costs, at, indptr), shape=(n, n)).sorted_indices(), read)


def _map_view(smap, params: PlannerParams) -> GraphView:
    """The whole-map view under ``params``, kept until the map mutates."""
    key = (smap.mutation_token, params.xi, params.d_max, params.r_min)
    if smap.map_view is None or smap.map_view[0] != key:
        smap.map_view = (key, graph_view(smap, params=params))
    return smap.map_view[1]


def _route(view: GraphView, source: int, target: int) -> tuple[list[int], float] | None:
    """Cheapest node path from ``source`` to ``target`` over ``view`` and its
    cost, summed from 0 in path order; None when unreachable."""
    dist, pred = dijkstra(view.graph, indices=view.rank(source), return_predecessors=True)
    t = view.rank(target)
    return (view.unwind(pred, t), float(dist[t])) if math.isfinite(dist[t]) else None


def _best_first(adj, sources, legs):
    """Dijkstra over the portal meta-graph ``adj[u] = [(v, weight), ...]``
    from ``sources`` (node: initial cost) to the goal, id -2, that node ``u``
    reaches at cost ``legs[u]``. Pops in (g, id) order and improves a cost
    only on a strict ``<``: (g, came) when the goal is settled, or None."""
    g = dict(sources)
    came: dict[int, int] = {}
    heap = [(gu, u) for u, gu in sources.items()]
    heapq.heapify(heap)
    while heap:
        gu, u = heapq.heappop(heap)
        if gu > g[u]:
            continue  # stale; a settled node is never improved (weights >= 0)
        if u == -2:
            return g, came
        for v, w in chain(adj[u], [(-2, legs[u])] if u in legs else ()):
            alt = gu + w
            if alt < g.get(v, math.inf):
                g[v] = alt
                came[v] = u
                heapq.heappush(heap, (alt, v))
    return None


def _unwind(came, target) -> list:
    """Node path from the search source to ``target`` along parent links."""
    path = [target]
    while path[-1] in came:
        path.append(came[path[-1]])
    path.reverse()
    return path


def astar_nodes(smap, start_id: int, goal_id: int,
                params: PlannerParams) -> tuple[list[int], float] | None:
    """Optimal node-id path between two sphere nodes over the whole graph."""
    return _route(_map_view(smap, params), start_id, goal_id)


def _finish_sphere_result(smap, node_path, start, goal, s_margin, g_margin,
                          mode, t0, params):
    pos, radii = smap.node_index.rows(node_path)
    return _plan_result(np.vstack([start, pos, goal]),
                        np.concatenate([[s_margin], radii, [g_margin]]), mode, t0, params)


def astar_sphere_graph(smap, start, goal, params: PlannerParams) -> PlanResult | None:
    """Optimal path over the whole sphere graph: one csgraph Dijkstra."""
    t0 = time.perf_counter()
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    s_id, s_margin = _attach(smap, start)
    g_id, g_margin = _attach(smap, goal)
    if s_id is None or g_id is None:
        return None
    if np.array_equal(start, goal):
        return _plan_result(start.reshape(1, 3), np.array([s_margin]), "full-graph", t0, params)
    found = _route(_map_view(smap, params), s_id, g_id)
    return None if found is None else _finish_sphere_result(
        smap, found[0], start, goal, s_margin, g_margin, "full-graph", t0, params)


def _meta_static(smap):
    """Portal-level meta-graph shared by all cached queries, under the map's
    ``plan_params``; rebuilt only when the map mutates. Nodes are portal
    endpoints; edges are portal crossings and each segment's table entries
    between its endpoints ``ends[i] < ends[j]``."""
    if smap.meta_graph is not None and smap.meta_graph[0] == smap.mutation_token:
        return smap.meta_graph[1]
    meta: dict[int, list[tuple[int, float]]] = {}
    hops = [(p.a, p.b, smap.adj[p.a][p.b]) for p in smap.portals.values()]
    for seg in smap.segments.values():
        if len(seg.ends) > 1:
            costs = seg.dist[:, seg.view.rank(seg.ends)].tolist()
            hops += [(u, v, costs[i][j])
                     for (i, u), (j, v) in combinations(enumerate(seg.ends), 2)]
    for u, v, w in hops:
        meta.setdefault(u, []).append((v, w))
        meta.setdefault(v, []).append((u, w))
    smap.meta_graph = (smap.mutation_token, meta)
    return meta


def plan_cached(smap, start, goal, params: PlannerParams) -> PlanResult | None:
    """Long-distance planning through portals and the segments' tables.

    One meta-graph search over the portal endpoints from the start's legs to
    the goal's, both read off the endpoints' segment tables; a hop inside a
    segment follows its table's path. Only a same-segment query searches
    spheres: the direct route, over the segment's view, is one more source
    (id -2, the goal), so it wins a tie. The search runs under the map's
    ``plan_params``, the weights the tables hold; ``params`` only prices.
    """
    t0 = time.perf_counter()
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    s_id, s_margin = _attach(smap, start)
    g_id, g_margin = _attach(smap, goal)
    if s_id is None or g_id is None:
        return None
    if np.array_equal(start, goal):
        return _plan_result(start.reshape(1, 3), np.array([s_margin]), "cached", t0, params)
    weights, label = smap.plan_params, smap.segment_of
    s_seg, g_seg = smap.segments[label[s_id]], smap.segments[label[g_id]]
    s_at, g_at = s_seg.view.rank(s_id), g_seg.view.rank(g_id)
    g_p, g_r = smap.node_index.row(g_id)
    s_step = _step_cost(start, s_margin, *smap.node_index.row(s_id), weights)
    g_step = _step_cost(goal, g_margin, g_p, g_r, weights)
    sources = dict(zip(s_seg.ends, (s_step + s_seg.dist[:, s_at]).tolist()))
    legs = dict(zip(g_seg.ends, (g_step + g_seg.dist[:, g_at]).tolist()))
    inside = _route(s_seg.view, s_id, g_id) if s_seg is g_seg else None
    if inside is not None:  # summed in path order, as a search from s_step sums it
        steps = [smap.adj[u][v] for u, v in zip(inside[0], inside[0][1:])]
        last = transition_cost(g_p, g_r, goal, g_margin, weights)
        sources[-2] = float(np.cumsum([s_step, *steps, *last])[-1])
    found = _best_first(_meta_static(smap), sources, legs)
    if found is None:
        return None

    hops = _unwind(found[1], -2)[:-1]
    if not hops:
        node_path = inside[0]
    else:
        node_path = s_seg.view.unwind(s_seg.pred[s_seg.ends.index(hops[0])], s_at)[::-1]
        for u, v in zip(hops, hops[1:]):
            if label[u] != label[v]:
                node_path.append(v)  # portal crossing
                continue
            seg, a, b = smap.segments[label[u]], min(u, v), max(u, v)
            seq = seg.view.unwind(seg.pred[seg.ends.index(a)], seg.view.rank(b))
            node_path.extend((seq if u < v else seq[::-1])[1:])
        node_path.extend(g_seg.view.unwind(g_seg.pred[g_seg.ends.index(hops[-1])], g_at)[1:])
    return _finish_sphere_result(smap, node_path, start, goal, s_margin, g_margin,
                                 "cached", t0, params)


# ----------------------------------------------------------------------
# occupancy-grid baselines
# ----------------------------------------------------------------------

class ClearanceField(ObstacleIndex):
    """Per-voxel and continuous clearance against an obstacle point set.

    By default the obstacle set is ``grid_obstacles(grid)``: the union of
    the grid's own occupied-voxel and frontier centroids, matching what
    bounds sphere radii. A planner searching a downsampled grid should pass
    the world's set instead (``obstacles=grid_obstacles(world)``): a coarse
    centroid can lie sqrt(3) * (coarse - fine resolution) / 2 from the fine
    obstacle it stands for (0.17 m for 0.4 m over 0.2 m voxels), so
    clearance measured against coarse centroids overstates the world's and a
    path that keeps ``r_min`` on the coarse grid can break it in the world.
    ``field`` holds the clearance at the centre of each FREE voxel of
    ``grid`` (0 elsewhere, inf with no obstacles). Building the field is a
    one-off, untimed precomputation for the grid baselines.
    """

    def __init__(self, grid: OccupancyGrid, obstacles: np.ndarray | None = None):
        super().__init__(grid_obstacles(grid) if obstacles is None else obstacles)
        self.field = np.zeros(grid.states.shape)
        free = grid.states == FREE
        centers = grid.origin + grid.resolution * (np.argwhere(free) + 0.5)
        self.field[free] = self.nearest_distances(centers)


_GRID_OFFSETS = [(di, dj, dk) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 for dk in (-1, 0, 1) if (di, dj, dk) != (0, 0, 0)]


def grid_astar(grid: OccupancyGrid, start, goal, params: PlannerParams,
               mode: str = "safety", field: ClearanceField | None = None) -> PlanResult | None:
    """Optimal A* over 26-connected free voxels whose clearance exceeds r_min.

    ``mode`` 'safety' uses the risk-augmented transition cost with per-voxel
    clearances; 'length-only' uses pure path length.
    """
    if mode not in ("safety", "length-only"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    if field is None:
        field = ClearanceField(grid)
    s_vox = grid.world_to_voxel(start)
    g_vox = grid.world_to_voxel(goal)
    if s_vox is None or g_vox is None:
        return None

    res = grid.resolution
    nx, ny, nz = grid.states.shape
    pny, pnz = ny + 2, nz + 2
    trav = (grid.states == FREE) & (field.field > params.r_min)
    if not (trav[s_vox] and trav[g_vox]):
        return None
    trav_flat = bytes(np.pad(trav, 1).ravel())
    clear_flat = array("d", np.pad(field.field, 1).ravel())

    def flat(v):
        return ((v[0] + 1) * pny + (v[1] + 1)) * pnz + (v[2] + 1)

    offsets = []
    for di, dj, dk in _GRID_OFFSETS:
        offsets.append(((di * pny + dj) * pnz + dk,
                        res * math.sqrt(di * di + dj * dj + dk * dk)))

    s_idx, g_idx = flat(s_vox), flat(g_vox)
    gi, gj, gk = g_vox
    total = (nx + 2) * pny * pnz
    g_score = array("d", [math.inf]) * total
    closed = bytearray(total)
    came: dict[int, int] = {}
    xi, d_max, r_min = params.xi, params.d_max, params.r_min
    safety = mode == "safety"

    def heur(v):
        k = v % pnz - 1
        rest = v // pnz
        j = rest % pny - 1
        i = rest // pny - 1
        return res * math.sqrt((i - gi) ** 2 + (j - gj) ** 2 + (k - gk) ** 2)

    g_score[s_idx] = 0.0
    h0 = heur(s_idx)
    heap = [(h0, h0, s_idx)]
    while heap:
        _, _, u = heapq.heappop(heap)
        if closed[u]:
            continue
        closed[u] = 1
        if u == g_idx:
            break
        gu = g_score[u]
        cu = clear_flat[u]
        for off, dl in offsets:
            v = u + off
            if not trav_flat[v] or closed[v]:
                continue
            if safety:
                # _risk inlined: a call per neighbour would dominate this loop.
                m = d_max - (cu + clear_flat[v]) * 0.5
                w = dl + xi * m * m * dl if m > 0.0 else dl
            else:
                w = dl
            alt = gu + w
            if alt < g_score[v]:
                g_score[v] = alt
                came[v] = u
                hv = heur(v)
                heapq.heappush(heap, (alt + hv, hv, v))
    else:
        return None

    vox = np.column_stack(np.unravel_index(_unwind(came, g_idx), (nx + 2, pny, pnz))) - 1
    waypoints = grid.origin + res * (vox + 0.5)
    return _plan_result(waypoints, field.field[tuple(vox.T)],
                        "grid" if safety else "grid-length", t0, params)


_RRT_STEP = 1.0           # steering step and goal-connection range (m)
_RRT_REWIRE_RADIUS = 3.0  # parent-choice and rewiring neighbourhood (m)
_RRT_GOAL_BIAS = 0.05     # share of samples drawn at the goal


def rrt_star(grid: OccupancyGrid, start, goal, params: PlannerParams,
             timeout: float = 10.0, seed: int = 0, field: ClearanceField | None = None,
             max_iters: int | None = None) -> PlanResult | None:
    """RRT* returning its first solution (no post-solution optimization).

    Steering segments are validated by sampling clearance and the free-state
    at quarter-resolution spacing. Deterministic under a fixed seed; the
    timeout only decides whether a solution is found in time.
    """
    t0 = time.perf_counter()
    if field is None:
        field = ClearanceField(grid)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    rng = np.random.default_rng(seed)
    spacing = grid.resolution / 4.0

    def segment_valid(a, b) -> bool:
        d = float(np.linalg.norm(b - a))
        n = max(2, int(math.ceil(d / spacing)) + 1)
        ts = np.linspace(0.0, 1.0, n)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        if np.any(grid.states_at(pts) != FREE):
            return False
        return bool(np.all(field.nearest_distances(pts) > params.r_min))

    for p in (start, goal):
        if grid.state_at(p) != FREE or field.nearest_distance(p) <= params.r_min:
            return None
    if float(np.linalg.norm(goal - start)) <= _RRT_STEP and segment_valid(start, goal):
        clearances = np.array([field.nearest_distance(start), field.nearest_distance(goal)])
        return _plan_result(np.vstack([start, goal]), clearances, "rrt-star", t0, params)

    cap = 4096
    pos = np.empty((cap, 3))
    clear = np.empty(cap)
    cost = np.empty(cap)
    parent = np.empty(cap, dtype=np.int64)
    pos[0] = start
    clear[0] = field.nearest_distance(start)
    cost[0] = 0.0
    parent[0] = -1
    n = 1
    lo, hi = grid.world_min(), grid.world_max()
    iters = 0
    deadline = t0 + timeout
    while True:
        iters += 1
        if max_iters is not None and iters > max_iters:
            return None
        if iters % 32 == 0 and time.perf_counter() > deadline:
            return None
        q = goal if rng.random() < _RRT_GOAL_BIAS else rng.uniform(lo, hi)
        d2 = np.einsum("ij,ij->i", pos[:n] - q, pos[:n] - q)
        j = int(np.argmin(d2))
        dist = math.sqrt(float(d2[j]))
        if dist < 1e-9:
            continue
        q_new = pos[j] + (q - pos[j]) * (min(_RRT_STEP, dist) / dist)
        cq = field.nearest_distance(q_new)
        if cq <= params.r_min:
            continue
        d2n = np.einsum("ij,ij->i", pos[:n] - q_new, pos[:n] - q_new)
        near = np.flatnonzero(d2n <= _RRT_REWIRE_RADIUS * _RRT_REWIRE_RADIUS)
        if j not in near:
            near = np.append(near, j)
        dl, dz = transition_cost(pos[near], clear[near], q_new, cq, params)
        w = dl + dz
        best_parent = -1
        best_cost = math.inf
        for k, c in zip(near.tolist(), (cost[near] + w).tolist()):
            if c < best_cost and segment_valid(pos[k], q_new):
                best_parent, best_cost = k, c
        if best_parent < 0:
            continue
        if n == cap:
            cap *= 2
            pos = np.vstack([pos, np.empty((n, 3))])
            clear = np.concatenate([clear, np.empty(n)])
            cost = np.concatenate([cost, np.empty(n)])
            parent = np.concatenate([parent, np.empty(n, dtype=np.int64)])
        pos[n], clear[n], cost[n], parent[n] = q_new, cq, best_cost, best_parent
        new_id = n
        n += 1
        for k, wk in zip(near.tolist(), w.tolist()):
            if k == best_parent:
                continue
            alt = best_cost + wk
            if alt < cost[k] and segment_valid(q_new, pos[k]):
                parent[k] = new_id
                cost[k] = alt
        if float(np.linalg.norm(q_new - goal)) <= _RRT_STEP and segment_valid(q_new, goal):
            ids = [new_id]
            while parent[ids[-1]] >= 0:
                ids.append(int(parent[ids[-1]]))
            ids.reverse()
            clearances = np.concatenate([clear[ids], [field.nearest_distance(goal)]])
            return _plan_result(np.vstack([pos[ids], goal]), clearances, "rrt-star", t0,
                                params)
