"""Safety-aware path planning.

Edge costs follow the discretized criterion: a step contributes its length
plus ``xi * max(0, d_max - mean clearance)^2 * length`` of risk. That risk
expression is written once, in ``_risk``, and ``transition_cost`` is the one
step kernel around it, row-wise over any batch of steps. Path assembly
(``_chain_cost``), the edge-cost table ``_graph_costs``, endpoint and portal
steps, and RRT*'s parent choice and rewiring all call the kernel; grid A*
keeps a commented inline copy of ``_risk`` in its per-neighbour loop.
Planners over the sphere map (full graph and cached portal planning) and two
occupancy-grid baselines (A* in safety / length-only mode, RRT*) all share
this cost model, the Euclidean-distance heuristic, and the clearance floor
``r_min``.

Every sphere-graph search runs on one best-first kernel, ``_best_first``,
over adjacency lists of (neighbour, weight): A* over the whole graph or
inside one segment, Dijkstra from each portal endpoint through its segment
(the node-to-portal tables of ``core.Segment``), and Dijkstra over the
portal meta-graph, the portal abstraction of HPA* (Botea, Mueller &
Schaeffer 2004). Sphere-graph weights come from ``_graph_costs``; meta-graph
weights are portal crossings and table and cached-path costs.

All planners are pure functions over read-only inputs; run them between map
updates.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from . import geometry
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

def _attach(smap, p, segmented_only=False):
    """Containing sphere with the largest clearance margin r - |p - center|,
    the first in ``NodeIndex.query`` order on a tie; (None, -inf) if none."""
    p = np.asarray(p, dtype=float)
    ids, pos, radii, _ = smap.node_index.query(p, smap.params.r_cap)
    delta = p - pos
    margin = radii - np.sqrt(np.vecdot(delta, delta))
    ok = margin >= 0.0
    if segmented_only:
        ok[ok] = [smap.segment_of[i] is not None for i in ids[ok].tolist()]
    if not ok.any():
        return None, -math.inf
    k = int(np.argmax(np.where(ok, margin, -np.inf)))
    return int(ids[k]), float(margin[k])


def _step_cost(p1, r1, p2, r2, params: PlannerParams) -> float:
    dl, dz = transition_cost(p1, r1, p2, r2, params)
    return float(dl + dz)


def _pair_costs(smap, pairs, params: PlannerParams) -> list[float]:
    """Step cost between the centers of each node pair: one kernel call."""
    rows = smap.node_index.rows
    dl, dz = transition_cost(*rows([a for a, _ in pairs]), *rows([b for _, b in pairs]), params)
    return (dl + dz).tolist()


def _graph_costs(smap, params: PlannerParams) -> dict[int, list[tuple[int, float]]]:
    """Per-node neighbor/cost lists; cached on the map until it mutates."""
    key = (smap.mutation_token, params.xi, params.d_max, params.r_min)
    cached = getattr(smap, "_plan_ctx", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    edges = list(smap.edges())
    adj: dict[int, list[tuple[int, float]]] = {nid: [] for nid in smap.adj}
    for (a, b), w in zip(edges, _pair_costs(smap, edges, params)):
        adj[a].append((b, w))
        adj[b].append((a, w))
    smap._plan_ctx = (key, adj)
    return adj


def _best_first(adj, sources, goal=None, heuristic=None, members=None):
    """The one search kernel: best-first over ``adj[u] = [(v, weight), ...]``.

    ``sources`` maps start nodes to their initial costs. Nodes pop in
    (g + h, h, node id) order, so with no ``heuristic`` this is Dijkstra and
    with an admissible one it is A*. Only nodes of ``members`` are entered
    when it is given. The search stops when ``goal`` is settled and returns
    None if it never is; without a goal it settles everything reachable.
    Returns (g, came): the cost of and parent link to each node reached.
    """
    g = dict(sources)
    came: dict[int, int] = {}
    closed: set[int] = set()
    heap = []
    for u, gu in sources.items():
        h = heuristic(u) if heuristic is not None else 0.0
        heap.append((gu + h, h, u))
    heapq.heapify(heap)
    while heap:
        _, _, u = heapq.heappop(heap)
        if u in closed:
            continue
        closed.add(u)
        if u == goal:
            return g, came
        gu = g[u]
        for v, w in adj[u]:
            if v in closed or (members is not None and v not in members):
                continue
            alt = gu + w
            if alt < g.get(v, math.inf):
                g[v] = alt
                came[v] = u
                h = heuristic(v) if heuristic is not None else 0.0
                heapq.heappush(heap, (alt + h, h, v))
    return None if goal is not None else (g, came)


def _unwind(came, target) -> list:
    """Node path from the search source to ``target`` along parent links."""
    path = [target]
    while path[-1] in came:
        path.append(came[path[-1]])
    path.reverse()
    return path


def _distance_to(smap, p, members=None):
    """A* heuristic over every node (or ``members``): straight-line distance
    from its center to p, one ``sqrt(vecdot)`` over the rows per search."""
    ids = smap.adj if members is None else members
    delta = smap.node_index.rows(ids)[0] - p
    return dict(zip(ids, np.sqrt(np.vecdot(delta, delta)).tolist())).__getitem__


def astar_nodes(smap, start_id: int, goal_id: int, params: PlannerParams,
                restrict=None) -> tuple[list[int], float] | None:
    """Optimal node-id path between two sphere nodes (optionally one segment)."""
    members = None if restrict is None else smap.segments[restrict].members
    found = _best_first(_graph_costs(smap, params), {start_id: 0.0}, goal_id,
                        _distance_to(smap, smap.node_index.row(goal_id)[0], members), members)
    if found is None:
        return None
    return _unwind(found[1], goal_id), found[0][goal_id]


def _finish_sphere_result(smap, node_path, start, goal, s_margin, g_margin,
                          mode, t0, params):
    pos, radii = smap.node_index.rows(node_path)
    return _plan_result(np.vstack([start, pos, goal]),
                        np.concatenate([[s_margin], radii, [g_margin]]), mode, t0, params)


def astar_sphere_graph(smap, start, goal, params: PlannerParams) -> PlanResult | None:
    """A* over the whole sphere graph."""
    t0 = time.perf_counter()
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    s_id, s_margin = _attach(smap, start)
    g_id, g_margin = _attach(smap, goal)
    if s_id is None or g_id is None:
        return None
    if np.array_equal(start, goal):
        return _plan_result(start.reshape(1, 3), np.array([s_margin]), "full-graph", t0, params)
    source = {s_id: _step_cost(start, s_margin, *smap.node_index.row(s_id), params)}
    found = _best_first(_graph_costs(smap, params), source, g_id, _distance_to(smap, goal))
    if found is None:
        return None
    return _finish_sphere_result(smap, _unwind(found[1], g_id), start, goal,
                                 s_margin, g_margin, "full-graph", t0, params)


def _meta_static(smap, params: PlannerParams):
    """Portal-level meta-graph shared by all cached queries; rebuilt only when
    the map mutates. Nodes are portal endpoints; edges are portal crossings
    and cached intra-segment paths."""
    key = (smap.mutation_token, params.xi, params.d_max, params.r_min)
    cached = getattr(smap, "_meta_ctx", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    meta: dict[int, list[tuple[int, float]]] = {}
    pairs = [(portal.a, portal.b) for portal in smap.portals.values()]
    for (a, b), w in zip(pairs, _pair_costs(smap, pairs, params)):
        meta.setdefault(a, []).append((b, w))
        meta.setdefault(b, []).append((a, w))
    for seg in smap.segments.values():
        for (u, v), (_, cost) in seg.path_cache.items():
            meta.setdefault(u, []).append((v, cost))
            meta.setdefault(v, []).append((u, cost))
    smap._meta_ctx = (key, meta)
    return meta


def plan_cached(smap, start, goal, params: PlannerParams) -> PlanResult | None:
    """Long-distance planning through portals and cached intra-segment paths.

    Searches a meta-graph over the two endpoints (ids -1 and -2) and all
    portal endpoints. Segment interiors are crossed on the cached
    portal-pair paths and each endpoint reaches its segment's portals along
    the segment's node-to-portal tables, so only a same-segment query
    searches the sphere graph: one A* for the direct in-segment route.
    The search runs under the map's ``plan_params``, the weights its caches
    hold; ``params`` only prices the reported length and risk.
    """
    t0 = time.perf_counter()
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    s_id, s_margin = _attach(smap, start, segmented_only=True)
    g_id, g_margin = _attach(smap, goal, segmented_only=True)
    if s_id is None or g_id is None:
        return None
    if np.array_equal(start, goal):
        return _plan_result(start.reshape(1, 3), np.array([s_margin]), "cached", t0, params)
    weights, label = smap.plan_params, smap.segment_of
    s_seg, g_seg = smap.segments[label[s_id]], smap.segments[label[g_id]]
    g_p, g_r = smap.node_index.row(g_id)
    s_step = _step_cost(start, s_margin, *smap.node_index.row(s_id), weights)
    g_step = _step_cost(goal, g_margin, g_p, g_r, weights)
    direct = inside = None  # the direct same-segment route, beside the meta-path
    if s_seg is g_seg:
        inside = _best_first(_graph_costs(smap, weights), {s_id: s_step}, g_id,
                             _distance_to(smap, g_p, s_seg.members), s_seg.members)
    if inside is not None:
        dl, dz = transition_cost(g_p, g_r, goal, g_margin, weights)
        direct = inside[0][g_id] + dl + dz

    meta = dict(_meta_static(smap, weights))
    s_tab, g_tab = s_seg.portal_tables, g_seg.portal_tables
    meta[-1] = [(e, s_step + s_tab[e][0][s_id])
                for e in smap.segment_portal_nodes(s_seg.label) if s_id in s_tab[e][0]]
    meta.update((e, meta[e] + [(-2, g_step + g_tab[e][0][g_id])])
                for e in smap.segment_portal_nodes(g_seg.label) if g_id in g_tab[e][0])
    found = _best_first(meta, {-1: 0.0}, goal=-2)
    if found is None and direct is None:
        return None

    if direct is not None and (found is None or direct <= found[0][-2]):
        node_path = _unwind(inside[1], g_id)
    else:
        hops = _unwind(found[1], -2)[1:-1]
        node_path = _unwind(s_tab[hops[0]][1], s_id)[::-1]
        for u, v in zip(hops, hops[1:]):
            if label[u] != label[v]:
                node_path.append(v)  # portal crossing
                continue
            cache = smap.segments[label[u]].path_cache
            seq = cache[(u, v)][0] if (u, v) in cache else cache[(v, u)][0][::-1]
            node_path.extend(seq[1:])
        node_path.extend(_unwind(g_tab[hops[-1]][1], g_id)[1:])
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
