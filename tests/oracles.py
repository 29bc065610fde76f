"""Independent reference implementations used to certify planner outputs.

Deliberately simple and separate from the package internals: uniform-cost
search with its own cost arithmetic, a random sphere-map generator, and
brute-force coverage and redundancy oracles. Two exceptions:
``graph_costs`` and ``best_first`` keep the planner's earlier dict-of-lists
edge-cost table and Python heap search, the reference its csgraph views must
match bit for bit; ``plan_cached_two_dijkstra`` keeps an earlier cached
planner, built on them and on ``portal_paths`` (the per-segment path cache
that segments kept beside their tables), as the reference its table-driven
successor must match; ``fit_box_per_angle`` keeps the LTV box fit that
scored each coarse yaw on its own.
"""

import heapq
import math

import numpy as np
from scipy.spatial import cKDTree

from spheremap import FREE, OCCUPIED, UNKNOWN, BuildParams, SphereMap, UpdateCube
from spheremap.geometry import covered_fractions
from spheremap.ltv import _support_extent
from spheremap.planner import (_attach, _finish_sphere_result, _meta_static, _plan_result,
                               _step_cost, _unwind, transition_cost)
from spheremap.voxelgrid import frontier_points, obstacle_points


def free_centroids(grid):
    idx = np.argwhere(grid.states == FREE)
    return grid.origin + grid.resolution * (idx + 0.5)


def covered_mask(smap, centers):
    """Which of the given points lie inside at least one sphere."""
    covered = np.zeros(len(centers), dtype=bool)
    for p, r in zip(*smap.node_index.rows(list(smap.adj))):
        d2 = np.einsum("ij,ij->i", centers - p, centers - p)
        covered |= d2 <= r * r
    return covered


def coverable_mask(grid, centers, r_min, r_cap):
    """Geometric ceiling: points reachable by any valid sphere centered on a
    free voxel centroid (clearance >= r_min against occupied + frontier points)."""
    span = float(np.max(grid.world_max() - grid.world_min()))
    cube = UpdateCube(0.5 * (grid.world_min() + grid.world_max()),
                      span + 2 * grid.resolution)
    obstacles = np.concatenate([obstacle_points(grid, cube),
                                frontier_points(grid, cube)], axis=0)
    cand = free_centroids(grid)
    if len(obstacles):
        d, _ = cKDTree(obstacles).query(cand)
    else:
        d = np.full(len(cand), np.inf)
    keep = d >= r_min
    cand, reach = cand[keep], np.minimum(d[keep], r_cap)
    out = np.zeros(len(centers), dtype=bool)
    for s in range(0, len(centers), 512):
        e = min(s + 512, len(centers))
        delta = centers[s:e, None, :] - cand[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", delta, delta)
        out[s:e] = (dist2 < (reach[None, :]) ** 2).any(axis=1)
    return out


def nearest_coverer(smap, p, r, strict):
    """The nearest live node covering sphere (p, r), and its distance, or
    (None, inf). Every live node is tried at its ``NodeIndex`` distance: it
    covers if it is larger (strictly, or equal-or-larger when not strict)
    and ``covered_fractions`` is at least kappa. Ties go to the lower id."""
    ids, _, aux, d = smap.node_index.query(p, math.inf)
    bigger = aux > r if strict else aux >= r
    hit = np.flatnonzero(bigger & (covered_fractions(r, d, aux) >= smap.params.kappa))
    if not len(hit):
        return None, math.inf
    return int(ids[hit[0]]), float(d[hit[0]])


def expand_oracle(smap, index, cands):
    """The (position, radius) pairs ``SphereMap.expand`` adds for these
    candidates, in order, decided one candidate at a time on the whole map.

    A candidate's radius is its clearance capped at r_cap, in float32. It is
    skipped when the radius is below r_min, when the map as it was before
    the first candidate held a coverer at distance 0 (a twin), or when a live
    node covers it (not strict). An added sphere removes every neighbour it
    covers strictly. No redundancy sweep follows.
    """
    cands = np.asarray(np.asarray(cands, dtype=np.float32), dtype=float)
    radii = np.minimum(index.nearest_distances(cands), smap.params.r_cap)
    radii = np.asarray(np.asarray(radii, dtype=np.float32), dtype=float)
    twins = [nearest_coverer(smap, p, r, False)[1] == 0.0 for p, r in zip(cands, radii)]
    added = []
    for p, r, twin in zip(cands, radii, twins):
        if r < smap.params.r_min or twin or nearest_coverer(smap, p, r, False)[0] is not None:
            continue
        nid = smap._add_node(p, r)
        smap._recompute_edges(nid)
        added.append((tuple(p.tolist()), float(r)))
        ids, _, aux, d = smap.node_index.query(p, math.inf)
        for nb, R, dist in zip(ids.tolist(), aux, d):
            frac = covered_fractions(R, np.array([dist]), np.array([r]))[0]
            if nb in smap.adj[nid] and R < r and frac >= smap.params.kappa:
                smap._remove_node(nb)
    return added


def random_sphere_map(seed, max_nodes=50, box=20.0):
    """Random valid sphere graph plus covered start/goal points."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, max_nodes + 1))
    params = BuildParams(r_cap=8.0, cube_side=2 * box)
    smap = SphereMap(params, seed=0)
    for _ in range(n):
        p = rng.uniform(0.0, box, 3)
        r = rng.uniform(1.0, 4.0)
        nid = smap._add_node(p, r)
        smap._recompute_edges(nid)
    ids = sorted(smap.adj)
    a, b = rng.choice(ids, 2)
    (pa, ra), (pb, rb) = smap.node_index.row(int(a)), smap.node_index.row(int(b))
    start = pa + rng.uniform(-0.4, 0.4, 3) * ra
    goal = pb + rng.uniform(-0.4, 0.4, 3) * rb
    return smap, start, goal


def _attach_oracle(smap, p):
    best = None
    best_margin = -math.inf
    for nid in sorted(smap.adj):
        center, r = smap.node_index.row(nid)
        margin = r - float(np.linalg.norm(np.asarray(p) - center))
        if margin >= 0.0 and margin > best_margin:
            best, best_margin = nid, margin
    return best, best_margin


def _step(p1, r1, p2, r2, xi, d_max):
    dl = float(np.linalg.norm(np.asarray(p1, dtype=float) - np.asarray(p2, dtype=float)))
    m = d_max - (r1 + r2) / 2.0
    if m < 0.0:
        m = 0.0
    return dl, xi * m * m * dl


def ucs_optimal(smap, start, goal, params):
    """Uniform-cost search over the sphere graph (no heuristic).

    Returns (L, Z, J, node path) with the same attach and cost semantics as
    the planner, or None when unreachable.
    """
    s_id, s_margin = _attach_oracle(smap, start)
    g_id, g_margin = _attach_oracle(smap, goal)
    if s_id is None or g_id is None:
        return None
    if np.array_equal(np.asarray(start, dtype=float), np.asarray(goal, dtype=float)):
        return 0.0, 0.0, 0.0, []
    node = smap.node_index.row
    dl, dz = _step(start, s_margin, *node(s_id), params.xi, params.d_max)
    dist = {s_id: dl + dz}
    came = {}
    heap = [(dist[s_id], s_id)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == g_id:
            break
        for v in smap.adj[u]:
            if v in done:
                continue
            dl, dz = _step(*node(u), *node(v), params.xi, params.d_max)
            alt = d + dl + dz
            if alt < dist.get(v, math.inf):
                dist[v] = alt
                came[v] = u
                heapq.heappush(heap, (alt, v))
    if g_id not in done:
        return None
    path = [g_id]
    while path[-1] != s_id:
        path.append(came[path[-1]])
    path.reverse()
    # decompose along the chosen path exactly as the planner reports it
    pts = [np.asarray(start, dtype=float)] + [node(i)[0] for i in path] + [np.asarray(goal, dtype=float)]
    cls = [s_margin] + [node(i)[1] for i in path] + [g_margin]
    length = 0.0
    risk = 0.0
    for i in range(len(pts) - 1):
        dl, dz = _step(pts[i], cls[i], pts[i + 1], cls[i + 1], params.xi, params.d_max)
        length += dl
        risk += dz
    return length, risk, length + risk, path


def ucs_node_cost(smap, a, b, params):
    """Optimal cost between two sphere nodes by uniform-cost search, or None."""
    node = smap.node_index.row
    dist = {a: 0.0}
    heap = [(0.0, a)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == b:
            return d
        for v in smap.adj[u]:
            if v in done:
                continue
            dl, dz = _step(*node(u), *node(v), params.xi, params.d_max)
            alt = d + dl + dz
            if alt < dist.get(v, math.inf):
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return None


def frontier_points_all_shifts(grid, cube, connectivity=6):
    """``voxelgrid.frontier_points`` as it was before it skipped known
    grids: every shifted neighbour of the padded cube is compared with
    UNKNOWN, whatever the grid holds."""
    rng = cube.voxel_range(grid)
    if rng is None:
        return np.empty((0, 3), dtype=float)
    (i0, j0, k0), (i1, j1, k1) = rng
    nx, ny, nz = grid.states.shape
    a = (max(i0 - 1, 0), max(j0 - 1, 0), max(k0 - 1, 0))
    b = (min(i1 + 1, nx), min(j1 + 1, ny), min(k1 + 1, nz))
    pads = tuple((1 - (lo - alo), 1 - (bhi - hi))
                 for lo, hi, alo, bhi in zip((i0, j0, k0), (i1, j1, k1), a, b))
    slab = np.pad(grid.states[a[0]:b[0], a[1]:b[1], a[2]:b[2]], pads, constant_values=UNKNOWN)
    core = slab[1:-1, 1:-1, 1:-1]
    offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
               if (dx, dy, dz) != (0, 0, 0) and (connectivity == 26 or abs(dx) + abs(dy) + abs(dz) == 1)]
    near_unknown = np.zeros(core.shape, dtype=bool)
    for dx, dy, dz in offsets:
        near_unknown |= slab[1 + dx:slab.shape[0] - 1 + dx, 1 + dy:slab.shape[1] - 1 + dy,
                             1 + dz:slab.shape[2] - 1 + dz] == UNKNOWN
    idx = np.argwhere((core == FREE) & near_unknown)
    if idx.size == 0:
        return np.empty((0, 3), dtype=float)
    return grid.origin + grid.resolution * (idx + np.array([i0, j0, k0]) + 0.5)


def greedy_goal_clusters(points, radius):
    """Greedy goal clustering by all-pairs distances: points in order of
    decreasing neighbour count (ties by index) claim every unclaimed point
    within ``radius``; each goal is the mean of its members in index order."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return np.empty((0, 3))
    delta = points[:, None, :] - points[None, :, :]
    near = np.einsum("ijk,ijk->ij", delta, delta) <= radius * radius
    counts = near.sum(axis=1)
    order = sorted(range(len(points)), key=lambda i: (-counts[i], i))
    claimed = np.zeros(len(points), dtype=bool)
    goals = []
    for i in order:
        if claimed[i]:
            continue
        members = [j for j in range(len(points)) if near[i, j] and not claimed[j]]
        claimed[members] = True
        goals.append(points[members].mean(axis=0))
    return np.array(goals)


def cluster_goals_default_tree(points, radius):
    """``ltv._cluster_goals`` on scipy's default k-d tree, the yardstick for
    the package's own tree configuration."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return np.empty((0, 3))
    if len(points) > 20000:
        points = points[::-(-len(points) // 20000)]
    tree = cKDTree(points)
    counts = tree.query_ball_point(points, radius, return_length=True)
    unassigned = np.ones(len(points), dtype=bool)
    goals = []
    for i in np.lexsort((np.arange(len(points)), -counts)):
        if not unassigned[i]:
            continue
        neigh = np.asarray(tree.query_ball_point(points[i], radius, return_sorted=True))
        members = neigh[unassigned[neigh]]
        unassigned[members] = False
        goals.append(points[members].mean(axis=0))
    return np.array(goals)


def reveal_per_ray(working, world, pos, directions, step, n_steps):
    """Walk each ray alone, sample k * step for k = 1..n_steps: stop before
    the first voxel outside the grid, or after revealing the first occupied
    one. The voxel holding ``pos`` is revealed first."""
    pos = np.asarray(pos, dtype=float)
    own = world.world_to_voxel(pos)
    if own is not None:
        working.states[own] = world.states[own]
    for d in directions:
        for k in range(1, n_steps + 1):
            ijk = world.world_to_voxel(pos + d * (k * step))
            if ijk is None:
                break
            working.states[ijk] = world.states[ijk]
            if world.states[ijk] == OCCUPIED:
                break


def graph_costs(smap, params):
    """Per-node neighbour/cost lists of the whole map, priced pair by pair
    from the node rows: one kernel call over the edges as ``edges()`` lists
    them (lower id first)."""
    edges = list(smap.edges())
    rows = smap.node_index.rows
    dl, dz = transition_cost(*rows([a for a, _ in edges]), *rows([b for _, b in edges]), params)
    adj = {nid: [] for nid in smap.adj}
    for (a, b), w in zip(edges, (dl + dz).tolist()):
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


def distance_to(smap, p, members=None):
    """Straight-line distance from each node (or each of ``members``) to p."""
    ids = list(smap.adj if members is None else members)
    delta = smap.node_index.rows(ids)[0] - p
    return dict(zip(ids, np.sqrt(np.vecdot(delta, delta)).tolist())).__getitem__


def best_first(adj, sources, goal=None, heuristic=None, members=None):
    """Best-first search over ``adj[u] = [(v, weight), ...]``: nodes pop in
    (g + h, h, node id) order, so with no ``heuristic`` this is Dijkstra and
    with an admissible one A*. Only nodes of ``members`` are entered when it
    is given. Stops when ``goal`` is settled (None if it never is); without
    a goal it settles everything reachable. Returns (g, came)."""
    g = dict(sources)
    came = {}
    closed = set()
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


def portal_paths(seg):
    """{(a, b): (path, cost)} for the portal endpoints a < b of a segment,
    read off its table, as the per-segment path cache held them."""
    at = seg.view.rank(seg.ends)
    return {(a, b): (tuple(seg.view.unwind(seg.pred[i], at[j])), float(seg.dist[i, at[j]]))
            for i, a in enumerate(seg.ends) for j, b in enumerate(seg.ends) if i < j}


def plan_cached_two_dijkstra(smap, start, goal, params):
    """The cached planner before node-to-portal tables: a Dijkstra from each
    endpoint over its whole segment gives the legs to the portals, and the
    meta-graph search and path assembly are as in ``plan_cached``."""
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    s_id, s_margin = _attach(smap, start)
    g_id, g_margin = _attach(smap, goal)
    if s_id is None or g_id is None:
        return None
    if np.array_equal(start, goal):
        return _plan_result(start.reshape(1, 3), np.array([s_margin]), "cached", 0.0, params)
    label = smap.segment_of
    s_label, g_label = label[s_id], label[g_id]
    (s_p, s_r), (g_p, g_r) = smap.node_index.row(s_id), smap.node_index.row(g_id)
    adj = graph_costs(smap, params)
    s_dist, s_came = best_first(adj, {s_id: _step_cost(start, s_margin, s_p, s_r, params)},
                                 members=smap.segments[s_label].members)
    g_dist, g_came = best_first(adj, {g_id: _step_cost(goal, g_margin, g_p, g_r, params)},
                                 members=smap.segments[g_label].members)
    direct = None
    if s_label == g_label and g_id in s_dist:
        dl, dz = transition_cost(g_p, g_r, goal, g_margin, params)
        direct = s_dist[g_id] + dl + dz
    meta = dict(_meta_static(smap))
    meta[-1] = [(e, s_dist[e]) for e in smap.segment_portal_nodes(s_label) if e in s_dist]
    for e in smap.segment_portal_nodes(g_label):
        if e in g_dist:
            meta[e] = meta[e] + [(-2, g_dist[e])]
    found = best_first(meta, {-1: 0.0}, goal=-2)
    if found is None and direct is None:
        return None
    if direct is not None and (found is None or direct <= found[0][-2]):
        node_path = _unwind(s_came, g_id)
    else:
        hops = _unwind(found[1], -2)[1:-1]
        node_path = _unwind(s_came, hops[0])
        for u, v in zip(hops, hops[1:]):
            if label[u] != label[v]:
                node_path.append(v)
                continue
            cache = portal_paths(smap.segments[label[u]])
            seq = cache[(u, v)][0] if (u, v) in cache else cache[(v, u)][0][::-1]
            node_path.extend(seq[1:])
        node_path.extend(_unwind(g_came, hops[-1])[-2::-1])
    return _finish_sphere_result(smap, node_path, start, goal, s_margin, g_margin,
                                 "cached", 0.0, params)


def fit_box_per_angle(positions, radii):
    """``ltv.fit_box`` as it scored each of the 181 coarse yaws with its own
    two projections, the reference for the one-projection scoring."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if len(positions) == 1:
        p, r = positions[0], float(radii[0])
        return p.copy(), 0.0, np.array([r, r, r])
    xy = positions[:, :2]

    def area(ang):
        w, _ = _support_extent(xy, radii, ang)
        h, _ = _support_extent(xy, radii, ang + math.pi / 2.0)
        return w * h

    coarse = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181, endpoint=False)
    areas = np.array([area(a) for a in coarse])
    best_area = float(areas.min())
    tied = np.flatnonzero(areas <= best_area * (1.0 + 1e-9))
    best_i = int(tied[np.argmin(np.abs(coarse[tied]))])
    lo = coarse[best_i] - (coarse[1] - coarse[0])
    hi = coarse[best_i] + (coarse[1] - coarse[0])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = area(c), area(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = area(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = area(d)
    yaw = (a + b) / 2.0
    if area(0.0) <= area(yaw) * (1.0 + 1e-12):
        yaw = 0.0
    yaw = (yaw + math.pi / 2.0) % math.pi - math.pi / 2.0
    wu, mu = _support_extent(xy, radii, yaw)
    wv, mv = _support_extent(xy, radii, yaw + math.pi / 2.0)
    z_hi = float(np.max(positions[:, 2] + radii))
    z_lo = float(np.min(positions[:, 2] - radii))
    u = np.array([math.cos(yaw), math.sin(yaw)])
    v = np.array([-math.sin(yaw), math.cos(yaw)])
    center = np.array([mu * u[0] + mv * v[0], mu * u[1] + mv * v[1], (z_hi + z_lo) / 2.0])
    half = np.array([wu / 2.0, wv / 2.0, (z_hi - z_lo) / 2.0])
    return center, float(yaw), half
