"""Structural invariant checks for a sphere map.

Used by tests and the benchmark harness at mission checkpoints. Every check
returns human-readable violation strings; an empty list means the invariant
suite passed. Checks are exact (no tolerances) except the clearance check,
which allows the configured radius tolerance.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import geometry, planner
from .spatial import ObstacleIndex
from .voxelgrid import OccupancyGrid, grid_obstacles


def check_structure(smap) -> list[str]:
    """Edge rule, segment partition/connectivity, portals, caches, redundancy."""
    problems: list[str] = []
    r_min = smap.params.r_min

    for a, nbrs in smap.adj.items():
        if a in nbrs:
            problems.append(f"self edge at node {a}")
        for b in nbrs:
            if a not in smap.adj.get(b, set()):
                problems.append(f"asymmetric edge ({a}, {b})")

    for nid, node in smap.nodes.items():
        if node.r < r_min:
            problems.append(f"node {nid} radius {node.r} below r_min")

    for a, b in smap.edges():
        na, nb = smap.nodes[a], smap.nodes[b]
        if not geometry.intersection_radius(na.p, na.r, nb.p, nb.r) > r_min:
            problems.append(f"edge ({a}, {b}) violates the intersection rule")

    cube = smap.last_cube
    if cube is not None:
        ids = sorted(smap.nodes_in_cube(cube))
        for a, b in combinations(ids, 2):
            if b in smap.adj[a]:
                continue
            na, nb = smap.nodes[a], smap.nodes[b]
            d = float(np.linalg.norm(na.p - nb.p))
            if d < na.r + nb.r:
                if geometry.intersection_radius(na.p, na.r, nb.p, nb.r) > r_min:
                    problems.append(f"missing edge ({a}, {b}) inside update cube")

    assigned: set[int] = set()
    for label, seg in smap.segments.items():
        if not seg.members:
            problems.append(f"segment {label} is empty")
            continue
        for nid in seg.members:
            if nid not in smap.nodes:
                problems.append(f"segment {label} references dead node {nid}")
            elif smap.nodes[nid].segment != label:
                problems.append(f"node {nid} label disagrees with segment {label}")
            assigned.add(nid)
        seed = min(seg.members)
        comp = {seed}
        stack = [seed]
        while stack:
            cur = stack.pop()
            for nb in smap.adj.get(cur, ()):
                if nb in seg.members and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        if comp != seg.members:
            problems.append(f"segment {label} member subgraph is disconnected")
    for nid, node in smap.nodes.items():
        if node.segment is None:
            problems.append(f"node {nid} left unassigned")
        elif node.segment not in smap.segments:
            problems.append(f"node {nid} labeled with dead segment {node.segment}")
        elif nid not in assigned:
            problems.append(f"node {nid} missing from its segment member set")

    # Portals: one per adjacent pair, endpoints consistent, radius maximal.
    best: dict[tuple[int, int], float] = {}
    for a, b in smap.edges():
        sa, sb = smap.nodes[a].segment, smap.nodes[b].segment
        if sa is None or sb is None or sa == sb:
            continue
        pair = (sa, sb) if sa < sb else (sb, sa)
        na, nb = smap.nodes[a], smap.nodes[b]
        ir = geometry.intersection_radius(na.p, na.r, nb.p, nb.r)
        if ir > best.get(pair, -1.0):
            best[pair] = ir
    for pair, portal in smap.portals.items():
        if pair not in best:
            problems.append(f"portal {pair} has no inter-segment edge")
            continue
        na, nb = smap.nodes.get(portal.a), smap.nodes.get(portal.b)
        if na is None or nb is None:
            problems.append(f"portal {pair} references dead nodes")
            continue
        if na.segment != pair[0] or nb.segment != pair[1]:
            problems.append(f"portal {pair} endpoints in wrong segments")
        if portal.b not in smap.adj.get(portal.a, set()):
            problems.append(f"portal {pair} endpoints are not connected")
        ir = geometry.intersection_radius(na.p, na.r, nb.p, nb.r)
        if ir < best[pair]:
            problems.append(f"portal {pair} is not maximal ({ir} < {best[pair]})")
    for pair in best:
        if pair not in smap.portals:
            problems.append(f"adjacent segments {pair} lack a portal")

    # Caches: right key set, valid sequences, costs reproducible exactly.
    for label, seg in smap.segments.items():
        if seg.altered:
            problems.append(f"segment {label} left altered after iteration")
        endpoints = smap.segment_portal_nodes(label)
        expected = {(a, b) for i, a in enumerate(endpoints) for b in endpoints[i + 1:]}
        if set(seg.path_cache.keys()) != expected:
            problems.append(f"segment {label} cache keys mismatch portal pairs")
            continue
        for (u, v), (path, cost) in seg.path_cache.items():
            if path[0] != u or path[-1] != v:
                problems.append(f"cache {label}:{(u, v)} endpoints mismatch")
                continue
            ok = all(n in seg.members for n in path)
            ok = ok and all(path[i + 1] in smap.adj[path[i]] for i in range(len(path) - 1))
            if not ok:
                problems.append(f"cache {label}:{(u, v)} path leaves the segment")
                continue
            redo = planner.astar_nodes(smap, u, v, smap.plan_params, restrict=label)
            if redo is None or redo[1] != cost:
                problems.append(f"cache {label}:{(u, v)} cost differs from recomputation")

    if cube is not None:
        ids = sorted(smap.nodes_in_cube(cube))
        pts, radii = [smap.nodes[i].p for i in ids], [smap.nodes[i].r for i in ids]
        coverers, _ = smap._find_coverers(np.array(pts), np.array(radii), strict=True)
        problems += [f"node {nid} inside update cube is redundant"
                     for nid, wit in zip(ids, coverers) if wit >= 0]
    return problems


def check_clearance(smap, grid: OccupancyGrid, all_nodes: bool = False) -> list[str]:
    """Radii never exceed the true obstacle distance (full-set recomputation)."""
    if all_nodes or smap.last_cube is None:
        ids = sorted(smap.nodes)
    else:
        ids = sorted(smap.nodes_in_cube(smap.last_cube))
    if not ids:
        return []
    index = ObstacleIndex(grid_obstacles(grid, smap.params.frontier_connectivity))
    d = index.nearest_distances(np.array([smap.nodes[i].p for i in ids]))
    eps = smap.params.eps_r
    problems = []
    for nid, dist in zip(ids, d):
        node = smap.nodes[nid]
        if node.r > dist + eps:
            problems.append(f"node {nid} radius {node.r} exceeds clearance {dist}")
    return problems


def check_all(smap, grid: OccupancyGrid | None = None) -> list[str]:
    problems = check_structure(smap)
    if grid is not None:
        problems.extend(check_clearance(smap, grid))
    return problems
