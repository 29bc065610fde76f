"""Structural invariant checks for a sphere map.

Used by tests and the benchmark harness at mission checkpoints. Every check
returns human-readable violation strings; an empty list means the invariant
suite passed. Checks are exact (no tolerances) except the clearance check,
which allows the configured radius tolerance. The link rule, edge costs,
planning tables and coverage are recomputed with the kernels that built the
map (``SphereMap.link_radii``, ``transition_cost``, ``_portal_tables``,
``_find_coverers``), so a reported problem is never a rounding disagreement
between two copies of one formula.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components

from .planner import graph_view, transition_cost
from .spatial import ObstacleIndex
from .voxelgrid import OccupancyGrid, grid_obstacles


def check_structure(smap) -> list[str]:
    """Edge rule and costs, segment partition/connectivity, portals, tables,
    redundancy."""
    problems: list[str] = []
    r_min = smap.params.r_min
    label_of = smap.segment_of

    for a, nbrs in smap.adj.items():
        if a in nbrs:
            problems.append(f"self edge at node {a}")
        for b in nbrs:
            if a not in smap.adj.get(b, {}):
                problems.append(f"asymmetric edge ({a}, {b})")
            elif a < b and smap.adj[b][a] != nbrs[b]:
                problems.append(f"edge ({a}, {b}) costs differ by direction")
    links = sum(len(nbrs) for nbrs in smap.adj.values())
    if 2 * smap.edge_count() != links:
        problems.append(f"edge count {smap.edge_count()} disagrees with {links} adjacency entries")

    for nid, r in zip(smap.adj, smap.node_index.rows(smap.adj)[1].tolist()):
        if r < r_min:
            problems.append(f"node {nid} radius {r} below r_min")

    edges = list(smap.edges())
    a_ids, b_ids = [a for a, _ in edges], [b for _, b in edges]
    link = dict(zip(edges, smap.link_radii(a_ids, b_ids).tolist()))
    problems += [f"edge ({a}, {b}) violates the intersection rule"
                 for (a, b), ir in link.items() if not ir > r_min]
    dl, dz = transition_cost(*smap.node_index.rows(a_ids), *smap.node_index.rows(b_ids),
                             smap.plan_params)
    problems += [f"edge ({a}, {b}) cost differs from recomputation"
                 for (a, b), w in zip(edges, (dl + dz).tolist()) if smap.adj[a][b] != w]

    cube = smap.last_cube
    if cube is not None:
        ids = np.array(sorted(smap.nodes_in_cube(cube)), dtype=np.int64)
        i, j = np.triu_indices(len(ids), 1)
        linked = smap.link_radii(ids[i], ids[j]) > r_min
        problems += [f"missing edge ({a}, {b}) inside update cube"
                     for a, b in zip(ids[i[linked]].tolist(), ids[j[linked]].tolist())
                     if b not in smap.adj[a]]

    assigned: set[int] = set()
    for label, seg in smap.segments.items():
        if not seg.members:
            problems.append(f"segment {label} is empty")
            continue
        for nid in seg.members:
            if nid not in smap.node_index:
                problems.append(f"segment {label} references dead node {nid}")
            elif label_of[nid] != label:
                problems.append(f"node {nid} label disagrees with segment {label}")
            assigned.add(nid)
        if connected_components(graph_view(smap, seg.members & smap.adj.keys()).graph,
                                connection="strong")[0] > 1:
            problems.append(f"segment {label} member subgraph is disconnected")
    for nid, label in label_of.items():
        if label is None:
            problems.append(f"node {nid} left unassigned")
        elif label not in smap.segments:
            problems.append(f"node {nid} labeled with dead segment {label}")
        elif nid not in assigned:
            problems.append(f"node {nid} missing from its segment member set")

    # Portals: one per adjacent pair, endpoints consistent, radius maximal.
    best: dict[tuple[int, int], float] = {}
    for (a, b), ir in link.items():
        sa, sb = label_of[a], label_of[b]
        if sa is None or sb is None or sa == sb:
            continue
        pair = (sa, sb) if sa < sb else (sb, sa)
        if ir > best.get(pair, -1.0):
            best[pair] = ir
    for pair, portal in smap.portals.items():
        if pair not in best:
            problems.append(f"portal {pair} has no inter-segment edge")
            continue
        if portal.a not in smap.node_index or portal.b not in smap.node_index:
            problems.append(f"portal {pair} references dead nodes")
            continue
        if label_of[portal.a] != pair[0] or label_of[portal.b] != pair[1]:
            problems.append(f"portal {pair} endpoints in wrong segments")
        ir = link.get((min(portal.a, portal.b), max(portal.a, portal.b)))
        if ir is None:
            problems.append(f"portal {pair} endpoints are not connected")
        elif ir < best[pair]:
            problems.append(f"portal {pair} is not maximal ({ir} < {best[pair]})")
    for pair in best:
        if pair not in smap.portals:
            problems.append(f"adjacent segments {pair} lack a portal")

    # Tables: a view of the segment's edges, the live portal endpoints and
    # their Dijkstra rows, bit-equal to a fresh run of the kernel that built
    # them.
    problems += [f"segment {label} left altered after iteration" for label in sorted(smap.altered)]
    for label, seg in smap.segments.items():
        if seg.ends != smap.segment_portal_nodes(label):
            problems.append(f"segment {label} table ends mismatch its portal nodes")
        if not seg.members <= smap.adj.keys():
            continue  # dead members, reported above
        view, _, dist, pred = smap._portal_tables(label)
        if seg.view is None or not _same_arrays(
                (seg.view.ids, seg.view.graph.indptr, seg.view.graph.indices, seg.view.graph.data),
                (view.ids, view.graph.indptr, view.graph.indices, view.graph.data)):
            problems.append(f"view {label} differs from recomputation")
        if not _same_arrays((seg.dist, seg.pred), (dist, pred)):
            problems.append(f"table {label} differs from recomputation")

    if cube is not None:
        ids = sorted(smap.nodes_in_cube(cube))
        coverers, _ = smap._find_coverers(*smap.node_index.rows(ids), strict=True)
        problems += [f"node {nid} inside update cube is redundant"
                     for nid, wit in zip(ids, coverers) if wit >= 0]
    return problems


def _same_arrays(xs, ys) -> bool:
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


def check_clearance(smap, grid: OccupancyGrid, all_nodes: bool = False) -> list[str]:
    """Radii never exceed the true obstacle distance (full-set recomputation)."""
    if all_nodes or smap.last_cube is None:
        ids = sorted(smap.adj)
    else:
        ids = sorted(smap.nodes_in_cube(smap.last_cube))
    if not ids:
        return []
    index = ObstacleIndex(grid_obstacles(grid, smap.params.frontier_connectivity))
    pos, radii = smap.node_index.rows(ids)
    d = index.nearest_distances(pos)
    eps = smap.params.eps_r
    problems = []
    for nid, r, dist in zip(ids, radii.tolist(), d.tolist()):
        if r > dist + eps:
            problems.append(f"node {nid} radius {r} exceeds clearance {dist}")
    return problems


def check_all(smap, grid: OccupancyGrid | None = None) -> list[str]:
    problems = check_structure(smap)
    if grid is not None:
        problems.extend(check_clearance(smap, grid))
    return problems
