"""Structural invariant checks for a sphere map.

Used by tests and the benchmark harness at mission checkpoints. Every check
returns human-readable violation strings; an empty list means the invariant
suite passed. Checks are exact (no tolerances) except the clearance check,
which allows the configured radius tolerance. Each rule is recomputed with
the kernel that built the map, so a reported problem is never a rounding
disagreement between two copies of one formula: every node's links and step
costs with ``SphereMap._links``, so a missing edge is found anywhere in the
map; every segment's portals with ``_portal_edges``, from both sides of each
pair; the planning tables with ``_portal_tables``; and, inside the last
update cube only, where an update leaves no node redundant, coverage with
``_find_coverers``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components

from .planner import graph_view
from .spatial import ObstacleIndex
from .voxelgrid import OccupancyGrid, grid_obstacles


def check_structure(smap) -> list[str]:
    """Edges and costs against the link rule, segment partition/connectivity,
    portals against the portal rule, tables, redundancy."""
    problems: list[str] = []
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
        if r < smap.params.r_min:
            problems.append(f"node {nid} radius {r} below r_min")

    # Each edge problem once, under (min, max), whichever end found it first.
    wrong: dict[tuple[int, int], str] = {}
    for a, nbrs in smap.adj.items():
        ids, *_, cost = smap._links(a)
        built = dict(zip(ids.tolist(), cost.tolist()))
        if built == nbrs:
            continue
        for b in nbrs.keys() | built.keys():
            edge = (min(a, b), max(a, b))
            if b not in built:
                wrong.setdefault(edge, "edge {} violates the intersection rule")
            elif b not in nbrs:
                wrong.setdefault(edge, "missing edge {}")
            elif nbrs[b] != built[b]:
                wrong.setdefault(edge, "edge {} cost differs from recomputation")
    problems += [wrong[edge].format(edge) for edge in sorted(wrong)]

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

    # Portals: the rule's edge for every adjacent pair, the same from both sides.
    rule: dict[tuple[int, int], tuple[int, int]] = {}
    for label in sorted(smap.segments):
        if not smap.segments[label].members <= smap.adj.keys():
            continue  # dead members, reported above
        for other, edge in smap._portal_edges(label).items():
            pair = (min(label, other), max(label, other))
            if rule.setdefault(pair, edge) != edge:
                problems.append(f"segments {pair} pick different portals")
    for pair in sorted(smap.portals.keys() | rule.keys()):
        portal = smap.portals.get(pair)
        if portal is None:
            problems.append(f"adjacent segments {pair} lack a portal")
        elif pair not in rule:
            problems.append(f"portal {pair} has no inter-segment edge")
        elif (portal.a, portal.b) != rule[pair]:
            problems.append(f"portal {pair} on ({portal.a}, {portal.b}), not on the "
                            f"rule's edge {rule[pair]}")

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

    cube = smap.last_cube
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
