import dataclasses

import numpy as np
import pytest

from spheremap import (UNKNOWN, BuildParams, SphereMap, UpdateCube, check_clearance,
                       check_structure)

from conftest import box_room, lattice_map, segmented_two_rooms


class TestCheckClearance:
    def test_reports_radius_above_world_clearance(self, small_room):
        smap = SphereMap(BuildParams(cube_side=30.0, voxel_stride=2, ray_count=0))
        smap.update_iteration(small_room, np.array([4.0, 4.0, 1.5]))
        assert check_clearance(smap, small_room, all_nodes=True) == []
        nid = min(smap.adj)
        smap._set_radius(nid, smap.node_index.row(nid)[1] + 0.1)
        problems = check_clearance(smap, small_room, all_nodes=True)
        assert len(problems) == 1 and problems[0].startswith(f"node {nid} radius")

    def test_uses_the_maps_frontier_connectivity(self):
        # One unknown voxel inside a walled room. The node sits on the
        # centroid of a free voxel touching it only at a corner: a frontier
        # at 26-connectivity, not at 6, where the nearest frontier is a face
        # neighbour sqrt(2) away.
        grid = box_room((9.0, 9.0, 9.0), resolution=1.0)
        grid.states[5, 5, 5] = UNKNOWN
        p = grid.voxel_center((6, 6, 6))
        for connectivity, expected in ((6, 0), (26, 1)):
            smap = SphereMap(BuildParams(frontier_connectivity=connectivity))
            smap._add_node(p, 1.0)
            assert len(check_clearance(smap, grid)) == expected


class TestCheckStructure:
    @pytest.mark.parametrize("tamper", ["table cost", "cached path", "table key"])
    def test_reports_a_tampered_table_or_cached_path(self, tamper):
        _, smap, _, _ = segmented_two_rooms(2.0, seed=1)
        assert check_structure(smap) == []
        label = min(label for label, seg in smap.segments.items() if len(seg.ends) > 1)
        seg = smap.segments[label]
        at = seg.view.rank(seg.ends[1])  # the path from ends[0] to ends[1]
        if tamper == "table cost":
            seg.dist[0, at] = np.nextafter(seg.dist[0, at], np.inf)
            expected = f"table {label} differs from recomputation"
        elif tamper == "cached path":
            seg.pred[0, at] = -9999  # csgraph's "no predecessor": the path breaks off
            expected = f"table {label} differs from recomputation"
        else:
            del seg.ends[1]
            expected = f"segment {label} table ends mismatch its portal nodes"
        assert expected in check_structure(smap)

    @pytest.mark.parametrize("sides", ["both", "one"])
    def test_reports_a_stored_cost_one_ulp_off(self, sides):
        _, smap, _, _ = segmented_two_rooms(2.0, seed=1)
        a, b = min(smap.edges())
        moved = np.nextafter(smap.adj[a][b], np.inf)
        smap.adj[a][b] = moved
        if sides == "both":
            smap.adj[b][a] = moved
        problems = check_structure(smap)
        assert f"edge ({a}, {b}) cost differs from recomputation" in problems
        assert (f"edge ({a}, {b}) costs differ by direction" in problems) == (sides == "one")

    def test_reports_an_edge_count_off_the_adjacency(self):
        _, smap, _, _ = segmented_two_rooms(2.0, seed=1)
        links = sum(len(nbrs) for nbrs in smap.adj.values())
        assert 2 * smap.edge_count() == links
        smap._edge_count += 1
        assert (f"edge count {smap.edge_count()} disagrees with {links} adjacency entries"
                in check_structure(smap))

    def test_reports_a_segment_left_altered(self):
        _, smap, _, _ = segmented_two_rooms(2.0, seed=1)
        assert not smap.altered and check_structure(smap) == []
        label = min(smap.segments)
        smap._mark_altered(min(smap.segments[label].members))
        assert check_structure(smap) == [f"segment {label} left altered after iteration"]

    def test_link_rule_agrees_with_the_builder_at_r_min(self):
        # A pair from a cave map whose intersection radius sits at r_min to
        # within rounding: the map leaves the edge out, and the validator
        # prices the pair with the map's own kernel, bit for bit.
        smap = SphereMap(BuildParams(r_min=0.8061615522470384))
        for p, r in (((10.100000381469727, 22.299999237060547, 2.0999999046325684),
                      1.280624508857727),
                     ((8.300000190734863, 21.5, 2.0999999046325684), 1.2649109363555908)):
            smap._recompute_edges(smap._add_node(p, r))
        smap.last_cube = UpdateCube((9.2, 21.9, 2.1), 10.0)
        problems = check_structure(smap)
        assert not [p for p in problems
                    if "missing edge" in p or "violates the intersection rule" in p]

    def test_reports_a_portal_on_the_wrong_one_of_two_equally_wide_edges(self):
        # Every lattice edge is 0.866 wide, so the tie rule alone places each
        # portal: on the lowest (a, b), a in the lower label.
        smap = lattice_map()
        assert check_structure(smap) == []
        label_of = smap.segment_of
        for x, y in sorted(smap.edges()):
            (s1, a), (s2, b) = sorted([(label_of[x], x), (label_of[y], y)])
            if s1 != s2 and (smap.portals[(s1, s2)].a, smap.portals[(s1, s2)].b) != (a, b):
                break
        old = smap.portals[(s1, s2)]
        smap.portals[(s1, s2)] = dataclasses.replace(old, a=a, b=b)
        for label in (s1, s2):
            smap._rebuild_cache(label)
        assert check_structure(smap) == [
            f"portal {(s1, s2)} on ({a}, {b}), not on the rule's edge ({old.a}, {old.b})"]

    def test_reports_a_missing_edge_outside_any_update_cube(self):
        smap = lattice_map()
        assert smap.last_cube is None and check_structure(smap) == []

        def on_a_square(a, b):
            # A 4-cycle inside one segment keeps it connected without (a, b).
            seg = smap.segments[smap.segment_of[a]].members
            return b in seg and any(d in smap.adj[c] for c in smap.adj[a].keys() & seg - {b}
                                    for d in smap.adj[b].keys() & seg - {a})

        a, b = next(edge for edge in sorted(smap.edges()) if on_a_square(*edge))
        del smap.adj[a][b], smap.adj[b][a]
        smap._edge_count -= 1
        smap._rebuild_cache(smap.segment_of[a])
        assert check_structure(smap) == [f"missing edge ({a}, {b})"]
