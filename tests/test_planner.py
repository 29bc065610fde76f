import itertools
import math
import time

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from spheremap import (FREE, OCCUPIED, BuildParams, ClearanceField, ObstacleIndex, PlannerParams, Portal,
                       Segment, SphereMap, astar_nodes, astar_sphere_graph, check_structure,
                       downsample, evaluate_path, grid_astar, load_map, plan_cached, rrt_star,
                       save_map, transition_cost)
from spheremap.planner import _attach, _chain_cost, _route, graph_view
from spheremap.voxelgrid import grid_obstacles

from conftest import (box_room, same_tables, segment_like_an_update, segmented_two_rooms,
                      two_rooms_with_corridor, wall_gap_room)
from oracles import (_attach_oracle, best_first, distance_to, graph_costs, plan_cached_two_dijkstra,
                     random_sphere_map, ucs_node_cost, ucs_optimal)

PARAMS = PlannerParams(xi=7.0, d_max=2.0, r_min=0.8)


class TestTransitionCost:
    def test_clearance_above_cutoff_zeroes_risk(self):
        dl, dz = transition_cost((0, 0, 0), 3.0, (4, 0, 0), 3.0, PlannerParams(d_max=2.0))
        assert (dl, dz) == (4.0, 0.0)
        dl, dz = transition_cost([(0, 0, 0), (0, 1, 0)], [3.0, 0.5], (4, 0, 0), 3.0,
                                 PlannerParams(d_max=2.0))
        assert dl.tolist() == [4.0, math.sqrt(17.0)]
        assert dz[0] == 0.0 and dz[1] > 0.0

    def test_direct_substitution(self):
        dl, dz = transition_cost((0, 0, 0), 1.0, (2, 0, 0), 1.0,
                                 PlannerParams(xi=7.0, d_max=2.0, r_min=0.8))
        assert dl == pytest.approx(2.0)
        assert dz == pytest.approx(14.0)

    def test_zero_weight(self):
        params = PlannerParams(xi=0.0, d_max=2.0, r_min=0.8)
        for r in (0.9, 1.5, 5.0):
            _, dz = transition_cost((0, 0, 0), r, (3, 1, 2), r, params)
            assert dz == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlannerParams(xi=-1.0)
        with pytest.raises(ValueError):
            PlannerParams(d_max=0.5, r_min=0.8)
        for bad in ({"xi": math.nan}, {"xi": math.inf}, {"d_max": math.inf},
                    {"d_max": math.nan}, {"r_min": math.nan}):
            with pytest.raises(ValueError):
                PlannerParams(**bad)

    @pytest.mark.parametrize("quantize", [False, True])
    def test_batch_rounds_as_the_one_dimensional_norm(self, quantize):
        # The bit-identity of batched and one-at-a-time step costs rests on
        # sqrt(vecdot) rounding each row as np.linalg.norm of that row does.
        rng = np.random.default_rng(3)
        p1 = rng.normal(size=(5000, 3)) * rng.uniform(0.01, 100.0, (5000, 1))
        p2 = rng.uniform(-10.0, 10.0, (5000, 3))
        if quantize:
            p1, p2 = p1.astype(np.float32).astype(float), p2.astype(np.float32).astype(float)
        r1, r2 = rng.uniform(0.8, 3.0, 5000), rng.uniform(0.8, 3.0, 5000)
        dl, dz = transition_cost(p1, r1, p2, r2, PARAMS)
        one = [transition_cost(a, ra, b, rb, PARAMS) for a, ra, b, rb in zip(p1, r1, p2, r2)]
        assert dl.tolist() == [float(np.linalg.norm(a - b)) for a, b in zip(p1, p2)]
        assert dz.tolist() == [float(z) for _, z in one]

    def test_single_waypoint_chain_costs_nothing(self):
        assert _chain_cost(np.array([[1.0, 2.0, 3.0]]), np.array([0.5]), PARAMS) == (0.0, 0.0)

    def test_chain_sums_steps_in_path_order(self):
        rng = np.random.default_rng(4)
        waypoints = np.cumsum(rng.normal(size=(300, 3)), axis=0)
        clearances = rng.uniform(0.8, 3.0, 300)
        length = risk = 0.0
        for i in range(299):
            dl, dz = transition_cost(waypoints[i], clearances[i],
                                     waypoints[i + 1], clearances[i + 1], PARAMS)
            length += float(dl)
            risk += float(dz)
        assert _chain_cost(waypoints, clearances, PARAMS) == (length, risk)


class TestAttach:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        smap, start, goal = random_sphere_map(seed)
        rng = np.random.default_rng(seed)
        probes = [start, goal] + list(rng.uniform(-2.0, 22.0, (20, 3)))
        for p in probes:
            assert _attach(smap, p) == _attach_oracle(smap, p)

    def test_tie_picks_the_lower_id(self):
        smap, ids = hand_map([((0, 0, 0), 1.5), ((2, 0, 0), 1.5), ((1, 3, 0), 1.0)])
        probe = (1.0, 0.0, 0.0)
        assert _attach(smap, probe) == _attach_oracle(smap, probe) == (ids[0], 0.5)


def edge_traversable(p1, r1, p2, r2, r_min):
    """Whether a sphere map with this r_min joins the two spheres by an edge."""
    smap = SphereMap(BuildParams(r_cap=8.0, r_min=r_min), seed=0)
    a = smap._add_node(np.asarray(p1, dtype=float), r1)
    b = smap._add_node(np.asarray(p2, dtype=float), r2)
    smap._recompute_edges(b)
    return a in smap.adj[b]


class TestEdgeTraversable:
    def test_containment(self):
        assert edge_traversable((0, 0, 0), 1.6, (0, 0, 0), 1.6, 0.8)

    def test_disjoint(self):
        assert not edge_traversable((0, 0, 0), 1.0, (5, 0, 0), 1.0, 0.8)

    def test_intersection_formula_case(self):
        # sqrt(3)/2 ~= 0.866 > 0.8
        assert edge_traversable((0, 0, 0), 1.0, (1, 0, 0), 1.0, 0.8)
        assert not edge_traversable((0, 0, 0), 1.0, (1, 0, 0), 1.0, 0.87)


def hand_map(chain, segments=None, portals=None):
    """SphereMap with hand-placed nodes; chain = [(pos, r), ...]."""
    smap = SphereMap(BuildParams(r_cap=8.0), seed=0)
    ids = []
    for p, r in chain:
        nid = smap._add_node(np.asarray(p, dtype=float), r)
        smap._recompute_edges(nid)
        ids.append(nid)
    if segments:
        for label, members in segments.items():
            smap.segments[label] = Segment(label, set(members), np.zeros(3), 0.0)
            for nid in members:
                smap.segment_of[nid] = label
            smap._refresh_bounds(label)
    if portals:
        for (s1, s2), (a, b) in portals.items():
            smap.portals[(s1, s2)] = Portal(a, b, float(smap.link_radii([a], [b])[0]))
    return smap, ids


class TestAstarSphereGraph:
    def test_start_equals_goal(self):
        smap, _ = hand_map([((0, 0, 0), 2.0)])
        res = astar_sphere_graph(smap, (0.1, 0, 0), (0.1, 0, 0), PARAMS)
        assert res is not None
        assert res.cost == 0.0
        assert len(res.waypoints) == 1

    def test_two_node_chain(self):
        smap, ids = hand_map([((0, 0, 0), 1.5), ((2, 0, 0), 1.5)])
        start, goal = np.array([0.0, 0, 0]), np.array([2.0, 0, 0])
        res = astar_sphere_graph(smap, start, goal, PARAMS)
        assert res is not None
        np.testing.assert_allclose(res.waypoints[1], smap.node_index.row(ids[0])[0])
        np.testing.assert_allclose(res.waypoints[2], smap.node_index.row(ids[1])[0])
        # forced route: cost is the chained increments
        oracle = ucs_optimal(smap, start, goal, PARAMS)
        assert res.cost == oracle[2]

    def test_uncovered_endpoints_fail(self):
        smap, _ = hand_map([((0, 0, 0), 1.0)])
        assert astar_sphere_graph(smap, (5, 5, 5), (0, 0, 0), PARAMS) is None
        assert astar_sphere_graph(smap, (0, 0, 0), (5, 5, 5), PARAMS) is None

    def test_disconnected_components_fail(self):
        smap, _ = hand_map([((0, 0, 0), 1.5), ((10, 0, 0), 1.5)])
        assert astar_sphere_graph(smap, (0, 0, 0), (10, 0, 0), PARAMS) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence(self, seed):
        smap, start, goal = random_sphere_map(seed)
        res = astar_sphere_graph(smap, start, goal, PARAMS)
        oracle = ucs_optimal(smap, start, goal, PARAMS)
        if res is None:
            assert oracle is None
        else:
            assert oracle is not None
            assert res.cost == oracle[2]
            assert res.length == oracle[0]
            assert res.risk == oracle[1]

    def test_heuristic_admissible_on_random_graphs(self):
        # straight-line distance never exceeds the oracle-optimal remaining cost
        for seed in range(5):
            smap, start, goal = random_sphere_map(seed, max_nodes=25)
            oracle = ucs_optimal(smap, start, goal, PARAMS)
            if oracle is None:
                continue
            h = float(np.linalg.norm(np.asarray(start) - np.asarray(goal)))
            assert h <= oracle[2] + 1e-9

    def test_xi_monotonicity(self):
        smap, start, goal = random_sphere_map(2, max_nodes=40)
        risks = []
        for xi in (0.0, 1.0, 7.0, 50.0):
            res = astar_sphere_graph(smap, start, goal,
                                     PlannerParams(xi=xi, d_max=2.0, r_min=0.8))
            if res is None:
                pytest.skip("fixture disconnected")
            risks.append(res.risk / max(xi, 1e-12) if xi else None)
        # optimal raw risk integral is non-increasing in xi
        raw = [r for r in risks if r is not None]
        assert all(b <= a + 1e-9 for a, b in zip(raw, raw[1:]))

    def test_xi_zero_reduces_to_shortest_path(self):
        smap, start, goal = random_sphere_map(4, max_nodes=40)
        params0 = PlannerParams(xi=0.0, d_max=2.0, r_min=0.8)
        res = astar_sphere_graph(smap, start, goal, params0)
        oracle = ucs_optimal(smap, start, goal, params0)
        if res is None:
            assert oracle is None
        else:
            assert res.cost == oracle[2]
            assert res.risk == 0.0


class TestAstarNodes:
    @pytest.mark.parametrize("seed", range(5))
    def test_cost_matches_uniform_cost_oracle(self, seed):
        smap, _, _ = random_sphere_map(seed)
        ids = sorted(smap.adj)
        for a, b in [(ids[0], ids[-1]), (ids[1], ids[len(ids) // 2]), (ids[2], ids[2])]:
            found = astar_nodes(smap, a, b, PARAMS)
            oracle = ucs_node_cost(smap, a, b, PARAMS)
            if found is None:
                assert oracle is None
                continue
            path, cost = found
            assert (path[0], path[-1]) == (a, b)
            assert all(v in smap.adj[u] for u, v in zip(path, path[1:]))
            assert cost == pytest.approx(oracle, rel=1e-12)


def node_ids(smap, waypoints):
    """Sphere ids of a plan's interior waypoints."""
    by_pos = {tuple(smap.node_index.row(nid)[0]): nid for nid in smap.adj}
    return [by_pos[tuple(p)] for p in waypoints[1:-1]]


class TestPlanCached:
    def make_two_segment_map(self):
        chain = [((0.0, 0, 0), 1.6), ((2.0, 0, 0), 1.6),
                 ((4.0, 0, 0), 1.6), ((6.0, 0, 0), 1.6)]
        segments = {0: [0, 1], 1: [2, 3]}
        portals = {(0, 1): (1, 2)}
        smap, ids = hand_map(chain, segments, portals)
        for label in segments:
            smap._rebuild_cache(label)
        return smap

    def test_two_segments_one_portal_decomposition(self):
        smap = self.make_two_segment_map()
        start = np.array([0.0, 0.3, 0.0])
        goal = np.array([6.0, -0.3, 0.0])
        res = plan_cached(smap, start, goal, PARAMS)
        assert res is not None
        node_pts = [smap.node_index.row(i)[0] for i in (0, 1, 2, 3)]
        expected = np.vstack([start] + node_pts + [goal])
        np.testing.assert_allclose(res.waypoints, expected)
        # cost decomposes into start->portal, crossing, portal->goal, using
        # the store's (float32-quantized) radii
        radii = [smap.node_index.row(i)[1] for i in (0, 1, 2, 3)]
        margins = ([radii[0] - float(np.linalg.norm(start - node_pts[0]))]
                   + radii
                   + [radii[3] - float(np.linalg.norm(goal - node_pts[3]))])
        pts = [start] + node_pts + [goal]
        L = Z = 0.0
        for i in range(5):
            dl, dz = transition_cost(pts[i], margins[i], pts[i + 1], margins[i + 1], PARAMS)
            L += dl
            Z += dz
        assert res.cost == pytest.approx(L + Z, rel=1e-12)

    def test_same_segment_equals_full_graph_astar(self):
        # both endpoints in segment 0; the full-graph route stays inside it
        smap = self.make_two_segment_map()
        start = np.array([0.0, 0.2, 0.0])
        goal = np.array([2.0, -0.2, 0.0])
        cached = plan_cached(smap, start, goal, PARAMS)
        direct = astar_sphere_graph(smap, start, goal, PARAMS)
        assert cached is not None and direct is not None
        np.testing.assert_array_equal(cached.waypoints, direct.waypoints)
        assert cached.cost == pytest.approx(direct.cost, rel=1e-12)

    def test_crosses_cached_path_from_higher_to_lower_endpoint(self):
        # segments 0 | 1 | 2 along x; segment 1's table holds the path
        # from portal node 2 to 4 and the query walks it backwards, 4 -> 3 -> 2
        chain = [((2.0 * i, 0, 0), 1.6) for i in range(7)]
        segments = {0: [0, 1], 1: [2, 3, 4], 2: [5, 6]}
        portals = {(0, 1): (1, 2), (1, 2): (4, 5)}
        smap, ids = hand_map(chain, segments, portals)
        for label in segments:
            smap._rebuild_cache(label)
        assert smap.segments[1].ends == [2, 4]
        start = np.array([12.0, 0.3, 0.0])
        goal = np.array([0.0, -0.3, 0.0])
        res = plan_cached(smap, start, goal, PARAMS)
        assert res is not None
        path = node_ids(smap, res.waypoints)
        assert path == [6, 5, 4, 3, 2, 1, 0]
        assert all(v in smap.adj[u] for u, v in zip(path, path[1:]))
        assert res.cost == sum(_chain_cost(res.waypoints, res.clearances, PARAMS))

    def test_same_segment_direct_route_beats_meta_route(self):
        # both endpoints attach to node 0; the meta route out to portal
        # node 1 and back exists but costs more than staying at node 0
        smap = self.make_two_segment_map()
        assert smap.segment_portal_nodes(0) == [1]
        start = np.array([0.0, 0.3, 0.0])
        goal = np.array([0.3, -0.3, 0.0])
        res = plan_cached(smap, start, goal, PARAMS)
        assert res is not None
        assert node_ids(smap, res.waypoints) == [0]
        assert res.cost == sum(_chain_cost(res.waypoints, res.clearances, PARAMS))

    def test_same_segment_tie_keeps_the_direct_route(self):
        # Unit spheres on a 1 m lattice, every edge costing exactly 8, with
        # start and goal on node centres (no endpoint step). Segment 0 runs
        # from node 0 at (0, 0) up x = 1 to node 5 at (1, 3), plus portal
        # node 1 at (0, 3) beside it; one-node segments at (0, 1) and
        # (0, 2) lead from node 0 to node 1. Both routes cost exactly 32,
        # and the outside one reaches portal node 1 at 24, before the goal
        # settles: the direct route must keep the tie.
        xy = [(0, 0), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (0, 1), (0, 2)]
        chain = [((x, y, 0.0), 1.0) for x, y in xy]
        segments = {0: [0, 1, 2, 3, 4, 5], 1: [6], 2: [7]}
        portals = {(0, 1): (0, 6), (0, 2): (1, 7), (1, 2): (6, 7)}
        smap, _ = hand_map(chain, segments, portals)
        for label in segments:
            smap._rebuild_cache(label)
        assert {w for nbrs in smap.adj.values() for w in nbrs.values()} == {8.0}
        start, goal = np.zeros(3), np.array([1.0, 3.0, 0.0])
        res = plan_cached(smap, start, goal, PARAMS)
        assert res is not None and res.cost == 32.0
        assert node_ids(smap, res.waypoints) == [0, 2, 3, 4, 5]
        assert astar_sphere_graph(smap, start, goal, PARAMS).cost == 32.0

    def test_goal_portal_edge_is_not_charged_twice(self):
        # segment 0 is a U from node 0 round to node 6; a two-segment bridge
        # (nodes 7 | 8) joins its tips. The goal sits at node 5, one step
        # past the bridge's goal-side portal node 6, and the bridge route
        # is the cheaper one; charging the 6 -> goal step on top of
        # g_dist[6] made the U look cheaper.
        u = [(0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4)]
        chain = [((x, y, 0.0), 1.6) for x, y in u + [(-1.5, 1.0), (-1.5, 3.0)]]
        segments = {0: list(range(7)), 1: [7], 2: [8]}
        portals = {(0, 1): (0, 7), (1, 2): (7, 8), (0, 2): (6, 8)}
        smap, ids = hand_map(chain, segments, portals)
        for label in segments:
            smap._rebuild_cache(label)
        start = np.array([0.0, -0.3, 0.0])
        goal = np.array([2.3, 4.0, 0.0])
        res = plan_cached(smap, start, goal, PARAMS)
        full = astar_sphere_graph(smap, start, goal, PARAMS)
        assert res is not None and full is not None
        assert node_ids(smap, res.waypoints) == [0, 7, 8, 6, 5]
        np.testing.assert_array_equal(res.waypoints, full.waypoints)
        assert res.cost == sum(_chain_cost(res.waypoints, res.clearances, PARAMS))

    def test_cached_cost_at_least_full_cost(self):
        grid, c1, c2, _ = two_rooms_with_corridor()
        smap = SphereMap(BuildParams(cube_side=16.0, voxel_stride=2, ray_count=0,
                                     r_exp=3.0, r_merge=8.0), seed=0)
        for t in np.linspace(0, 1, 5):
            smap.update_iteration(grid, c1 + t * (c2 - c1))
        cached = plan_cached(smap, c1, c2, PARAMS)
        full = astar_sphere_graph(smap, c1, c2, PARAMS)
        assert cached is not None and full is not None
        assert cached.cost >= full.cost - 1e-9
        assert cached.cost <= 1.5 * full.cost

    def test_topological_disconnection(self):
        smap = self.make_two_segment_map()
        del smap.portals[(0, 1)]
        del smap.adj[1][2]
        del smap.adj[2][1]
        for label in (0, 1):  # as an update refreshes the tables after a cut
            smap._rebuild_cache(label)
        res = plan_cached(smap, np.array([0.0, 0, 0]), np.array([6.0, 0, 0]), PARAMS)
        assert res is None


def query_points(smap, n=24):
    """n node centres spread over the map's ids, each nudged off its centre."""
    ids = sorted(smap.adj)
    pos, radii = smap.node_index.rows(ids[::max(len(ids) // n, 1)][:n])
    return pos + 0.3 * radii[:, None] * np.array([0.6, -0.48, 0.64])


def same_plans(a, b):
    """Both None, or the same waypoints, clearances, length and risk."""
    if a is None or b is None:
        return a is None and b is None
    return (np.array_equal(a.waypoints, b.waypoints) and np.array_equal(a.clearances, b.clearances)
            and (a.length, a.risk) == (b.length, b.risk))


@pytest.fixture(scope="module", params=[0, 1, 2])
def grown_map(request):
    return segmented_two_rooms(2.0, seed=request.param)


class TestPortalTables:
    """The node-to-portal tables replace the per-query endpoint searches."""

    def test_plans_match_the_two_dijkstra_planner(self, grown_map):
        _, smap, _, _ = grown_map
        assert sum(len(smap.segment_portal_nodes(label)) > 1 for label in smap.segments) > 5
        segments_crossed = []
        for a, b in itertools.combinations(query_points(smap), 2):
            res = plan_cached(smap, a, b, smap.plan_params)
            assert same_plans(res, plan_cached_two_dijkstra(smap, a, b, smap.plan_params))
            if res is not None:
                segments_crossed.append(len({smap.segment_of[i]
                                             for i in node_ids(smap, res.waypoints)}))
        # same-segment queries, and queries through cached portal-pair paths
        assert min(segments_crossed) == 1 and max(segments_crossed) >= 4

    def test_lattice_ties_keep_the_cost(self):
        # On a voxel lattice many paths cost the same up to rounding, and a
        # search from the portal may settle another of them than a search
        # from the endpoint did: the costs agree, the waypoints need not.
        _, smap, _, _ = segmented_two_rooms(2.0)
        for a, b in itertools.combinations(query_points(smap, 12), 2):
            res = plan_cached(smap, a, b, smap.plan_params)
            ref = plan_cached_two_dijkstra(smap, a, b, smap.plan_params)
            assert (res is None) == (ref is None)
            if res is not None:
                assert res.cost == pytest.approx(ref.cost, rel=1e-12)

    def test_search_weights_are_the_maps(self, grown_map):
        _, smap, _, _ = grown_map
        flat = PlannerParams(xi=0.0)
        for a, b in itertools.combinations(query_points(smap, 12), 2):
            res = plan_cached(smap, a, b, flat)
            ref = plan_cached(smap, a, b, smap.plan_params)
            assert (res is None) == (ref is None)
            if res is not None:
                np.testing.assert_array_equal(res.waypoints, ref.waypoints)
                assert (res.length, res.risk) == _chain_cost(res.waypoints, res.clearances, flat)
                assert res.risk == 0.0

    def test_live_tables_plan_like_a_reloaded_map(self):
        grid, smap, c1, c2 = segmented_two_rooms(2.0, seed=1)
        # Block part of room 1 and revisit it: room 1's segments change,
        # while room 2 keeps the tables of the first pass.
        grid.states[10:20, 10:20, :] = OCCUPIED
        for p in (c1, c1 + np.array([1.0, 1.0, 0.0]), 0.5 * (c1 + c2)):
            smap.update_iteration(grid, p)
        loaded = load_map(save_map(smap))
        assert all(same_tables(loaded.segments[label], seg)
                   for label, seg in smap.segments.items())
        for a, b in itertools.combinations(query_points(smap), 2):
            assert same_plans(plan_cached(smap, a, b, smap.plan_params),
                              plan_cached(loaded, a, b, smap.plan_params))


def lattice_map(shape=(6, 5, 2)):
    """Unit spheres on a 1 m lattice. Each links its face neighbours
    (intersection radius 0.866 > r_min) but no diagonal one (0.707), and
    every edge costs exactly 1 + 7 * (2 - 1)^2 = 8, so equal-cost paths
    abound and every path sum is exact."""
    smap = SphereMap(BuildParams(r_exp=2.5, r_merge=5.0))
    for p in itertools.product(*map(range, shape)):
        smap._add_node(np.array(p, dtype=float), 1.0)
    for nid in sorted(smap.adj):
        smap._recompute_edges(nid)
    return segment_like_an_update(smap)


@pytest.fixture(params=["random-0", "random-1", "random-2", "random-3", "lattice"])
def kernel_map(request):
    if request.param == "lattice":
        return lattice_map()
    return segment_like_an_update(random_sphere_map(int(request.param[-1]), max_nodes=60)[0])


class TestSphereGraphKernel:
    """csgraph over the map's views against the dict-of-lists cost table
    and the heap search they replaced (``oracles.graph_costs``,
    ``oracles.best_first``): every distance bit for bit."""

    def test_lattice_edges_cost_exactly_eight(self):
        smap = lattice_map()
        assert {w for nbrs in smap.adj.values() for w in nbrs.values()} == {8.0}
        assert sum(len(smap.segment_portal_nodes(label)) > 1 for label in smap.segments) > 3

    @pytest.mark.parametrize("params", [PARAMS, PlannerParams(xi=0.0), PlannerParams(d_max=3.0)])
    def test_full_graph_distances(self, kernel_map, params):
        smap = kernel_map
        adj = graph_costs(smap, params)
        ids = sorted(smap.adj)
        for a, b in itertools.product(ids[::5], ids[::3]):
            found = astar_nodes(smap, a, b, params)
            old = best_first(adj, {a: 0.0}, b, distance_to(smap, smap.node_index.row(b)[0]))
            assert (found is None) == (old is None)
            if found is not None:
                assert found[1] == old[0][b]

    def test_in_segment_distances(self, kernel_map):
        smap = kernel_map
        adj = graph_costs(smap, PARAMS)
        for label, seg in smap.segments.items():
            members = sorted(seg.members)
            for a, b in itertools.product(members[::2], members[::3]):
                found = _route(graph_view(smap, seg.members, PARAMS), a, b)
                old = best_first(adj, {a: 0.0}, b,
                                 distance_to(smap, smap.node_index.row(b)[0], seg.members),
                                 seg.members)
                assert found[1] == old[0][b]

    def test_table_distances(self, kernel_map):
        smap = kernel_map
        adj = graph_costs(smap, smap.plan_params)
        tables = 0
        for seg in smap.segments.values():
            for e, dist in zip(seg.ends, seg.dist):
                g, _ = best_first(adj, {e: 0.0}, members=seg.members)
                assert dist.tolist() == [g[m] for m in seg.view.ids.tolist()]
                tables += 1
        assert tables > 0

    def test_lattice_reload_keeps_tables_and_paths(self):
        smap = lattice_map()
        loaded = load_map(save_map(smap))
        for label, seg in smap.segments.items():
            assert same_tables(loaded.segments[label], seg)

    def test_zero_length_edge_stays_an_edge(self):
        smap = SphereMap(BuildParams(r_exp=1.2, r_merge=2.4))
        a, b, c, d = (smap._add_node(np.array(p, dtype=float), 1.0)
                      for p in ((0, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)))
        for nid in (a, b, c, d):
            smap._recompute_edges(nid)
        assert smap.adj[a][b] == 0.0 and smap.edge_count() == 4
        segment_like_an_update(smap)
        assert check_structure(smap) == []
        # Unit spheres and r_exp = 1.2 give segments {a, b}, {c} and {d}.
        seg = smap.segments[smap.segment_of[a]]
        assert seg.members == {a, b} and len(smap.segments) == 3
        assert smap.segment_portal_nodes(seg.label) == seg.ends == [a]
        assert seg.dist.tolist() == [[0.0, 0.0]]
        assert astar_nodes(smap, b, a, PARAMS) == ([b, a], 0.0)
        assert _route(graph_view(smap, seg.members, PARAMS), b, a) == ([b, a], 0.0)
        assert astar_nodes(smap, b, d, PARAMS)[1] == 2 * smap.adj[c][d]
        view = graph_view(smap, {a, b})
        assert view.graph.nnz == 2 and connected_components(view.graph)[0] == 1
        for label, seg in smap.segments.items():
            inside = sum(nb in seg.members for m in seg.members for nb in smap.adj[m])
            assert seg.view.graph.nnz == inside
            assert np.isfinite(seg.dist).all()
        res = plan_cached(smap, np.zeros(3), np.array([2.0, 0.0, 0.0]), PARAMS)
        full = astar_sphere_graph(smap, np.zeros(3), np.array([2.0, 0.0, 0.0]), PARAMS)
        assert res.cost == full.cost


def corridor_grid(n=12, width=5, resolution=1.0):
    dims = (n, width + 2, width + 2)
    grid = box_room(((n - 2) * resolution, width * resolution, width * resolution),
                    resolution)
    return grid


class TestClearanceField:
    def test_world_obstacles_on_coarse_grid(self):
        world, _, _ = wall_gap_room()
        coarse = downsample(world, 2)
        fine = ClearanceField(world)
        free = coarse.states == FREE
        centers = coarse.origin + coarse.resolution * (np.argwhere(free) + 0.5)
        # the coarse grid's own centroids overstate the world's clearance here
        assert np.any(ClearanceField(coarse).field[free]
                      > fine.nearest_distances(centers) + 0.05)
        field = ClearanceField(coarse, obstacles=grid_obstacles(world))
        np.testing.assert_array_equal(field.field[free], fine.nearest_distances(centers))
        assert np.all(field.field[~free] == 0.0)
        p = np.array([5.2, 3.3, 1.6])
        assert field.nearest_distance(p) == fine.nearest_distance(p)

    def test_no_obstacles_reads_inf_on_free_voxels(self):
        grid = box_room((4.0, 4.0, 4.0), resolution=1.0)
        field = ClearanceField(grid, obstacles=np.empty((0, 3)))
        free = grid.states == FREE
        assert np.all(np.isinf(field.field[free]))
        assert np.all(field.field[~free] == 0.0)
        assert field.nearest_distance((1.0, 1.0, 1.0)) == math.inf

    def test_coarse_grid_path_keeps_world_clearance(self):
        world, start, goal = wall_gap_room()
        coarse = downsample(world, 2)
        field = ClearanceField(coarse, obstacles=grid_obstacles(world))
        fine = ClearanceField(world)
        for mode in ("length-only", "safety"):
            res = grid_astar(coarse, start, goal, PARAMS, mode, field=field)
            assert res is not None
            assert evaluate_path(res.waypoints, fine, PARAMS)[3] > PARAMS.r_min


class TestGridAstar:
    def test_straight_corridor_length_only(self):
        # free corridor of 10 voxels along x; start/goal at the ends
        grid = box_room((10.0, 5.0, 5.0), resolution=1.0)
        field = ClearanceField(grid)
        start = grid.voxel_center((1, 3, 3))
        goal = grid.voxel_center((10, 3, 3))
        res = grid_astar(grid, start, goal, PARAMS, mode="length-only", field=field)
        assert res is not None
        assert res.length == pytest.approx(9.0)
        assert res.mode == "grid-length"

    def test_fully_occupied_separator(self):
        grid = box_room((10.0, 5.0, 5.0), resolution=1.0)
        grid.states[5, :, :] = OCCUPIED
        field = ClearanceField(grid)
        res = grid_astar(grid, grid.voxel_center((1, 3, 3)),
                         grid.voxel_center((10, 3, 3)), PARAMS, field=field)
        assert res is None

    def test_safety_mode_trades_length_for_risk(self):
        # wall pocket next to the straight route: safety mode detours
        grid = box_room((20.0, 9.0, 5.0), resolution=1.0)
        grid.states[8:12, 1:5, :] = OCCUPIED   # block half the corridor width
        field = ClearanceField(grid)
        start = grid.voxel_center((1, 6, 3))
        goal = grid.voxel_center((18, 6, 3))
        safety = grid_astar(grid, start, goal, PARAMS, mode="safety", field=field)
        length = grid_astar(grid, start, goal, PARAMS, mode="length-only", field=field)
        assert safety is not None and length is not None
        s_eval = evaluate_path(safety.waypoints, field, PARAMS)
        l_eval = evaluate_path(length.waypoints, field, PARAMS)
        assert s_eval[1] <= l_eval[1]          # risk no worse
        assert s_eval[0] >= l_eval[0] - 1e-9   # usually longer
        assert safety.cost <= length.cost + 1e-9

    def test_optimality_against_dijkstra(self):
        # small random grid: A* cost equals an exhaustive Dijkstra
        rng = np.random.default_rng(5)
        grid = box_room((8.0, 8.0, 4.0), resolution=1.0)
        occ = rng.random(grid.states.shape) < 0.1
        grid.states[occ] = OCCUPIED
        field = ClearanceField(grid)
        params = PlannerParams(xi=7.0, d_max=2.0, r_min=0.4)
        start = grid.voxel_center((1, 1, 2))
        goal = grid.voxel_center((8, 8, 2))
        res = grid_astar(grid, start, goal, params, field=field)
        if res is None:
            pytest.skip("fixture blocked")
        # brute-force Dijkstra over the same voxel graph
        import heapq
        free = (grid.states == FREE) & (field.field > params.r_min)
        dist = {tuple(grid.world_to_voxel(start)): 0.0}
        heap = [(0.0, tuple(grid.world_to_voxel(start)))]
        done = set()
        goal_vox = tuple(grid.world_to_voxel(goal))
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            if u == goal_vox:
                break
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    for dk in (-1, 0, 1):
                        if (di, dj, dk) == (0, 0, 0):
                            continue
                        v = (u[0] + di, u[1] + dj, u[2] + dk)
                        if not all(0 <= v[i] < grid.states.shape[i] for i in range(3)):
                            continue
                        if not free[v] or v in done:
                            continue
                        dl = math.sqrt(di * di + dj * dj + dk * dk)
                        m = max(0.0, params.d_max - (field.field[u] + field.field[v]) / 2.0)
                        alt = d + dl + params.xi * m * m * dl
                        if alt < dist.get(v, math.inf):
                            dist[v] = alt
                            heapq.heappush(heap, (alt, v))
        assert goal_vox in dist
        assert res.cost == pytest.approx(dist[goal_vox], rel=1e-9)


class TestRrtStar:
    def test_goal_within_one_step(self):
        grid = box_room((10.0, 10.0, 10.0), resolution=1.0)
        field = ClearanceField(grid)
        start = np.array([4.0, 5.0, 5.0])
        goal = np.array([4.8, 5.0, 5.0])
        res = rrt_star(grid, start, goal, PARAMS, seed=0, field=field)
        assert res is not None
        assert len(res.waypoints) == 2
        np.testing.assert_allclose(res.waypoints[0], start)
        np.testing.assert_allclose(res.waypoints[-1], goal)

    def test_walled_off_goal_times_out(self):
        grid = box_room((12.0, 6.0, 6.0), resolution=1.0)
        grid.states[6, :, :] = OCCUPIED
        field = ClearanceField(grid)
        res = rrt_star(grid, np.array([2.0, 3.0, 3.0]), np.array([10.0, 3.0, 3.0]),
                       PARAMS, timeout=1.0, seed=0, field=field, max_iters=2000)
        assert res is None

    @pytest.mark.parametrize("seed", range(10))
    def test_seed_sweep_open_box(self, seed):
        grid = box_room((20.0, 20.0, 20.0), resolution=1.0)
        field = ClearanceField(grid)
        start = np.array([3.0, 3.0, 10.0])
        goal = np.array([17.0, 17.0, 10.0])
        res = rrt_star(grid, start, goal, PARAMS, timeout=10.0, seed=seed, field=field)
        assert res is not None
        _, _, _, min_clear = evaluate_path(res.waypoints, field, PARAMS)
        assert min_clear > PARAMS.r_min

    def test_deterministic_under_seed(self):
        grid = box_room((15.0, 15.0, 8.0), resolution=1.0)
        field = ClearanceField(grid)
        start = np.array([2.0, 2.0, 4.0])
        goal = np.array([13.0, 13.0, 4.0])
        r1 = rrt_star(grid, start, goal, PARAMS, seed=5, field=field)
        r2 = rrt_star(grid, start, goal, PARAMS, seed=5, field=field)
        assert r1 is not None and r2 is not None
        np.testing.assert_array_equal(r1.waypoints, r2.waypoints)


class TestEvaluatePath:
    def test_single_waypoint(self):
        index = ObstacleIndex(np.array([[3.0, 0.0, 0.0]]))
        L, Z, J, mc = evaluate_path(np.array([[0.0, 0.0, 0.0]]), index, PARAMS)
        assert (L, Z, J) == (0.0, 0.0, 0.0)
        assert mc == pytest.approx(3.0)

    def test_two_points_above_cutoff(self):
        index = ObstacleIndex(np.array([[0.0, 0.0, -5.0]]))
        wps = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        L, Z, J, mc = evaluate_path(wps, index, PARAMS)
        assert L == pytest.approx(3.0)
        assert Z == 0.0
        assert J == pytest.approx(3.0)
        assert mc == pytest.approx(5.0)

    def test_self_consistency_with_planner(self):
        grid = box_room((10.0, 6.0, 6.0), resolution=0.5)
        field = ClearanceField(grid)
        start = grid.voxel_center((2, 6, 6))
        goal = grid.voxel_center((18, 6, 6))
        res = grid_astar(grid, start, goal, PARAMS, field=field)
        assert res is not None
        L, Z, J, _ = evaluate_path(res.waypoints, field, PARAMS)
        assert L == pytest.approx(res.length, rel=1e-6)
        assert Z == pytest.approx(res.risk, rel=1e-6)

    def test_sphere_plan_self_consistency(self):
        # endpoint clearances are attach margins, so only length and safety
        # are compared against the re-measured path
        grid, c1, c2, _ = two_rooms_with_corridor()
        smap = SphereMap(BuildParams(cube_side=16.0, voxel_stride=2, ray_count=0,
                                     r_exp=3.0, r_merge=8.0), seed=0)
        for t in np.linspace(0, 1, 5):
            smap.update_iteration(grid, c1 + t * (c2 - c1))
        field = ClearanceField(grid)
        for res in (astar_sphere_graph(smap, c1, c2, PARAMS),
                    plan_cached(smap, c1, c2, PARAMS)):
            assert res is not None
            L, _, _, mc = evaluate_path(res.waypoints, field, PARAMS)
            assert L == pytest.approx(res.length, rel=1e-6)
            assert mc > PARAMS.r_min
