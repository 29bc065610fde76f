import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import (FREE, OCCUPIED, UNKNOWN, BuildParams, ObstacleIndex, OccupancyGrid,
                       Segment, SphereMap, UpdateCube, check_all, load_map, plan_cached,
                       save_map)
from spheremap.geometry import covered_fractions
from spheremap.voxelgrid import frontier_points, surface_points

from conftest import (box_room, lattice_map, same_tables, segment_like_an_update,
                      segmented_two_rooms, spherical_cavity, two_rooms_with_corridor)
from oracles import (all_pairs_links, expand_oracle, nearest_coverer, random_sphere_map,
                     widest_portals)


def make_map(**kwargs):
    defaults = dict(cube_side=30.0, voxel_stride=2, ray_count=0)
    defaults.update(kwargs)
    return SphereMap(BuildParams(**defaults), seed=0)


def add_node(smap, p, r, segment=None):
    nid = smap._add_node(np.asarray(p, dtype=float), r)
    smap._recompute_edges(nid)
    if segment is not None:
        smap.segment_of[nid] = segment
    return nid


def open_space():
    """All-free grid spanning [-10, 10] m on every axis."""
    return OccupancyGrid.filled(0.5, (-10.0, -10.0, -10.0), (40, 40, 40), FREE)


class TestBuildParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BuildParams(r_min=0.0)
        with pytest.raises(ValueError):
            BuildParams(r_exp=20.0, r_merge=5.0)
        with pytest.raises(ValueError):
            BuildParams(kappa=0.0)
        with pytest.raises(ValueError):
            BuildParams(r_cap=0.5)
        with pytest.raises(ValueError, match="frontier_connectivity"):
            BuildParams(frontier_connectivity=7)
        assert BuildParams(frontier_connectivity=26).frontier_connectivity == 26

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            BuildParams(r_min=math.nan, r_cap=math.nan, d_max=math.nan)
        for name in ("r_min", "cube_side", "r_exp", "r_merge", "kappa", "eps_r",
                     "r_cap", "xi", "d_max"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    BuildParams(**{name: value})


class TestEdgeRule:
    def test_edge_iff_intersection_clears_r_min(self):
        smap = make_map()
        a = add_node(smap, (0, 0, 0), 1.0)
        # sqrt(3)/2 > 0.8: connected
        b = add_node(smap, (1, 0, 0), 1.0)
        assert b in smap.adj[a]
        # far sphere: disjoint
        c = add_node(smap, (5, 0, 0), 1.0)
        assert c not in smap.adj[a]
        # overlapping but shallow: intersection radius below r_min
        d = add_node(smap, (0, 0, 1.9), 1.0)
        assert d not in smap.adj[a]


RULE_MAPS = {
    "two-rooms-lattice": lambda: segmented_two_rooms(2.0)[1],
    "two-rooms-rays": lambda: segmented_two_rooms(2.0, seed=1)[1],
    "lattice": lattice_map,
    **{f"random-{seed}": lambda seed=seed: segment_like_an_update(random_sphere_map(seed)[0])
       for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(RULE_MAPS))
def test_links_and_portals_match_the_all_pairs_oracles(name):
    """The builder's link and portal rules against every node pair and a
    global scan of the inter-segment edges."""
    smap = RULE_MAPS[name]()
    assert smap.portals
    assert {nid: set(nbrs) for nid, nbrs in smap.adj.items()} == all_pairs_links(smap)
    assert {pair: (p.a, p.b) for pair, p in smap.portals.items()} == widest_portals(smap)


class TestIsRedundant:
    def test_containment_is_redundant(self):
        smap = make_map()
        small = add_node(smap, (0, 0, 0), 1.0)
        add_node(smap, (0.5, 0, 0), 2.0)
        assert smap.is_redundant(small)

    def test_equal_radius_never_redundant(self):
        smap = make_map()
        a = add_node(smap, (0, 0, 0), 1.0)
        add_node(smap, (0.1, 0, 0), 1.0)
        assert not smap.is_redundant(a)

    def test_partial_coverage_against_monte_carlo(self):
        # nu r=1 at origin, mu r=1.5 at (1.2, 0, 0); MC fraction ~= 0.589
        frac = float(covered_fractions(1.0, np.array([1.2]), np.array([1.5]))[0])
        assert 0.55 < frac < 0.62

        smap_tight = make_map(kappa=0.9)
        nu = add_node(smap_tight, (0, 0, 0), 1.0)
        add_node(smap_tight, (1.2, 0, 0), 1.5)
        assert smap_tight.is_redundant(nu) == (frac >= 0.9)

        smap_loose = make_map(kappa=0.55)
        nu = add_node(smap_loose, (0, 0, 0), 1.0)
        add_node(smap_loose, (1.2, 0, 0), 1.5)
        assert smap_loose.is_redundant(nu) == (frac >= 0.55)


def random_map(seed, kappa=0.6, n=60):
    """Unpruned map of n random spheres in a 6 m box, float32 like real nodes."""
    rng = np.random.default_rng(seed)
    smap = make_map(kappa=kappa)
    for p, r in zip(rng.uniform(-3.0, 3.0, (n, 3)), rng.uniform(0.8, 2.5, n)):
        add_node(smap, p, float(np.float32(r)))
    return smap, rng


class TestCoverageRule:
    """Every redundancy decision agrees with a brute-force whole-map oracle."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("strict", [True, False])
    def test_sweep_agrees_with_single_sphere_test(self, seed, kappa, strict):
        smap, rng = random_map(seed, kappa)
        # Random probes, plus every node and a shrunken copy of it on its own centre.
        live_p, live_r = smap.node_index.rows(list(smap.adj))
        pts = np.concatenate([rng.uniform(-4.0, 4.0, (300, 3)), live_p, live_p])
        pts = np.asarray(np.asarray(pts, dtype=np.float32), dtype=float)
        radii = np.concatenate([rng.uniform(0.5, 2.5, 300), live_r, live_r * 0.9])
        radii = np.asarray(np.asarray(radii, dtype=np.float32), dtype=float)
        ids, dists = smap._find_coverers(pts, radii, strict=strict)
        expected = [nearest_coverer(smap, p, float(r), strict) for p, r in zip(pts, radii)]
        assert ids.tolist() == [-1 if nid is None else nid for nid, _ in expected]
        assert dists.tolist() == [d for _, d in expected]
        assert 0 < np.count_nonzero(ids >= 0) < len(ids)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
    def test_is_redundant_agrees_with_the_oracle(self, seed, kappa):
        smap, _ = random_map(seed, kappa)
        verdicts = {nid: smap.is_redundant(nid) for nid in smap.adj}
        assert verdicts == {nid: nearest_coverer(smap, *smap.node_index.row(nid), True)[0]
                            is not None for nid in smap.adj}
        assert 0 < sum(verdicts.values()) < len(verdicts)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
    def test_expand_adds_what_the_sequential_oracle_adds(self, seed, kappa):
        # Dense candidates in and around a random map: most are covered by
        # the map, by an earlier candidate or by a neighbour that an earlier
        # candidate then removes; some repeat a node's centre or each other.
        smap, rng = random_map(seed, kappa)
        oracle_map, _ = random_map(seed, kappa)
        cands = rng.uniform(-4.0, 4.0, (400, 3))
        cands[::40] = smap.node_index.rows(list(smap.adj)[:10])[0]
        cands[1::50] = cands[:400:50]
        index = ObstacleIndex(rng.uniform(-9.0, 9.0, (60, 3)))
        expected = expand_oracle(oracle_map, index, cands)
        added = []
        add = smap._add_node
        smap._add_node = lambda p, r: added.append((tuple(p.tolist()), float(r))) or add(p, r)
        smap._sample_candidates = lambda *args: cands
        stats = smap.expand(index, open_space(), UpdateCube((0, 0, 0), 8.0), np.zeros(3))
        assert added == expected
        assert stats["added"] == len(expected) > 0

    def test_twin_removed_by_the_loop_still_rules_its_candidate_out(self):
        # The first candidate (r 2.0) covers the node at the origin (r 1.0)
        # at 0.305 >= kappa and removes it; the second candidate sits on that
        # node's centre with r 0.8 and is covered only 0.296 by the first.
        smap = make_map(kappa=0.3)
        add_node(smap, (0, 0, 0), 1.0)
        cands = np.array([[2.15, 0.0, 0.0], [0.0, 0.0, 0.0]])
        index = ObstacleIndex(np.array([[-0.8, 0.0, 0.0], [4.15, 0.0, 0.0]]))
        smap._sample_candidates = lambda *args: cands
        stats = smap.expand(index, open_space(), UpdateCube((0, 0, 0), 8.0), np.zeros(3))
        assert (stats["added"], stats["removed_redundant"]) == (1, 1)
        oracle_map = make_map(kappa=0.3)
        add_node(oracle_map, (0, 0, 0), 1.0)
        assert len(expand_oracle(oracle_map, index, cands)) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_probe_on_a_node_centre_finds_that_node(self, seed):
        smap, _ = random_map(seed)
        for nid in smap.adj:
            p, r_node = smap.node_index.row(nid)
            for r in (r_node, float(np.float32(r_node * 0.5))):
                ids, dists = smap._find_coverers(p[None, :], np.array([r]), strict=False)
                assert (int(ids[0]), dists[0]) == (nid, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_recompute_edges_returns_the_neighbours(self, seed):
        smap, _ = random_map(seed)
        for nid in sorted(smap.adj):
            ids, pos, radii, dists = smap._recompute_edges(nid)
            assert set(ids.tolist()) == set(smap.adj[nid])
            assert len(ids) == len(smap.adj[nid])
            assert pos.tolist() == [smap.node_index.row(int(i))[0].tolist() for i in ids]
            assert radii.tolist() == [smap.node_index.row(int(i))[1] for i in ids]
            p = smap.node_index.row(nid)[0]
            assert dists.tolist() == [float(np.sqrt(np.einsum("i,i", q - p, q - p))) for q in pos]


@st.composite
def surface_probes(draw):
    """kappa, lattice spheres and probes on their surfaces or an eighth of a
    metre beyond: half-metre centres and eighth-metre radii add without
    rounding, so a surface probe lies exactly ``aux`` from its sphere."""
    kappa = draw(st.sampled_from([0.3, 0.5, 0.51, 0.6, 0.9]))
    coord = st.integers(-6, 6).map(lambda k: k / 2)
    centre = st.tuples(coord, coord, coord)
    nodes = draw(st.lists(st.tuples(centre, st.integers(8, 24).map(lambda k: k / 8)),
                          min_size=1, max_size=8))
    probes = []
    for c, big in nodes:
        p = list(c)
        axis, sign = draw(st.integers(0, 2)), draw(st.sampled_from([-1.0, 1.0]))
        p[axis] += sign * (big + draw(st.sampled_from([0.0, 0.125])))
        probes.append((p, draw(st.integers(1, int(big * 8)).map(lambda k: k / 8))))
    return kappa, nodes, probes, draw(st.booleans())


class TestPairKernel:
    """The pairs ``_find_coverers`` tests reach every coverer the oracle finds."""

    @settings(max_examples=400)
    @given(surface_probes())
    def test_surface_probes_agree_with_the_oracle(self, case):
        kappa, nodes, probes, strict = case
        smap = make_map(kappa=kappa)
        for c, big in nodes:
            add_node(smap, c, big)
        pts = np.array([p for p, _ in probes])
        radii = np.array([r for _, r in probes])
        ids, dists = smap._find_coverers(pts, radii, strict=strict)
        expected = [nearest_coverer(smap, p, r, strict) for p, r in probes]
        assert ids.tolist() == [-1 if nid is None else nid for nid, _ in expected]
        assert dists.tolist() == [d for _, d in expected]

    def test_equidistant_coverers_resolve_to_the_lower_id(self):
        # The query set's centre (-1.5, 0, 0) lies nearer the higher id, so
        # only the (distance, id) order picks the lower one for the first probe.
        smap = make_map(kappa=0.6)
        low = add_node(smap, (1.0, 0.0, 0.0), 3.0)
        high = add_node(smap, (-1.0, 0.0, 0.0), 3.0)
        pts = np.array([[0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
        ids, dists = smap._find_coverers(pts, np.array([1.0, 0.5]), strict=True)
        assert ids.tolist() == [low, high]
        assert dists.tolist() == [1.0, 2.0]
        assert nearest_coverer(smap, pts[0], 1.0, True) == (low, 1.0)

    def test_added_sphere_sweeps_a_node_it_covers_without_holding_its_centre(self):
        # At kappa 0.3 the added sphere (r 8 at the origin) holds 0.469 of the
        # node (r 0.8, centre 8.0136 m away) but not its centre, and their
        # intersection circle (r 0.798) is below r_min, so they share no edge.
        smap = make_map(kappa=0.3, r_cap=8.0)
        nid = add_node(smap, (8.0136, 0.0, 0.0), 0.8)
        smap._sample_candidates = lambda *args: np.zeros((1, 3))
        index = ObstacleIndex(np.array([[0.0, 0.0, -20.0]]))
        stats = smap.expand(index, open_space(), UpdateCube((0, 0, 0), 8.0), np.zeros(3))
        assert (stats["added"], stats["removed_redundant"]) == (1, 1)
        assert nid not in smap.node_index
        assert not any(smap.is_redundant(n) for n in smap.adj)


class TestRecomputeAndPrune:
    def test_obstacle_at_node_center_prunes(self):
        smap = make_map()
        add_node(smap, (5, 5, 5), 2.0)
        index = ObstacleIndex(np.array([[5.0, 5.0, 5.0]]))
        stats = smap.recompute_and_prune(index, open_space(), UpdateCube((5, 5, 5), 10.0))
        assert stats["removed_unsafe"] == 1
        assert smap.node_count() == 0

    def test_receding_obstacles_grow_radii_and_connect(self):
        smap = make_map()
        a = add_node(smap, (0, 0, 0), 1.0)
        b = add_node(smap, (2.4, 0, 0), 1.0)
        assert b not in smap.adj[a]
        # single obstacle far away: both radii grow to the oracle distance
        obstacle = np.array([[0.0, 0.0, -4.0]])
        index = ObstacleIndex(obstacle)
        smap.recompute_and_prune(index, open_space(), UpdateCube((1.2, 0, 0), 12.0))
        assert smap.node_index.row(a)[1] == pytest.approx(4.0, abs=1e-6)
        expected_b = float(np.linalg.norm(np.array([2.4, 0, 0]) - obstacle[0]))
        assert smap.node_index.row(b)[1] == pytest.approx(expected_b, abs=1e-5)
        assert b in smap.adj[a]

    def test_concentric_smaller_pruned_after_growth(self):
        smap = make_map()
        near = add_node(smap, (0.2, 0, 0), 1.2)   # ends up closer to the obstacle
        far = add_node(smap, (0, 0, 0), 1.0)      # grows past it and contains it
        index = ObstacleIndex(np.array([[6.0, 0.0, 0.0]]))
        smap.recompute_and_prune(index, open_space(), UpdateCube((0, 0, 0), 8.0))
        assert near not in smap.node_index
        assert far in smap.node_index
        assert smap.node_index.row(far)[1] == pytest.approx(6.0, abs=1e-6)

    def test_node_sealed_in_rock_is_removed(self):
        # The update indexes only the obstacle surface. A node buried in a
        # solid block lies 1.8 m (> r_min) from every surface voxel, so only
        # the centre-voxel check catches it.
        grid = box_room((12.0, 12.0, 12.0))
        smap = make_map()
        nid = add_node(smap, (6.1, 6.1, 6.1), 1.5)
        grid.states[21:41, 21:41, 21:41] = OCCUPIED   # voxel centres 4.1 .. 7.9 m
        stats = []
        prune = smap.recompute_and_prune
        smap.recompute_and_prune = lambda *args: stats.append(prune(*args)) or stats[-1]
        smap.update_iteration(grid, np.array([2.0, 2.0, 2.0]))
        assert nid not in smap.node_index
        assert stats[0]["removed_unsafe"] == 1
        assert check_all(smap, grid) == []


class TestExpand:
    def test_first_expansion_covers_small_room(self, small_room):
        smap = make_map()
        rep = smap.update_iteration(small_room, np.array([4.0, 4.0, 1.5]))
        assert rep.nodes_added >= 1
        assert smap.node_count() >= 1
        assert check_all(smap, small_room) == []

    def test_cube_inside_giant_sphere_adds_nothing(self):
        grid = spherical_cavity(6.0)
        smap = make_map(cube_side=4.0)
        cube = UpdateCube((0.0, 0.0, 0.0), 4.0)
        padded = cube.padded(smap.params.r_cap)
        from spheremap.voxelgrid import frontier_points, obstacle_points
        index = ObstacleIndex.build(obstacle_points(grid, padded),
                                    frontier_points(grid, padded))
        center_r = min(index.nearest_distance(np.zeros(3)), smap.params.r_cap)
        add_node(smap, (0, 0, 0), float(np.float32(center_r)))
        stats = smap.expand(index, grid, cube, np.zeros(3))
        assert stats["added"] == 0

    def test_zero_length_world_no_candidates(self):
        grid = box_room((2.0, 2.0, 2.0))
        grid.states[:] = OCCUPIED
        smap = make_map()
        rep = smap.update_iteration(grid, np.array([1.0, 1.0, 1.0]))
        assert rep.node_count == 0


class TestUpdateIteration:
    def test_stationary_fixpoint(self, small_room):
        smap = make_map()
        uav = np.array([4.0, 4.0, 1.5])
        deltas = []
        for _ in range(6):
            rep = smap.update_iteration(small_room, uav)
            deltas.append((rep.nodes_added, rep.nodes_removed))
        assert deltas[-1] == (0, 0)
        assert check_all(smap, small_room) == []

    def test_report_carries_segment_update_stats(self, small_room):
        smap = make_map()
        rep = smap.update_iteration(small_room, np.array([4.0, 4.0, 1.5]))
        assert rep.counters["segment.created"] >= 1
        assert rep.counters["segment.caches_rebuilt"] == rep.segment_count == len(smap.segments)

    def test_coverage_pairs_count_the_pairs_the_rule_tests(self, small_room):
        smap = make_map()
        tested = []
        covering = smap._covering
        smap._covering = lambda radii, aux, pairs, *rest, **kw: (
            tested.append(len(pairs[0])) or covering(radii, aux, pairs, *rest, **kw))
        uav = np.array([4.0, 4.0, 1.5])
        for _ in range(2):
            tested.clear()
            rep = smap.update_iteration(small_room, uav)
            assert (rep.counters["prune.coverage_pairs"] + rep.counters["expand.coverage_pairs"]
                    == sum(tested) > 0)
        assert rep.counters["prune.coverage_pairs"] > 0

    def test_report_counters_equal_step_stats(self, monkeypatch):
        grid, c1, c2, _ = two_rooms_with_corridor(room=6.0, corridor_len=8.0)
        known = grid.states.copy()
        far_half = grid.states[grid.states.shape[0] // 2:]
        far_half[far_half == FREE] = UNKNOWN
        smap = make_map(cube_side=10.0)
        returned = {}
        for stage, method in (("prune", "recompute_and_prune"), ("expand", "expand"),
                              ("segment", "segment_update")):
            def record(*args, _stage=stage, _step=getattr(SphereMap, method)):
                returned[_stage] = _step(*args)
                return returned[_stage]
            monkeypatch.setattr(SphereMap, method, record)
        seen = {}
        for step, uav in enumerate((c1, 0.5 * (c1 + c2), c1)):
            if step == 2:  # reveal the far half and put a pillar in the first room
                grid.states[:] = known
                grid.states[14:18, 14:18, :] = OCCUPIED
            rep = smap.update_iteration(grid, uav)
            padded = UpdateCube(uav, 10.0).padded(smap.params.r_cap)
            expected = {"index.surface_points": len(surface_points(grid, padded)),
                        "index.frontier_points": len(frontier_points(grid, padded))}
            for stage, stats in returned.items():
                expected.update({f"{stage}.{k}": v for k, v in stats.items()})
            assert rep.counters == expected
            assert list(rep.timings) == ["extract", "index", "prune", "expand", "segment"]
            assert rep.total_time == sum(rep.timings.values())
            seen = {k: max(v, seen.get(k, 0)) for k, v in rep.counters.items()}
        assert all(seen[k] > 0 for k in ("index.frontier_points", "prune.removed_unsafe",
                                          "prune.radius_changed", "expand.added",
                                          "segment.split"))

    def test_degenerate_cube_is_noop(self, small_room):
        smap = make_map()
        rep = smap.update_iteration(small_room, np.array([999.0, 999.0, 999.0]))
        assert rep.node_count == 0
        assert rep.total_time == 0.0

    def test_coverage_grows_monotonically_along_corridor(self):
        grid, c1, c2, _ = two_rooms_with_corridor(room=6.0, corridor_len=8.0)
        smap = make_map(cube_side=10.0, voxel_stride=2)
        free_idx = np.argwhere(grid.states == FREE)
        centers = grid.origin + grid.resolution * (free_idx + 0.5)

        def coverage():
            covered = np.zeros(len(centers), dtype=bool)
            for p, r in zip(*smap.node_index.rows(list(smap.adj))):
                d2 = np.einsum("ij,ij->i", centers - p, centers - p)
                covered |= d2 <= r * r
            return covered.mean()

        fractions = []
        for t in np.linspace(0, 1, 5):
            uav = c1 + t * (c2 - c1)
            smap.update_iteration(grid, uav)
            fractions.append(coverage())
        assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] > fractions[0]

    def test_determinism_with_rays(self, small_room):
        def build():
            smap = SphereMap(BuildParams(cube_side=30.0, voxel_stride=2,
                                         ray_count=32, samples_per_ray=4), seed=9)
            for _ in range(3):
                smap.update_iteration(small_room, np.array([4.0, 4.0, 1.5]))
            return smap

        m1, m2 = build(), build()
        assert sorted(m1.adj) == sorted(m2.adj)
        for nid in m1.adj:
            (p1, r1), (p2, r2) = m1.node_index.row(nid), m2.node_index.row(nid)
            assert np.array_equal(p1, p2)
            assert r1 == r2
        assert m1.segment_of == m2.segment_of
        assert m1.adj == m2.adj
        assert sorted(m1.portals) == sorted(m2.portals)
        for pair in m1.portals:
            pa, pb = m1.portals[pair], m2.portals[pair]
            assert (pa.a, pa.b) == (pb.a, pb.b)
        for label in m1.segments:
            assert same_tables(m1.segments[label], m2.segments[label])


class TestSegmentation:
    def test_single_blob_one_segment_no_portals(self):
        # hand-built connected blob well under r_merge, in open free space
        grid = box_room((12.0, 12.0, 12.0))
        smap = make_map(cube_side=30.0)
        for x in (4.8, 6.0, 7.2):
            for y in (4.8, 6.0, 7.2):
                for z in (5.4, 6.6):
                    add_node(smap, (x, y, z), 1.5)
        smap.segment_update(grid, UpdateCube((6.0, 6.0, 6.0), 30.0))
        assert len(smap.segments) == 1
        assert len(smap.portals) == 0
        seg = next(iter(smap.segments.values()))
        assert len(seg.members) == smap.node_count()

    def test_node_rounded_off_the_cube_face_gets_a_segment(self):
        # The cube's low x face runs through voxel centres (x = 1.3), and
        # float32 rounds candidates there to 1.2999999523, just outside the
        # cube. Tiny r_exp and r_merge keep every segment from growing or
        # merging over them: only the added ids label them.
        grid = box_room((6.0, 6.0, 3.0))
        face = float(grid.voxel_center((7, 0, 0))[0])
        smap = make_map(cube_side=4.0, voxel_stride=1, r_exp=0.5, r_merge=1.0)
        smap.update_iteration(grid, np.array([face + 2.0, 3.0, 1.5]))
        inside = set(smap.nodes_in_cube(smap.last_cube))
        outside = [nid for nid in smap.adj if nid not in inside]
        off = np.abs(smap.node_index.rows(outside)[0] - smap.last_cube.center).max(axis=1)
        assert np.any(off < 2.0 + 1e-6)
        assert all(label is not None for label in smap.segment_of.values())
        assert check_all(smap) == []
        load_map(save_map(smap))

    def test_tied_portal_edges_pick_the_same_edge_from_either_side(self):
        # Edges (0, 3) and (1, 2) are mirror images with equal intersection
        # radii; the portal is (0, 3) whichever segment recomputes it.
        smap = make_map()
        for label in (0, 1):
            smap.segments[label] = Segment(label, set(), np.zeros(3), 0.0)
        for p, label in (((0, 0, 0), 0), ((0, 3, 0), 0), ((1.5, 3, 0), 1), ((1.5, 0, 0), 1)):
            nid = add_node(smap, p, 2.0, label)
            smap.segments[label].members.add(nid)
        assert 3 in smap.adj[0] and 2 in smap.adj[1]
        for label in (1, 0, 1):
            smap._recompute_portals(label)
            portal = smap.portals[(0, 1)]
            assert (portal.a, portal.b) == (0, 3)

    def test_two_rooms_make_multiple_segments_with_portals(self):
        grid, c1, c2, _ = two_rooms_with_corridor()
        smap = make_map(cube_side=16.0, r_exp=3.0, r_merge=8.0)
        for t in np.linspace(0, 1, 5):
            smap.update_iteration(grid, c1 + t * (c2 - c1))
        assert len(smap.segments) >= 2
        assert len(smap.portals) >= 1
        assert check_all(smap, grid) == []
        # the two room centers land in different segments
        from spheremap.planner import _attach
        s1, _ = _attach(smap, c1)
        s2, _ = _attach(smap, c2)
        assert smap.segment_of[s1] != smap.segment_of[s2]

    def test_corridor_deletion_splits_segments(self):
        grid, c1, c2, (x0, x1) = two_rooms_with_corridor()
        smap = make_map(cube_side=16.0, r_exp=3.0, r_merge=8.0)
        for t in np.linspace(0, 1, 5):
            smap.update_iteration(grid, c1 + t * (c2 - c1))
        # wall off the corridor and update over it
        res = grid.resolution
        a = int(round((x0 - grid.origin[0]) / res))
        b = int(round((x1 - grid.origin[0]) / res))
        grid.states[a:b, :, :] = OCCUPIED
        mid = 0.5 * (c1 + c2)
        for _ in range(2):
            smap.update_iteration(grid, mid)
            smap.update_iteration(grid, c1)
            smap.update_iteration(grid, c2)
        assert check_all(smap, grid) == []
        from spheremap.planner import _attach
        s1, _ = _attach(smap, c1)
        s2, _ = _attach(smap, c2)
        lab1, lab2 = smap.segment_of[s1], smap.segment_of[s2]
        assert lab1 != lab2
        # no portal chain connects the two rooms anymore: flood fill over
        # segment adjacency from lab1 must not reach lab2
        adj = {}
        for (a_, b_) in smap.portals:
            adj.setdefault(a_, set()).add(b_)
            adj.setdefault(b_, set()).add(a_)
        seen = {lab1}
        stack = [lab1]
        while stack:
            cur = stack.pop()
            for nxt in adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert lab2 not in seen

    def test_next_query_reads_the_edge_costs_the_update_built(self):
        grid, c1, c2, _ = two_rooms_with_corridor()
        smap = make_map(cube_side=16.0, r_exp=3.0, r_merge=8.0)
        for t in np.linspace(0, 1, 5):
            smap.update_iteration(grid, c1 + t * (c2 - c1))
        # A cached query reads the segment views the update built and never
        # builds the whole-map view.
        built = {label: seg.view for label, seg in smap.segments.items()}
        assert plan_cached(smap, c1, c2, smap.plan_params) is not None
        assert all(seg.view is built[label] for label, seg in smap.segments.items())
        assert smap.map_view is None
