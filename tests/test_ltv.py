import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import (BadMagicError, BuildParams, LtvMap, LtvSegment, PayloadError,
                       SphereMap, TruncatedError, decode, encode, encoded_size,
                       extract, fit_box, misclassified_fraction, size_report)

from spheremap.ltv import GOAL_CLUSTER_RADIUS, _cluster_goals

from conftest import box_room, two_rooms_with_corridor
from oracles import fit_box_per_angle, greedy_goal_clusters


def box_contains_spheres(center, yaw, half, positions, radii, tol=1e-9):
    u = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    v = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
    for p, r in zip(positions, radii):
        d = np.asarray(p, dtype=float) - center
        if abs(d @ u) + r > half[0] + tol:
            return False
        if abs(d @ v) + r > half[1] + tol:
            return False
        if abs(d[2]) + r > half[2] + tol:
            return False
    return True


@st.composite
def sphere_sets(draw):
    """1-40 spheres at float32, as a map keeps them: anywhere in a 100 m box,
    or on a 0.2 m lattice, where symmetric sets tie yaws exactly."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        coord = st.integers(-100, 100).map(lambda k: float(np.float32(0.2 * k)))
    else:
        coord = st.floats(-50.0, 50.0, width=32)
    pos = draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n))
    radius = st.floats(float(np.float32(0.8)), 8.0, width=32)
    radii = draw(st.lists(radius, min_size=n, max_size=n))
    return np.array(pos), np.array(radii)


class TestFitBox:
    def test_single_sphere(self):
        center, yaw, half = fit_box(np.array([[0.0, 0.0, 0.0]]), np.array([2.0]))
        np.testing.assert_allclose(center, [0, 0, 0])
        assert yaw == 0.0
        np.testing.assert_allclose(half, [2, 2, 2])

    def test_diagonal_pair(self):
        pos = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 0.0]])
        rad = np.array([1.0, 1.0])
        center, yaw, half = fit_box(pos, rad)
        assert abs(abs(yaw) - math.pi / 4) < 0.05
        assert max(half[:2]) == pytest.approx(5 * math.sqrt(2) + 1, abs=0.05)
        assert min(half[:2]) == pytest.approx(1.0, abs=0.05)
        assert box_contains_spheres(center, yaw, half, pos, rad, tol=1e-6)

    def test_axis_aligned_row(self):
        pos = np.array([[float(x), 0.0, 0.0] for x in range(6)])
        rad = np.full(6, 0.8)
        center, yaw, half = fit_box(pos, rad)
        assert abs(yaw) < 0.02
        assert half[0] == pytest.approx(2.5 + 0.8, abs=0.02)
        assert half[1] == pytest.approx(0.8, abs=0.02)
        assert half[2] == pytest.approx(0.8, abs=1e-9)

    def test_yaw_canonical_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            pos = rng.uniform(-8, 8, (n, 3))
            rad = rng.uniform(0.3, 2.0, n)
            center, yaw, half = fit_box(pos, rad)
            assert -math.pi / 2 <= yaw < math.pi / 2
            assert box_contains_spheres(center, yaw, half, pos, rad, tol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_box(np.empty((0, 3)), np.empty(0))

    @settings(max_examples=400)  # the reference projects 362 times per example
    @given(sphere_sets())
    def test_matches_the_per_angle_fit(self, spheres):
        center, yaw, half = fit_box(*spheres)
        ref_center, ref_yaw, ref_half = fit_box_per_angle(*spheres)
        assert np.array_equal(center, ref_center) and yaw == ref_yaw
        assert np.array_equal(half, ref_half)


def build_map_on(grid, uavs, **kwargs):
    defaults = dict(cube_side=16.0, voxel_stride=2, ray_count=0,
                    r_exp=3.0, r_merge=8.0)
    defaults.update(kwargs)
    smap = SphereMap(BuildParams(**defaults), seed=0)
    for uav in uavs:
        smap.update_iteration(grid, uav)
    return smap


class TestExtract:
    def test_empty_map(self):
        ltv = extract(SphereMap())
        assert ltv.segments == [] and ltv.edges == [] and len(ltv.goals) == 0

    def test_fully_known_room(self):
        grid = box_room((6.0, 6.0, 3.0))
        smap = build_map_on(grid, [np.array([3.0, 3.0, 1.5])])
        ltv = extract(smap)
        assert len(ltv.segments) == len(smap.segments)
        # fully known world: no frontiers, nothing to explore
        assert all(seg.exploration == 0 for seg in ltv.segments)
        assert len(ltv.goals) == 0

    def test_edges_match_portal_pairs_exactly(self):
        grid, c1, c2, _ = two_rooms_with_corridor()
        smap = build_map_on(grid, [c1 + t * (c2 - c1) for t in np.linspace(0, 1, 5)])
        ltv = extract(smap)
        assert len(ltv.segments) >= 2
        assert set(ltv.edges) == set(smap.portals.keys())

    def test_containment_of_member_spheres(self):
        grid, c1, c2, _ = two_rooms_with_corridor()
        smap = build_map_on(grid, [c1 + t * (c2 - c1) for t in np.linspace(0, 1, 5)])
        ltv = extract(smap)
        by_id = {seg.id: seg for seg in ltv.segments}
        for label, seg in smap.segments.items():
            box = by_id[label]
            pos, rad = smap.node_index.rows(sorted(seg.members))
            # wire values are float32; allow that quantization
            assert box_contains_spheres(box.center, box.yaw, box.half_extents,
                                        pos, rad, tol=1e-4)

    def test_exploration_value_with_frontiers(self):
        # half-revealed room: the unknown half produces frontiers
        grid = box_room((8.0, 8.0, 3.0))
        from spheremap.voxelgrid import UNKNOWN
        grid.states[22:, :, :] = UNKNOWN
        smap = build_map_on(grid, [np.array([2.0, 4.0, 1.5])])
        ltv = extract(smap)
        assert len(smap.frontiers) > 0
        assert any(seg.exploration > 0 for seg in ltv.segments)
        assert len(ltv.goals) >= 1


class TestClusterGoals:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_greedy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        points = rng.uniform((0.0, 0.0, 0.0), (30.0, 30.0, 4.0), (n, 3))
        expected = greedy_goal_clusters(points, GOAL_CLUSTER_RADIUS)
        assert _cluster_goals(points).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_greedy_oracle_on_a_lattice(self, seed):
        # Integer coordinates: squared distances are exact, many points sit
        # exactly on the radius, and interior points tie on neighbour count.
        rng = np.random.default_rng(seed)
        lattice = np.argwhere(np.ones((16, 12, 3), dtype=bool)).astype(float)
        points = lattice[rng.permutation(len(lattice))[:int(rng.integers(50, len(lattice)))]]
        expected = greedy_goal_clusters(points, GOAL_CLUSTER_RADIUS)
        assert len(expected) > 1
        assert _cluster_goals(points).tobytes() == expected.tobytes()

    def test_empty(self):
        assert _cluster_goals(np.empty((0, 3))).shape == (0, 3)

    def test_memory_does_not_grow_with_neighbourhood_size(self):
        # Every point neighbours every other: per-point neighbour lists
        # would hold 4 million entries (about 140 MB).
        points = np.random.default_rng(0).uniform(-1.4, 1.4, (2000, 3))
        tracemalloc.start()
        try:
            goals = _cluster_goals(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(goals) == 1
        assert peak < 2_000_000


def random_ltv(seed):
    rng = np.random.default_rng(seed)
    n_seg = int(rng.integers(0, 6))
    segments = []
    ids = rng.choice(1000, size=n_seg, replace=False) if n_seg else []
    for sid in ids:
        segments.append(LtvSegment(
            id=int(sid),
            center=np.asarray(rng.uniform(-50, 50, 3).astype(np.float32), dtype=float),
            yaw=float(np.float32(rng.uniform(-math.pi / 2, math.pi / 2))),
            half_extents=np.asarray(rng.uniform(0.1, 9, 3).astype(np.float32), dtype=float),
            exploration=int(rng.integers(0, 256)),
            coverage=0))
    edges = []
    if n_seg >= 2:
        for _ in range(int(rng.integers(0, 4))):
            a, b = rng.choice(ids, 2, replace=False)
            edges.append((int(a), int(b)))
    goals = np.asarray(rng.uniform(-50, 50, (int(rng.integers(0, 5)), 3))
                       .astype(np.float32), dtype=float)
    return LtvMap(segments, edges, goals.reshape(-1, 3))


class TestWireFormat:
    def test_empty_is_header_only(self):
        data = encode(LtvMap())
        assert len(data) == 16
        out = decode(data)
        assert out.segments == [] and out.edges == [] and len(out.goals) == 0

    def test_single_segment_is_50_bytes(self):
        ltv = LtvMap(segments=[LtvSegment(1, np.zeros(3), 0.0, np.ones(3))])
        data = encode(ltv)
        assert len(data) == 50
        assert encoded_size(ltv) == 50

    def test_byte_length_formula(self):
        for seed in range(20):
            ltv = random_ltv(seed)
            data = encode(ltv)
            assert len(data) == 16 + 34 * len(ltv.segments) + 8 * len(ltv.edges) \
                + 12 * len(ltv.goals)
            assert len(data) == encoded_size(ltv)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_structural_equality(self, seed):
        ltv = random_ltv(seed)
        out = decode(encode(ltv))
        assert len(out.segments) == len(ltv.segments)
        for a, b in zip(ltv.segments, out.segments):
            assert a.id == b.id
            np.testing.assert_array_equal(a.center, b.center)
            assert a.yaw == b.yaw
            np.testing.assert_array_equal(a.half_extents, b.half_extents)
            assert a.exploration == b.exploration
            assert a.coverage == b.coverage
        assert out.edges == ltv.edges
        np.testing.assert_array_equal(out.goals, ltv.goals)
        assert encode(out) == encode(ltv)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            decode(b"WHAT" + encode(LtvMap())[4:])

    def test_bad_version(self):
        data = bytearray(encode(LtvMap()))
        data[4] = 9
        with pytest.raises(PayloadError):
            decode(bytes(data))

    def test_truncation(self):
        data = encode(random_ltv(1))
        with pytest.raises(TruncatedError):
            decode(data[:8])
        ltv = LtvMap(segments=[LtvSegment(1, np.zeros(3), 0.0, np.ones(3))])
        with pytest.raises(TruncatedError):
            decode(encode(ltv)[:30])

    def test_trailing_bytes(self):
        with pytest.raises(PayloadError):
            decode(encode(LtvMap()) + b"\x00" * 5)

    def test_edge_to_unknown_segment(self):
        ltv = LtvMap(segments=[LtvSegment(1, np.zeros(3), 0.0, np.ones(3))],
                     edges=[(1, 2)])
        with pytest.raises(PayloadError):
            decode(encode(ltv))


class TestSizeReport:
    def test_small_world_report(self):
        grid = box_room((6.0, 6.0, 3.0))
        smap = build_map_on(grid, [np.array([3.0, 3.0, 1.5])])
        ltv = extract(smap)
        ltv_bytes, full_bytes, coarse_bytes = size_report(ltv, grid)
        assert ltv_bytes == encoded_size(ltv)
        assert coarse_bytes < full_bytes

    def test_requires_fine_resolution(self):
        grid = box_room((6.0, 6.0, 6.0), resolution=2.0)
        with pytest.raises(ValueError):
            size_report(LtvMap(), grid)

    def test_misclassified_fraction_bounds(self):
        grid = box_room((6.0, 6.0, 3.0))
        smap = build_map_on(grid, [np.array([3.0, 3.0, 1.5])])
        ltv = extract(smap)
        frac = misclassified_fraction(ltv, grid)
        assert 0.0 <= frac < 1.0
