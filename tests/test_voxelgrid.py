import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spheremap import (FREE, OCCUPIED, OUT_OF_BOUNDS, UNKNOWN, BadMagicError,
                       ObstacleIndex, OccupancyGrid, ParseError, PayloadError, TruncatedError,
                       UpdateCube, downsample, frontier_points, load_grid, obstacle_points,
                       raycast_free, save_grid, surface_points)

from conftest import two_rooms_with_corridor
from oracles import frontier_points_all_shifts


def make_grid(dims, state=FREE, resolution=1.0, origin=(0, 0, 0)):
    return OccupancyGrid.filled(resolution, np.asarray(origin, dtype=float), dims, state)


def full_cube(grid):
    center = 0.5 * (grid.world_min() + grid.world_max())
    side = float(np.max(grid.world_max() - grid.world_min())) + 2 * grid.resolution
    return UpdateCube(center, side)


class TestStateAt:
    def test_single_voxel_center(self):
        grid = make_grid((1, 1, 1), FREE)
        assert grid.state_at((0.5, 0.5, 0.5)) == FREE

    def test_out_of_bounds(self):
        grid = make_grid((1, 1, 1), FREE)
        assert grid.state_at((2.0, 0.5, 0.5)) == OUT_OF_BOUNDS
        assert grid.state_at((-0.1, 0.5, 0.5)) == OUT_OF_BOUNDS

    def test_second_voxel(self):
        grid = make_grid((2, 1, 1), FREE)
        grid.states[0, 0, 0] = OCCUPIED
        assert grid.state_at((1.5, 0.5, 0.5)) == FREE
        assert grid.state_at((0.5, 0.5, 0.5)) == OCCUPIED

    def test_many_points(self):
        grid = make_grid((2, 1, 1), FREE)
        grid.states[0, 0, 0] = OCCUPIED
        pts = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [2.0, 0.5, 0.5], [-0.1, 0.5, 0.5]])
        assert grid.states_at(pts).tolist() == [OCCUPIED, FREE, OUT_OF_BOUNDS, OUT_OF_BOUNDS]
        assert grid.states_at(pts.reshape(2, 2, 3)).tolist() == [[OCCUPIED, FREE],
                                                                 [OUT_OF_BOUNDS, OUT_OF_BOUNDS]]

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyGrid(0.0, np.zeros(3), np.zeros((1, 1, 1), dtype=np.uint8))


class TestObstaclePoints:
    def test_all_free(self):
        grid = make_grid((3, 3, 3), FREE)
        assert len(obstacle_points(grid, full_cube(grid))) == 0

    def test_single_occupied_centroid(self):
        grid = make_grid((4, 4, 4), FREE, resolution=0.5, origin=(1, 2, 3))
        grid.states[1, 2, 3] = OCCUPIED
        pts = obstacle_points(grid, full_cube(grid))
        assert pts.shape == (1, 3)
        np.testing.assert_allclose(pts[0], [1 + 0.5 * 1.5, 2 + 0.5 * 2.5, 3 + 0.5 * 3.5])

    def test_full_cube_brute_force(self):
        # 3x3x3 occupied block inside a larger free grid, cube spanning it all
        grid = make_grid((6, 6, 6), FREE)
        grid.states[1:4, 1:4, 1:4] = OCCUPIED
        pts = obstacle_points(grid, full_cube(grid))
        expected = {(i + 0.5, j + 0.5, k + 0.5)
                    for i in range(1, 4) for j in range(1, 4) for k in range(1, 4)}
        assert len(pts) == 27
        assert {tuple(p) for p in pts} == expected

    def test_cube_clipping(self):
        grid = make_grid((10, 10, 10), OCCUPIED)
        cube = UpdateCube((1.0, 1.0, 1.0), 2.0)
        pts = obstacle_points(grid, cube)
        assert len(pts) == 8


def brute_force_surface(grid, cube):
    """Occupied voxels of the cube with a face neighbour that is outside the
    cube or not occupied, by a straight scan."""
    (i0, j0, k0), (i1, j1, k1) = cube.voxel_range(grid)
    out = set()
    for i in range(i0, i1):
        for j in range(j0, j1):
            for k in range(k0, k1):
                if grid.states[i, j, k] != OCCUPIED:
                    continue
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    a, b, c = i + di, j + dj, k + dk
                    if not (i0 <= a < i1 and j0 <= b < j1 and k0 <= c < k1) \
                            or grid.states[a, b, c] != OCCUPIED:
                        out.add(tuple(grid.voxel_center((i, j, k))))
                        break
    return out


class TestSurfacePoints:
    def test_solid_block_keeps_its_shell(self):
        grid = make_grid((7, 7, 7), FREE)
        grid.states[1:6, 1:6, 1:6] = OCCUPIED
        got = {tuple(p) for p in surface_points(grid, full_cube(grid))}
        assert len(got) == 5 ** 3 - 3 ** 3
        assert (3.5, 3.5, 3.5) not in got

    def test_cube_edge_counts_as_open(self):
        # Voxels of a solid grid are surface where the cube cuts them off.
        grid = make_grid((10, 10, 10), OCCUPIED)
        cube = UpdateCube((5.0, 5.0, 5.0), 4.0)
        got = {tuple(p) for p in surface_points(grid, cube)}
        assert got == brute_force_surface(grid, cube)
        assert len(got) == 4 ** 3 - 2 ** 3

    def test_subset_of_obstacle_points_bit_for_bit(self):
        grid, _, _, _ = two_rooms_with_corridor(room=4.0, corridor_len=4.0)
        cube = UpdateCube((6.0, 2.0, 1.5), 5.0)
        full = {p.tobytes() for p in obstacle_points(grid, cube)}
        thin = surface_points(grid, cube)
        assert 0 < len(thin) < len(full)
        assert {p.tobytes() for p in thin} <= full

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_grids_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid((8, 7, 6), UNKNOWN, resolution=0.4, origin=(-1.0, 0.3, 2.0))
        grid.states[:] = rng.choice([UNKNOWN, FREE, OCCUPIED], p=[0.1, 0.2, 0.7],
                                    size=grid.states.shape)
        cube = UpdateCube(grid.origin + rng.uniform(0.0, 3.0, 3), 2.0)
        got = {tuple(p) for p in surface_points(grid, cube)}
        assert got == brute_force_surface(grid, cube)


@st.composite
def grids_with_cubes(draw):
    """Small grids of mixed states with a solid box in them, and a cube that
    may be clipped by the grid edge or cut through the solid."""
    states = draw(arrays(np.uint8, st.tuples(*[st.integers(1, 7)] * 3),
                         elements=st.sampled_from([UNKNOWN, FREE, OCCUPIED])))
    lo = [draw(st.integers(0, n - 1)) for n in states.shape]
    hi = [draw(st.integers(a + 1, n)) for a, n in zip(lo, states.shape)]
    states[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = OCCUPIED
    resolution = draw(st.sampled_from([0.2, 0.4, 1.0]))
    origin = np.array(draw(st.tuples(*[st.floats(-50.0, 50.0)] * 3)))
    grid = OccupancyGrid(resolution, origin, states)
    extent = grid.world_max() - grid.world_min()
    center = grid.origin + extent * np.array(draw(st.tuples(*[st.floats(-0.2, 1.2)] * 3)))
    side = draw(st.floats(0.5, 1.5)) * float(extent.max())
    return grid, UpdateCube(center, side), draw(st.integers(0, 2 ** 32 - 1))


class TestSurfaceExactness:
    @given(grids_with_cubes())
    def test_thinned_index_gives_bit_equal_distances(self, case):
        grid, cube, seed = case
        frontiers = frontier_points(grid, cube)
        thin = ObstacleIndex.build(surface_points(grid, cube), frontiers)
        full = ObstacleIndex.build(obstacle_points(grid, cube), frontiers)
        open_cells = np.argwhere(grid.states != OCCUPIED)
        inside = np.random.default_rng(seed).uniform(0.01, 0.99, size=open_cells.shape)
        queries = np.concatenate([grid.origin + grid.resolution * (open_cells + 0.5),
                                  grid.origin + grid.resolution * (open_cells + inside)])
        assert np.array_equal(thin.nearest_distances(queries),
                              full.nearest_distances(queries))


def brute_force_frontiers(grid):
    """Straight 6-neighbor scan used as the independent oracle."""
    nx, ny, nz = grid.states.shape
    out = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if grid.states[i, j, k] != FREE:
                    continue
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    a, b, c = i + di, j + dj, k + dk
                    if not (0 <= a < nx and 0 <= b < ny and 0 <= c < nz):
                        out.append((i, j, k))
                        break
                    if grid.states[a, b, c] == UNKNOWN:
                        out.append((i, j, k))
                        break
    return {tuple(grid.voxel_center(v)) for v in out}


class TestFrontierPoints:
    def test_boundary_counts_as_unknown(self):
        grid = make_grid((4, 4, 4), FREE)
        pts = frontier_points(grid, full_cube(grid))
        got = {tuple(p) for p in pts}
        assert got == brute_force_frontiers(grid)
        # interior voxel is not a frontier
        assert (1.5, 1.5, 1.5) not in got
        assert (0.5, 0.5, 0.5) in got

    def test_single_free_surrounded_by_unknown(self):
        grid = make_grid((3, 3, 3), UNKNOWN)
        grid.states[1, 1, 1] = FREE
        pts = frontier_points(grid, full_cube(grid))
        assert pts.shape == (1, 3)
        np.testing.assert_allclose(pts[0], [1.5, 1.5, 1.5])

    def test_half_plane_split(self):
        grid = make_grid((10, 10, 1), UNKNOWN)
        grid.states[:, :5, :] = FREE
        got = {tuple(p) for p in frontier_points(grid, full_cube(grid))}
        assert got == brute_force_frontiers(grid)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_grids_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid((8, 7, 6), UNKNOWN)
        grid.states[:] = rng.integers(0, 3, size=grid.states.shape).astype(np.uint8)
        got = {tuple(p) for p in frontier_points(grid, full_cube(grid))}
        assert got == brute_force_frontiers(grid)

    def test_cube_restriction(self):
        grid = make_grid((10, 10, 10), FREE)
        cube = UpdateCube((1.0, 1.0, 1.0), 2.0)
        got = {tuple(p) for p in frontier_points(grid, cube)}
        all_frontiers = brute_force_frontiers(grid)
        expected = {p for p in all_frontiers if all(0.0 <= v <= 2.0 for v in p)}
        assert got == expected

    @given(st.data())
    def test_matches_the_all_shifts_scan(self, data):
        # Known grids take the border-only path; a grid with any unknown
        # voxel takes the full scan. Cubes may leave the grid on any side.
        known = data.draw(st.booleans())
        states = data.draw(arrays(np.uint8, st.tuples(*[st.integers(1, 6)] * 3),
                                  elements=st.sampled_from([FREE, OCCUPIED] if known
                                                           else [UNKNOWN, FREE, OCCUPIED])))
        grid = OccupancyGrid(1.0, np.zeros(3), states)
        extent = grid.world_max() - grid.world_min()
        center = extent * np.array(data.draw(st.tuples(*[st.floats(-0.3, 1.3)] * 3)))
        cube = UpdateCube(center, data.draw(st.floats(0.5, 1.5)) * float(extent.max()))
        for connectivity in (6, 26):
            assert np.array_equal(frontier_points(grid, cube, connectivity),
                                  frontier_points_all_shifts(grid, cube, connectivity))

    def test_bad_connectivity(self):
        grid = make_grid((2, 2, 2), FREE)
        with pytest.raises(ValueError):
            frontier_points(grid, full_cube(grid), connectivity=8)


class TestRaycast:
    def test_zero_length(self):
        grid = make_grid((3, 3, 3), FREE)
        assert raycast_free(grid, (1.5, 1.5, 1.5), (1.5, 1.5, 1.5))

    def test_free_corridor(self):
        grid = make_grid((10, 3, 3), FREE)
        assert raycast_free(grid, (0.5, 1.5, 1.5), (9.5, 1.5, 1.5))

    def test_blocked_corridor(self):
        grid = make_grid((10, 3, 3), FREE)
        grid.states[5, 1, 1] = OCCUPIED
        assert not raycast_free(grid, (0.5, 1.5, 1.5), (9.5, 1.5, 1.5))

    def test_endpoint_not_free(self):
        grid = make_grid((3, 3, 3), FREE)
        grid.states[0, 0, 0] = OCCUPIED
        assert not raycast_free(grid, (0.5, 0.5, 0.5), (2.5, 2.5, 2.5))

    def test_out_of_bounds_endpoint(self):
        grid = make_grid((3, 3, 3), FREE)
        assert not raycast_free(grid, (0.5, 0.5, 0.5), (5.0, 0.5, 0.5))

    def test_traversal_enumeration(self):
        # Diagonal through a grid with one blocking voxel on the diagonal.
        grid = make_grid((5, 5, 1), FREE)
        grid.states[2, 2, 0] = OCCUPIED
        assert not raycast_free(grid, (0.5, 0.5, 0.5), (4.5, 4.5, 0.5))
        grid.states[2, 2, 0] = FREE
        assert raycast_free(grid, (0.5, 0.5, 0.5), (4.5, 4.5, 0.5))

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid((8, 8, 8), FREE)
        occ = rng.random(grid.states.shape) < 0.2
        grid.states[occ] = OCCUPIED
        for _ in range(50):
            a = rng.uniform(0.01, 7.99, 3)
            b = rng.uniform(0.01, 7.99, 3)
            assert raycast_free(grid, a, b) == raycast_free(grid, b, a)


class TestDownsample:
    def test_identity(self):
        grid = make_grid((4, 4, 4), FREE)
        grid.states[0, 0, 0] = OCCUPIED
        out = downsample(grid, 1)
        assert np.array_equal(out.states, grid.states)
        assert out.resolution == grid.resolution

    def test_occupied_priority(self):
        grid = make_grid((2, 2, 2), FREE)
        grid.states[1, 0, 1] = OCCUPIED
        out = downsample(grid, 2)
        assert out.states.shape == (1, 1, 1)
        assert out.states[0, 0, 0] == OCCUPIED

    def test_free_over_unknown(self):
        grid = make_grid((2, 2, 2), UNKNOWN)
        grid.states[0, 1, 0] = FREE
        out = downsample(grid, 2)
        assert out.states[0, 0, 0] == FREE

    @pytest.mark.parametrize("seed", [0, 7])
    def test_block_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid((4, 4, 4), UNKNOWN)
        grid.states[:] = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        out = downsample(grid, 2)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    block = grid.states[2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * k:2 * k + 2]
                    if (block == OCCUPIED).any():
                        expected = OCCUPIED
                    elif (block == FREE).any():
                        expected = FREE
                    else:
                        expected = UNKNOWN
                    assert out.states[i, j, k] == expected

    def test_ceil_division_pads_unknown(self):
        grid = make_grid((3, 3, 3), OCCUPIED)
        out = downsample(grid, 2)
        assert out.states.shape == (2, 2, 2)
        # corner block is pure padding except one occupied voxel
        assert out.states[1, 1, 1] == OCCUPIED

    def test_never_downgrades_occupied(self):
        rng = np.random.default_rng(3)
        grid = make_grid((9, 9, 9), UNKNOWN)
        grid.states[:] = rng.integers(0, 3, size=(9, 9, 9)).astype(np.uint8)
        out = downsample(grid, 3)
        occ = np.argwhere(grid.states == OCCUPIED)
        for i, j, k in occ:
            assert out.states[i // 3, j // 3, k // 3] == OCCUPIED

    def test_bad_factor(self):
        grid = make_grid((2, 2, 2), FREE)
        with pytest.raises(ValueError):
            downsample(grid, 0)


class TestVoxgridFormat:
    def test_single_voxel_round_trip(self):
        grid = make_grid((1, 1, 1), OCCUPIED, resolution=0.25, origin=(1, -2, 3))
        data = save_grid(grid)
        again = save_grid(load_grid(data))
        assert data == again

    def test_corrupted_magic(self):
        data = save_grid(make_grid((1, 1, 1), FREE))
        with pytest.raises(BadMagicError):
            load_grid(b"XXXX" + data[4:])

    def test_truncated(self):
        data = save_grid(make_grid((2, 2, 2), FREE))
        with pytest.raises(TruncatedError):
            load_grid(data[:10])
        with pytest.raises(TruncatedError):
            load_grid(data[:len(data) - 1])

    @pytest.mark.parametrize("n", [4_000_000_000, 100_000])
    def test_oversized_dims(self, n):
        data = bytearray(save_grid(make_grid((1, 1, 1), FREE)))
        struct.pack_into("<3I", data, 4 + 32, n, n, n)
        with pytest.raises(ParseError):
            load_grid(bytes(data))

    def test_dims_beyond_the_runs_present(self):
        # One flipped dims byte: the runs cover 182 x 42 x 17 voxels, and the
        # header asks for 3.49 TiB.
        data = bytearray(save_grid(two_rooms_with_corridor()[0]))
        struct.pack_into("<3I", data, 4 + 32, 182, 1241514026, 17)
        with pytest.raises(TruncatedError):
            load_grid(bytes(data))

    def test_zero_length_run(self):
        data = bytearray(save_grid(make_grid((2, 2, 2), FREE)))
        data[4 + 44:4 + 44] = bytes([FREE, 0, 0, 0, 0])
        with pytest.raises(PayloadError):
            load_grid(bytes(data))

    def test_surplus_bytes(self):
        data = save_grid(make_grid((2, 2, 2), FREE))
        with pytest.raises(PayloadError):
            load_grid(data + b"\x00")

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_origin(self, axis, value):
        data = bytearray(save_grid(make_grid((1, 1, 1), FREE)))
        struct.pack_into("<d", data, 4 + 8 + 8 * axis, value)
        with pytest.raises(PayloadError, match="origin"):
            load_grid(bytes(data))

    def test_bad_state_byte(self):
        data = bytearray(save_grid(make_grid((1, 1, 1), FREE)))
        data[-5] = 9
        with pytest.raises(PayloadError):
            load_grid(bytes(data))

    def test_seeded_random_round_trip(self):
        rng = np.random.default_rng(99)
        grid = make_grid((64, 64, 64), UNKNOWN, resolution=0.2)
        grid.states[:] = rng.integers(0, 3, size=(64, 64, 64)).astype(np.uint8)
        loaded = load_grid(save_grid(grid))
        assert np.array_equal(loaded.states, grid.states)
        assert loaded.resolution == grid.resolution
        np.testing.assert_array_equal(loaded.origin, grid.origin)

    def test_x_fastest_ordering(self):
        # states[1,0,0] immediately follows states[0,0,0] on the wire
        grid = make_grid((2, 1, 1), FREE)
        grid.states[1, 0, 0] = OCCUPIED
        data = save_grid(grid)
        runs = data[4 + 8 + 24 + 12:]
        assert runs == bytes([FREE, 1, 0, 0, 0, OCCUPIED, 1, 0, 0, 0])
