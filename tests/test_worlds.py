import numpy as np
import pytest

from spheremap import (FREE, OCCUPIED, ConfigError, OccupancyGrid, WorldSpec,
                       generate_world, largest_free_component_fraction,
                       two_route_world)


class TestWorldSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            WorldSpec(kind="donut", extent=(10, 10, 4))

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            WorldSpec(kind="room-grid", extent=(10, 10, 4), room_size_range=(5, 2))
        with pytest.raises(ConfigError):
            WorldSpec(kind="corridor-maze", extent=(10, 10, 4), passage_width=0)

    @pytest.mark.parametrize("bad", [
        {"extent": (float("nan"), 10, 4)}, {"extent": (10, float("inf"), 4)},
        {"resolution": float("nan")}, {"resolution": float("inf")},
        {"corridor_width_range": (2.0, float("inf"))},
        {"room_size_range": (float("nan"), 6.0)},
        {"passage_width": float("inf")}, {"passage_width": float("nan")},
    ])
    def test_non_finite_sizes(self, bad):
        spec = {"kind": "corridor-maze", "extent": (10, 10, 4)} | bad
        with pytest.raises(ConfigError):
            WorldSpec(**spec)


class TestGenerators:
    def test_room_grid_single_room(self):
        spec = WorldSpec(kind="room-grid", extent=(8.0, 8.0, 3.0), seed=1,
                         room_size_range=(6.0, 6.0))
        grid = generate_world(spec)
        free = grid.states == FREE
        assert free.any()
        # occupied shell all around
        assert not free[0, :, :].any() and not free[-1, :, :].any()
        assert not free[:, 0, :].any() and not free[:, -1, :].any()
        assert not free[:, :, 0].any() and not free[:, :, -1].any()
        assert largest_free_component_fraction(grid) == 1.0

    def test_determinism(self):
        for kind in ("corridor-maze", "perforated-cave", "room-grid"):
            spec = WorldSpec(kind=kind, extent=(30.0, 30.0, 4.0), seed=42)
            g1 = generate_world(spec)
            g2 = generate_world(spec)
            assert np.array_equal(g1.states, g2.states)

    def test_seed_changes_world(self):
        a = generate_world(WorldSpec(kind="corridor-maze", extent=(30, 30, 4), seed=1))
        b = generate_world(WorldSpec(kind="corridor-maze", extent=(30, 30, 4), seed=2))
        assert not np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("kind", ["corridor-maze", "perforated-cave", "room-grid"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_connectivity_invariant(self, kind, seed):
        spec = WorldSpec(kind=kind, extent=(40.0, 40.0, 4.0), seed=seed)
        grid = generate_world(spec)
        frac = largest_free_component_fraction(grid)
        assert frac >= 0.5
        assert (grid.states != 0).all()  # fully known: no unknown voxels

    def test_infeasible_corridor(self):
        spec = WorldSpec(kind="corridor-maze", extent=(4.0, 4.0, 3.0), seed=0,
                         corridor_width_range=(6.0, 8.0))
        with pytest.raises(ConfigError):
            generate_world(spec)


class TestTwoRouteWorld:
    def test_structure(self):
        grid, start, goal = two_route_world()
        assert grid.state_at(start) == FREE
        assert grid.state_at(goal) == FREE
        assert largest_free_component_fraction(grid) == 1.0

    def test_narrow_passage_width(self):
        narrow = 2.0
        grid, start, goal = two_route_world(narrow_width=narrow)
        # contiguous free run through the direct passage at mid-x
        x_idx, y_idx, z_idx = grid.world_to_voxel((30.0, 10.0, 2.4))
        row = grid.states[x_idx, :, z_idx]
        lo = hi = y_idx
        while lo > 0 and row[lo - 1] == FREE:
            lo -= 1
        while hi + 1 < len(row) and row[hi + 1] == FREE:
            hi += 1
        free_run = hi - lo + 1
        expected = int(round(narrow / grid.resolution))
        assert abs(free_run - expected) <= 1

    def test_routes_are_disjoint_in_the_middle(self):
        grid, start, goal = two_route_world()
        # a horizontal slice between the two routes is fully occupied
        y_idx = grid.world_to_voxel((30.0, 20.0, 2.4))[1]
        x_idx = grid.world_to_voxel((30.0, 20.0, 2.4))[0]
        z_idx = grid.world_to_voxel((30.0, 20.0, 2.4))[2]
        assert grid.states[x_idx, y_idx, z_idx] == OCCUPIED
