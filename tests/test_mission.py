import numpy as np
import pytest

from spheremap import (FREE, OCCUPIED, UNKNOWN, BuildParams, MissionTrace,
                       OccupancyGrid, build_spheremap, check_all, reveal,
                       run_mission, sweep_positions)

from spheremap.mission import _fan_directions

from conftest import box_room, two_rooms_with_corridor
from oracles import reveal_per_ray

FAST_TRACE = dict(sensor_range=10.0, az_step_deg=4.0, el_step_deg=4.0,
                  el_span_deg=30.0)
FAST_PARAMS = dict(cube_side=14.0, voxel_stride=2, ray_count=16, samples_per_ray=4)


class TestReveal:
    def test_reveals_room_and_stops_at_walls(self):
        world = box_room((8.0, 8.0, 3.0))
        working = OccupancyGrid.filled(world.resolution, world.origin,
                                       world.states.shape, UNKNOWN)
        trace = MissionTrace(np.array([[4.0, 4.0, 1.5]]), **FAST_TRACE)
        reveal(working, world, trace.waypoints[0], trace)
        assert working.state_at((4.0, 4.0, 1.5)) == FREE
        # some wall voxels revealed occupied, nothing flipped wrongly
        revealed = working.states != UNKNOWN
        assert (working.states[revealed] == world.states[revealed]).all()
        assert (working.states == OCCUPIED).any()

    def test_walls_shadow_space_behind(self):
        world = box_room((20.0, 4.0, 3.0))
        world.states[50, :, :] = OCCUPIED  # divider at x = 9.8..10
        working = OccupancyGrid.filled(world.resolution, world.origin,
                                       world.states.shape, UNKNOWN)
        trace = MissionTrace(np.array([[3.0, 2.0, 1.5]]), **FAST_TRACE)
        reveal(working, world, trace.waypoints[0], trace)
        behind = working.states[55:, :, :]
        assert (behind == UNKNOWN).all()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("where", ["inside", "outside"])
    def test_matches_per_ray_oracle(self, seed, where):
        # 4 m of range at 0.1 m steps is 40 samples, so rays cross several
        # marching blocks, and most leave the 3.2 x 2.4 x 1.6 m grid.
        rng = np.random.default_rng(seed)
        world = OccupancyGrid(0.2, rng.uniform(-1.0, 1.0, 3),
                              rng.choice([FREE, OCCUPIED], (16, 12, 8), p=[0.93, 0.07]))
        if where == "inside":
            pos = world.origin + rng.uniform(0.2, 0.8, 3) * (world.world_max() - world.origin)
        else:
            pos = world.world_max() + rng.uniform(0.05, 0.5, 3)
        trace = MissionTrace(pos[None, :], sensor_range=4.0, az_step_deg=9.0,
                             el_step_deg=9.0, el_span_deg=45.0)
        start = rng.choice([UNKNOWN, FREE], world.states.shape, p=[0.9, 0.1]).astype(np.uint8)
        working = OccupancyGrid(world.resolution, world.origin, start.copy())
        expected = OccupancyGrid(world.resolution, world.origin, start.copy())
        reveal(working, world, pos, trace)
        reveal_per_ray(expected, world, pos, _fan_directions(trace), 0.1, 40)
        assert np.array_equal(working.states, expected.states)
        assert (working.states != start).any() == (where == "inside")


class TestRunMission:
    def test_single_waypoint_trace(self):
        world = box_room((8.0, 8.0, 3.0))
        trace = MissionTrace(np.array([[4.0, 4.0, 1.5]]), **FAST_TRACE)
        result = run_mission(world, trace, BuildParams(**FAST_PARAMS), seed=0)
        assert len(result.reports) == 1
        assert result.smap.node_count() > 0

    def test_corridor_flythrough_covers_revealed_space(self):
        from oracles import coverable_mask, covered_mask, free_centroids

        world, c1, c2, _ = two_rooms_with_corridor(room=6.0, corridor_len=8.0)
        trace = MissionTrace(np.array([c1 + t * (c2 - c1)
                                       for t in np.linspace(0, 1, 8)]),
                             sensor_range=12.0, az_step_deg=2.0, el_step_deg=2.0,
                             el_span_deg=80.0)
        result = run_mission(world, trace, BuildParams(**FAST_PARAMS), seed=0)
        working = result.working
        centers = free_centroids(working)
        covered = covered_mask(result.smap, centers)
        # 95% of the voxels any valid sphere set could reach; narrow-corridor
        # corner pockets are geometrically out of reach at this r_min
        coverable = coverable_mask(working, centers, result.smap.params.r_min,
                                   result.smap.params.r_cap)
        assert covered[coverable].mean() >= 0.95
        assert covered.mean() >= 0.85
        assert check_all(result.smap, working) == []

    def test_same_seed_reproduces_reports(self):
        world = box_room((8.0, 8.0, 3.0))
        trace = MissionTrace(np.array([[3.0, 4.0, 1.5], [5.0, 4.0, 1.5]]), **FAST_TRACE)

        def run():
            res = run_mission(world, trace, BuildParams(**FAST_PARAMS), seed=4)
            return [(r.node_count, r.edge_count, r.segment_count, r.nodes_added,
                     r.nodes_removed) for r in res.reports]

        assert run() == run()

    def test_checkpoint_callback(self):
        world = box_room((8.0, 8.0, 3.0))
        trace = MissionTrace(np.tile(np.array([[4.0, 4.0, 1.5]]), (4, 1)), **FAST_TRACE)
        seen = []
        run_mission(world, trace, BuildParams(**FAST_PARAMS), seed=0,
                    checkpoint=lambda smap, working, i: seen.append(i),
                    checkpoint_every=2)
        assert seen == [1, 3]


class TestSweepBuild:
    def test_positions_cover_free_space(self):
        world = box_room((12.0, 12.0, 3.0))
        positions = sweep_positions(world, spacing=6.0)
        assert len(positions) >= 4

    def test_build_known_grid(self):
        world = box_room((10.0, 10.0, 3.0))
        smap, reports = build_spheremap(world, BuildParams(**FAST_PARAMS),
                                        seed=0, spacing=7.0)
        assert smap.node_count() > 0
        assert len(reports) == len(sweep_positions(world, 7.0))
        assert check_all(smap, world) == []
