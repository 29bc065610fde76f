import numpy as np
import pytest

from spheremap import (FREE, OCCUPIED, BuildParams, ClearanceField, MissionTrace,
                       PlannerParams, build_spheremap, downsample)
from spheremap.bench import (ALL_MODES, COMPRESSION_FIELDS, MULTI_GOAL_FIELDS,
                             SINGLE_GOAL_FIELDS, mission_trace_through, pick_start,
                             revalidate_paths, sample_goal_nodes,
                             scenario_compression, scenario_multi_goal,
                             scenario_single_goal, write_csv)

from conftest import box_room, two_rooms_with_corridor, wall_gap_room

PARAMS = PlannerParams(xi=7.0, d_max=2.0, r_min=0.8)


@pytest.fixture(scope="module")
def small_world():
    grid, c1, c2, _ = two_rooms_with_corridor(room=7.0, corridor_len=6.0,
                                              corridor_width=3.0)
    smap, _ = build_spheremap(grid, BuildParams(cube_side=12.0, voxel_stride=2,
                                                ray_count=0, r_exp=3.0, r_merge=8.0),
                              seed=0, spacing=6.0)
    return grid, smap, c1, c2


class TestGoalSampling:
    def test_goals_prefer_distinct_segments(self, small_world):
        grid, smap, c1, c2 = small_world
        goals = sample_goal_nodes(smap, 3, seed=1)
        assert len(goals) == 3
        ids = list(smap.adj)
        pos, radii = smap.node_index.rows(ids)
        labels = set()
        for g in goals:
            owners = [smap.segment_of[nid] for nid, p in zip(ids, pos)
                      if np.array_equal(p, g)]
            assert owners
            labels.add(owners[0])
        eligible = {smap.segment_of[nid] for nid, r in zip(ids, radii)
                    if r > smap.params.r_min + 0.5}
        assert len(labels) >= min(3, len(eligible))

    def test_pick_start_is_widest_sphere(self, small_world):
        _, smap, _, _ = small_world
        start = pick_start(smap)
        best = max(smap.adj, key=lambda i: (smap.node_index.row(i)[1], -i))
        np.testing.assert_array_equal(start, smap.node_index.row(best)[0])


class TestScenarios:
    def test_single_room_all_planners_agree_roughly(self):
        grid = box_room((10.0, 10.0, 4.0))
        smap, _ = build_spheremap(grid, BuildParams(cube_side=14.0, voxel_stride=2,
                                                    ray_count=0), seed=0, spacing=7.0)
        start = np.array([2.0, 2.0, 2.0])
        goal = np.array([8.0, 8.0, 2.0])
        out = scenario_multi_goal(grid, smap, start, [goal], PARAMS, grid_factor=2,
                                  rrt_timeout=10.0)
        rows = {r["mode"]: r for r in out["rows"]}
        assert set(rows) == set(ALL_MODES)
        found_costs = [r["mean_cost"] for r in out["rows"]
                       if r["found"] == 1 and r["mean_cost"] != ""]
        assert len(found_costs) == 5
        assert max(found_costs) <= 1.3 * min(found_costs) + 1e-9

    def test_walled_off_goal_counts_failures(self, small_world):
        grid, smap, c1, c2 = small_world
        unreachable = np.array([1.0, 1.0, 50.0])  # outside the world volume
        out = scenario_multi_goal(grid, smap, c1, [c2, unreachable], PARAMS,
                                  grid_factor=2, rrt_timeout=1.0,
                                  modes=("grid", "full-graph", "cached"))
        for row in out["rows"]:
            assert row["attempted"] == 2
            assert row["found"] == 1

    def test_single_goal_schema(self, small_world):
        grid, smap, c1, c2 = small_world
        out = scenario_single_goal(grid, smap, c1, c2, PARAMS, grid_factor=2)
        assert [r["mode"] for r in out["rows"]] == list(ALL_MODES)
        for row in out["rows"]:
            assert set(row) == set(SINGLE_GOAL_FIELDS)

    def test_revalidation_accepts_valid_paths(self, small_world):
        grid, smap, c1, c2 = small_world
        out = scenario_single_goal(grid, smap, c1, c2, PARAMS, grid_factor=2)
        valid, total, worst = revalidate_paths(out["results"], out["fine_field"],
                                               PARAMS.r_min)
        assert total >= 4
        assert valid == total
        assert worst > PARAMS.r_min

    def test_grid_baselines_keep_world_clearance(self):
        grid, start, goal = wall_gap_room()
        out = scenario_single_goal(grid, None, start, goal, PARAMS, grid_factor=2,
                                   modes=("grid", "grid-length"))
        valid, total, worst = revalidate_paths(out["results"], out["fine_field"],
                                               PARAMS.r_min)
        assert total == 2
        assert valid == total, f"worst world clearance {worst:.3f} m"

    def test_compression_series(self):
        grid = box_room((10.0, 10.0, 3.0))
        trace = MissionTrace(np.array([[3.0, 5.0, 1.5], [5.0, 5.0, 1.5],
                                       [7.0, 5.0, 1.5]]),
                             sensor_range=8.0, az_step_deg=4.0, el_step_deg=4.0)
        out = scenario_compression(grid, trace,
                                   BuildParams(cube_side=12.0, voxel_stride=2,
                                               ray_count=0),
                                   seed=0, every=1)
        rows = out["rows"]
        assert len(rows) == 3
        revealed = [r["revealed_voxels"] for r in rows]
        assert all(b >= a for a, b in zip(revealed, revealed[1:]))
        # full three-way size ordering needs desk scale; exercised in acceptance
        last = rows[-1]
        assert last["ltv_bytes"] < last["full_bytes"]
        assert 0.0 <= out["misclassified"] <= 1.0


class TestMissionTrace:
    @pytest.fixture(scope="class")
    def corridor(self):
        return two_rooms_with_corridor(room=6.0, corridor_len=8.0, corridor_width=2.4)

    def test_endpoints_in_walls_snap_to_traversable_voxels(self, corridor):
        grid, c1, _, (x0, x1) = corridor
        start = np.array([c1[0], -0.1, c1[2]])           # in the outer wall
        goal = np.array([0.5 * (x0 + x1), 0.5, c1[2]])   # rock beside the corridor
        assert grid.state_at(start) == OCCUPIED and grid.state_at(goal) == OCCUPIED
        trace = mission_trace_through(grid, start, goal, step=1.0)
        route = downsample(grid, 2)
        field = ClearanceField(route)
        assert len(trace.waypoints) >= 2
        for wp in (trace.waypoints[0], trace.waypoints[-1]):
            v = route.world_to_voxel(wp)
            assert route.states[v] == FREE and field.field[v] > 0.8

    def test_traversable_endpoints_are_kept(self, corridor):
        grid, c1, c2, _ = corridor
        trace = mission_trace_through(grid, c1, c2, step=1.0)
        route = downsample(grid, 2)
        assert route.world_to_voxel(trace.waypoints[0]) == route.world_to_voxel(c1)
        assert route.world_to_voxel(trace.waypoints[-1]) == route.world_to_voxel(c2)
        steps = np.linalg.norm(np.diff(trace.waypoints, axis=0), axis=1)
        assert np.all(steps <= 1.0 + 2 * route.resolution)


class TestCsv:
    def test_golden_headers(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, MULTI_GOAL_FIELDS,
                  [{k: 0 for k in MULTI_GOAL_FIELDS}])
        lines = path.read_text().splitlines()
        assert lines[0] == "# timing: per-query planner time only"
        assert lines[1] == "# grid baselines: clearance field precomputed before timing"
        assert lines[2] == ("# sphere planners: map and cost tables prebuilt; "
                            "build time reported by the build stage")
        assert lines[3] == "mode,total_time_ms,found,attempted,mean_cost,min_clearance"

    def test_schema_constants(self):
        assert SINGLE_GOAL_FIELDS == ("mode", "time_ms", "length", "risk", "cost",
                                      "min_clearance")
        assert COMPRESSION_FIELDS == ("iteration", "revealed_voxels",
                                      "ltv_bytes", "coarse_bytes", "full_bytes")
