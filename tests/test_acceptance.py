"""Acceptance criteria, one test per criterion, gated at the stated tolerances.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
PASS/FAIL lines. The desk-scale speed-ordering criterion builds a ~144 m maze
and runs grid A* baselines on a 0.4 m grid; expect a few minutes.
"""

import copy
import struct
import time

import numpy as np
import pytest

import spheremap as sm
from spheremap import (FREE, BuildParams, ClearanceField, MissionTrace,
                       PlannerParams, SphereMap, astar_sphere_graph, build_spheremap,
                       check_clearance, check_structure, downsample, evaluate_path,
                       generate_world, grid_astar, load_grid, load_map, plan_cached,
                       run_mission, save_grid, save_map, two_route_world)
from spheremap.bench import (mission_trace_through, pick_start, sample_goal_nodes,
                             scenario_multi_goal, scenario_single_goal)
from spheremap.ltv import encode, decode, encoded_size, extract, size_report

from conftest import box_room, same_tables, segment_like_an_update
from oracles import covered_mask, free_centroids, random_sphere_map, ucs_optimal
from test_ltv import random_ltv

# Benchmark parameters (xi, d_max, r_min fixed by the evaluation setup).
PLAN = PlannerParams(xi=7.0, d_max=2.0, r_min=0.8)
MAZE_SPEC = dict(kind="corridor-maze", extent=(144.0, 144.0, 4.4), seed=7,
                 corridor_width_range=(2.2, 3.4))
MAZE_BUILD = BuildParams(cube_side=30.0, per_voxel_samples=False, ray_count=600,
                         samples_per_ray=12, kappa=0.6, r_exp=6.0, r_merge=20.0)
MAZE_SWEEP = dict(spacing=10.0, passes=2)
CAVE_BUILD = BuildParams(cube_side=24.0, per_voxel_samples=False, ray_count=400,
                         samples_per_ray=10, kappa=0.6, r_exp=6.0, r_merge=20.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def maze_world():
    return generate_world(sm.WorldSpec(**MAZE_SPEC))


@pytest.fixture(scope="module")
def maze_map(maze_world):
    smap, _ = build_spheremap(maze_world, MAZE_BUILD, seed=0, **MAZE_SWEEP)
    return smap


@pytest.fixture(scope="module")
def maze_scenario(maze_world, maze_map):
    goals = sample_goal_nodes(maze_map, 5, seed=3)
    start = pick_start(maze_map)
    return scenario_multi_goal(maze_world, maze_map, start, goals, PLAN,
                               grid_factor=2, rrt_timeout=10.0, rrt_seed=1)


def test_criterion_1_oracle_optimality():
    astar_total = 0.0
    checked = 0
    for seed in range(100):
        smap, start, goal = random_sphere_map(seed)
        t0 = time.perf_counter()
        res = astar_sphere_graph(smap, start, goal, PLAN)
        astar_total += time.perf_counter() - t0
        oracle = ucs_optimal(smap, start, goal, PLAN)
        if res is None:
            assert oracle is None, f"seed {seed}: planner missed a path"
        else:
            assert oracle is not None, f"seed {seed}: planner invented a path"
            assert res.cost == oracle[2], f"seed {seed}: {res.cost} != {oracle[2]}"
            checked += 1
    report(1, astar_total < 10.0,
           f"{checked} found paths of 100 graphs match the uniform-cost oracle "
           f"exactly; planner time {astar_total:.2f}s < 10s")


def test_criterion_3_speed_ordering(maze_scenario, maze_map):
    rows = {r["mode"]: r for r in maze_scenario["rows"]}
    times = maze_scenario["times"]
    mean = {m: float(np.mean(t)) for m, t in times.items()}
    found = {m: rows[m]["found"] for m in rows}
    ratio_fc = mean["full-graph"] / mean["cached"]
    ratio_gf = mean["grid"] / mean["full-graph"]
    total_ratio = sum(times["cached"]) / sum(times["grid"])
    detail = (f"nodes={maze_map.node_count()} edges={maze_map.edge_count()} "
              f"segments={len(maze_map.segments)}; per-query mean: "
              f"cached {mean['cached']*1e3:.1f} ms, full {mean['full-graph']*1e3:.1f} ms, "
              f"grid A* {mean['grid']*1e3:.0f} ms; full/cached {ratio_fc:.0f}x (>=50), "
              f"grid/full {ratio_gf:.0f}x (>=50); cached total = "
              f"{100*total_ratio:.2f}% of grid total; found {found}")
    ok = ratio_fc >= 50.0 and ratio_gf >= 50.0 and total_ratio < 0.01
    ok = ok and rows["cached"]["found"] == rows["cached"]["attempted"]
    ok = ok and rows["full-graph"]["found"] == rows["full-graph"]["attempted"]
    ok = ok and rows["grid"]["found"] == rows["grid"]["attempted"]
    report(3, ok, detail)


@pytest.fixture(scope="module")
def quality_fixtures():
    out = []
    for seed in (101, 102, 103, 104, 105):
        spec = sm.WorldSpec(kind="perforated-cave", extent=(42.0, 42.0, 4.4),
                            seed=seed, room_size_range=(7.0, 12.0),
                            passage_width=2.4)
        world = generate_world(spec)
        smap, _ = build_spheremap(world, CAVE_BUILD, seed=seed, spacing=8.0, passes=2)
        start = pick_start(smap)
        goals = sample_goal_nodes(smap, 4, seed=seed)
        goal = max(goals, key=lambda g: float(np.linalg.norm(g - start)))
        res = scenario_single_goal(world, smap, start, goal, PLAN, grid_factor=2,
                                   modes=("grid", "full-graph", "cached"))
        out.append((seed, res))
    return out


def test_criterion_4_cost_quality(quality_fixtures):
    details = []
    ok = True
    for seed, res in quality_fixtures:
        cost = {r["mode"]: r["cost"] for r in res["rows"]}
        missing = [mode for mode in ("grid", "full-graph", "cached") if cost[mode] == ""]
        if missing:
            ok = False
            details.append(f"seed {seed}: {', '.join(missing)} found no path")
            continue
        cached_ratio = cost["cached"] / cost["full-graph"]
        full_ratio = cost["full-graph"] / cost["grid"]
        details.append(f"seed {seed}: cached/full {cached_ratio:.3f}, "
                       f"full/grid {full_ratio:.3f}")
        ok = ok and cached_ratio <= 1.3 and full_ratio <= 1.25
    report(4, ok, "; ".join(details) + "  (gates: <=1.3 and <=1.25)")


@pytest.fixture(scope="module")
def two_route_scenario():
    world, start, goal = two_route_world(narrow_width=2.0, wide_width=8.0)
    build = BuildParams(cube_side=30.0, voxel_stride=2, ray_count=64,
                        samples_per_ray=8, r_exp=6.0, r_merge=20.0)
    smap, _ = build_spheremap(world, build, seed=0, spacing=12.0)
    return scenario_single_goal(world, smap, start, goal, PLAN, grid_factor=2,
                                modes=("grid", "grid-length", "full-graph", "cached"))


def test_criterion_5_risk_reduction(two_route_scenario):
    rows = {r["mode"]: r for r in two_route_scenario["rows"]}
    z_len = rows["grid-length"]["risk"]
    details = [f"length-only Z={z_len:.1f} L={rows['grid-length']['length']:.1f}"]
    ok = z_len != ""
    for mode in ("grid", "full-graph", "cached"):
        z = rows[mode]["risk"]
        L = rows[mode]["length"]
        ok = ok and z != "" and z * 2.0 <= z_len
        details.append(f"{mode} Z={z:.1f} L={L:.1f}")
    report(5, ok, "; ".join(details) + "  (gate: safety-aware Z >= 2x lower)")


def test_criterion_2_safety_constraint(maze_scenario, quality_fixtures,
                                       two_route_scenario):
    # every path returned by the scenario criteria, with the world field it
    # is judged against
    collected = [("maze/" + mode, res, maze_scenario["fine_field"])
                 for mode, results in maze_scenario["results"].items()
                 for res in results]
    for seed, out in quality_fixtures:
        collected += [(f"cave{seed}/" + mode, res, out["fine_field"])
                      for mode, res in out["results"].items()]
    collected += [("tworoute/" + mode, res, two_route_scenario["fine_field"])
                  for mode, res in two_route_scenario["results"].items()]
    total = 0
    valid = 0
    worst = np.inf
    by_mode: dict[str, int] = {}
    for tag, res, field in collected:
        if res is None:
            continue
        total += 1
        _, _, _, mc = evaluate_path(res.waypoints, field, PLAN)
        worst = min(worst, mc)
        if mc > PLAN.r_min:
            valid += 1
        else:
            by_mode[tag] = by_mode.get(tag, 0) + 1
    ok = total > 0 and valid == total
    report(2, ok, f"{valid}/{total} returned paths have brute-force min "
                  f"clearance > {PLAN.r_min} m (worst {worst:.3f} m)"
                  + (f"; violations {by_mode}" if by_mode else ""))


def test_criterion_6_coverage_fixpoint():
    room = box_room((20.0, 20.0, 3.0))
    params = BuildParams(cube_side=30.0, voxel_stride=2, ray_count=64,
                         samples_per_ray=8)
    smap = SphereMap(params, seed=0)
    centers = free_centroids(room)
    uav = np.array([10.0, 10.0, 1.5])
    coverage = 0.0
    for iteration in range(1, 21):
        smap.update_iteration(room, uav)
        coverage = covered_mask(smap, centers).mean()
        if coverage >= 0.95:
            break
    report(6, coverage >= 0.95,
           f"coverage {coverage:.3f} >= 0.95 after {iteration} iterations "
           f"({smap.node_count()} nodes)")


@pytest.fixture(scope="module")
def cave_mission():
    """The criterion-8 cave mission, with the invariant problems found at its
    checkpoints; criteria 7, 8 and 9 read it."""
    spec = sm.WorldSpec(kind="perforated-cave", extent=(64.0, 64.0, 4.4), seed=21,
                        room_size_range=(7.0, 12.0), passage_width=2.4)
    world = generate_world(spec)
    lo, hi = world.world_min(), world.world_max()
    trace = mission_trace_through(world, np.array([8.0, 8.0, 2.2]),
                                  np.array([hi[0] - 8.0, hi[1] - 8.0, 2.2]),
                                  step=3.0, sensor_range=16.0,
                                  az_step_deg=2.0, el_step_deg=2.0,
                                  el_span_deg=60.0)
    problems = []
    checked = [0]

    def checkpoint(smap, working, i):
        probs = check_structure(smap) + check_clearance(smap, working)
        checked[0] += 1
        if probs:
            problems.append((i, probs[:3]))

    result = run_mission(world, trace, CAVE_BUILD, seed=0,
                         checkpoint=checkpoint, checkpoint_every=4)
    return {"result": result, "trace": trace, "checked": checked[0],
            "problems": problems}


def test_criterion_8_structural_invariants(cave_mission):
    checked, problems = cave_mission["checked"], cave_mission["problems"]
    ok = checked >= 3 and not problems
    iterations = len(cave_mission["trace"].waypoints)
    report(8, ok, f"{checked} mission checkpoints over {iterations} iterations, "
                  f"exact invariant suite clean"
                  + (f"; first failures {problems[:2]}" if problems else ""))


LOCALITY_BUILD = BuildParams(cube_side=16.0, per_voxel_samples=False, ray_count=400,
                             samples_per_ray=10, kappa=0.6, r_exp=6.0, r_merge=20.0)


@pytest.fixture(scope="module")
def locality_maps():
    """The criterion-7 36 m maze alone and embedded in a 72 m maze, each
    swept once: [(world, map)] for 1x and 4x map size. Tests update copies."""
    local = generate_world(sm.WorldSpec(kind="corridor-maze", extent=(36.0, 36.0, 4.4),
                                        seed=11, corridor_width_range=(2.2, 3.4)))
    big = generate_world(sm.WorldSpec(kind="corridor-maze", extent=(72.0, 72.0, 4.4),
                                      seed=12, corridor_width_range=(2.2, 3.4)))
    # identical local scene embedded in a 4x larger map
    big.states[:local.states.shape[0], :local.states.shape[1], :local.states.shape[2]] = \
        local.states
    return [(world, build_spheremap(world, LOCALITY_BUILD, seed=0, spacing=8.0, passes=2)[0])
            for world in (local, big)]


def test_criterion_7_update_locality(cave_mission, locality_maps):
    uav = np.array([18.0, 18.0, 2.2])

    def measure(world, built):
        smap = copy.deepcopy(built)
        smap.update_iteration(world, uav)  # warmup at the probe location
        times = []
        for _ in range(5):
            rep = smap.update_iteration(world, uav)
            times.append(rep.total_time)
        return smap, float(np.median(times))

    (smap_local, t_local), (smap_big, t_big) = (measure(*case) for case in locality_maps)
    ratio = t_big / t_local
    soft_ms = 1e3 * float(np.mean([r.total_time
                                   for r in cave_mission["result"].reports]))
    report(7, ratio <= 1.5,
           f"iteration time {t_local*1e3:.0f} ms -> {t_big*1e3:.0f} ms when the map "
           f"is quadrupled outside the cube (ratio {ratio:.2f} <= 1.5; nodes "
           f"{smap_local.node_count()} -> {smap_big.node_count()}); soft reference: "
           f"cave-mission mean iteration {soft_ms:.0f} ms vs paper ~150 ms")


def test_moving_updates_read_only_local_edges(locality_maps):
    # Two lines of updates across the 36 m scene: the cache rebuilds read
    # the edges of the segments they rebuild, not the whole map, so the
    # count at 4x map size stays near the count at 1x.
    line = [np.array([x, y, 2.2]) for y in (12.0, 24.0) for x in np.arange(2.0, 35.0, 4.0)]
    reads = []
    for world, built in locality_maps:
        smap = copy.deepcopy(built)
        reads.append(sum(smap.update_iteration(world, p).counters["segment.edges_read"]
                         for p in line))
    assert reads[0] > 0 and reads[1] <= 1.25 * reads[0], reads


def test_criterion_9_compression_ordering(cave_mission):
    result = cave_mission["result"]
    smap, working = result.smap, result.working
    ltv = extract(smap)
    ltv_bytes, full_bytes, coarse_bytes = size_report(ltv, working)
    edges_ok = set(ltv.edges) == set(smap.portals.keys())
    ok = ltv_bytes < coarse_bytes < full_bytes and edges_ok
    report(9, ok, f"mission-end sizes: LTV {ltv_bytes} B < 1 m grid {coarse_bytes} B "
                  f"< full grid {full_bytes} B; edges == segment adjacency: {edges_ok}")


def _fuzz_smap(seed: int) -> SphereMap:
    """A random map whose edges, segments, portals and caches come from the
    map's own rules: segments are grown the way an update seeds them."""
    rng = np.random.default_rng(seed)
    smap = SphereMap(BuildParams(), seed=seed)
    n = int(rng.integers(0, 14))
    for _ in range(n):
        smap._add_node(rng.uniform(-40, 40, 3), float(rng.uniform(0.9, 7.5)))
    for nid in sorted(smap.adj):
        smap._recompute_edges(nid)
    return segment_like_an_update(smap)


def test_criterion_10_format_round_trips():
    rng = np.random.default_rng(1234)
    for seed in range(1000):
        dims = tuple(int(v) for v in rng.integers(1, 6, 3))
        grid = sm.OccupancyGrid.filled(float(rng.uniform(0.1, 1.0)),
                                       rng.uniform(-5, 5, 3), dims)
        grid.states[:] = rng.integers(0, 3, dims).astype(np.uint8)
        data = save_grid(grid)
        assert save_grid(load_grid(data)) == data

    for seed in range(1000):
        smap = _fuzz_smap(seed)
        data = save_map(smap)
        loaded = load_map(data)
        assert save_map(loaded) == data
        assert loaded.adj == smap.adj and loaded.portals == smap.portals
        assert all(same_tables(loaded.segments[label], seg)
                   for label, seg in smap.segments.items())

    formula_ok = True
    for seed in range(1000):
        ltv = random_ltv(seed)
        data = encode(ltv)
        formula_ok &= len(data) == 16 + 34 * len(ltv.segments) + 8 * len(ltv.edges) \
            + 12 * len(ltv.goals)
        assert encode(decode(data)) == data
    report(10, formula_ok,
           "1000 VOXGRID + 1000 SMAP + 1000 LTVM round trips bit-exact; "
           "LTVM byte-length formula holds exactly")
