"""Benchmark scenarios: multi-goal and single-goal planner comparisons plus the
map-compression study. Emits CSV rows with a stable schema.

Timing policy (stated in every report): queries are timed individually; the
clearance fields of the grid baselines and the sphere-graph cost tables are
precomputed outside the timed region, and map build time is reported
separately by the mission/build stage.
"""

from __future__ import annotations

import csv
import time

import numpy as np

from . import ltv as ltv_mod
from .errors import ConfigError
from .mission import MissionTrace, run_mission
from .planner import (ClearanceField, PlannerParams, _map_view,
                      astar_sphere_graph, evaluate_path, grid_astar,
                      plan_cached, rrt_star)
from .spatial import ObstacleIndex
from .voxelgrid import FREE, OccupancyGrid, downsample, grid_obstacles

TIMING_NOTES = (
    "timing: per-query planner time only",
    "grid baselines: clearance field precomputed before timing",
    "sphere planners: map and cost tables prebuilt; build time reported by the build stage",
)

ALL_MODES = ("grid", "grid-length", "rrt-star", "full-graph", "cached")
MULTI_GOAL_FIELDS = ("mode", "total_time_ms", "found", "attempted", "mean_cost",
                     "min_clearance")
SINGLE_GOAL_FIELDS = ("mode", "time_ms", "length", "risk", "cost", "min_clearance")
COMPRESSION_FIELDS = ("iteration", "revealed_voxels", "ltv_bytes", "coarse_bytes",
                      "full_bytes")


def mission_trace_through(world: OccupancyGrid, start, goal, step: float = 3.0,
                          coarse_factor: int = 2, **reveal_kwargs) -> MissionTrace:
    """Waypoints along a coarse-grid shortest path from start to goal.

    Keeps consecutive waypoints connected through free space, as a real
    exploration trace would be. The route is a length-only grid A* over the
    voxels of ``downsample(world, coarse_factor)`` (0.4 m on the 0.2 m
    worlds by default; at 0.8 m the 2.4 m cave tunnels close) that are FREE
    with clearance > 0.8 m, measured against that route grid's own occupied
    and frontier centroids. An endpoint whose voxel is not traversable (in
    rock, too near a wall, or outside the grid) is replaced by the centre of
    the nearest traversable route voxel; a traversable endpoint is kept as
    given. Raises ConfigError if the route grid has no traversable voxel or
    no route joins the endpoints.
    """
    coarse = downsample(world, coarse_factor)
    field = ClearanceField(coarse)
    params = PlannerParams(xi=0.0, d_max=0.8, r_min=0.8)
    trav = (coarse.states == FREE) & (field.field > params.r_min)
    if not trav.any():
        raise ConfigError("no traversable voxel for the mission trace")
    centers = coarse.origin + coarse.resolution * (np.argwhere(trav) + 0.5)

    def snap(p):
        p = np.asarray(p, dtype=float)
        vox = coarse.world_to_voxel(p)
        if vox is not None and trav[vox]:
            return p
        return centers[int(np.argmin(np.linalg.norm(centers - p, axis=1)))]

    res = grid_astar(coarse, snap(start), snap(goal), params, "length-only", field=field)
    if res is None:
        raise ConfigError("no traversable route for the mission trace")
    pts = [res.waypoints[0]]
    travelled = 0.0
    for a, b in zip(res.waypoints, res.waypoints[1:]):
        travelled += float(np.linalg.norm(b - a))
        if travelled >= step:
            pts.append(b)
            travelled = 0.0
    if not np.array_equal(pts[-1], res.waypoints[-1]):
        pts.append(res.waypoints[-1])
    return MissionTrace(np.asarray(pts), **reveal_kwargs)


def pick_start(smap) -> np.ndarray:
    """Deterministic start point: center of the widest sphere, the lowest id on a tie."""
    ids = sorted(smap.adj)
    return smap.node_index.row(ids[int(np.argmax(smap.node_index.rows(ids)[1]))])[0]


def sample_goal_nodes(smap, n: int, seed: int = 0, margin: float = 0.5) -> list[np.ndarray]:
    """Goal points at sphere centers with clearance margin, spread over
    distinct segments where possible."""
    rng = np.random.default_rng(seed)
    by_seg: dict[int, list[int]] = {}
    ids = sorted(smap.adj)
    _, radii = smap.node_index.rows(ids)
    for nid, r in zip(ids, radii.tolist()):
        label = smap.segment_of[nid]
        if label is None or r <= smap.params.r_min + margin:
            continue
        by_seg.setdefault(label, []).append(nid)
    labels = sorted(by_seg)
    rng.shuffle(labels)
    goals: list[np.ndarray] = []
    while len(goals) < n and labels:
        keep = []
        for label in labels:
            ids = by_seg[label]
            pick = ids.pop(int(rng.integers(len(ids))))
            goals.append(smap.node_index.row(pick)[0])
            if len(goals) >= n:
                break
            if ids:
                keep.append(label)
        labels = keep
    return goals[:n]


def _run_mode(mode, smap, coarse, coarse_field, start, goals, params,
              rrt_timeout, rrt_seed):
    if mode == "full-graph":
        # Warm the whole-map view outside the timed region; cached search
        # reads the segments' views, which the map keeps.
        _map_view(smap, params)
    results = []
    times = []
    for gi, goal in enumerate(goals):
        t0 = time.perf_counter()
        if mode == "grid":
            res = grid_astar(coarse, start, goal, params, "safety", field=coarse_field)
        elif mode == "grid-length":
            res = grid_astar(coarse, start, goal, params, "length-only", field=coarse_field)
        elif mode == "rrt-star":
            res = rrt_star(coarse, start, goal, params, timeout=rrt_timeout,
                           seed=rrt_seed + gi, field=coarse_field)
        elif mode == "full-graph":
            res = astar_sphere_graph(smap, start, goal, params)
        elif mode == "cached":
            res = plan_cached(smap, start, goal, params)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        times.append(time.perf_counter() - t0)
        results.append(res)
    return results, times


def _run_modes(world: OccupancyGrid, smap, start, goals, params: PlannerParams,
               grid_factor: int, rrt_timeout: float, rrt_seed: int, modes):
    """({mode: (results, times, evaluations)}, fields): every mode run to every
    goal, each found path evaluated on the world's obstacle set (None if not
    found); the coarse grid's clearance field is measured against that set."""
    coarse = downsample(world, grid_factor)
    fine_field = ObstacleIndex(grid_obstacles(world))
    coarse_field = ClearanceField(coarse, obstacles=fine_field.points)
    runs = {}
    for mode in modes:
        results, times = _run_mode(mode, smap, coarse, coarse_field, start, goals,
                                   params, rrt_timeout, rrt_seed)
        evals = [None if r is None else evaluate_path(r.waypoints, fine_field, params)
                 for r in results]
        runs[mode] = results, times, evals
    return runs, {"fine_field": fine_field, "coarse": coarse, "coarse_field": coarse_field}


def scenario_multi_goal(world: OccupancyGrid, smap, start, goals,
                        params: PlannerParams, grid_factor: int = 2,
                        rrt_timeout: float = 10.0, rrt_seed: int = 1,
                        modes=ALL_MODES):
    """Per-planner totals over a shared goal set (multi-goal study schema).

    The grid baselines search ``downsample(world, grid_factor)``, with
    clearance measured against the world's own obstacle set (occupied and
    frontier centroids of ``world``, the set that bounds sphere radii), so
    they honour ``r_min`` in the world and not only on the coarse grid.
    Every found path is evaluated on that same world set (``fine_field``).
    """
    runs, fields = _run_modes(world, smap, start, goals, params, grid_factor,
                              rrt_timeout, rrt_seed, modes)
    rows = []
    for mode, (_, times, evals) in runs.items():
        evals = [e for e in evals if e is not None]
        rows.append({
            "mode": mode,
            "total_time_ms": round(sum(times) * 1e3, 3),
            "found": len(evals),
            "attempted": len(goals),
            "mean_cost": round(float(np.mean([e[2] for e in evals])), 4) if evals else "",
            "min_clearance": round(min(e[3] for e in evals), 4) if evals else "",
        })
    return {"rows": rows, "results": {m: run[0] for m, run in runs.items()},
            "times": {m: run[1] for m, run in runs.items()}, **fields}


def scenario_single_goal(world: OccupancyGrid, smap, start, goal,
                         params: PlannerParams, grid_factor: int = 2,
                         rrt_timeout: float = 10.0, rrt_seed: int = 1,
                         modes=ALL_MODES):
    """Per-planner time and evaluated length/risk/cost to one goal.

    Clearances are measured as in ``scenario_multi_goal``: against the
    world's own obstacle set, for both the grid baselines and the evaluation.
    """
    runs, fields = _run_modes(world, smap, start, [goal], params, grid_factor,
                              rrt_timeout, rrt_seed, modes)
    rows = []
    for mode, (_, times, (ev,)) in runs.items():
        values = ("",) * 4 if ev is None else [round(v, 4) for v in ev]
        rows.append(dict(zip(SINGLE_GOAL_FIELDS, [mode, round(times[0] * 1e3, 3), *values])))
    return {"rows": rows, "results": {m: run[0][0] for m, run in runs.items()}, **fields}


def scenario_compression(world: OccupancyGrid, trace: MissionTrace, build_params,
                         seed: int = 0, every: int = 2):
    """LTV vs full vs 1 m grid byte sizes sampled along a mission."""
    rows = []

    def sample(smap, working, iteration):
        sizes = ltv_mod.size_report(ltv_mod.extract(smap), working)
        rows.append({"iteration": iteration,
                     "revealed_voxels": int(np.count_nonzero(working.states)),
                     "ltv_bytes": sizes[0], "coarse_bytes": sizes[2],
                     "full_bytes": sizes[1]})

    result = run_mission(world, trace, build_params, seed=seed,
                         checkpoint=lambda s, w, i: sample(s, w, i + 1),
                         checkpoint_every=every)
    if not rows or rows[-1]["iteration"] != len(trace.waypoints):
        sample(result.smap, result.working, len(trace.waypoints))
    ltv = ltv_mod.extract(result.smap)
    return {"rows": rows, "mission": result, "ltv": ltv,
            "misclassified": ltv_mod.misclassified_fraction(ltv, result.working)}


def revalidate_paths(results: dict, clearance_source, r_min: float) -> tuple[int, int, float]:
    """(valid, total, worst clearance) of found paths against a brute-force source."""
    valid = 0
    total = 0
    worst = float("inf")
    for mode_results in results.values():
        seq = mode_results if isinstance(mode_results, list) else [mode_results]
        for res in seq:
            if res is None:
                continue
            total += 1
            _, _, _, mc = evaluate_path(res.waypoints, clearance_source,
                                        PlannerParams(r_min=r_min))
            worst = min(worst, mc)
            if mc > r_min:
                valid += 1
    return valid, total, worst


def write_csv(path, fieldnames, rows, notes=TIMING_NOTES) -> None:
    with open(path, "w", newline="") as fh:
        for note in notes:
            fh.write(f"# {note}\n")
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
