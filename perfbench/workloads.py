"""The three workloads and the closed loop that times them.

Every workload is one caller on one thread: the next update or query starts
only when the previous one has returned. A run repeats whole passes until its
time is up; a pass is the same work every time for a given seed, so medians
over passes and the counters of the first pass repeat from run to run.

Every workload goes through the same steps, in different proportions:

- map updates, each followed by one cached replan back to the first update
  position (for ``cave-queries`` these happen while the map is built in
  set-up, so its iteration and replan latencies come from set-up);
- all goal pairs planned in ``cached`` and ``full`` mode, and a fixed subset in
  grid A* ``safety`` mode on the 0.4 m grid;
- SMAP and LTV export with round trips.

See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from spheremap import bench, core, ltv, mission, planner, smap_io, voxelgrid, worlds

CAVE = dict(kind="perforated-cave", room_size_range=(7.0, 12.0), passage_width=2.4)
# The map's sampling RNG and the goal sample are part of the scenario, not
# of --seed. The maps are fragmented, so queries either fail fast or search
# in earnest; which goals (and which ray-sampled map) a seed drew would move
# the mix of the two, and with it every query median and plan_ok_frac, far
# more than any program change the benchmark has to resolve.
SCENARIO_SEED = 0
# The acceptance suite's maze build parameters (ray-only sampling).
MAZE_BUILD = dict(cube_side=30.0, per_voxel_samples=False, ray_count=600,
                  samples_per_ray=12, kappa=0.6, r_exp=6.0, r_merge=20.0)
# The acceptance suite's mission sensor model (criterion 8).
MISSION_SENSOR = dict(sensor_range=16.0, az_step_deg=2.0, el_step_deg=2.0, el_span_deg=60.0)


@dataclass(frozen=True)
class Workload:
    world: dict            # WorldSpec fields; the world is the same for every seed
    build: dict            # BuildParams fields
    updates: str           # "sweep", "mission" or "setup" (sweep during set-up)
    goals: int             # all pairs among this many goals are planned per pass;
                           # a mission's goals are evenly spaced waypoints
    grid_pairs: int        # pairs of those also planned by grid A*
    spacing: float = 10.0  # sweep lattice spacing
    sweeps: int = 1        # sweeps over the lattice per map build
    setups: int = 3        # set-up repetitions; setup_s is their median


WORKLOADS = {
    "maze-sweep": Workload(
        world=dict(kind="corridor-maze", extent=(48.0, 48.0, 4.4), seed=7,
                   corridor_width_range=(2.2, 3.4)),
        build=MAZE_BUILD, updates="sweep", spacing=10.0, sweeps=2,
        goals=46, grid_pairs=10),
    "cave-mission": Workload(
        world=dict(CAVE, extent=(40.0, 40.0, 4.4), seed=21),
        build=dict(cube_side=24.0, voxel_stride=2), updates="mission",
        goals=6, grid_pairs=10),
    "cave-queries": Workload(
        world=dict(CAVE, extent=(48.0, 48.0, 4.4), seed=31),
        build=dict(cube_side=24.0, voxel_stride=2, kappa=0.6, r_exp=6.0, r_merge=20.0),
        updates="setup", spacing=12.0, goals=46, grid_pairs=20),
}


@dataclass
class Log:
    """Latency samples and the plans returned, as (mode, start, goal, result)."""

    iter_ms: list = field(default_factory=list)
    replan_ms: list = field(default_factory=list)
    query_ms: dict = field(default_factory=lambda: {"cached": [], "full": [], "grid": []})
    plans: list = field(default_factory=list)


@dataclass
class Scene:
    world: voxelgrid.OccupancyGrid
    coarse: voxelgrid.OccupancyGrid
    coarse_field: planner.ClearanceField
    params: core.BuildParams
    positions: list        # update positions
    replan_from: list      # the safe point nearest each update position
    trace: mission.MissionTrace | None = None
    smap: core.SphereMap | None = None
    goals: list | None = None
    log: Log | None = None


@dataclass
class Pass:
    wall_s: float
    log: Log
    smap: core.SphereMap
    smap_bytes: int
    ltv_bytes: int
    round_trips_ok: bool


def _safe_points(coarse, coarse_field, r_min):
    """Centres of the 0.4 m voxels whose clearance exceeds r_min."""
    idx = np.argwhere((coarse.states == voxelgrid.FREE) & (coarse_field.field > r_min))
    return coarse.origin + coarse.resolution * (idx + 0.5)


def _snap(safe, p):
    return safe[int(np.argmin(np.linalg.norm(safe - p, axis=1)))]


class Runner:
    def __init__(self, workload: Workload, seed: int, tracer):
        self.w = workload
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> Scene:
        w = self.w
        world = worlds.generate_world(worlds.WorldSpec(**w.world))
        coarse = voxelgrid.downsample(world, 2)
        coarse_field = planner.ClearanceField(coarse)
        params = core.BuildParams(**w.build)
        scene = Scene(world, coarse, coarse_field, params, positions=[], replan_from=[])
        safe = _safe_points(coarse, coarse_field, params.r_min)
        if w.updates == "mission":
            hi = world.world_max()
            z = 0.5 * (world.world_min()[2] + hi[2])
            start = _snap(safe, np.array([8.0, 8.0, z]))
            goal = _snap(safe, np.array([hi[0] - 8.0, hi[1] - 8.0, z]))
            # coarse_factor=2: the helper's default of 4 finds no route in these caves.
            scene.trace = bench.mission_trace_through(world, start, goal, step=3.0,
                                                      coarse_factor=2, **MISSION_SENSOR)
            scene.positions = list(scene.trace.waypoints)
        else:
            scene.positions = mission.sweep_positions(world, w.spacing) * w.sweeps
        # Sweep positions may hug a wall; replans start from the nearest
        # point a safe path can start from (mission waypoints already are).
        scene.replan_from = [_snap(safe, p) for p in scene.positions]
        if w.updates == "setup":
            scene.log = Log()
            scene.smap = self._grow(scene, scene.log)
            scene.goals = bench.sample_goal_nodes(scene.smap, w.goals, seed=SCENARIO_SEED)
        return scene

    def _grow(self, scene: Scene, log: Log) -> core.SphereMap:
        """Update the map at each position, replanning home after each update."""
        smap = core.SphereMap(scene.params, seed=SCENARIO_SEED)
        grid = scene.world
        if scene.trace is not None:
            grid = voxelgrid.OccupancyGrid.filled(scene.world.resolution, scene.world.origin,
                                                  scene.world.states.shape, voxelgrid.UNKNOWN)
        home = scene.replan_from[0]
        for pos, here in zip(scene.positions, scene.replan_from):
            self.tracer.next_op()
            if scene.trace is not None:
                mission.reveal(grid, scene.world, pos, scene.trace)
            t0 = time.perf_counter()
            smap.update_iteration(grid, pos)
            t1 = time.perf_counter()
            self.tracer.next_op()
            res = planner.plan_cached(smap, here, home, smap.plan_params)
            t2 = time.perf_counter()
            log.iter_ms.append((t1 - t0) * 1e3)
            log.replan_ms.append((t2 - t1) * 1e3)
            log.plans.append(("replan", here, home, res))
        return smap

    def _queries(self, scene: Scene, smap, goals, log: Log) -> None:
        params = smap.plan_params
        pairs = [(i, j) for i in range(len(goals)) for j in range(i + 1, len(goals))]
        # Grid A* gets a fixed, evenly spread subset of the pairs.
        grid_pairs = set(pairs[::max(len(pairs) // self.w.grid_pairs, 1)][:self.w.grid_pairs])
        order = np.random.default_rng(self.seed).permutation(len(pairs))
        # Warm the per-map cost tables outside the samples.
        planner.plan_cached(smap, goals[0], goals[1], params)
        planner.astar_sphere_graph(smap, goals[0], goals[1], params)
        # Modes take turns on each pair, in alternating order, so a slow
        # spell of the machine or a warm CPU cache favours none of them.
        for n, k in enumerate(order):
            modes = ("cached", "full") if n % 2 == 0 else ("full", "cached")
            if pairs[k] in grid_pairs:
                modes += ("grid",)
            a, b = goals[pairs[k][0]], goals[pairs[k][1]]
            for mode in modes:
                self.tracer.next_op()
                t0 = time.perf_counter()
                if mode == "cached":
                    res = planner.plan_cached(smap, a, b, params)
                elif mode == "full":
                    res = planner.astar_sphere_graph(smap, a, b, params)
                else:
                    res = planner.grid_astar(scene.coarse, a, b, params, "safety",
                                             field=scene.coarse_field)
                log.query_ms[mode].append((time.perf_counter() - t0) * 1e3)
                log.plans.append((mode, a, b, res))

    def run_pass(self, scene: Scene) -> Pass:
        t0 = time.perf_counter()
        log = Log()
        if self.w.updates == "setup":
            smap, goals = scene.smap, scene.goals
        elif self.w.updates == "mission":
            smap = self._grow(scene, log)
            picks = np.linspace(0, len(scene.positions) - 1, self.w.goals).round().astype(int)
            goals = [scene.positions[i] for i in picks]
        else:
            smap = self._grow(scene, log)
            goals = bench.sample_goal_nodes(smap, self.w.goals, seed=SCENARIO_SEED)
        self._queries(scene, smap, goals, log)
        self.tracer.next_op()
        smap_blob = smap_io.save_map(smap)
        ltv_blob = ltv.encode(ltv.extract(smap))
        round_trips_ok = (smap_io.save_map(smap_io.load_map(smap_blob)) == smap_blob
                          and ltv.encode(ltv.decode(ltv_blob)) == ltv_blob)
        return Pass(time.perf_counter() - t0, log, smap, len(smap_blob), len(ltv_blob),
                    round_trips_ok)
