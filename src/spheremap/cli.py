"""Command-line interface.

Subcommands: ``gen`` (world synthesis), ``build`` (grid -> SMAP), ``plan``
(single query, any planner mode), ``export-ltv``, and ``bench`` (scenario
suites with CSV output). Exit codes: 0 success, 1 no path found, 2 bad
configuration or unparsable input.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import ltv as ltv_mod
from .core import BuildParams
from .errors import ConfigError, ParseError
from .mission import MissionTrace, build_spheremap
from .planner import (ClearanceField, PlannerParams, astar_sphere_graph,
                      grid_astar, plan_cached, rrt_star)
from .smap_io import load_map, save_map
from .voxelgrid import downsample, grid_obstacles, load_grid, save_grid
from .worlds import WorldSpec, generate_world


def _parse_params_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _convert(value: str, target_type):
    if target_type is bool:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is str:
        return value
    # tuple fields like corridor_width_range=2,5
    parts = [float(v) for v in value.split(",")]
    return tuple(parts)


def _dataclass_overrides(cls, overrides: dict[str, str], used: set[str], **base):
    kwargs = dict(base)
    names = {f.name for f in dataclasses.fields(cls)}
    # The modules use postponed annotations, so field.type is only a string.
    types = typing.get_type_hints(cls)
    for key, value in overrides.items():
        if key not in names:
            continue
        try:
            kwargs[key] = _convert(value, types[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
        used.add(key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_overrides(args) -> dict[str, str]:
    if getattr(args, "params", None):
        return _parse_params_file(args.params)
    return {}


def _check_unknown(overrides: dict[str, str], used: set[str]) -> None:
    """Reject every key the command did not read; call it after the last read."""
    unknown = set(overrides) - used
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")


def _extra(overrides: dict[str, str], used: set[str], key: str, default, kind=float):
    """An extra key's value, or ``default`` when it is absent: a positive
    finite number, and a whole one when ``kind`` is int. Marks ``key`` used."""
    used.add(key)
    text = overrides.get(key, default)
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0 and (kind is float or value.is_integer())):
        raise ConfigError(f"{key} must be a positive finite {kind.__name__}, got {text!r}")
    return kind(value)


def _point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected x,y,z point, got {text!r}")
    try:
        point = np.array([float(v) for v in parts])
    except ValueError as exc:
        raise ConfigError(f"bad point {text!r}") from exc
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"non-finite point {text!r}")
    return point


def _cmd_gen(args) -> int:
    overrides = _load_overrides(args)
    used: set[str] = set()
    extent = tuple(_point(args.extent))
    spec = _dataclass_overrides(WorldSpec, overrides, used,
                                kind=args.kind, extent=extent, seed=args.seed)
    _check_unknown(overrides, used)
    grid = generate_world(spec)
    Path(args.out).write_bytes(save_grid(grid))
    print(f"wrote {args.out}: dims {grid.dims}, resolution {grid.resolution}")
    return 0


def _cmd_build(args) -> int:
    overrides = _load_overrides(args)
    used: set[str] = set()
    params = _dataclass_overrides(BuildParams, overrides, used)
    spacing = _extra(overrides, used, "spacing", params.cube_side / 2.0)
    passes = _extra(overrides, used, "passes", 1, int)
    _check_unknown(overrides, used)
    grid = load_grid(Path(args.world).read_bytes())
    smap, reports = build_spheremap(grid, params, seed=args.seed,
                                    spacing=spacing, passes=passes)
    Path(args.out).write_bytes(save_map(smap))
    total = sum(r.total_time for r in reports)
    print(f"wrote {args.out}: {smap.node_count()} nodes, {smap.edge_count()} edges, "
          f"{len(smap.segments)} segments ({len(reports)} iterations, {total:.2f}s)")
    return 0


_MODE_ALIASES = {"cached": "cached", "full": "full-graph", "grid": "grid",
                 "grid-length": "grid-length", "rrt": "rrt-star"}


def _cmd_plan(args) -> int:
    overrides = _load_overrides(args)
    mode = _MODE_ALIASES[args.mode]
    smap, base = None, {}
    if mode in ("cached", "full-graph"):
        if not args.map:
            raise ConfigError("--map is required for sphere-graph planning modes")
        smap = load_map(Path(args.map).read_bytes())
        base = dataclasses.asdict(smap.plan_params)
    used: set[str] = set()
    params = _dataclass_overrides(PlannerParams, overrides, used, **base)
    factor = _extra(overrides, used, "grid_factor", 1, int)
    rrt_timeout = _extra(overrides, used, "rrt_timeout", 10.0)
    _check_unknown(overrides, used)
    grid = load_grid(Path(args.world).read_bytes())
    start, goal = _point(args.src), _point(args.dst)
    if mode == "cached":
        result = plan_cached(smap, start, goal, params)
    elif mode == "full-graph":
        result = astar_sphere_graph(smap, start, goal, params)
    else:
        planning_grid = downsample(grid, factor) if factor > 1 else grid
        # Measured against the world's obstacles, so that a path planned on a
        # downsampled grid keeps r_min in the world too.
        field = ClearanceField(planning_grid, obstacles=grid_obstacles(grid))
        if mode == "rrt-star":
            result = rrt_star(planning_grid, start, goal, params,
                              timeout=rrt_timeout,
                              seed=args.seed, field=field)
        else:
            result = grid_astar(planning_grid, start, goal, params,
                                "safety" if mode == "grid" else "length-only",
                                field=field)
    if result is None:
        print("no-path")
        return 1
    record = result.to_record()
    print(record)
    if args.out:
        Path(args.out).write_text(record + "\n")
    return 0


def _cmd_export_ltv(args) -> int:
    smap = load_map(Path(args.map).read_bytes())
    ltv = ltv_mod.extract(smap)
    data = ltv_mod.encode(ltv)
    Path(args.out).write_bytes(data)
    print(f"wrote {args.out}: {len(ltv.segments)} boxes, {len(ltv.edges)} edges, "
          f"{len(data)} bytes")
    return 0


def _cmd_bench(args) -> int:
    overrides = _load_overrides(args)
    used: set[str] = set()
    build_params = _dataclass_overrides(BuildParams, overrides, used)
    plan_params = build_params.planner_params()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.world:
        world = load_grid(Path(args.world).read_bytes())
    else:
        spec = _dataclass_overrides(WorldSpec, overrides, used, kind="corridor-maze",
                                    extent=(60.0, 60.0, 4.8), seed=args.seed)
        world = generate_world(spec)
    spacing = _extra(overrides, used, "spacing", build_params.cube_side / 2.0)
    grid_factor = _extra(overrides, used, "grid_factor", 2, int)
    rrt_timeout = _extra(overrides, used, "rrt_timeout", 10.0)
    n_goals = _extra(overrides, used, "goals", 5, int)
    sensor_range = _extra(overrides, used, "sensor_range", 20.0)
    _check_unknown(overrides, used)

    suites = [args.suite] if args.suite != "all" else ["multi-goal", "single-goal",
                                                       "compression"]
    if any(s in ("multi-goal", "single-goal") for s in suites):
        smap, _ = build_spheremap(world, build_params, seed=args.seed, spacing=spacing)
        start = bench_mod.pick_start(smap)
        goals = bench_mod.sample_goal_nodes(smap, n_goals, seed=args.seed)
    for suite in suites:
        if suite == "multi-goal":
            res = bench_mod.scenario_multi_goal(world, smap, start, goals, plan_params,
                                                grid_factor=grid_factor,
                                                rrt_timeout=rrt_timeout)
            bench_mod.write_csv(out_dir / "multi_goal.csv",
                                bench_mod.MULTI_GOAL_FIELDS, res["rows"])
        elif suite == "single-goal":
            res = bench_mod.scenario_single_goal(world, smap, start, goals[0],
                                                 plan_params, grid_factor=grid_factor,
                                                 rrt_timeout=rrt_timeout)
            bench_mod.write_csv(out_dir / "single_goal.csv",
                                bench_mod.SINGLE_GOAL_FIELDS, res["rows"])
        elif suite == "compression":
            trace = _compression_trace(world, sensor_range)
            res = bench_mod.scenario_compression(world, trace, build_params,
                                                 seed=args.seed)
            bench_mod.write_csv(out_dir / "compression.csv",
                                bench_mod.COMPRESSION_FIELDS, res["rows"])
        print(f"{suite}: written to {out_dir}")
    return 0


def _compression_trace(world, sensor_range: float) -> MissionTrace:
    lo, hi = world.world_min(), world.world_max()
    mid = 0.5 * (lo + hi)
    xs = np.linspace(lo[0] + 0.15 * (hi[0] - lo[0]), hi[0] - 0.15 * (hi[0] - lo[0]), 8)
    waypoints = np.column_stack([xs, np.full(8, mid[1]), np.full(8, mid[2])])
    return MissionTrace(waypoints, sensor_range=sensor_range, az_step_deg=2.0, el_step_deg=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spheremap",
                                     description="Sphere-graph free-space maps "
                                                 "and safety-aware planning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic world")
    p.add_argument("--kind", required=True,
                   choices=["corridor-maze", "perforated-cave", "room-grid"])
    p.add_argument("--extent", required=True, help="x,y,z meters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="build a sphere map over a known world")
    p.add_argument("--world", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("plan", help="plan a single path")
    p.add_argument("--world", required=True)
    p.add_argument("--map")
    p.add_argument("--from", dest="src", required=True, help="x,y,z")
    p.add_argument("--to", dest="dst", required=True, help="x,y,z")
    p.add_argument("--mode", required=True, choices=sorted(_MODE_ALIASES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("export-ltv", help="extract and encode the lightweight map")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_ltv)

    p = sub.add_parser("bench", help="run benchmark scenario suites")
    p.add_argument("--suite", required=True,
                   choices=["multi-goal", "single-goal", "compression", "all"])
    p.add_argument("--world")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, ParseError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
