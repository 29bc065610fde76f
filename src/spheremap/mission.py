"""Simulated exploration missions and offline map building.

A mission starts from an all-unknown working grid; each step reveals voxels
with a raycast fan against the true world and runs one map update iteration
at the vehicle position. ``build_spheremap`` instead sweeps update cubes over
an already fully-known grid, which is how the planning benchmarks get their
maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BuildParams, IterationReport, SphereMap
from .voxelgrid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid


@dataclass
class MissionTrace:
    """Waypoints through free space plus the sensor reveal model."""

    waypoints: np.ndarray
    sensor_range: float = 20.0
    az_step_deg: float = 0.5
    el_step_deg: float = 0.5
    el_span_deg: float = 30.0

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float).reshape(-1, 3)
        if self.sensor_range <= 0 or self.az_step_deg <= 0 or self.el_step_deg <= 0:
            raise ValueError("bad reveal model parameters")


@dataclass
class MissionResult:
    smap: SphereMap
    reports: list[IterationReport]
    working: OccupancyGrid


def _fan_directions(trace: MissionTrace) -> np.ndarray:
    az = np.deg2rad(np.arange(0.0, 360.0, trace.az_step_deg))
    el = np.deg2rad(np.arange(-trace.el_span_deg, trace.el_span_deg + 1e-9,
                              trace.el_step_deg))
    azg, elg = np.meshgrid(az, el, indexing="ij")
    return np.column_stack([
        (np.cos(elg) * np.cos(azg)).ravel(),
        (np.cos(elg) * np.sin(azg)).ravel(),
        np.sin(elg).ravel()])


def reveal(working: OccupancyGrid, world: OccupancyGrid, pos, trace: MissionTrace) -> None:
    """Copy true states into the working grid along a fan of rays from ``pos``.

    Rays march at half-voxel steps and stop at the first occupied voxel,
    which is itself revealed, or where they leave the grid. The march goes
    16 steps at a time and carries on only the rays not yet stopped.
    """
    pos = np.asarray(pos, dtype=float)
    own = world.world_to_voxel(pos)
    if own is not None:
        working.states[own] = world.states[own]
    dirs = _fan_directions(trace)
    step = world.resolution / 2.0
    n_steps = max(int(trace.sensor_range / step), 1)
    steps = np.arange(1, n_steps + 1) * step
    dims = np.asarray(world.states.shape)
    for lo in range(0, n_steps, 16):
        block = steps[lo:lo + 16]
        pts = pos[None, None, :] + dirs[:, None, :] * block[None, :, None]
        idx = np.floor((pts - world.origin) / world.resolution).astype(int)
        inb = np.all((idx >= 0) & (idx < dims), axis=2)
        safe = np.clip(idx, 0, dims - 1)
        states = world.states[safe[..., 0], safe[..., 1], safe[..., 2]]
        blocked = (~inb) | (states == OCCUPIED)
        stopped = blocked.any(axis=1)
        first = np.where(stopped, blocked.argmax(axis=1), len(block))
        visible = (np.arange(len(block))[None, :] <= first[:, None]) & inb
        sel = idx[visible]
        working.states[sel[:, 0], sel[:, 1], sel[:, 2]] = \
            world.states[sel[:, 0], sel[:, 1], sel[:, 2]]
        dirs = dirs[~stopped]
        if not len(dirs):
            break


def run_mission(world: OccupancyGrid, trace: MissionTrace,
                params: BuildParams | None = None, seed: int = 0,
                checkpoint=None, checkpoint_every: int = 0) -> MissionResult:
    """Fly the trace: reveal, then update the map, once per waypoint.

    ``checkpoint(smap, working, i)`` is invoked every ``checkpoint_every``
    iterations when given (used by the invariant suite).
    """
    working = OccupancyGrid.filled(world.resolution, world.origin,
                                   world.states.shape, UNKNOWN)
    smap = SphereMap(params, seed=seed)
    reports: list[IterationReport] = []
    for i, wp in enumerate(trace.waypoints):
        reveal(working, world, wp, trace)
        reports.append(smap.update_iteration(working, wp))
        if checkpoint is not None and checkpoint_every and (i + 1) % checkpoint_every == 0:
            checkpoint(smap, working, i)
    return MissionResult(smap, reports, working)


def sweep_positions(grid: OccupancyGrid, spacing: float) -> list[np.ndarray]:
    """Lattice of update centers covering every part of the grid with free space.

    Each center moves to the nearest free-voxel centroid in its lattice cell,
    so ray sampling starts inside traversable space.
    """
    lo, hi = grid.world_min(), grid.world_max()
    axes = []
    for a in range(3):
        n = max(int(math.ceil((hi[a] - lo[a]) / spacing)), 1)
        axes.append(lo[a] + (np.arange(n) + 0.5) * (hi[a] - lo[a]) / n)
    out = []
    half = spacing / 2.0
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                p = np.array([x, y, z])
                a = np.maximum(np.floor((p - half - lo) / grid.resolution).astype(int), 0)
                b = np.minimum(np.ceil((p + half - lo) / grid.resolution).astype(int),
                               np.asarray(grid.states.shape))
                if np.any(a >= b):
                    continue
                sub = grid.states[a[0]:b[0], a[1]:b[1], a[2]:b[2]]
                free = np.argwhere(sub == FREE)
                if not len(free):
                    continue
                centers = grid.origin + grid.resolution * (free + a + 0.5)
                d2 = np.einsum("ij,ij->i", centers - p, centers - p)
                out.append(centers[int(np.argmin(d2))])
    return out


def build_spheremap(grid: OccupancyGrid, params: BuildParams | None = None,
                    seed: int = 0, spacing: float | None = None,
                    passes: int = 1) -> tuple[SphereMap, list[IterationReport]]:
    """Grow a map over a fully-known grid by sweeping update cubes across it."""
    params = params if params is not None else BuildParams()
    smap = SphereMap(params, seed=seed)
    if spacing is None:
        spacing = params.cube_side / 2.0
    positions = sweep_positions(grid, spacing)
    reports = []
    for _ in range(max(passes, 1)):
        for pos in positions:
            reports.append(smap.update_iteration(grid, pos))
    return smap, reports
