"""Lightweight topological-volumetric map.

Each segment of a sphere map is summarized as a 4DOF oriented box (center,
z-axis yaw, half-extents) guaranteed to contain all member spheres; every
extraction fits every segment afresh, so no box outlives the map it
describes. Boxes, segment adjacency, exploration metadata, and candidate
exploration goals encode to a compact wire format for low-bandwidth sharing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadMagicError, PayloadError, TruncatedError
from .spatial import kdtree
from .voxelgrid import FREE, OccupancyGrid, downsample, save_grid

_MAGIC = b"LTVM"
_VERSION = 1
_HEADER = struct.Struct("<4sB3xII")
_SEGMENT = struct.Struct("<I3ff3fBB")
_EDGE = struct.Struct("<II")
_GOAL = struct.Struct("<3f")

GOAL_CLUSTER_RADIUS = 5.0
_EXPLORATION_SCALE = 128.0  # value = clip(128 * frontiers-per-member)


@dataclass
class LtvSegment:
    id: int
    center: np.ndarray
    yaw: float
    half_extents: np.ndarray
    exploration: int = 0
    coverage: int = 0  # reserved for camera-coverage metadata, always 0 here


@dataclass
class LtvMap:
    segments: list[LtvSegment] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    goals: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))


def _support_extent(xy: np.ndarray, radii: np.ndarray, ang: float):
    """(width, midpoint) of the projected discs along direction ``ang``."""
    u = np.array([math.cos(ang), math.sin(ang)])
    proj = xy @ u
    hi = float(np.max(proj + radii))
    lo = float(np.min(proj - radii))
    return hi - lo, (hi + lo) / 2.0


def fit_box(positions: np.ndarray, radii: np.ndarray):
    """Fit a 4DOF box around spheres: yaw minimizing the rotated-rectangle area
    of the XY-projected discs, extents from the exact disc support.

    Returns (center, yaw, half_extents); every input sphere is contained.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if len(positions) == 0:
        raise ValueError("need at least one sphere")
    if len(positions) == 1:
        p, r = positions[0], float(radii[0])
        return p.copy(), 0.0, np.array([r, r, r])

    xy = positions[:, :2]

    def area(ang: float) -> float:
        w, _ = _support_extent(xy, radii, ang)
        h, _ = _support_extent(xy, radii, ang + math.pi / 2.0)
        return w * h

    # The coarse yaws and their normals, scored in one projection.
    coarse = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181, endpoint=False)
    angs = np.concatenate([coarse, coarse + math.pi / 2.0]).tolist()
    proj = xy @ np.array([[math.cos(a) for a in angs], [math.sin(a) for a in angs]])
    widths = (proj + radii[:, None]).max(axis=0) - (proj - radii[:, None]).min(axis=0)
    areas = widths[:181] * widths[181:]
    best_area = float(areas.min())
    # Among near-ties prefer the angle closest to zero.
    tied = np.flatnonzero(areas <= best_area * (1.0 + 1e-9))
    best_i = int(tied[np.argmin(np.abs(coarse[tied]))])
    lo = coarse[best_i] - (coarse[1] - coarse[0])
    hi = coarse[best_i] + (coarse[1] - coarse[0])

    # Golden-section refinement inside the winning bracket.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = area(c), area(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = area(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = area(d)
    yaw = (a + b) / 2.0
    if area(0.0) <= area(yaw) * (1.0 + 1e-12):
        yaw = 0.0
    yaw = (yaw + math.pi / 2.0) % math.pi - math.pi / 2.0

    wu, mu = _support_extent(xy, radii, yaw)
    wv, mv = _support_extent(xy, radii, yaw + math.pi / 2.0)
    z_hi = float(np.max(positions[:, 2] + radii))
    z_lo = float(np.min(positions[:, 2] - radii))
    u = np.array([math.cos(yaw), math.sin(yaw)])
    v = np.array([-math.sin(yaw), math.cos(yaw)])
    center = np.array([mu * u[0] + mv * v[0], mu * u[1] + mv * v[1],
                       (z_hi + z_lo) / 2.0])
    half = np.array([wu / 2.0, wv / 2.0, (z_hi - z_lo) / 2.0])
    return center, float(yaw), half


def _cluster_goals(points: np.ndarray, radius: float = GOAL_CLUSTER_RADIUS) -> np.ndarray:
    """Greedy clustering: largest neighborhoods claim their points first.

    Only neighbour counts are held for every point; the neighbourhood itself
    is queried for each seed that is still unassigned when its turn comes, so
    no per-point neighbour lists are kept. Members are sorted, the order a
    multi-point ball query returns, so each goal is the same mean bit for bit.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return np.empty((0, 3))
    if len(points) > 20000:
        stride = -(-len(points) // 20000)
        points = points[::stride]
    tree = kdtree(points)
    counts = tree.query_ball_point(points, radius, return_length=True)
    order = np.lexsort((np.arange(len(points)), -counts))
    unassigned = np.ones(len(points), dtype=bool)
    goals = []
    for i in order:
        if not unassigned[i]:
            continue
        neigh = np.asarray(tree.query_ball_point(points[i], radius, return_sorted=True))
        members = neigh[unassigned[neigh]]
        unassigned[members] = False
        goals.append(points[members].mean(axis=0))
    return np.array(goals)


def extract(smap) -> LtvMap:
    """Topological-volumetric view of the map, one box fit per segment."""
    ltv = LtvMap()
    for label in sorted(smap.segments):
        seg = smap.segments[label]
        center, yaw, half = fit_box(*smap.node_index.rows(sorted(seg.members)))
        if len(smap.frontiers):
            d = np.linalg.norm(smap.frontiers - seg.center, axis=1)
            ratio = float(np.count_nonzero(d <= seg.radius)) / max(len(seg.members), 1)
        else:
            ratio = 0.0
        value = int(np.clip(round(_EXPLORATION_SCALE * ratio), 0, 255))
        ltv.segments.append(LtvSegment(
            id=label,
            center=np.asarray(np.asarray(center, dtype=np.float32), dtype=float),
            yaw=float(np.float32(yaw)),
            half_extents=np.asarray(np.asarray(half, dtype=np.float32), dtype=float),
            exploration=value))
    ltv.edges = sorted(smap.portals.keys())
    goals = _cluster_goals(smap.frontiers)
    ltv.goals = np.asarray(np.asarray(goals, dtype=np.float32), dtype=float).reshape(-1, 3)
    return ltv


def encoded_size(ltv: LtvMap) -> int:
    return 16 + 34 * len(ltv.segments) + 8 * len(ltv.edges) + 12 * len(ltv.goals)


def encode(ltv: LtvMap) -> bytes:
    out = [_HEADER.pack(_MAGIC, _VERSION, len(ltv.segments), len(ltv.edges))]
    for seg in ltv.segments:
        out.append(_SEGMENT.pack(seg.id, *(float(v) for v in seg.center), seg.yaw,
                                 *(float(v) for v in seg.half_extents),
                                 seg.exploration, seg.coverage))
    for a, b in ltv.edges:
        out.append(_EDGE.pack(a, b))
    for g in ltv.goals:
        out.append(_GOAL.pack(*(float(v) for v in g)))
    return b"".join(out)


def decode(data: bytes) -> LtvMap:
    if len(data) < 4:
        raise TruncatedError("buffer shorter than magic")
    if data[:4] != _MAGIC:
        raise BadMagicError(f"expected {_MAGIC!r}, got {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise TruncatedError("incomplete header")
    _, version, n_seg, n_edge = _HEADER.unpack_from(data, 0)
    if version != _VERSION:
        raise PayloadError(f"unsupported version {version}")
    pos = _HEADER.size
    need = n_seg * _SEGMENT.size + n_edge * _EDGE.size
    if len(data) - pos < need:
        raise TruncatedError("payload ended before declared records")
    ltv = LtvMap()
    ids = set()
    for _ in range(n_seg):
        sid, cx, cy, cz, yaw, hx, hy, hz, expl, cov = _SEGMENT.unpack_from(data, pos)
        pos += _SEGMENT.size
        ids.add(sid)
        ltv.segments.append(LtvSegment(sid, np.array([cx, cy, cz], dtype=float),
                                       float(yaw), np.array([hx, hy, hz], dtype=float),
                                       expl, cov))
    for _ in range(n_edge):
        a, b = _EDGE.unpack_from(data, pos)
        pos += _EDGE.size
        if a not in ids or b not in ids:
            raise PayloadError(f"edge ({a}, {b}) references unknown segment")
        ltv.edges.append((a, b))
    tail = len(data) - pos
    if tail % _GOAL.size != 0:
        raise PayloadError(f"{tail % _GOAL.size} trailing bytes after goal records")
    goals = []
    while pos < len(data):
        goals.append(_GOAL.unpack_from(data, pos))
        pos += _GOAL.size
    ltv.goals = np.array(goals, dtype=float).reshape(-1, 3)
    return ltv


def size_report(ltv: LtvMap, grid: OccupancyGrid) -> tuple[int, int, int]:
    """(ltv bytes, full-grid bytes, 1 m-downsampled-grid bytes)."""
    if grid.resolution > 1.0:
        raise ValueError("size_report expects a grid at 1 m resolution or finer")
    factor = max(int(round(1.0 / grid.resolution)), 1)
    return (len(encode(ltv)), len(save_grid(grid)), len(save_grid(downsample(grid, factor))))


def misclassified_fraction(ltv: LtvMap, grid: OccupancyGrid) -> float:
    """Fraction of box volume whose voxels are not free (boxes overclaim space)."""
    total = 0
    nonfree = 0
    for seg in ltv.segments:
        u = np.array([math.cos(seg.yaw), math.sin(seg.yaw), 0.0])
        v = np.array([-math.sin(seg.yaw), math.cos(seg.yaw), 0.0])
        hx, hy, hz = seg.half_extents
        reach = np.array([abs(u[0]) * hx + abs(v[0]) * hy,
                          abs(u[1]) * hx + abs(v[1]) * hy, hz])
        lo = np.maximum(np.floor((seg.center - reach - grid.origin) / grid.resolution), 0).astype(int)
        hi = np.minimum(np.ceil((seg.center + reach - grid.origin) / grid.resolution),
                        np.asarray(grid.states.shape)).astype(int)
        if np.any(lo >= hi):
            continue
        idx = np.stack(np.meshgrid(*(np.arange(a, b) for a, b in zip(lo, hi)),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
        centers = grid.origin + grid.resolution * (idx + 0.5)
        d = centers - seg.center
        inside = ((np.abs(d @ u) <= hx) & (np.abs(d @ v) <= hy)
                  & (np.abs(d[:, 2]) <= hz))
        if not inside.any():
            continue
        states = grid.states[idx[inside, 0], idx[inside, 1], idx[inside, 2]]
        total += int(inside.sum())
        nonfree += int(np.count_nonzero(states != FREE))
    return nonfree / total if total else 0.0
