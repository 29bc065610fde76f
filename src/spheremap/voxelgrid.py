"""Dense voxel occupancy world model.

States are unknown/free/occupied on a fixed-resolution grid. Everything outside
the stored volume is treated as unknown, which keeps frontier extraction and
sphere growth conservative. Grids are plain data: share freely for reads,
mutate only with exclusive access.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadMagicError, PayloadError, TruncatedError

UNKNOWN = 0
FREE = 1
OCCUPIED = 2
OUT_OF_BOUNDS = 3

_MAGIC = b"VXG1"
_HEADER = struct.Struct("<d3d3I")
_RUN = struct.Struct("<BI")
_RUN_DTYPE = np.dtype([("state", "<u1"), ("count", "<u4")])
_MAX_RUN = 0xFFFFFFFF

_FACE_OFFSETS = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]


@dataclass
class OccupancyGrid:
    """Voxel field with ``states`` indexed as ``[ix, iy, iz]``.

    ``origin`` is the world position of the corner of voxel (0, 0, 0); the
    centroid of voxel (i, j, k) is ``origin + resolution * (i + .5, j + .5, k + .5)``.
    """

    resolution: float
    origin: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        self.origin = np.asarray(self.origin, dtype=float)
        self.states = np.ascontiguousarray(self.states, dtype=np.uint8)
        if self.states.ndim != 3:
            raise ValueError("states must be a 3-D array")

    @classmethod
    def filled(cls, resolution, origin, dims, state=UNKNOWN) -> "OccupancyGrid":
        return cls(resolution, np.asarray(origin, dtype=float),
                   np.full(tuple(int(d) for d in dims), state, dtype=np.uint8))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.states.shape

    def world_to_voxel(self, p) -> tuple[int, int, int] | None:
        """Voxel index containing world point ``p``, or None when out of bounds."""
        idx = np.floor((np.asarray(p, dtype=float) - self.origin) / self.resolution).astype(int)
        nx, ny, nz = self.states.shape
        if 0 <= idx[0] < nx and 0 <= idx[1] < ny and 0 <= idx[2] < nz:
            return int(idx[0]), int(idx[1]), int(idx[2])
        return None

    def voxel_center(self, ijk) -> np.ndarray:
        return self.origin + self.resolution * (np.asarray(ijk, dtype=float) + 0.5)

    def state_at(self, p) -> int:
        """State of the voxel containing ``p``; OUT_OF_BOUNDS outside the volume."""
        return int(self.states_at(p))

    def states_at(self, pts) -> np.ndarray:
        """:meth:`state_at` of every point of an (..., 3) array."""
        idx = np.floor((np.asarray(pts, dtype=float) - self.origin) / self.resolution).astype(int)
        dims = np.asarray(self.states.shape)
        inb = np.all((idx >= 0) & (idx < dims), axis=-1)
        safe = np.clip(idx, 0, dims - 1)
        return np.where(inb, self.states[safe[..., 0], safe[..., 1], safe[..., 2]],
                        OUT_OF_BOUNDS)

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.resolution, self.origin.copy(), self.states.copy())

    def world_min(self) -> np.ndarray:
        return self.origin.copy()

    def world_max(self) -> np.ndarray:
        return self.origin + self.resolution * np.asarray(self.states.shape, dtype=float)


@dataclass
class UpdateCube:
    """Axis-aligned cube around the vehicle; one update iteration mutates only this region."""

    center: np.ndarray
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError(f"cube side must be positive, got {self.side}")
        self.center = np.asarray(self.center, dtype=float)

    def padded(self, margin: float) -> "UpdateCube":
        return UpdateCube(self.center, self.side + 2.0 * margin)

    def voxel_range(self, grid: OccupancyGrid):
        """Half-open voxel index range covered by the cube, clipped to the grid.

        Returns ((i0, j0, k0), (i1, j1, k1)) or None when the cube misses the grid.
        """
        lo = (self.center - self.side / 2.0 - grid.origin) / grid.resolution
        hi = (self.center + self.side / 2.0 - grid.origin) / grid.resolution
        start = np.maximum(np.floor(lo).astype(int), 0)
        stop = np.minimum(np.ceil(hi).astype(int), np.asarray(grid.states.shape))
        if np.any(start >= stop):
            return None
        return tuple(int(v) for v in start), tuple(int(v) for v in stop)


def _centroids(grid: OccupancyGrid, mask: np.ndarray, offset) -> np.ndarray:
    idx = np.argwhere(mask)
    if idx.size == 0:
        return np.empty((0, 3), dtype=float)
    return grid.origin + grid.resolution * (idx + np.asarray(offset) + 0.5)


def _neighbours(slab: np.ndarray, offsets):
    """Views of ``slab`` shifted by each offset, aligned with its one-voxel-inset core."""
    nx, ny, nz = (n - 2 for n in slab.shape)
    for dx, dy, dz in offsets:
        yield slab[1 + dx:nx + 1 + dx, 1 + dy:ny + 1 + dy, 1 + dz:nz + 1 + dz]


def obstacle_points(grid: OccupancyGrid, cube: UpdateCube) -> np.ndarray:
    """Centroids of occupied voxels inside the cube, one point per voxel: the
    clearance yardstick, kept whole to check the :func:`surface_points` map updates index."""
    rng = cube.voxel_range(grid)
    if rng is None:
        return np.empty((0, 3), dtype=float)
    (i0, j0, k0), (i1, j1, k1) = rng
    sub = grid.states[i0:i1, j0:j1, k0:k1]
    return _centroids(grid, sub == OCCUPIED, (i0, j0, k0))


def surface_points(grid: OccupancyGrid, cube: UpdateCube) -> np.ndarray:
    """Centroids of the occupied voxels of the cube with a face neighbour that
    is not occupied or lies outside the cube.

    From a point strictly outside every occupied cell, the nearest of these
    is exactly (bit for bit) as near as the nearest :func:`obstacle_points`:
    a buried voxel has a face neighbour, occupied and in the cube, strictly
    nearer to the point. Inside an occupied cell that fails, so callers
    test such points against the grid.
    """
    rng = cube.voxel_range(grid)
    if rng is None:
        return np.empty((0, 3), dtype=float)
    (i0, j0, k0), (i1, j1, k1) = rng
    occupied = np.pad(grid.states[i0:i1, j0:j1, k0:k1] == OCCUPIED, 1)
    buried = occupied[1:-1, 1:-1, 1:-1].copy()
    for nb in _neighbours(occupied, _FACE_OFFSETS):
        buried &= nb
    return _centroids(grid, occupied[1:-1, 1:-1, 1:-1] & ~buried, (i0, j0, k0))


def frontier_points(grid: OccupancyGrid, cube: UpdateCube, connectivity: int = 6) -> np.ndarray:
    """Centroids of free voxels bordering unknown space inside the cube.

    A voxel neighbor that falls outside the stored volume counts as unknown.
    ``connectivity`` is 6 (faces) or 26 (faces + edges + corners). When the
    grid holds no unknown voxel around the cube, only the cube's faces on the
    grid border can touch unknown space, at either connectivity, so only
    they are evaluated.
    """
    if connectivity not in (6, 26):
        raise ValueError("connectivity must be 6 or 26")
    rng = cube.voxel_range(grid)
    if rng is None:
        return np.empty((0, 3), dtype=float)
    (i0, j0, k0), (i1, j1, k1) = rng
    nx, ny, nz = grid.states.shape

    # Slab with a one-voxel margin, padded with UNKNOWN where it leaves the grid.
    a = (max(i0 - 1, 0), max(j0 - 1, 0), max(k0 - 1, 0))
    b = (min(i1 + 1, nx), min(j1 + 1, ny), min(k1 + 1, nz))
    slab = grid.states[a[0]:b[0], a[1]:b[1], a[2]:b[2]]
    pads = tuple((1 - (lo - alo), 1 - (bhi - hi))
                 for lo, hi, alo, bhi in zip((i0, j0, k0), (i1, j1, k1), a, b))
    if not (slab == UNKNOWN).any():
        core = grid.states[i0:i1, j0:j1, k0:k1]
        border = np.zeros(core.shape, dtype=bool)
        for axis, pad in enumerate(pads):
            for side, face in zip(pad, (0, -1)):
                if side:
                    at = (slice(None),) * axis + (face,)
                    border[at] = core[at] == FREE
        return _centroids(grid, border, (i0, j0, k0))
    slab = np.pad(slab, pads, constant_values=UNKNOWN)

    core = slab[1:-1, 1:-1, 1:-1]
    if connectivity == 6:
        offsets = _FACE_OFFSETS
    else:
        offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                   for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]
    near_unknown = np.zeros(core.shape, dtype=bool)
    for nb in _neighbours(slab, offsets):
        near_unknown |= nb == UNKNOWN
    return _centroids(grid, (core == FREE) & near_unknown, (i0, j0, k0))


def grid_obstacles(grid: OccupancyGrid, connectivity: int = 6) -> np.ndarray:
    """Occupied-voxel and frontier centroids of the whole grid, as (N, 3):
    the obstacle set that bounds sphere radii, over every voxel at once."""
    span = float(np.max(grid.world_max() - grid.world_min()))
    cube = UpdateCube(0.5 * (grid.world_min() + grid.world_max()), span + 2 * grid.resolution)
    return np.concatenate([obstacle_points(grid, cube),
                           frontier_points(grid, cube, connectivity)], axis=0)


def raycast_free(grid: OccupancyGrid, p_from, p_to) -> bool:
    """True iff every voxel traversed by the segment is free.

    Uses an integer voxel walk stepping one boundary at a time; endpoints are
    ordered canonically first so the result is symmetric.
    """
    a = np.asarray(p_from, dtype=float)
    b = np.asarray(p_to, dtype=float)
    if tuple(b) < tuple(a):
        a, b = b, a
    ia = grid.world_to_voxel(a)
    ib = grid.world_to_voxel(b)
    if ia is None or ib is None:
        return False
    if grid.states[ia] != FREE or grid.states[ib] != FREE:
        return False
    if ia == ib:
        return True

    d = b - a
    cur = list(ia)
    step = [0, 0, 0]
    t_max = [np.inf, np.inf, np.inf]
    t_delta = [np.inf, np.inf, np.inf]
    for ax in range(3):
        if d[ax] > 0:
            step[ax] = 1
            bound = grid.origin[ax] + (cur[ax] + 1) * grid.resolution
            t_max[ax] = (bound - a[ax]) / d[ax]
            t_delta[ax] = grid.resolution / d[ax]
        elif d[ax] < 0:
            step[ax] = -1
            bound = grid.origin[ax] + cur[ax] * grid.resolution
            t_max[ax] = (bound - a[ax]) / d[ax]
            t_delta[ax] = -grid.resolution / d[ax]

    target = list(ib)
    # Upper bound on steps guards against degenerate floating-point stalls.
    for _ in range(sum(abs(t - c) for t, c in zip(target, cur)) + 3):
        if cur == target:
            return True
        ax = t_max.index(min(t_max))
        cur[ax] += step[ax]
        t_max[ax] += t_delta[ax]
        if grid.states[cur[0], cur[1], cur[2]] != FREE:
            return False
    return cur == target


def downsample(grid: OccupancyGrid, factor: int) -> OccupancyGrid:
    """Coarsen by an integer factor: occupied wins over free, free over unknown."""
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return grid.copy()
    nx, ny, nz = grid.states.shape
    cd = (-(-nx // factor), -(-ny // factor), -(-nz // factor))
    padded = np.pad(grid.states,
                    ((0, cd[0] * factor - nx), (0, cd[1] * factor - ny), (0, cd[2] * factor - nz)),
                    constant_values=UNKNOWN)
    blocks = padded.reshape(cd[0], factor, cd[1], factor, cd[2], factor)
    # State codes are ordered so the priority rule is a plain max.
    coarse = blocks.max(axis=(1, 3, 5))
    return OccupancyGrid(grid.resolution * factor, grid.origin.copy(), coarse)


def save_grid(grid: OccupancyGrid) -> bytes:
    """Serialize to the VOXGRID v1 byte format (run-length encoded, x-fastest)."""
    nx, ny, nz = grid.states.shape
    out = [_MAGIC, _HEADER.pack(grid.resolution, *grid.origin, nx, ny, nz)]
    flat = grid.states.ravel(order="F")
    if flat.size:
        breaks = np.flatnonzero(np.diff(flat)) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [flat.size]))
        for s, e in zip(starts, ends):
            count = int(e - s)
            state = int(flat[s])
            while count > _MAX_RUN:
                out.append(_RUN.pack(state, _MAX_RUN))
                count -= _MAX_RUN
            out.append(_RUN.pack(state, count))
    return b"".join(out)


def load_grid(data: bytes) -> OccupancyGrid:
    """Parse VOXGRID v1 bytes; inverse of :func:`save_grid`."""
    if len(data) < 4:
        raise TruncatedError("buffer shorter than magic")
    if data[:4] != _MAGIC:
        raise BadMagicError(f"expected {_MAGIC!r}, got {data[:4]!r}")
    if len(data) < 4 + _HEADER.size:
        raise TruncatedError("incomplete header")
    resolution, ox, oy, oz, nx, ny, nz = _HEADER.unpack_from(data, 4)
    if resolution <= 0 or not np.isfinite(resolution):
        raise PayloadError(f"bad resolution {resolution}")
    if not np.all(np.isfinite((ox, oy, oz))):
        raise PayloadError(f"non-finite origin {(ox, oy, oz)}")
    total = nx * ny * nz
    pos = 4 + _HEADER.size
    n_runs, tail = divmod(len(data) - pos, _RUN.size)
    runs = np.frombuffer(data, dtype=_RUN_DTYPE, count=n_runs, offset=pos)
    values, counts = runs["state"], runs["count"]
    # Every check runs before allocating, so hostile dims or counts cannot
    # ask for more voxels than the runs present actually cover.
    if np.any(values > OCCUPIED):
        raise PayloadError(f"invalid state byte {int(values.max())}")
    if np.any(counts == 0):
        raise PayloadError("run of zero voxels")
    covered = int(counts.sum(dtype=np.uint64))
    if covered < total:
        raise TruncatedError(f"payload too short for {nx}x{ny}x{nz} voxels")
    if covered > total:
        raise PayloadError("run-length payload does not match voxel count")
    if tail:
        raise PayloadError(f"{tail} surplus bytes after payload")
    states = np.repeat(values, counts.astype(np.intp)).reshape((nx, ny, nz), order="F")
    return OccupancyGrid(resolution, np.array([ox, oy, oz]), states)
