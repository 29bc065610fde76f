import itertools

import numpy as np
import pytest
from hypothesis import settings

from spheremap import FREE, OCCUPIED, BuildParams, OccupancyGrid, SphereMap

# Property tests draw the same bounded set of examples on every run and keep
# no example database, so the suite stays reproducible. With 1000 examples
# per property, single-byte overwrites of the tests' small payloads missed
# decoder faults (a ValueError, a MemoryError) that 2000 examples find.
settings.register_profile("spheremap", derandomize=True, database=None,
                          max_examples=2000, deadline=None)
settings.load_profile("spheremap")


def box_room(extent, resolution=0.2):
    """Free box with a one-voxel occupied shell; extent is the free interior."""
    dims = tuple(int(round(e / resolution)) + 2 for e in extent)
    grid = OccupancyGrid.filled(resolution, -resolution * np.ones(3), dims, OCCUPIED)
    grid.states[1:-1, 1:-1, 1:-1] = FREE
    return grid


def spherical_cavity(radius, resolution=0.2):
    """Free ball carved in occupied space; clearance grows radially inward."""
    n = int(round(2 * radius / resolution)) + 4
    grid = OccupancyGrid.filled(resolution, -resolution * np.ones(3) * (n / 2), (n, n, n),
                                OCCUPIED)
    idx = np.argwhere(np.ones(grid.states.shape, dtype=bool))
    centers = grid.origin + resolution * (idx + 0.5)
    inside = np.einsum("ij,ij->i", centers, centers) <= radius * radius
    grid.states[idx[inside, 0], idx[inside, 1], idx[inside, 2]] = FREE
    return grid


def two_rooms_with_corridor(room=8.0, corridor_len=20.0, corridor_width=2.4,
                            height=3.0, resolution=0.2):
    """Two box rooms joined by a thin corridor along x.

    Returns (grid, room1_center, room2_center, corridor_x_range).
    """
    ex = 2 * room + corridor_len
    ey = room
    dims = (int(round(ex / resolution)) + 2, int(round(ey / resolution)) + 2,
            int(round(height / resolution)) + 2)
    grid = OccupancyGrid.filled(resolution, -resolution * np.ones(3), dims, OCCUPIED)

    def carve(lo, hi):
        a = np.maximum(np.round((np.asarray(lo) - grid.origin) / resolution).astype(int), 1)
        b = np.minimum(np.round((np.asarray(hi) - grid.origin) / resolution).astype(int),
                       np.asarray(dims) - 1)
        grid.states[a[0]:b[0], a[1]:b[1], a[2]:b[2]] = FREE

    carve((0, 0, 0), (room, room, height))
    carve((room + corridor_len, 0, 0), (ex, room, height))
    yc = room / 2
    carve((room, yc - corridor_width / 2, 0),
          (room + corridor_len, yc + corridor_width / 2, height))
    c1 = np.array([room / 2, yc, height / 2])
    c2 = np.array([room + corridor_len + room / 2, yc, height / 2])
    return grid, c1, c2, (room, room + corridor_len)


def segmented_two_rooms(r_exp=2.0, seed=None):
    """``two_rooms_with_corridor`` mapped by nine updates from room to room.
    Small segments (``r_exp``) cut the map into many segments joined by
    portals. With no ``seed`` the candidates are every other voxel, a
    lattice rich in equal-cost paths; with one, 96 rays per update drawn
    from the map's RNG. Returns (grid, smap, room1_center, room2_center)."""
    grid, c1, c2, _ = two_rooms_with_corridor()
    sampling = (dict(voxel_stride=2, ray_count=0) if seed is None
                else dict(per_voxel_samples=False, ray_count=96))
    smap = SphereMap(BuildParams(cube_side=16.0, r_exp=r_exp, r_merge=2.0 * r_exp, **sampling),
                     seed=seed or 0)
    for t in np.linspace(0, 1, 9):
        smap.update_iteration(grid, c1 + t * (c2 - c1))
    return grid, smap, c1, c2


def segment_like_an_update(smap):
    """Segments grown over every node in the order an update seeds them,
    then portals and caches."""
    for nid in sorted(smap.adj, key=lambda i: (-smap.node_index.row(i)[1], i)):
        if smap.segment_of[nid] is None:
            smap._grow_segment(smap._new_segment({nid}, *smap.node_index.row(nid)))
    for label in sorted(smap.segments):
        smap._recompute_portals(label)
    for label in sorted(smap.segments):
        smap._rebuild_cache(label)
    return smap


def lattice_map(shape=(6, 5, 2)):
    """Unit spheres on a 1 m lattice. Each links its face neighbours
    (intersection radius 0.866 > r_min) but no diagonal one (0.707), and
    every edge costs exactly 1 + 7 * (2 - 1)^2 = 8, so equal-cost paths
    abound and every path sum is exact."""
    smap = SphereMap(BuildParams(r_exp=2.5, r_merge=5.0))
    for p in itertools.product(*map(range, shape)):
        smap._add_node(np.array(p, dtype=float), 1.0)
    for nid in sorted(smap.adj):
        smap._recompute_edges(nid)
    return segment_like_an_update(smap)


def same_tables(a, b):
    """Two segments hold the same planning table: view ids, portal
    endpoints, and Dijkstra distances and predecessors bit for bit."""
    return (np.array_equal(a.view.ids, b.view.ids) and a.ends == b.ends
            and np.array_equal(a.dist, b.dist) and np.array_equal(a.pred, b.pred))


def wall_gap_room(resolution=0.2):
    """A 10 x 6 x 3.2 m box room split along x by a 0.4 m wall with a 3 m gap.

    The wall fills the two fine voxel layers of one 2x-downsampled voxel
    layer and ends on a coarse voxel boundary, so the coarse occupied
    centroids lie 0.1 m per axis behind the fine ones: clearance measured
    against the coarse grid overstates the world's around the wall's end,
    which a length-only path hugs. Returns (grid, start, goal), start and
    goal on either side of the wall.
    """
    grid = box_room((10.0, 6.0, 3.2), resolution)
    grid.states[26:28, :16, :] = OCCUPIED
    return grid, np.array([2.0, 1.4, 1.6]), np.array([8.0, 1.4, 1.6])


@pytest.fixture(scope="session")
def small_room():
    return box_room((8.0, 8.0, 3.0))
