"""Brute-force clearance and reachability on the fine world grid.

Independent of the program's own clearance code, so a change to
``ClearanceField`` or the obstacle index cannot move the yardstick.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from spheremap.voxelgrid import FREE, OCCUPIED


class Reference:
    """Exact distances to occupied-voxel centroids, and the free components
    at clearance above ``r_min`` (26-connected, the grid planner's moves).

    Only occupied voxels with a non-occupied face neighbour enter the k-d
    tree: for a query point outside the solid, an interior voxel always has
    a face neighbour that is at least as close, so distances are unchanged.
    """

    def __init__(self, world, r_min: float):
        self.world = world
        self.r_min = r_min
        occ = world.states == OCCUPIED
        interior = ndimage.binary_erosion(occ, structure=ndimage.generate_binary_structure(3, 1),
                                          border_value=1)
        surface = np.argwhere(occ & ~interior)
        self._tree = cKDTree(world.origin + world.resolution * (surface + 0.5))
        clearance = ndimage.distance_transform_edt(~occ, sampling=world.resolution)
        traversable = (world.states == FREE) & (clearance > r_min)
        self.labels, self.components = ndimage.label(traversable,
                                                     structure=np.ones((3, 3, 3)))

    def nearest_distance(self, p) -> float:
        d, _ = self._tree.query(np.asarray(p, dtype=float))
        return float(d)

    def label_at(self, p) -> int:
        ijk = self.world.world_to_voxel(p)
        return 0 if ijk is None else int(self.labels[ijk])

    def connected(self, a, b) -> bool:
        la = self.label_at(a)
        return la > 0 and la == self.label_at(b)
