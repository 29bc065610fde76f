"""SMAP v2 snapshot format (little-endian).

A snapshot holds only what the map cannot derive: the build parameters, the
id and label counters, the nodes (id, float32 centre and radius, segment
label) and each segment's label and bounding sphere. Edges follow
from the intersection rule, portals are the widest inter-segment edges and
tables are Dijkstra searches from portal endpoints, so ``load_map`` rebuilds
them with the code that built them the first time (``_recompute_edges``,
``_recompute_portals``, ``_rebuild_cache``). No stored copy can contradict
the spheres, and as the map keeps its spheres at float32, the rebuilt layers
equal the saved map's bit for bit. ``load_map`` also rejects empty or
disconnected segments and nodes without a listed segment, so a loaded map
passes ``check_structure``; ``save_map`` refuses such a node, which no
update leaves.

Nodes are written by id and segments by label, so ``save`` is deterministic
and ``save(load(b)) == b``. The frontier store and RNG state are not saved.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import BuildParams, Segment, SphereMap
from .errors import BadMagicError, PayloadError, TruncatedError
from .planner import graph_view

_MAGIC = b"SMP2"
_PARAMS = struct.Struct("<9dBB3IQ")
_U32 = struct.Struct("<I")
_COUNTERS = struct.Struct("<II")
_NODE = struct.Struct("<I3ffI")
_SEG = struct.Struct("<I3ff")


def save_map(smap: SphereMap) -> bytes:
    p = smap.params
    out = [_MAGIC,
           _PARAMS.pack(p.r_min, p.cube_side, p.r_exp, p.r_merge, p.kappa,
                        p.eps_r, p.r_cap, p.xi, p.d_max,
                        1 if p.per_voxel_samples else 0, p.frontier_connectivity,
                        p.voxel_stride, p.ray_count, p.samples_per_ray,
                        smap.seed & 0xFFFFFFFFFFFFFFFF),
           _COUNTERS.pack(smap._next_node_id, smap._next_label)]

    ids = sorted(smap.adj)
    pos, radii = smap.node_index.rows(ids)
    out.append(_U32.pack(len(ids)))
    for nid, p, r in zip(ids, pos.tolist(), radii.tolist()):
        if smap.segment_of[nid] is None:
            raise ValueError(f"node {nid} has no segment")
        out.append(_NODE.pack(nid, *p, r, smap.segment_of[nid]))

    out.append(_U32.pack(len(smap.segments)))
    for label in sorted(smap.segments):
        seg = smap.segments[label]
        out.append(_SEG.pack(label, *(float(v) for v in seg.center), seg.radius))
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, st: struct.Struct):
        if self.pos + st.size > len(self.data):
            raise TruncatedError("buffer ended inside a record")
        vals = st.unpack_from(self.data, self.pos)
        self.pos += st.size
        return vals

    def records(self, st: struct.Struct) -> list[tuple]:
        (count,) = self.take(_U32)
        return [self.take(st) for _ in range(count)]


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def load_map(data: bytes) -> SphereMap:
    if len(data) < 4:
        raise TruncatedError("buffer shorter than magic")
    if data[:4] != _MAGIC:
        raise BadMagicError(f"expected {_MAGIC!r}, got {data[:4]!r}")
    rd = _Reader(data, 4)
    (r_min, cube_side, r_exp, r_merge, kappa, eps_r, r_cap, xi, d_max,
     per_voxel, conn, stride, ray_count, samples_per_ray, seed) = rd.take(_PARAMS)
    try:
        params = BuildParams(r_min=r_min, cube_side=cube_side, r_exp=r_exp,
                             r_merge=r_merge, kappa=kappa, eps_r=eps_r, r_cap=r_cap,
                             xi=xi, d_max=d_max, per_voxel_samples=bool(per_voxel),
                             frontier_connectivity=conn, voxel_stride=stride,
                             ray_count=ray_count, samples_per_ray=samples_per_ray)
        smap = SphereMap(params, seed=int(seed))
    except ValueError as exc:
        raise PayloadError(f"invalid params block: {exc}") from exc
    smap._next_node_id, smap._next_label = rd.take(_COUNTERS)
    nodes = rd.records(_NODE)
    segs = rd.records(_SEG)
    if rd.pos != len(data):
        raise PayloadError(f"{len(data) - rd.pos} surplus bytes after payload")

    for label, cx, cy, cz, rad in segs:
        if label in smap.segments:
            raise PayloadError(f"duplicate segment label {label}")
        if not _finite(cx, cy, cz, rad):
            raise PayloadError(f"segment {label} has a non-finite centre or radius")
        if label >= smap._next_label:
            raise PayloadError(f"segment label {label} is not below the label counter")
        smap.segments[label] = Segment(label, set(), np.array([cx, cy, cz], dtype=float),
                                       float(rad))

    # The map clamps radii to r_cap, so this rejects only radii that no
    # update can produce.
    r_cap = float(np.float32(params.r_cap))
    for nid, x, y, z, r, label in nodes:
        if nid in smap.node_index:
            raise PayloadError(f"duplicate node id {nid}")
        if nid >= smap._next_node_id:
            raise PayloadError(f"node id {nid} is not below the id counter")
        if not _finite(x, y, z, r) or not params.r_min <= r <= r_cap:
            raise PayloadError(f"node {nid} has a bad position or radius")
        if label not in smap.segments:
            raise PayloadError(f"node {nid} names unlisted segment {label}")
        smap._add_node((x, y, z), r, nid)
        smap.segment_of[nid] = label
        smap.segments[label].members.add(nid)

    for nid in sorted(smap.adj):
        smap._recompute_edges(nid)
    for label, seg in smap.segments.items():
        if connected_components(graph_view(smap, seg.members).graph, connection="strong")[0] != 1:
            raise PayloadError(f"segment {label} is empty or not connected")
    for label in sorted(smap.segments):
        smap._recompute_portals(label)
    for label in sorted(smap.segments):
        smap._rebuild_cache(label)
    return smap
