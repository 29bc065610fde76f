"""SMAP v1 snapshot format (little-endian).

Canonical ordering (nodes by id, edges and cache entries sorted, segments by
label) makes ``save`` deterministic and ``save(load(b)) == b`` bit-exact.
Node coordinates are float32 on the wire, matching the in-memory quantization,
so a loaded map is structurally identical to the saved one. The frontier store
and RNG state are not part of the snapshot.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .core import BuildParams, Portal, Segment, SphereMap
from .errors import BadMagicError, PayloadError, TruncatedError

_MAGIC = b"SMP1"
_PARAMS = struct.Struct("<9dBB3IQ")
_U32 = struct.Struct("<I")
_COUNTERS = struct.Struct("<II")
_NODE = struct.Struct("<I3ffI")
_EDGE = struct.Struct("<II")
_SEG = struct.Struct("<I3ffBI")
_PORTAL = struct.Struct("<IIIf")
_CACHE = struct.Struct("<IIH")
_F32 = struct.Struct("<f")
_UNASSIGNED = 0xFFFFFFFF


def save_map(smap: SphereMap) -> bytes:
    p = smap.params
    out = [_MAGIC,
           _PARAMS.pack(p.r_min, p.cube_side, p.r_exp, p.r_merge, p.kappa,
                        p.eps_r, p.r_cap, p.xi, p.d_max,
                        1 if p.per_voxel_samples else 0, p.frontier_connectivity,
                        p.voxel_stride, p.ray_count, p.samples_per_ray,
                        smap.seed & 0xFFFFFFFFFFFFFFFF),
           _COUNTERS.pack(smap._next_node_id, smap._next_label)]

    out.append(_U32.pack(len(smap.nodes)))
    for nid in sorted(smap.nodes):
        node = smap.nodes[nid]
        seg = _UNASSIGNED if node.segment is None else node.segment
        out.append(_NODE.pack(nid, *(float(v) for v in node.p), node.r, seg))

    edges = sorted(smap.edges())
    out.append(_U32.pack(len(edges)))
    for a, b in edges:
        out.append(_EDGE.pack(a, b))

    out.append(_U32.pack(len(smap.segments)))
    for label in sorted(smap.segments):
        seg = smap.segments[label]
        portals = []
        for pair, portal in smap.portals.items():
            if pair[0] == label:
                portals.append((pair[1], portal.a, portal.b, portal.radius))
            elif pair[1] == label:
                portals.append((pair[0], portal.b, portal.a, portal.radius))
        portals.sort()
        flags = (1 if seg.altered else 0) | (2 if seg.box_dirty else 0)
        out.append(_SEG.pack(label, *(float(v) for v in seg.center), seg.radius,
                             flags, len(portals)))
        for other, here, there, rad in portals:
            out.append(_PORTAL.pack(other, here, there, rad))
        entries = sorted(seg.path_cache.items())
        out.append(_U32.pack(len(entries)))
        for (n1, n2), (path, cost) in entries:
            if len(path) > 0xFFFF:
                raise ValueError("cached path too long for u16 length field")
            out.append(_CACHE.pack(n1, n2, len(path)))
            out.append(struct.pack(f"<{len(path)}I", *path))
            out.append(_F32.pack(cost))
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

    def take_u32s(self, n: int):
        st = struct.Struct(f"<{n}I")
        return self.take(st)


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

    (n_nodes,) = rd.take(_U32)
    for _ in range(n_nodes):
        nid, x, y, z, r, seg = rd.take(_NODE)
        if nid in smap.nodes:
            raise PayloadError(f"duplicate node id {nid}")
        if not _finite(x, y, z, r) or r < params.r_min:
            raise PayloadError(f"node {nid} has a bad position or radius")
        smap._add_node((x, y, z), r, nid)
        smap.nodes[nid].segment = None if seg == _UNASSIGNED else int(seg)

    (n_edges,) = rd.take(_U32)
    for _ in range(n_edges):
        a, b = rd.take(_EDGE)
        if a not in smap.nodes or b not in smap.nodes or a == b:
            raise PayloadError(f"bad edge ({a}, {b})")
        smap.adj[a].add(b)
        smap.adj[b].add(a)

    (n_segs,) = rd.take(_U32)
    for _ in range(n_segs):
        label, cx, cy, cz, rad, flags, n_portals = rd.take(_SEG)
        if not _finite(cx, cy, cz, rad):
            raise PayloadError(f"segment {label} has a non-finite centre or radius")
        members = {nid for nid, node in smap.nodes.items() if node.segment == label}
        seg = Segment(label, members, np.array([cx, cy, cz], dtype=float), float(rad),
                      altered=bool(flags & 1), box_dirty=bool(flags & 2))
        if label in smap.segments:
            raise PayloadError(f"duplicate segment label {label}")
        smap.segments[label] = seg
        for _ in range(n_portals):
            other, here, there, prad = rd.take(_PORTAL)
            if not _finite(prad):
                raise PayloadError(f"portal ({label}, {other}) has a non-finite radius")
            pair = (label, other) if label < other else (other, label)
            a, b = (here, there) if label < other else (there, here)
            portal = Portal(pair, a, b, float(prad))
            existing = smap.portals.get(pair)
            if existing is not None and (existing.a, existing.b, existing.radius) != (a, b, portal.radius):
                raise PayloadError(f"conflicting portal records for pair {pair}")
            smap.portals[pair] = portal
        (n_cache,) = rd.take(_U32)
        for _ in range(n_cache):
            n1, n2, plen = rd.take(_CACHE)
            ids = rd.take_u32s(plen)
            (cost,) = rd.take(_F32)
            if not _finite(cost):
                raise PayloadError(f"cached path ({n1}, {n2}) has a non-finite cost")
            seg.path_cache[(n1, n2)] = (tuple(int(i) for i in ids), float(cost))

    if rd.pos != len(data):
        raise PayloadError(f"{len(data) - rd.pos} surplus bytes after payload")
    return smap
