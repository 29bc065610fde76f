"""Digests of the maps and plans one benchmark pass produces.

    python3 tools/digest.py <repo-root> <workload>...

For each workload of ``<repo-root>/perfbench/workloads.py`` this runs set-up
and the first pass at seed 1 with the spheremap sources of
``<repo-root>/src``, then prints one line of SHA-1 digests:

- ``structure``: nodes, edges, segments, portals and the optimal paths
  between each segment's portal endpoints (``portal_paths``) of the pass's
  map, hashed from the map objects (not from SMAP bytes), so two snapshot
  formats that hold the same map give the same digest. Segment bounding
  spheres enter at float32, the precision SMAP keeps;
- ``loaded``: the same digest of ``load_map(save_map(map))``, and
  ``problems``, the number of ``check_structure`` problems of that map;
- ``plans``: the cost and waypoints of every plan of set-up and the pass;
- ``ltv``: the encoded LTV export of the map.

Run it on two checkouts to check that a change keeps the same maps and
plans: every digest but ``loaded`` should match. The command exits 1 when a
workload's ``loaded`` differs from its ``structure`` or ``problems`` is not
0, that is, when a map does not survive its own SMAP round trip.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np


def portal_paths(seg) -> dict:
    """{(a, b): (path, cost)} for the segment's portal endpoints a < b, read
    off its table: the form, and the repr, of the per-segment path cache that
    earlier map layouts kept, so their digests compare with today's."""
    at = seg.view.rank(seg.ends)
    return {(a, b): (tuple(seg.view.unwind(seg.pred[i], at[j])), float(seg.dist[i, at[j]]))
            for i, a in enumerate(seg.ends) for j, b in enumerate(seg.ends) if i < j}


def structure_digest(smap) -> str:
    h = hashlib.sha1()
    for nid in sorted(smap.adj):
        p, r = smap.node_index.row(nid)
        h.update(repr((nid, p.tolist(), r, smap.segment_of[nid],
                       sorted(smap.adj[nid]))).encode())
    for label in sorted(smap.segments):
        seg = smap.segments[label]
        center = np.asarray(seg.center, dtype=np.float32).tolist()
        h.update(repr((label, sorted(seg.members), center, float(np.float32(seg.radius)),
                       sorted(portal_paths(seg).items()))).encode())
    for pair in sorted(smap.portals):
        portal = smap.portals[pair]
        h.update(repr((pair, portal.a, portal.b, portal.radius)).encode())
    return h.hexdigest()


def plans_digest(plans) -> str:
    h = hashlib.sha1()
    for mode, start, goal, res in plans:
        h.update(repr((mode, np.asarray(start).tolist(), np.asarray(goal).tolist())).encode())
        h.update(b"none" if res is None
                 else repr((res.cost, res.waypoints.tolist())).encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from spheremap import ltv, smap_io, validate
    from tracing import Tracer
    from workloads import WORKLOADS, Runner

    status = 0
    for name in argv[1:]:
        runner = Runner(WORKLOADS[name], 1, Tracer())
        scene = runner.setup()
        done = runner.run_pass(scene)
        plans = (scene.log.plans if scene.log is not None else []) + done.log.plans
        loaded = smap_io.load_map(smap_io.save_map(done.smap))
        structure, loaded_structure = structure_digest(done.smap), structure_digest(loaded)
        problems = len(validate.check_structure(loaded))
        ltv_sha = hashlib.sha1(ltv.encode(ltv.extract(done.smap))).hexdigest()
        print(f"{name} structure {structure} loaded {loaded_structure} "
              f"problems {problems} "
              f"plans {plans_digest(plans)} ({len(plans)} plans) ltv {ltv_sha}", flush=True)
        if loaded_structure != structure or problems:
            print(f"{name}: the map does not survive its SMAP round trip", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
