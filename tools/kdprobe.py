"""Build and query times of k-d tree configurations on one benchmark pass.

    python3 tools/kdprobe.py <repo-root> <workload>

Runs set-up and the first pass of ``<workload>`` (from
``<repo-root>/perfbench/workloads.py``) at seed 1 with the spheremap sources
of ``<repo-root>/src``. Every point set an ``ObstacleIndex`` is queried on,
and every batch of ``nearest_distances`` queries, is replayed on the spot
under each configuration below: the tree is built once per point set and
queried once per batch. For each configuration the command prints the total
build and query seconds, their sum as a share of scipy's default tree's, and
whether every distance equals the default tree's bit for bit; it exits 1
when one does not. ``spatial.kdtree`` is the configuration the
package builds with, when ``<repo-root>`` has one.

Re-run it when scipy or the workloads change, to check ``spatial.LEAF_SIZE``
and the tree options. Every tree runs on one thread. Timings carry the
machine's noise, so compare configurations within one run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

CONFIGS = {
    "scipy default": {},
    "balanced_tree=False": dict(balanced_tree=False),
    **{f"sliding midpoint, leafsize {n}": dict(leafsize=n, balanced_tree=False,
                                               compact_nodes=False)
       for n in (16, 32, 64, 128)},
}


class Probe:
    """Replays each queried point set and query batch under every configuration."""

    def __init__(self, builders):
        self.builders = builders
        self.build_s: dict[str, float] = defaultdict(float)
        self.query_s: dict[str, float] = defaultdict(float)
        self.equal = {name: True for name in builders}
        self.point_sets = self.points = self.queries = 0
        self._index = None  # held, so a later index cannot reuse its id
        self._trees: dict = {}

    def _trees_for(self, index):
        if index is not self._index:
            self._index, self._trees = index, {}
            self.point_sets += 1
            self.points += len(index.points)
            for name in self._rotated():
                t0 = time.perf_counter()
                self._trees[name] = self.builders[name](index.points)
                self.build_s[name] += time.perf_counter() - t0
        return self._trees

    def _rotated(self):
        # Each configuration takes its turn at running first on a fresh set.
        names = list(self.builders)
        k = self.point_sets % len(names)
        return names[k:] + names[:k]

    def record(self, index, qs) -> None:
        qs = np.asarray(qs, dtype=float).reshape(-1, 3)
        if not len(index.points) or not len(qs):
            return
        trees = self._trees_for(index)
        self.queries += len(qs)
        dists = {}
        for name in self._rotated():
            t0 = time.perf_counter()
            dists[name] = trees[name].query(qs)[0]
            self.query_s[name] += time.perf_counter() - t0
        reference = dists["scipy default"]
        for name, d in dists.items():
            self.equal[name] &= bool(np.array_equal(d, reference))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from spheremap import spatial
    from tracing import Tracer
    from workloads import WORKLOADS, Runner

    builders = {name: (lambda pts, kw=kw: cKDTree(pts, **kw)) for name, kw in CONFIGS.items()}
    if hasattr(spatial, "kdtree"):
        builders["spatial.kdtree"] = spatial.kdtree
    probe = Probe(builders)
    original = spatial.ObstacleIndex.nearest_distances

    def recorded(index, qs):
        probe.record(index, qs)
        return original(index, qs)

    spatial.ObstacleIndex.nearest_distances = recorded
    try:
        runner = Runner(WORKLOADS[argv[1]], 1, Tracer())
        runner.run_pass(runner.setup())
    finally:
        spatial.ObstacleIndex.nearest_distances = original

    base = probe.build_s["scipy default"] + probe.query_s["scipy default"]
    print(f"{argv[1]}: {probe.point_sets} point sets, {probe.points} points, "
          f"{probe.queries} queries")
    for name in builders:
        total = probe.build_s[name] + probe.query_s[name]
        print(f"  {name:32s} build {probe.build_s[name]:7.3f} s  "
              f"query {probe.query_s[name]:7.3f} s  total {total / base:6.1%} of default  "
              f"bit-equal {'yes' if probe.equal[name] else 'NO'}")
    return 0 if all(probe.equal.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
