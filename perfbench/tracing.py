"""Spans and counters recorded around the public functions of spheremap.

The tracer wraps each target from the benchmark's side: the program's
sources are untouched. A function is wrapped under every name a caller looks
it up by, so ``core``'s by-name imports of ``obstacle_points`` and
``mission.run_mission``'s module-global ``reveal`` are both caught. Spans stay
in memory until the run ends; ``self_times`` turns them into self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _stats(args, result):
    return dict(result)


def _length(key):
    return lambda args, result: {key: len(result)}


def _elements(args, result):
    return {"elements": int(result.size)}


# (metric prefix, module, attribute path, counter function or None)
TARGETS = (
    ("voxelgrid.obstacle_points", "voxelgrid", "obstacle_points", _length("points")),
    ("voxelgrid.frontier_points", "voxelgrid", "frontier_points", _length("points")),
    ("voxelgrid.raycast_free", "voxelgrid", "raycast_free", None),
    ("spatial.ObstacleIndex.build", "spatial", "ObstacleIndex.build", _length("points")),
    ("spatial.ObstacleIndex.nearest_distances", "spatial",
     "ObstacleIndex.nearest_distances", _length("queries")),
    ("spatial.NodeIndex.query", "spatial", "NodeIndex.query", None),
    ("geometry.coverage_matrix", "geometry", "coverage_matrix", _elements),
    ("geometry.covered_fractions", "geometry", "covered_fractions", None),
    ("core.update_iteration", "core", "SphereMap.update_iteration", None),
    ("core.recompute_and_prune", "core", "SphereMap.recompute_and_prune", _stats),
    ("core.expand", "core", "SphereMap.expand", _stats),
    ("core.segment_update", "core", "SphereMap.segment_update", _stats),
    ("planner.astar_nodes", "planner", "astar_nodes", None),
    ("planner.plan_cached", "planner", "plan_cached", None),
    ("planner.astar_sphere_graph", "planner", "astar_sphere_graph", None),
    ("planner.grid_astar", "planner", "grid_astar", None),
    ("mission.reveal", "mission", "reveal", None),
    ("ltv.extract", "ltv", "extract", None),
    ("ltv.encode", "ltv", "encode", None),
    ("smap_io.save_map", "smap_io", "save_map", None),
    ("smap_io.load_map", "smap_io", "load_map", None),
)


class Tracer:
    """Records spans (name, start, end, parent, op) while ``active``.

    ``op`` is the id of the iteration or query a span belongs to; the
    benchmark advances it with ``next_op`` before each one.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.active = False
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        self.op += 1

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.counters[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded spheremap module that names it."""
        package = importlib.import_module("spheremap")
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith("spheremap.") and m is not None]
        for name, module_name, path, count in TARGETS:
            owner = importlib.import_module(f"spheremap.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    wrapped = self._wrap(name, raw, count)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children, summed per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)
