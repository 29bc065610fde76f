"""Replay bookkeeping of ``tools/kdprobe.py``, the k-d tree configuration probe.

The tool is imported by path; no benchmark workload runs here.
"""

import importlib.util
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from spheremap import ObstacleIndex
from spheremap.spatial import kdtree

_PATH = Path(__file__).resolve().parent.parent / "tools" / "kdprobe.py"
_spec = importlib.util.spec_from_file_location("kdprobe_tool", _PATH)
kdprobe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kdprobe)


def lattice(n, seed):
    idx = np.random.default_rng(seed).integers(0, 20, size=(n, 3))
    return 0.2 * (idx + 0.5)


def test_each_point_set_is_built_once_and_every_batch_replayed():
    probe = kdprobe.Probe({"scipy default": cKDTree, "spatial.kdtree": kdtree})
    first, second = ObstacleIndex(lattice(300, 0)), ObstacleIndex(lattice(200, 1))
    probe.record(first, lattice(50, 2))
    probe.record(first, lattice(40, 3))
    probe.record(second, lattice(30, 4))
    probe.record(second, np.empty((0, 3)))
    assert (probe.point_sets, probe.points, probe.queries) == (2, 500, 120)
    assert probe.equal == {"scipy default": True, "spatial.kdtree": True}
    assert set(probe.build_s) == set(probe.query_s) == {"scipy default", "spatial.kdtree"}


def test_a_configuration_with_other_distances_is_flagged():
    probe = kdprobe.Probe({"scipy default": cKDTree,
                           "shifted": lambda pts: cKDTree(pts + 1e-9)})
    probe.record(ObstacleIndex(lattice(300, 0)), lattice(50, 2))
    assert probe.equal == {"scipy default": True, "shifted": False}
