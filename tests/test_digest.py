"""Hashing of ``tools/digest.py``, the check that a change keeps maps and plans.

The tool is imported by path; no benchmark workload runs here.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spheremap import (BuildParams, Segment, SphereMap, astar_sphere_graph, load_map,
                       save_map)

from conftest import box_room

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest_tool", _PATH)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


@pytest.fixture(scope="module")
def small_map():
    smap = SphereMap(BuildParams(cube_side=30.0, voxel_stride=2, ray_count=16,
                                 samples_per_ray=4), seed=0)
    grid = box_room((8.0, 8.0, 3.0))
    for _ in range(2):
        smap.update_iteration(grid, np.array([4.0, 4.0, 1.5]))
    return smap


def test_structure_survives_the_smap_round_trip(small_map):
    assert small_map.node_count() > 1
    loaded = load_map(save_map(small_map))
    assert digest.structure_digest(loaded) == digest.structure_digest(small_map)


def test_structure_changes_with_one_radius(small_map):
    loaded = load_map(save_map(small_map))
    before = digest.structure_digest(loaded)
    nid = min(loaded.adj)
    r = loaded.node_index.row(nid)[1]
    loaded._set_radius(nid, float(np.nextafter(np.float32(r), np.float32(0.0))))
    assert digest.structure_digest(loaded) != before


def test_structure_digest_is_pinned():
    # A chain of six spheres in three segments (two portals, one cached path)
    # and one unlabeled sphere. The digest hashes the repr of Python floats
    # and None; a numpy scalar or a changed label repr would change the value.
    smap = SphereMap(BuildParams(), seed=0)
    for p, r in [((0, 0, 0), 1.5), ((2, 0, 0), 1.5), ((4, 0, 0), 1.6), ((6, 0.1, 0), 1.5),
                 ((8, 0, 0), 1.5), ((10, 0, 0), 1.5), ((20, 0, 0), 1.0)]:
        smap._recompute_edges(smap._add_node(p, r))
    for label, members in {0: {0, 1}, 1: {2, 3}, 2: {4, 5}}.items():
        smap.segments[label] = Segment(label, set(members), np.zeros(3), 0.0)
        for nid in members:
            smap.segment_of[nid] = label
        smap._refresh_bounds(label)
    for label in range(3):
        smap._recompute_portals(label)
    for label in range(3):
        smap._rebuild_cache(label)
    assert len(smap.portals) == 2 and len(digest.portal_paths(smap.segments[1])) == 1
    assert digest.structure_digest(smap) == "faf70b7968b0d4dfa29ca53cf4ce9bcf4cad1aec"


def test_plans_tell_a_missing_plan_from_a_found_one(small_map):
    start, goal = np.array([2.0, 2.0, 1.5]), np.array([6.0, 6.0, 1.5])
    found = astar_sphere_graph(small_map, start, goal, small_map.plan_params)
    assert found is not None
    with_plan = digest.plans_digest([("full", start, goal, found)])
    assert with_plan != digest.plans_digest([("full", start, goal, None)])
    assert with_plan == digest.plans_digest([("full", start.copy(), goal.copy(), found)])


def test_plans_see_one_ulp_of_cost(small_map):
    start, goal = np.array([2.0, 2.0, 1.5]), np.array([6.0, 6.0, 1.5])
    found = astar_sphere_graph(small_map, start, goal, small_map.plan_params)
    nudged = dataclasses.replace(found, length=float(np.nextafter(found.cost, np.inf)),
                                 risk=0.0)
    assert nudged.cost == np.nextafter(found.cost, np.inf)
    np.testing.assert_array_equal(nudged.waypoints, found.waypoints)
    assert (digest.plans_digest([("full", start, goal, nudged)])
            != digest.plans_digest([("full", start, goal, found)]))
