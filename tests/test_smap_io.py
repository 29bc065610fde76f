import numpy as np
import pytest

from spheremap import (BadMagicError, BuildParams, PayloadError, SphereMap,
                       TruncatedError, check_all, load_map, save_map)

from conftest import box_room, two_rooms_with_corridor


def build_small_map(seed=0):
    grid = box_room((8.0, 8.0, 3.0))
    smap = SphereMap(BuildParams(cube_side=30.0, voxel_stride=2, ray_count=16,
                                 samples_per_ray=4), seed=seed)
    for _ in range(2):
        smap.update_iteration(grid, np.array([4.0, 4.0, 1.5]))
    return smap


def assert_maps_equal(a, b):
    assert sorted(a.nodes) == sorted(b.nodes)
    for nid in a.nodes:
        na, nb = a.nodes[nid], b.nodes[nid]
        assert np.array_equal(na.p, nb.p)
        assert na.r == nb.r
        assert na.segment == nb.segment
    assert a.adj == b.adj
    assert sorted(a.segments) == sorted(b.segments)
    for label in a.segments:
        sa, sb = a.segments[label], b.segments[label]
        assert sa.members == sb.members
        assert sa.path_cache.keys() == sb.path_cache.keys()
        for key in sa.path_cache:
            assert sa.path_cache[key][0] == sb.path_cache[key][0]
    assert sorted(a.portals) == sorted(b.portals)
    for pair in a.portals:
        pa, pb = a.portals[pair], b.portals[pair]
        assert (pa.a, pa.b) == (pb.a, pb.b)


class TestSmapFormat:
    def test_bytes_round_trip(self):
        smap = build_small_map()
        data = save_map(smap)
        assert save_map(load_map(data)) == data

    def test_structure_round_trip(self):
        smap = build_small_map()
        loaded = load_map(save_map(smap))
        assert_maps_equal(smap, loaded)
        assert loaded.params == smap.params
        assert loaded._next_node_id == smap._next_node_id
        assert loaded._next_label == smap._next_label

    def test_empty_map(self):
        smap = SphereMap(BuildParams(), seed=3)
        data = save_map(smap)
        loaded = load_map(data)
        assert loaded.node_count() == 0
        assert save_map(loaded) == data

    def test_bad_magic(self):
        data = save_map(SphereMap())
        with pytest.raises(BadMagicError):
            load_map(b"NOPE" + data[4:])

    def test_truncated(self):
        data = save_map(build_small_map())
        with pytest.raises(TruncatedError):
            load_map(data[:len(data) // 2])

    def test_surplus(self):
        data = save_map(SphereMap())
        with pytest.raises(PayloadError):
            load_map(data + b"\x01")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_round_trips(self, seed):
        smap = build_small_map(seed)
        data = save_map(smap)
        assert save_map(load_map(data)) == data


def test_loaded_map_keeps_updating_like_the_original():
    # The RNG state is not saved, so the build samples per voxel only.
    grid, c1, c2, _ = two_rooms_with_corridor()
    smap = SphereMap(BuildParams(cube_side=24.0, voxel_stride=2, ray_count=0))
    for p in (c1, c2):
        smap.update_iteration(grid, p)
    loaded = load_map(save_map(smap))
    for m in (smap, loaded):
        for p in (c1, c2):
            m.update_iteration(grid, p)
    assert save_map(loaded) == save_map(smap)
    assert check_all(loaded, grid) == []
