import math
import struct

import numpy as np
import pytest

from spheremap import smap_io
from spheremap import (BadMagicError, BuildParams, PayloadError, Segment, SphereMap,
                       TruncatedError, check_all, load_map, save_map)

from conftest import box_room, same_tables, two_rooms_with_corridor


def build_small_map(seed=0):
    grid = box_room((8.0, 8.0, 3.0))
    smap = SphereMap(BuildParams(cube_side=30.0, voxel_stride=2, ray_count=16,
                                 samples_per_ray=4), seed=seed)
    for _ in range(2):
        smap.update_iteration(grid, np.array([4.0, 4.0, 1.5]))
    return smap


def assert_maps_equal(a, b):
    assert sorted(a.adj) == sorted(b.adj)
    for nid in a.adj:
        (pa, ra), (pb, rb) = a.node_index.row(nid), b.node_index.row(nid)
        assert np.array_equal(pa, pb)
        assert ra == rb
    assert a.segment_of == b.segment_of
    assert a.adj == b.adj
    assert sorted(a.segments) == sorted(b.segments)
    for label in a.segments:
        sa, sb = a.segments[label], b.segments[label]
        assert sa.members == sb.members
        assert same_tables(sa, sb)
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

    def test_v1_buffer_is_rejected(self):
        data = save_map(build_small_map())
        with pytest.raises(BadMagicError):
            load_map(b"SMP1" + data[4:])

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


def _one_node_map():
    smap = SphereMap(BuildParams(), seed=0)
    nid = smap._add_node((1.0, 2.0, 3.0), 1.5)
    smap._new_segment({nid}, smap.node_index.row(nid)[0], 1.5)
    return save_map(smap)


def _float_offsets(data):
    """Byte offsets of the first segment's centre x and radius in an SMAP buffer."""
    pos = 4 + smap_io._PARAMS.size + smap_io._COUNTERS.size
    pos += 4 + struct.unpack_from("<I", data, pos)[0] * smap_io._NODE.size
    n_segs = struct.unpack_from("<I", data, pos)[0]
    assert pos + 4 + n_segs * smap_io._SEG.size == len(data)
    return {"segment centre": pos + 8, "segment radius": pos + 20}


@pytest.fixture(scope="module")
def two_room_map():
    grid, c1, c2, _ = two_rooms_with_corridor()
    smap = SphereMap(BuildParams(cube_side=16.0, voxel_stride=2, ray_count=0,
                                 r_exp=3.0, r_merge=8.0))
    for t in np.linspace(0, 1, 5):
        smap.update_iteration(grid, c1 + t * (c2 - c1))
    assert smap.portals and any(len(seg.ends) > 1 for seg in smap.segments.values())
    return smap


@pytest.fixture(scope="module")
def two_room_blob(two_room_map):
    return save_map(two_room_map)


class TestHostileValues:
    NODE = 4 + smap_io._PARAMS.size + smap_io._COUNTERS.size + 4

    @pytest.mark.parametrize("field, value", [
        ("x", math.inf), ("x", math.nan), ("z", -math.inf),
        ("r", math.nan), ("r", math.inf), ("r", 0.01), ("r", -1.0),
        ("r", float(np.nextafter(np.float32(BuildParams().r_cap), np.float32(math.inf))))])
    def test_bad_node_is_rejected(self, field, value):
        data = bytearray(_one_node_map())
        at = self.NODE + {"x": 4, "z": 12, "r": 16}[field]
        struct.pack_into("<f", data, at, value)
        with pytest.raises(PayloadError):
            load_map(bytes(data))

    def test_radius_at_r_min_loads(self):
        data = bytearray(_one_node_map())
        struct.pack_into("<f", data, self.NODE + 16, BuildParams().r_min)
        assert load_map(bytes(data)).node_count() == 1

    @pytest.mark.parametrize("field", ["segment centre", "segment radius"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_segment_record_is_rejected(self, two_room_blob, field, value):
        data = bytearray(two_room_blob)
        struct.pack_into("<f", data, _float_offsets(two_room_blob)[field], value)
        with pytest.raises(PayloadError):
            load_map(bytes(data))

    def test_radius_at_r_cap_loads(self):
        data = bytearray(_one_node_map())
        struct.pack_into("<f", data, self.NODE + 16, BuildParams().r_cap)
        assert load_map(bytes(data)).node_count() == 1

    def test_no_segment_label_is_rejected(self):
        data = bytearray(_one_node_map())
        struct.pack_into("<I", data, self.NODE + 20, 0xFFFFFFFF)
        with pytest.raises(PayloadError):
            load_map(bytes(data))

    @pytest.mark.parametrize("conn", [0, 7, 255])
    def test_unusable_frontier_connectivity_is_rejected(self, conn):
        data = bytearray(_one_node_map())
        data[4 + struct.calcsize("<9dB")] = conn   # the byte after per_voxel_samples
        with pytest.raises(PayloadError, match="frontier_connectivity"):
            load_map(bytes(data))

    def test_saving_a_node_without_segment_raises(self):
        smap = SphereMap(BuildParams(), seed=0)
        smap._add_node((1.0, 2.0, 3.0), 1.5)
        with pytest.raises(ValueError):
            save_map(smap)


COUNTERS = 4 + smap_io._PARAMS.size


class TestReferentialIntegrity:
    @pytest.mark.parametrize("next_node_id, next_label", [(0, 0), (0, 10**6), (10**6, 0)])
    def test_counters_colliding_with_stored_ids_are_rejected(self, two_room_blob,
                                                             next_node_id, next_label):
        data = bytearray(two_room_blob)
        struct.pack_into("<II", data, COUNTERS, next_node_id, next_label)
        with pytest.raises(PayloadError):
            load_map(bytes(data))

    def test_counters_above_stored_ids_load(self, two_room_blob):
        data = bytearray(two_room_blob)
        struct.pack_into("<II", data, COUNTERS, 10**6, 10**6)
        smap = load_map(bytes(data))
        assert (smap._next_node_id, smap._next_label) == (10**6, 10**6)

    def test_label_of_unlisted_segment_is_rejected(self, two_room_blob):
        smap = load_map(two_room_blob)
        smap._next_label += 1000
        smap.segment_of[min(smap.adj)] = smap._next_label - 1
        with pytest.raises(PayloadError):
            load_map(save_map(smap))

    def test_disconnected_segment_is_rejected(self, two_room_blob):
        smap = load_map(two_room_blob)
        label = min(smap.segments)
        far = smap._add_node((100.0, 100.0, 100.0), 1.0)
        smap.segment_of[far] = label
        smap.segments[label].members.add(far)
        with pytest.raises(PayloadError):
            load_map(save_map(smap))

    def test_empty_segment_is_rejected(self, two_room_blob):
        smap = load_map(two_room_blob)
        label = smap._next_label
        smap.segments[label] = Segment(label, set(), np.zeros(3), 1.0)
        smap._next_label += 1
        with pytest.raises(PayloadError):
            load_map(save_map(smap))

    def test_rebuilt_portals_and_caches_equal_the_saved_ones(self, two_room_map,
                                                            two_room_blob):
        assert_maps_equal(two_room_map, load_map(two_room_blob))
