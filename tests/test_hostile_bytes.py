"""Decoders raise only ParseError subclasses on corrupted input.

Each property takes a small valid payload, overwrites one to three bytes
and may cut it short; the decoder must then either return or raise a
``ParseError``. Anything else escaping is a bug in the decoder. A sphere map
that loads must also pass ``check_structure``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spheremap import (BuildParams, ParseError, SphereMap, check_structure, decode, encode,
                       extract, load_grid, load_map, save_grid, save_map)

from conftest import two_rooms_with_corridor


@st.composite
def corrupted(draw, payload: bytes) -> bytes:
    buf = bytearray(payload)
    for _ in range(draw(st.integers(1, 3))):
        buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del buf[draw(st.integers(0, len(buf))):]
    return bytes(buf)


@pytest.fixture(scope="module")
def payloads():
    # Four segments, three portals and two tables with a path between
    # portals, in 1.6 kB.
    grid, c1, c2, _ = two_rooms_with_corridor(room=6.0, corridor_len=16.0, resolution=0.4)
    smap = SphereMap(BuildParams(cube_side=16.0, voxel_stride=4, ray_count=0,
                                 r_exp=3.0, r_merge=6.0))
    for t in np.linspace(0, 1, 5):
        smap.update_iteration(grid, c1 + t * (c2 - c1))
    assert len(smap.portals) > 1 and any(len(seg.ends) > 1 for seg in smap.segments.values())
    ltv = extract(smap)
    ltv.goals = np.array([[1.0, 2.0, 1.5], [20.0, 3.0, 1.5]])
    return {"smap": save_map(smap), "ltv": encode(ltv), "grid": save_grid(grid)}


def _raises_only_parse_errors(decoder, data):
    try:
        decoder(data)
    except ParseError:
        pass


@given(data=st.data())
def test_load_map(payloads, data):
    _raises_only_parse_errors(load_map, data.draw(corrupted(payloads["smap"])))


@given(data=st.data())
def test_loaded_map_passes_check_structure(payloads, data):
    try:
        smap = load_map(data.draw(corrupted(payloads["smap"])))
    except ParseError:
        return
    assert check_structure(smap) == []


def test_saved_map_loads_structurally_valid(payloads):
    assert check_structure(load_map(payloads["smap"])) == []


@given(data=st.data())
def test_ltv_decode(payloads, data):
    _raises_only_parse_errors(decode, data.draw(corrupted(payloads["ltv"])))


@given(data=st.data())
def test_load_grid(payloads, data):
    _raises_only_parse_errors(load_grid, data.draw(corrupted(payloads["grid"])))


@pytest.mark.parametrize("name, decoder", [("smap", load_map), ("ltv", decode),
                                           ("grid", load_grid)])
def test_payloads_decode(payloads, name, decoder):
    decoder(payloads[name])
