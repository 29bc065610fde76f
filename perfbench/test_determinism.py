"""Same seed, same work: the benchmark's counters repeat exactly.

    python3 -m pytest -q perfbench/test_determinism.py

Runs each workload on a small world, twice with one seed and once with a
held-out seed, traced so the per-layer counters are compared too.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIMED = ("setup_s", "run_s", "peak_rss_mb", "trace.overhead_s")


def _small(name):
    w = WORKLOADS[name]
    world = dict(w.world, extent=(24.0, 24.0, 4.4))
    return dataclasses.replace(w, world=world, goals=5, grid_pairs=2, setups=1, sweeps=1)


def _counters(values):
    return {k: v for k, v in values.items()
            if k not in TIMED and "_ms" not in k and not k.endswith(".s")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counters(name):
    first, _, ok1, ops1 = run(name, 5, 0.0, True, workload=_small(name))
    second, _, ok2, ops2 = run(name, 5, 0.0, True, workload=_small(name))
    assert ok1 and ok2
    assert ops1 == ops2
    assert _counters(first) == _counters(second)
    for key in ("smap_bytes", "ltv_bytes", "plan_ok_frac", "validate.structure_problems",
                "core.expand.candidates", "spatial.NodeIndex.query.calls"):
        assert key in first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_passes_checks(name):
    values, details, ok, _ = run(name, 11, 0.0, False, workload=_small(name))
    assert ok, details["checks"]
    assert 0.0 < values["plan_ok_frac"] <= 1.0
