"""Run one spheremap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload maze-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. The line before it holds the environment, sample
counts and check details. The exit code is 1 when a correctness check fails
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# Keys of the stats dicts the map-update steps return.
STEP_STATS = {
    "core.expand": ("candidates", "added", "removed_redundant"),
    "core.recompute_and_prune": ("removed_unsafe", "removed_redundant", "radius_changed"),
    "core.segment_update": ("split", "created", "merged", "caches_rebuilt"),
}
# End-to-end metrics printed by name but not in BENCHMARK.json: the p50
# latencies spread beyond the largest bound on a shared box (NOTES.md), and
# plan_fail_frac is gated as its complement plan_ok_frac, which is never 0.
UNGATED = (("replan_ms_p50", "ms", "lower"), ("query_ms_p50.cached", "ms", "lower"),
           ("query_ms_p50.full", "ms", "lower"), ("query_ms_p50.grid", "ms", "lower"),
           ("plan_fail_frac", "1", "lower"))


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _percentile(samples, q) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def _median(samples) -> float:
    return _percentile(samples, 50)


def _latencies(logs) -> tuple[dict, dict]:
    """Latency percentiles over the samples of ``logs``, and the sample counts."""
    pooled = {"iter_ms": [x for log in logs for x in log.iter_ms],
              "replan_ms": [x for log in logs for x in log.replan_ms],
              **{f"query_ms.{m}": [x for log in logs for x in log.query_ms[m]]
                 for m in ("cached", "full", "grid")}}
    wanted = (("iter_ms_p50", "iter_ms", 50), ("iter_ms_p90", "iter_ms", 90),
              ("replan_ms_p50", "replan_ms", 50),
              ("query_ms_p50.cached", "query_ms.cached", 50),
              ("query_ms_p99.cached", "query_ms.cached", 99),
              ("query_ms_p50.full", "query_ms.full", 50),
              ("query_ms_p99.full", "query_ms.full", 99),
              ("query_ms_p50.grid", "query_ms.grid", 50))
    values = {name: _percentile(pooled[key], q) for name, key, q in wanted if pooled[key]}
    return values, {key: len(samples) for key, samples in pooled.items()}


def _map_shape(smap) -> dict:
    """Size and connectivity of the final map."""
    components = 0
    seen: set[int] = set()
    for nid in smap.adj:
        if nid in seen:
            continue
        components += 1
        stack = [nid]
        seen.add(nid)
        while stack:
            for nb in smap.adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    nodes, edges = smap.node_count(), smap.edge_count()
    return {"core.map.nodes": nodes, "core.map.edges": edges,
            "core.map.mean_degree": 2.0 * edges / nodes if nodes else 0.0,
            "core.map.segments": len(smap.segments), "core.map.portals": len(smap.portals),
            "core.map.components": components,
            "core.map.isolated": sum(1 for nbrs in smap.adj.values() if not nbrs)}


def _grade(plans, ref, params) -> dict:
    """Judge every plan against the fine-grid reference.

    A plan fails when it returns no path between reference-connected points,
    or a path whose re-measured clearance is at most r_min.
    """
    from spheremap import planner

    failed = 0
    worst = float("inf")
    for _, a, b, res in plans:
        if res is None:
            failed += int(ref.connected(a, b))
            continue
        clearance = planner.evaluate_path(res.waypoints, ref, params)[3]
        worst = min(worst, clearance)
        failed += int(clearance <= params.r_min)
    cached = [res for mode, _, _, res in plans if mode == "cached"]
    full = [res for mode, _, _, res in plans if mode == "full"]
    both = [(c, f) for c, f in zip(cached, full) if c is not None and f is not None]
    return {"attempted": len(plans), "failed": failed, "worst_clearance_m": worst,
            "both_solved": len(both),
            "cost_order_violations": sum(int(c.cost < f.cost - 1e-9) for c, f in both),
            "cost_ratio": (sum(c.cost / f.cost for c, f in both) / len(both)
                           if both else float("nan"))}


def run(name: str, seed: int, seconds: float, trace: bool, workload=None):
    """Set up, run passes for ``seconds`` and check them.

    Returns (metric values, details, all checks passed, operations timed).
    """
    import numpy as np
    import scipy

    from spheremap import validate

    from reference import Reference
    from tracing import TARGETS, Tracer
    from workloads import WORKLOADS, Log, Runner

    w = workload if workload is not None else WORKLOADS[name]
    tracer = Tracer()
    runner = Runner(w, seed, tracer)
    setup_s: list[float] = []
    setup_log = Log()
    passes = []
    if trace:
        tracer.install()
    try:
        for k in range(w.setups):
            # The traced set-up is the one whose scene the passes use.
            tracer.active = trace and k == w.setups - 1
            t0 = time.perf_counter()
            scene = runner.setup()
            setup_s.append(time.perf_counter() - t0)
            if scene.log is not None:
                setup_log.iter_ms += scene.log.iter_ms
                setup_log.replan_ms += scene.log.replan_ms
        tracer.active = False
        ref = Reference(scene.world, scene.params.r_min)
        start = time.perf_counter()
        # A traced run traces its first pass and needs one untraced pass to
        # compare against.
        while (not passes or time.perf_counter() - start < seconds
               or (trace and len(passes) < 2)):
            tracer.active = trace and not passes
            passes.append(runner.run_pass(scene))
            tracer.active = False
    finally:
        tracer.uninstall()

    first = passes[0]
    plans = (scene.log.plans if scene.log is not None else []) + first.log.plans
    grade = _grade(plans, ref, first.smap.plan_params)
    problems = validate.check_structure(first.smap)
    latencies, samples = _latencies([setup_log] + [p.log for p in passes])

    values = {
        "setup_s": _median(setup_s),
        "run_s": _median([p.wall_s for p in passes]),
        **latencies,
        "plan_fail_frac": grade["failed"] / grade["attempted"],
        "plan_ok_frac": 1.0 - grade["failed"] / grade["attempted"],
        "cost_ratio.cached": grade["cost_ratio"],
        "worst_clearance_m": grade["worst_clearance_m"],
        "smap_bytes": first.smap_bytes,
        "ltv_bytes": first.ltv_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(_map_shape(first.smap))
    values["planner.reference.grid_components"] = ref.components
    values["validate.structure_problems"] = len(problems)
    if trace:
        # A layer that never ran reads 0, not missing.
        values.update({f"{t}.{k}": 0 for t, keys in STEP_STATS.items() for k in keys})
        values.update({f"{t}.calls": 0 for t, *_ in TARGETS})
        values.update(tracer.counters)
        selfs = tracer.self_times()
        values.update({f"{t}.s": selfs.get(t, 0.0) for t, *_ in TARGETS})
        values["core.expand.added_per_candidate"] = (
            values["core.expand.added"] / values["core.expand.candidates"]
            if values["core.expand.candidates"] else 0.0)
        values["trace.overhead_s"] = passes[0].wall_s - _median([p.wall_s for p in passes[1:]])

    checks = {
        "round_trips": all(p.round_trips_ok for p in passes),
        "cached_cost_not_below_full": grade["cost_order_violations"] == 0,
        "some_pair_solved_by_both_modes": grade["both_solved"] > 0,
        "passes_agree": len({(p.smap_bytes, p.ltv_bytes) for p in passes}) == 1,
    }
    operations = sum(samples.values())
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "threads": {v: os.environ.get(v) for v in THREAD_VARS},
                "git_commit": _git_commit(), "src_lines": _src_lines()},
        # All latencies, including those too noisy on a shared box to gate on.
        "latencies": latencies,
        "samples": {"setup_s": len(setup_s), "run_s": len(passes), **samples},
        # Each pass on its own, to tell drift within a run from drift between runs.
        "per_pass": [{"run_s": p.wall_s, **_latencies([p.log])[0]} for p in passes],
        "graded_plans": grade["attempted"], "failed_plans": grade["failed"],
        "plans_solved_by_both_modes": grade["both_solved"],
        "structure_problems": problems[:5],
        "checks": checks,
        "operations": operations,
    }
    if trace:
        details["trace.overhead_s"] = values["trace.overhead_s"]
        details["spans"] = len(tracer.spans)
    return values, details, all(checks.values()), operations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spheremap" / "__init__.py").is_file():
        print(f"spheremap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values, details, correct, operations = run(args.workload, args.seed, args.seconds,
                                               bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    if not args.trace:
        for name, unit, better in UNGATED:
            value = values.get(name, float("nan"))
            print(f"{name} = {value:.6g} {unit} ({better} is better, not gated)")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": operations, "failed": 0,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
