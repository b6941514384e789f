"""Self-tests of the benchmark's own code, on tiny versions of the workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced_tiny():
    """One traced set-up plus an untraced and a traced tiny round per workload."""
    cfg = workloads.config()
    tracer = tracing.Tracer()
    results = {}
    with tracer:
        with tracer.phase("setup", tracing.ALL_BOUNDARIES):
            bench = workloads.setup(cfg)
        inside = bench.projector.inside
        tracer.strictly_feasible = lambda x: bool(inside(x, margin=1e-9)[0])
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(3, sizes=workloads.TINY)
            with tracer.phase(f"{name}-plain", tracing.EVAL_BOUNDARIES):
                plain = wl.run(bench, cfg)
            with tracer.phase(f"{name}-traced", tracing.ALL_BOUNDARIES):
                traced = wl.run(bench, cfg)
            results[name] = (wl, plain, traced)
    return tracer, bench, cfg, results


def test_tracing_changes_no_result(traced_tiny):
    _, _, _, results = traced_tiny
    for name, (_, plain, traced) in results.items():
        assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True), name


def test_every_boundary_records_a_call(traced_tiny):
    tracer, _, _, results = traced_tiny
    runs = ["setup"] + [f"{n}-traced" for n in results]
    seen = {tracing._base(s[0]) for s in tracer.spans if s[4] in runs}
    assert tracing.ALL_BOUNDARIES <= seen, sorted(tracing.ALL_BOUNDARIES - seen)
    callers = {s[0] for s in tracer.spans if s[0].startswith("linprog.")}
    assert {"linprog.core", "linprog.qp", "linprog.barrier", "linprog.experiments"} <= callers
    assert "linprog.other" not in callers


def test_no_binding_bypasses_the_wrappers(traced_tiny):
    """While installed no namespace holds an original; afterwards none holds a wrapper."""
    import importlib

    import scipy.optimize

    tracer = tracing.Tracer()
    originals = [scipy.optimize.linprog] + [
        getattr(importlib.import_module(b.module), b.attr)
        for b in tracing.BOUNDARIES if b.cls is None]

    def bindings():
        for name, mod in list(sys.modules.items()):
            if name.startswith("smoothmpc"):
                yield from ((f"{name}.{k}", v) for k, v in vars(mod).items())

    with tracer:
        for key, val in bindings():
            assert all(val is not orig for orig in originals), key
    for key, val in bindings():
        assert not hasattr(val, "__wrapped__"), key
    assert scipy.optimize.linprog is originals[0]


def test_structure_of_todays_code(traced_tiny):
    tracer, bench, _, results = traced_tiny
    runs = ["setup"] + [f"{n}-traced" for n in results]
    structure = tracing.structure_checks(tracer.spans, runs, bench.qp.n, bench.qp.d_x)
    for key, v in structure.items():
        assert v["checked"] > 0, key
        assert v["violations"] == 0, key
    layers = tracing.analyse(tracer.spans, ["setup"])
    assert layers["experiments.feasible_polygon"]["lp_calls"] == 720
    assert layers["core.feasible_radii"]["lp_calls"] == 2 * bench.qp.n + 1


def test_counts_repeat_exactly(traced_tiny):
    tracer, _, _, results = traced_tiny
    for name in results:
        plain = tracing.analyse(tracer.spans, [f"{name}-plain"])
        traced = tracing.analyse(tracer.spans, [f"{name}-traced"])
        for b in tracing.EVAL_BOUNDARIES:
            a, c = plain.get(b, {}), traced.get(b, {})
            for key in ("calls", "points", "nan_rows", "newton_iters", "failures"):
                assert a.get(key, 0) == c.get(key, 0), (name, b, key)


def test_invariants_pass_on_tiny_rounds(traced_tiny):
    _, bench, cfg, results = traced_tiny
    for name, (wl, plain, _) in results.items():
        log = checks.CheckLog()
        wl.invariants(bench, cfg, plain, log)
        assert log.attempted > 0 and log.failed == 0, (name, log.failures)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, -1, "r", {}, True],
        ["b", 1.0, 3.0, 0, "r", {}, True],
        ["linprog.core", 2.0, 2.5, 1, "r", {}, True],
        ["b", 4.0, 6.0, 0, "r", {}, False],
        ["other", 0.0, 1.0, -1, "s", {}, True],
    ]
    out = tracing.analyse(spans, ["r"])
    assert out["a"]["calls"] == 1 and math.isclose(out["a"]["self_s"], 6.0)
    assert out["b"]["calls"] == 2 and out["b"]["ok_calls"] == 1
    assert math.isclose(out["b"]["self_s"], 3.5)
    assert out["b"]["lp_calls"] == 1 and out["a"]["lp_calls"] == 1
    assert out["linprog"]["calls"] == 1 and "other" not in out


def test_reference_comparison_uses_tolerances():
    ref = checks.load_reference("bounds", 0)
    assert ref is not None
    log = checks.CheckLog()
    checks.compare("bounds", ref, ref, log)
    assert log.failed == 0 and log.attempted > 0
    bad = json.loads(json.dumps(ref))
    bad["rows"][0]["gap_norm"] *= 1 + 1e-6
    bad["rows"][1]["newton_iters"] += 1
    log = checks.CheckLog()
    checks.compare("bounds", bad, ref, log)
    assert log.failed == 1 and "gap_norm" in log.failures[0]["check"]


def test_references_exist_for_every_workload():
    for name in workloads.WORKLOADS:
        for seed in checks.REFERENCE_SEEDS:
            assert checks.load_reference(name, seed) is not None, (name, seed)


def test_run_record_of_a_tiny_traced_run():
    wl = workloads.Bounds(3, sizes=workloads.TINY)
    record = run.execute(wl, seconds=0.0, trace=True, min_rounds=2)
    assert record["checks"]["failed"] == 0
    metrics = record["summary"]["metrics"]
    assert set(metrics) == {n for n, _ in run.per_layer_names()}
    assert metrics["barrier.solve_barrier.lp_calls"] == metrics["barrier.solve_barrier.calls"]
    assert metrics["linprog.experiments.calls"] == 720
    assert all(record["metrics"][k] > 0 for k in run.END_TO_END_UNITS)
    env = record["environment"]
    assert env["seed"] == 3 and env["blas"].get("threads", 1) == 1


def test_fails_without_the_program(tmp_path):
    """Holding only the benchmark, the command exits non-zero and prints no result."""
    root = Path(run.ROOT)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
