"""Benchmark of the smoothmpc pipeline: set-up, one workload sweep, checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bounds|smoothness|imitate \
        --seed N --seconds S --trace 0|1

One process runs one workload with BLAS pinned to one thread and
``jobs=1``. It builds ``Workbench.from_config(cfg, resolution=201)``
three times (``setup_s`` is the median), then repeats the workload's
sweep on the seed's inputs until ``S`` seconds have passed (``run_s`` is
the median sweep time; every repeat must reproduce the first bit for
bit). It then checks the outputs: against the stored reference where one
exists for the seed, and always against seed-independent oracles (bound
reports, barrier optimality, table against per-point QP, Lipschitz
envelopes of the smoothed law).

End-to-end metrics (``--trace 0``):

- ``setup_s``, ``run_s``: wall times as above;
- ``peak_rss_mib``: the process's peak resident memory after the sweeps;
- ``check_pass_frac``: checked outputs that pass over checked outputs
  (1 - check_fail_frac);
- ``eval_ok_frac``: policy evaluations that returned a value over
  evaluations attempted (1 - eval_fail_frac). Evaluations are piece-table
  point lookups plus barrier solves; a lookup fails when it returns NaN,
  a solve when it raises at a strictly feasible state. The NaN lookups
  the smoothed policy's ``nanmean`` hides are counted here.

The fail fractions are reported as shares of one so that no metric is
zero at a healthy commit; the raw counts with their bases are printed
and written to the run record.

``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer numbers of one set-up plus one sweep: calls, total and self
time and work counters at each boundary (see ``tracing.py``), the
tracing overhead, and violations of the LP and solve counts today's
code is built on. Each run writes its record, with spans in trace mode,
to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB",
                    "check_pass_frac": "ratio", "eval_ok_frac": "ratio"}

# Per-layer metrics printed by --trace 1. Times are listed only for
# boundaries that every workload reaches (set-up reaches the first group
# on all of them); the per-workload boundaries' times are in the run
# record and the printed summary.
TIMED = (
    "experiments.Workbench.from_config", "explicit.discover_pieces",
    "experiments.feasible_polygon", "core.feasible_radii", "explicit.solve_qp",
    "qp.raw_solve_qp", "barrier.solve_barrier", "barrier.barrier_jacobian",
)
LINPROG_CALLERS = ("core", "qp", "barrier", "bounds", "experiments")
TIMED_LINPROG = ("linprog", "linprog.core", "linprog.qp", "linprog.barrier",
                 "linprog.experiments")
TIMED_MODULES = ("core", "qp", "explicit", "barrier", "experiments")
COUNTED = {
    "barrier.solve_barrier": ("calls", "newton_iters", "lp_calls", "failures",
                              "infeasible_states"),
    "barrier.barrier_jacobian": ("calls",),
    "barrier.barrier_hessian": ("calls", "solve_barrier_calls"),
    "barrier.tensor_spectral_norm": ("calls",),
    "core.feasible_radii": ("calls", "lp_calls"),
    "qp.raw_solve_qp": ("calls", "iterations"),
    "explicit.solve_qp": ("calls",),
    "explicit.discover_pieces": ("grid_points", "pieces"),
    "experiments.feasible_polygon": ("calls", "lp_calls"),
    "explicit.PieceTableEvaluator.eval_batch": ("calls", "points", "nan_rows",
                                                "qp_fallbacks"),
    "smoothing.RandomizedPolicy.eval_batch": ("calls", "states", "samples",
                                              "dropped_samples"),
    "smoothing.pi_rs": ("calls", "samples", "dropped_samples"),
    "experiments.PolygonProjector.__call__": ("points", "projected_points"),
    "experiments.slice_smoothness": ("calls", "jacobian_evals"),
    "simulate.rollout": ("calls", "steps", "truncated"),
    "simulate.sample_dataset": ("calls", "trajectories"),
    "simulate.imitation_error": ("calls", "starts"),
    "mlp.train_imitator": ("calls", "steps"),
    "mlp.MLPPolicy.loss_and_grads": ("calls", "rows"),
    "bounds.hessian_upper_bound": ("calls",),
    "bounds.directional_bounds": ("calls",),
}


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for b in TIMED:
        names += [(f"{b}.total_s", "s"), (f"{b}.self_s", "s")]
    names += [(f"{b}.total_s", "s") for b in TIMED_LINPROG]
    names += [(f"{m}.self_s", "s") for m in TIMED_MODULES]
    names += [("linprog.calls", "count")]
    names += [(f"linprog.{c}.calls", "count") for c in LINPROG_CALLERS]
    for b, keys in COUNTED.items():
        names += [(f"{b}.{k}", "count") for k in keys]
    names += [("selfcheck.structure_violations", "count"),
              ("trace.run_s_untraced", "s"), ("trace.run_s_traced", "s"),
              ("trace.overhead_s", "s")]
    return names


# --- environment record ----------------------------------------------------

def _blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if get_threads is not None and corename is not None:
                    corename.restype = ctypes.c_char_p
                    info["threads"] = int(get_threads())
                    info["core"] = corename().decode()
                    return info
    return info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = _blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": f"{platform.machine()} {blas.get('core', 'unknown')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# --- the run -----------------------------------------------------------------

def import_package():
    """Import smoothmpc from this checkout's ``src`` and nowhere else."""
    if not (SRC / "smoothmpc" / "__init__.py").exists():
        raise SystemExit(f"smoothmpc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import smoothmpc

    if Path(smoothmpc.__file__).resolve().parent != (SRC / "smoothmpc").resolve():
        raise SystemExit(f"smoothmpc imported from {smoothmpc.__file__}, not {SRC}")
    return smoothmpc


def _median(xs):
    return float(statistics.median(xs))


def execute(workload, seconds: float, trace: bool, min_rounds: int = 1) -> dict:
    """Set up, sweep until ``seconds`` pass, check; returns the run record."""
    import time

    import checks
    import tracing
    import workloads

    cfg = workloads.config()
    tracer = tracing.Tracer()
    setup_active = tracing.ALL_BOUNDARIES if trace else frozenset()
    record: dict = {"workload": workload.name, "seed": workload.seed, "trace": int(trace)}
    with tracer:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            with tracer.phase(f"setup-{rep}", setup_active):
                t0 = time.perf_counter()
                bench = workloads.setup(cfg)
                setup_times.append(time.perf_counter() - t0)
        inside = bench.projector.inside
        tracer.strictly_feasible = lambda x: bool(inside(x, margin=1e-9)[0])

        outputs, times, traced_times, cpu_times = [], [], [], []
        start = time.perf_counter()
        while True:
            r = len(outputs)
            is_traced = trace and r % 2 == 1
            active = tracing.ALL_BOUNDARIES if is_traced else tracing.EVAL_BOUNDARIES
            with tracer.phase(f"round-{r}", active):
                t0, c0 = time.perf_counter(), time.process_time()
                outputs.append(workload.run(bench, cfg))
                (traced_times if is_traced else times).append(time.perf_counter() - t0)
                cpu_times.append(time.process_time() - c0)
            if time.perf_counter() - start >= seconds and len(outputs) >= min_rounds:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    log = checks.CheckLog()
    first = json.dumps(outputs[0], sort_keys=True)
    for r, out in enumerate(outputs[1:], start=1):
        log(f"round {r} reproduces round 0", json.dumps(out, sort_keys=True) == first)
    ref = checks.load_reference(workload.name, workload.seed)
    if ref is not None:
        checks.compare(workload.name, outputs[0], ref, log)
    workload.invariants(bench, cfg, outputs[0], log)

    untraced_rounds = [f"round-{r}" for r in range(len(outputs)) if not (trace and r % 2)]
    evals = [tracing.analyse(tracer.spans, [rid]) for rid in untraced_rounds]
    for r, ev in enumerate(evals[1:], start=1):
        log(f"round {r} repeats the evaluation counts", _same_counts(ev, evals[0]))
    ev = evals[0]
    table = ev.get("explicit.PieceTableEvaluator.eval_batch", {})
    solve = ev.get("barrier.solve_barrier", {})
    eval_attempted = table.get("points", 0) + solve.get("calls", 0)
    eval_failed = table.get("nan_rows", 0) + solve.get("failures", 0)

    if trace:
        record["layers"], record["summary"] = _layers(tracer, bench, outputs, times,
                                                      traced_times, log)
        record["spans"] = tracer.spans
    record.update(
        environment=environment(workload.seed),
        setup_times_s=setup_times,
        round_times_s=times,
        traced_round_times_s=traced_times,
        round_cpu_s=cpu_times,
        checks={"attempted": log.attempted, "failed": log.failed,
                "reference": ref is not None, "failures": log.failures},
        evaluations={"table_points": table.get("points", 0),
                     "table_nan_rows": table.get("nan_rows", 0),
                     "barrier_solves": solve.get("calls", 0),
                     "barrier_failures": solve.get("failures", 0),
                     "barrier_infeasible_states": solve.get("infeasible_states", 0),
                     "attempted": eval_attempted, "failed": eval_failed},
        check_fail_frac=log.failed / log.attempted,
        eval_fail_frac=eval_failed / eval_attempted if eval_attempted else 0.0,
    )
    record["metrics"] = {
        "setup_s": _median(setup_times),
        "run_s": _median(times),
        "peak_rss_mib": peak_rss_mib,
        "check_pass_frac": 1.0 - record["check_fail_frac"],
        "eval_ok_frac": 1.0 - record["eval_fail_frac"],
    }
    return record


def _same_counts(a: dict, b: dict) -> bool:
    strip = ("total_s", "self_s")
    return {k: {q: v for q, v in d.items() if q not in strip} for k, d in a.items()} == \
        {k: {q: v for q, v in d.items() if q not in strip} for k, d in b.items()}


def _layers(tracer, bench, outputs, times, traced_times, log):
    """Per-layer numbers of one set-up plus one traced sweep."""
    import tracing

    traced = [f"round-{r}" for r in range(len(outputs)) if r % 2]
    setups = [f"setup-{rep}" for rep in range(SETUP_REPEATS)]
    per_setup = [tracing.analyse(tracer.spans, [s]) for s in setups]
    per_round = [tracing.analyse(tracer.spans, [r]) for r in traced]
    for i, other in enumerate(per_setup[1:], start=1):
        log(f"set-up {i} repeats the work counts", _same_counts(other, per_setup[0]))
    for i, other in enumerate(per_round[1:], start=1):
        log(f"traced round {i} repeats the work counts", _same_counts(other, per_round[0]))

    names = sorted(set().union(*per_setup, *per_round))
    layers = {}
    for name in names:
        s0 = per_setup[0].get(name, {})
        r0 = per_round[0].get(name, {})
        agg = {k: s0.get(k, 0) + r0.get(k, 0) for k in set(s0) | set(r0)
               if k not in ("total_s", "self_s")}
        for q in ("total_s", "self_s"):
            agg[q] = (_median([p.get(name, {}).get(q, 0.0) for p in per_setup])
                      + _median([p.get(name, {}).get(q, 0.0) for p in per_round]))
        layers[name] = agg
    modules = tracing.module_self_time(layers)
    structure = tracing.structure_checks(tracer.spans, setups[:1] + traced[:1],
                                         bench.qp.n, bench.qp.d_x)

    metrics = {}
    for name, unit in per_layer_names():
        if name.startswith("trace."):
            continue
        if name == "selfcheck.structure_violations":
            value = sum(v["violations"] for v in structure.values())
        elif name.endswith(".self_s") and name.count(".") == 1:
            value = modules.get(name.split(".")[0], 0.0)
        else:
            layer, _, quantity = name.rpartition(".")
            value = layers.get(layer, {}).get(quantity, 0)
        metrics[name] = value
    untraced_s, traced_s = _median(times), _median(traced_times)
    metrics["trace.run_s_untraced"] = untraced_s
    metrics["trace.run_s_traced"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    summary = {"metrics": metrics, "structure": structure, "modules_self_s": modules,
               "per_call": _per_call(layers)}
    return layers, summary


def _per_call(layers: dict) -> dict:
    """ms and work per call for the layers of the ROADMAP's measured baseline."""
    out = {}
    solve = layers.get("barrier.solve_barrier")
    if solve and solve["calls"]:
        lp = layers.get("linprog.barrier", {})
        out["barrier.solve_barrier"] = {
            "ms_per_call": 1e3 * solve["total_s"] / solve["calls"],
            "lp_ms_per_call": 1e3 * lp.get("total_s", 0.0) / solve["calls"],
            "lp_share": lp.get("total_s", 0.0) / solve["total_s"],
            "newton_iters_per_call": solve.get("newton_iters", 0) / solve["calls"],
            "lp_calls_per_call": solve.get("lp_calls", 0) / solve["calls"]}
    for name, work in (("barrier.tensor_spectral_norm", None),
                       ("barrier.barrier_hessian", "solve_barrier_calls"),
                       ("core.feasible_radii", "lp_calls"),
                       ("experiments.Workbench.from_config", "lp_calls"),
                       ("experiments.feasible_polygon", "lp_calls"),
                       ("explicit.discover_pieces", "grid_points"),
                       ("explicit.solve_qp", None),
                       ("explicit.PieceTableEvaluator.eval_batch", "points"),
                       ("smoothing.RandomizedPolicy.eval_batch", "samples"),
                       ("mlp.MLPPolicy.loss_and_grads", "rows")):
        agg = layers.get(name)
        if not agg or not agg["calls"]:
            continue
        entry = {"calls": agg["calls"], "ms_per_call": 1e3 * agg["total_s"] / agg["calls"]}
        if work:
            entry[f"{work}_per_call"] = agg.get(work, 0) / agg["calls"]
        out[name] = entry
    return out


def _print_summary(record: dict) -> None:
    m = record["metrics"]
    ev = record["evaluations"]
    ck = record["checks"]
    env = record["environment"]
    print(f"machine: {env['nproc']} cpus ({env['cpus_usable']} usable), {env['cpu']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} "
          f"threads={env['blas'].get('threads')}, commit {env['git_commit']}, "
          f"source {env['source_sha256']}")
    print(f"{record['workload']} seed={record['seed']}: setup_s={m['setup_s']:.4f} "
          f"run_s={m['run_s']:.4f} ({len(record['round_times_s'])} untraced rounds) "
          f"peak_rss_mib={m['peak_rss_mib']:.1f}")
    print(f"checks: {ck['failed']} of {ck['attempted']} failed "
          f"(check_fail_frac={record['check_fail_frac']:.3g}, "
          f"reference={'yes' if ck['reference'] else 'no'})")
    for f in ck["failures"]:
        print(f"  FAIL {f['check']}: {f['detail']}")
    print(f"evaluations: {ev['failed']} of {ev['attempted']} failed "
          f"(eval_fail_frac={record['eval_fail_frac']:.3g}; table NaN rows "
          f"{ev['table_nan_rows']} of {ev['table_points']} points, barrier failures "
          f"{ev['barrier_failures']} of {ev['barrier_solves']} solves, "
          f"{ev['barrier_infeasible_states']} at infeasible states)")
    if "summary" in record:
        s = record["summary"]
        for name, entry in s["per_call"].items():
            print(f"  {name}: " + ", ".join(f"{k}={v:.4g}" for k, v in entry.items()))
        for key, v in s["structure"].items():
            print(f"  structure {key}: {v['violations']} violations in {v['checked']} calls")
        print(f"  tracing overhead: {s['metrics']['trace.overhead_s']:+.4f} s per round")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    record = execute(workload, args.seconds, trace, min_rounds=2 if trace else 1)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    _print_summary(record)

    if trace:
        units = dict(per_layer_names())
        values = record["summary"]["metrics"]
    else:
        units = END_TO_END_UNITS
        values = record["metrics"]
    result = {
        "correct": record["checks"]["failed"] == 0,
        "attempted": record["checks"]["attempted"],
        "failed": record["checks"]["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
