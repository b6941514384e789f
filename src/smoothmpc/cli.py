"""Command-line front end reproducing the benchmark sweeps.

Verbs: pieces | bounds | smoothness | imitate | matrix-selftest.
Every command is a deterministic function of (config, seed) to its output
CSVs. Exit codes: 0 all checks pass, 2 bound violation, 3 infeasible or
invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .config import config_hash, load_config
from .errors import ConfigurationError, InfeasibleError
from .mlp import TrainConfig

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INFEASIBLE = 3


def _write_csv(path: Path, rows: list, columns: list, units: dict, cfg_hash: str):
    """CSV with a comment line carrying the config hash and column units."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={cfg_hash} units=" +
                 ",".join(f"{c}[{units.get(c, '-')}]" for c in columns) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


def _bench(cfg, resolution=None):
    from .experiments import Workbench

    return Workbench.from_config(cfg, resolution=resolution or 201)


def cmd_pieces(cfg, out: Path, seed: int, jobs: int, resolution: int | None) -> int:
    from .core import build_condensed, load_problem, state_halfwidth
    from .explicit import discover_pieces, state_grid

    res = resolution or int(cfg["pieces"]["resolution"])
    out.mkdir(parents=True, exist_ok=True)
    sys_, cost, cons = load_problem(cfg)
    qp = build_condensed(sys_, cost, cons)
    half = state_halfwidth(cons)
    counts = {}
    for r in (res, 2 * res - 1):
        coll = discover_pieces(qp, state_grid([-half] * qp.d_x, [half] * qp.d_x, r))
        counts[r] = coll
        print(f"pieces @ {r}x{r}: {coll.n_pieces} distinct gains "
              f"({coll.sigma_count} active sets, {coll.n_feasible} feasible points)")
    coll = counts[res]
    coll.to_csv(out / "pieces.csv")
    stable = len({c.n_pieces for c in counts.values()}) == 1
    print(f"count stable across resolutions: {stable}")
    rows = [{"resolution": r, "pieces": c.n_pieces, "active_sets": c.sigma_count,
             "feasible": c.n_feasible, "infeasible": c.n_infeasible}
            for r, c in counts.items()]
    _write_csv(out / "piece_counts.csv", rows,
               ["resolution", "pieces", "active_sets", "feasible", "infeasible"],
               {"resolution": "points/axis"}, config_hash(cfg))
    return EXIT_OK if stable else EXIT_VIOLATION


def cmd_bounds(cfg, out: Path, seed: int, jobs: int, resolution: int | None) -> int:
    from .experiments import bounds_sweep

    bench = _bench(cfg, resolution)
    rows, reports, skipped = bounds_sweep(bench, cfg["bounds"]["eta_grid"],
                                          n_states=int(cfg["bounds"]["n_states"]),
                                          seed=seed,
                                          with_hessian=bool(cfg["bounds"]["with_hessian"]))
    for eta, reason in skipped:
        print(f"skipped eta={eta:g}: {reason}")
    cols = list(rows[0].keys()) if rows else []
    units = {"eta": "-", "gap_norm": "input", "min_residual": "slack",
             "jacobian_norm": "input/state", "hessian_norm": "input/state^2"}
    _write_csv(out / "bounds_sweep.csv", rows, cols, units, config_hash(cfg))
    bad = [r for r in reports if not r.satisfied]
    vrows = [{"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "satisfied": r.satisfied,
              **{f"ctx_{k}": str(v) for k, v in r.context.items()}} for r in reports]
    vcols = sorted({c for r in vrows for c in r})
    _write_csv(out / "bound_reports.csv", vrows, vcols, {}, config_hash(cfg))
    print(f"bound checks: {len(reports) - len(bad)}/{len(reports)} satisfied")
    for r in bad[:10]:
        print(f"  VIOLATION {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} ctx={r.context}")
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_smoothness(cfg, out: Path, seed: int, jobs: int, resolution: int | None) -> int:
    from .experiments import smoothness_sweep

    bench = _bench(cfg, resolution)
    rows = smoothness_sweep(bench, cfg["smoothness"]["eta_grid"],
                            cfg["smoothness"]["sigma_grid"],
                            n_samples=int(cfg["smoothness"]["n_samples"]), seed=seed,
                            jobs=jobs)
    cols = ["kind", "param", "L0_max", "L1_max", "sup_error", "hessian_norm",
            "projected_fraction"]
    _write_csv(out / "smoothness.csv", rows, cols,
               {"param": "eta|sigma", "L0_max": "input/state",
                "L1_max": "input/state^2", "sup_error": "input"}, config_hash(cfg))
    for r in rows:
        print(f"{r['kind']:>10} param={r['param']:<8g} L0={r['L0_max']:.4g} "
              f"L1={r['L1_max']:.4g} sup_err={r['sup_error']:.4g}")
    return EXIT_OK


def cmd_imitate(cfg, out: Path, seed: int, jobs: int, resolution: int | None) -> int:
    from .experiments import imitation_experiment, matched_levels, smoothness_sweep

    bench = _bench(cfg, resolution)
    im = cfg["imitation"]
    sweep_rows = smoothness_sweep(bench, cfg["smoothness"]["eta_grid"],
                                  cfg["smoothness"]["sigma_grid"],
                                  n_samples=int(cfg["smoothness"]["n_samples"]),
                                  seed=seed, jobs=jobs)
    levels = matched_levels(sweep_rows, n_levels=int(im["n_levels"]))
    print("matched levels (eta, sigma, L1):")
    for eta, sigma, l1 in levels:
        print(f"  eta={eta:g} sigma={sigma:g} L1={l1:g}")
    train_cfg = TrainConfig(**im["train"])
    rows = imitation_experiment(bench, levels, N=int(im["N"]), K=int(im["K"]),
                                train_cfg=train_cfg,
                                seeds=[seed + s for s in im["seeds"]],
                                n_samples=int(im["expert_samples"]),
                                n_eval=int(im["n_eval"]), jobs=jobs,
                                artifact_dir=out / "runs")
    cols = ["expert", "param", "matched_L1", "seed", "mean_traj_error",
            "max_traj_error", "sup_policy_error", "final_train_loss", "n_eval_failures"]
    _write_csv(out / "imitation.csv", rows, cols,
               {"param": "eta|sigma", "mean_traj_error": "state",
                "max_traj_error": "state"}, config_hash(cfg))
    for r in rows:
        print(f"{r['expert']:>10} param={r['param']:<9.4g} seed={r['seed']} "
              f"mean_err={r['mean_traj_error']:.4g}")
    return EXIT_OK


def cmd_matrix_selftest(cfg, out: Path, seed: int, jobs: int, resolution: int | None) -> int:
    from .matrixops import selftest

    n_instances = int(cfg["matrix_selftest"]["instances"])
    checks, fails = selftest(np.random.default_rng(seed), n_instances)
    print(f"matrix self-test: {n_instances} instances, {checks} checks, "
          f"{len(fails)} failures")
    for name, i in fails[:10]:
        print(f"  FAIL {name} at instance {i}")
    return EXIT_VIOLATION if fails else EXIT_OK


COMMANDS = {
    "pieces": cmd_pieces,
    "bounds": cmd_bounds,
    "smoothness": cmd_smoothness,
    "imitate": cmd_imitate,
    "matrix-selftest": cmd_matrix_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="smoothmpc",
                                     description="smoothed-MPC benchmark sweeps")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="YAML config path")
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    parser.add_argument("--resolution", type=int, default=None,
                        help="grid resolution override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    try:
        return COMMANDS[args.command](cfg, args.out, seed, args.jobs, args.resolution)
    except InfeasibleError as err:
        print(f"infeasible configuration: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
