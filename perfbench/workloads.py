"""The benchmark's three workloads: inputs, one measured round, and checks.

Every workload starts from ``Workbench.from_config(default_config(),
resolution=201)`` (piece discovery at 201², the 720-LP feasible polygon
and the 21-LP radii) and then runs one sweep of the package's own
pipeline on inputs drawn from the workload seed. The seed only reaches
the program through the sweep's ``seed`` argument.

- ``bounds``: ``bounds_sweep`` over the default 5-eta grid with the
  solution Hessian. Cold barrier solves at scattered states and across
  eta, the finite-difference Hessian with its tensor norm, the 21-LP
  radii and the active-set QP; it never touches the piece table or the
  MLP, so it is the no-change control for those layers.
- ``smoothness``: ``smoothness_sweep`` with one barrier row (eta = 0.01)
  and two randomized rows (sigma 0.1 and 1.0). Point location in the
  piece table dominates the randomized rows; the barrier row solves along
  slice scans of adjacent states.
- ``imitate``: ``imitation_experiment`` for both expert kinds at one
  pinned (eta, sigma) level. The paper's whole pipeline: barrier solves
  along closed-loop rollouts, small piece-table batches, and the only
  MLP training of the three.
"""

from __future__ import annotations

import math

import numpy as np

# Sizes are set so that a round takes 2-12 s on a 2-core x86 machine and
# several rounds fit in one measured window. TINY is the self-test scale.
FULL = {"bounds_states": 16, "eta": 0.01, "sigmas": (0.1, 1.0), "rs_samples": 300,
        "level": (0.1, 0.3), "N": 20, "K": 20, "expert_samples": 800, "n_eval": 20,
        "steps": 1500, "max_train_loss": 1e-2}
TINY = {"bounds_states": 1, "eta": 1.0, "sigmas": (1.0,), "rs_samples": 20,
        "level": (0.1, 0.3), "N": 2, "K": 3, "expert_samples": 20, "n_eval": 2,
        "steps": 10, "max_train_loss": math.inf}

SETUP_RESOLUTION = 201


def config() -> dict:
    from smoothmpc.config import default_config

    return default_config()


def setup(cfg: dict):
    from smoothmpc.experiments import Workbench

    return Workbench.from_config(cfg, resolution=SETUP_RESOLUTION)


def _plain(v):
    """JSON-ready copy of a sweep output (numpy scalars and tuples unwrapped)."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return _plain(v.tolist())
    return v


class Workload:
    """Base: ``run(bench, cfg)`` gives the round's outputs as plain data."""

    name = ""

    def __init__(self, seed: int, sizes: dict = FULL):
        self.seed = int(seed)
        self.sizes = sizes

    def run(self, bench, cfg) -> dict:
        raise NotImplementedError

    def invariants(self, bench, cfg, outputs, check) -> None:
        """Seed-independent correctness checks of one round's outputs."""
        raise NotImplementedError


def _finite(check, label, value):
    check(label, value is not None and math.isfinite(value), value)


def _kkt_check(bench, check, states, eta):
    """Re-solve and test the barrier optimality condition independently.

    The gradient is recomputed from the returned input; it must vanish to
    1e-8 of its scale, or to ten times the rounding floor of the residuals
    near the boundary, where it cannot be evaluated more accurately.
    """
    from smoothmpc.barrier import make_barrier_problem, solve_barrier

    qp = bench.qp
    bp = make_barrier_problem(qp, eta, outer_radius=bench.outer_radius)
    rows = np.linalg.norm(qp.G, axis=1) > 0
    G = qp.G[rows]
    for x0 in states:
        u = solve_barrier(bp, x0).u_eta
        b = qp.bounds_rhs(x0)[rows]
        phi = b - G @ u
        g = float(np.linalg.norm(qp.H @ u - qp.F.T @ x0 + eta * (G.T @ (1.0 / phi) + bp.d)))
        scale = 1.0 + float(np.linalg.norm(qp.F.T @ x0))
        floor = np.finfo(float).eps * eta * float(
            np.linalg.norm(G, axis=1) @ ((np.abs(b) + np.abs(G @ u)) / phi ** 2))
        check(f"kkt eta={eta:g} x0={np.round(x0, 4).tolist()}",
              bool(np.all(phi > 0)) and g <= max(1e-8 * scale, 10.0 * floor), g)


class Bounds(Workload):
    name = "bounds"

    def run(self, bench, cfg) -> dict:
        from smoothmpc.experiments import bounds_sweep

        rows, reports, skipped = bounds_sweep(bench, cfg["bounds"]["eta_grid"],
                                              n_states=self.sizes["bounds_states"],
                                              seed=self.seed, with_hessian=True)
        return _plain({
            "rows": rows,
            "reports": [{"name": r.name, "lhs": r.lhs, "rhs": r.rhs,
                         "satisfied": r.satisfied} for r in reports],
            "skipped": skipped,
        })

    def invariants(self, bench, cfg, outputs, check) -> None:
        etas = cfg["bounds"]["eta_grid"]
        rows = outputs["rows"]
        check("row count", len(rows) == self.sizes["bounds_states"] * len(etas), len(rows))
        for r in outputs["reports"]:
            check(f"report {r['name']}", r["satisfied"], [r["lhs"], r["rhs"]])
        for i, row in enumerate(rows):
            for key in ("gap_norm", "min_residual", "jacobian_norm", "hessian_norm"):
                _finite(check, f"row {i} {key}", row[key])
        states = np.unique(np.array([[r["x0_0"], r["x0_1"]] for r in rows]), axis=0)
        for eta in etas:
            _kkt_check(bench, check, states[:3], float(eta))


class Smoothness(Workload):
    name = "smoothness"

    def run(self, bench, cfg) -> dict:
        from smoothmpc.experiments import smoothness_sweep

        rows = smoothness_sweep(bench, [self.sizes["eta"]], list(self.sizes["sigmas"]),
                                n_samples=self.sizes["rs_samples"], seed=self.seed, jobs=1)
        return _plain({"rows": rows})

    def invariants(self, bench, cfg, outputs, check) -> None:
        from smoothmpc.barrier import make_barrier_problem
        from smoothmpc.bounds import error_upper
        from smoothmpc.explicit import solve_qp
        from smoothmpc.smoothing import draw_noise

        qp = bench.qp
        rows = outputs["rows"]
        check("row count", len(rows) == 1 + len(self.sizes["sigmas"]), len(rows))
        # The explicit law is Lipschitz with the largest first-input gain;
        # projection is nonexpansive, so a Monte-Carlo average stays within
        # L * sigma * max ||w|| of the law at the centre.
        lip = max(float(np.linalg.norm(p.K[: qp.d_u], 2)) for p in bench.table.collection.pieces)
        W = draw_noise("gaussian", self.sizes["rs_samples"], qp.d_x,
                       np.random.default_rng(self.seed))
        w_max = float(np.max(np.linalg.norm(W, axis=1)))
        for r in rows:
            for key in ("L0_max", "L1_max", "sup_error"):
                _finite(check, f"{r['kind']} {r['param']:g} {key}", r[key])
            if r["kind"] == "barrier":
                bp = make_barrier_problem(qp, r["param"], outer_radius=bench.outer_radius)
                check("barrier sup_error <= error_upper", r["sup_error"] <= error_upper(bp),
                      [r["sup_error"], error_upper(bp)])
                _finite(check, "barrier hessian_norm", r["hessian_norm"])
            else:
                bound = lip * r["param"] * w_max
                check(f"randomized {r['param']:g} sup_error <= L sigma max|w|",
                      r["sup_error"] <= bound * (1 + 1e-9), [r["sup_error"], bound])
                check(f"randomized {r['param']:g} L0 <= sqrt(2) L",
                      r["L0_max"] <= math.sqrt(2) * lip * (1 + 1e-6), [r["L0_max"], lip])
                check(f"randomized {r['param']:g} projected_fraction in [0, 1]",
                      0.0 <= r["projected_fraction"] <= 1.0, r["projected_fraction"])
        # The piece table against the per-point QP at states from this seed.
        pts = bench.sample_initial_states(60, seed=self.seed + 29)
        pts = bench.projector(pts + 0.5 * np.random.default_rng(self.seed + 31)
                              .standard_normal(pts.shape))
        table = bench.table.eval_batch(pts, fallback="nan")
        for x, u in zip(pts, table):
            if np.isnan(u).any():
                continue
            ref = solve_qp(qp, x).u_star[: qp.d_u]
            check(f"table vs QP at {np.round(x, 4).tolist()}",
                  float(np.max(np.abs(u - ref))) <= 1e-9, float(np.max(np.abs(u - ref))))
        _kkt_check(bench, check, bench.sample_initial_states(3, seed=self.seed + 37),
                   self.sizes["eta"])


class Imitate(Workload):
    name = "imitate"

    def run(self, bench, cfg) -> dict:
        from smoothmpc.experiments import imitation_experiment
        from smoothmpc.mlp import TrainConfig

        sz = self.sizes
        train = TrainConfig(**{**cfg["imitation"]["train"], "steps": sz["steps"]})
        eta, sigma = sz["level"]
        # The pinned level replaces the sweep-derived matched_levels, so no
        # matched L1 exists for it.
        rows = imitation_experiment(bench, [(eta, sigma, float("nan"))], N=sz["N"], K=sz["K"],
                                    train_cfg=train, seeds=[self.seed],
                                    n_samples=sz["expert_samples"], n_eval=sz["n_eval"], jobs=1)
        return _plain({"rows": rows})

    def invariants(self, bench, cfg, outputs, check) -> None:
        rows = outputs["rows"]
        check("row count", len(rows) == 2, len(rows))
        for r in rows:
            for key in ("mean_traj_error", "max_traj_error", "sup_policy_error",
                        "final_train_loss"):
                _finite(check, f"{r['expert']} {key}", r[key])
            check(f"{r['expert']} training converged",
                  r["final_train_loss"] < self.sizes["max_train_loss"], r["final_train_loss"])
        eta, _ = self.sizes["level"]
        _kkt_check(bench, check, bench.sample_initial_states(3, seed=self.seed + 41), eta)


WORKLOADS = {w.name: w for w in (Bounds, Smoothness, Imitate)}
