"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` (run pytest with -s to
see the lines live). Criterion 1 pins the benchmark piece count to the
externally reported 261; this implementation reproducibly finds 107 under
the self-consistent cost scaling (stable across grids and discovery
methods), so that single assertion fails by design — see the README and
the companion stability/cross-method tests here.
"""

import math

import numpy as np
import pytest

from smoothmpc.barrier import (
    barrier_jacobian,
    convex_combination,
    make_barrier_problem,
    solve_barrier,
)
from smoothmpc.config import default_config
from smoothmpc.core import (
    BoxlikeConstraints,
    LinearSystem,
    StageCost,
    build_condensed,
    clip_problem,
)
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import (
    Workbench,
    bounds_sweep,
    imitation_experiment,
    matched_levels,
    smoothness_sweep,
)
from smoothmpc.explicit import discover_pieces, state_grid
from smoothmpc.mlp import TrainConfig
from smoothmpc.smoothing import RandomizedPolicy, SmoothingConfig, pi_rs, tradeoff_audit

JOBS = 3


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def bench():
    return Workbench.from_config(default_config(), resolution=201)


@pytest.fixture(scope="module")
def sweep_rows(bench):
    etas = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0]
    sigmas = [0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0]
    return smoothness_sweep(bench, etas, sigmas, n_samples=1500, seed=0, jobs=JOBS)


# -- 1: explicit piece count ---------------------------------------------------

@pytest.fixture(scope="module")
def piece_counts(di_qp):
    return {res: discover_pieces(di_qp, state_grid([-10, -10], [10, 10], res))
            for res in (401, 801)}


def test_criterion_1_piece_count(piece_counts):
    got = {res: c.n_pieces for res, c in piece_counts.items()}
    ok = got[401] == 261 and got[801] == 261
    _report(1, "explicit piece count 261", ok,
            f"found {got[401]} @401^2, {got[801]} @801^2 (see README: the "
            "reported 261 is not reproducible under the self-consistent cost scaling)")


def test_criterion_1b_count_stability_and_method_agreement(di_qp, piece_counts):
    stable = piece_counts[401].n_pieces == piece_counts[801].n_pieces
    grid = state_grid([-10, -10], [10, 10], 101)
    per_point = discover_pieces(di_qp, grid, method="per-point")
    fast = discover_pieces(di_qp, grid, method="assign")
    agree = sorted(p.gain_key() for p in per_point.pieces) == \
        sorted(p.gain_key() for p in fast.pieces)
    _report(1, "piece count stability + discovery-method agreement",
            stable and agree,
            f"count {piece_counts[401].n_pieces} stable={stable} methods_agree={agree}")


# -- 2: Jacobian exactness ------------------------------------------------------

def test_criterion_2_jacobian_vs_finite_differences(bench):
    qp = bench.qp
    rng = np.random.default_rng(2024)

    def fd5(bp, x0, h):
        cols = []
        for j in range(qp.d_x):
            e = np.zeros(qp.d_x)
            e[j] = 1.0
            up2 = solve_barrier(bp, x0 + 2 * h * e).u_eta
            up1 = solve_barrier(bp, x0 + h * e).u_eta
            um1 = solve_barrier(bp, x0 - h * e).u_eta
            um2 = solve_barrier(bp, x0 - 2 * h * e).u_eta
            cols.append((-up2 + 8 * up1 - 8 * um1 + um2) / (12 * h))
        return np.stack(cols, axis=1)

    worst = 0.0
    done = 0
    while done < 100:
        x0 = bench.sample_initial_states(1, seed=int(rng.integers(1 << 30)))[0]
        eta = float(10.0 ** rng.uniform(-4, 2))
        bp = make_barrier_problem(qp, eta, outer_radius=bench.outer_radius)
        try:
            sol = solve_barrier(bp, x0)
            J = barrier_jacobian(bp, sol)
            Jfd = fd5(bp, x0, 1e-5 * (1.0 + np.linalg.norm(x0)))
        except InfeasibleError:
            continue
        worst = max(worst, float(np.abs(J - Jfd).max() / max(1.0, np.abs(J).max())))
        done += 1
    _report(2, "closed-form Jacobian matches central differences", worst <= 1e-5,
            f"worst rel err {worst:.2e} over 100 (x0, eta) pairs, eta in [1e-4, 1e2]")


# -- 3: convex-combination identity ---------------------------------------------

def _small_instances():
    yield build_condensed(*clip_problem()), [np.array([0.2]), np.array([0.7]), np.array([2.0])]
    sys_ = LinearSystem(A=np.zeros((1, 1)), B=np.zeros((1, 1)))
    cost = StageCost(Q=np.eye(1), R=np.eye(1), horizon=1)
    cons = BoxlikeConstraints(A_x=np.array([[1.0], [-1.0]]), b_x=np.array([5.0, 5.0]),
                              A_u=np.array([[1.0], [-1.0]]), b_u=np.array([2.0, 1.0]))
    yield build_condensed(sys_, cost, cons), [np.zeros(1)]
    sys2 = LinearSystem(A=np.array([[0.5]]), B=np.array([[1.0, 0.3]]))
    cost2 = StageCost(Q=np.eye(1), R=np.eye(2), horizon=1)
    cons2 = BoxlikeConstraints(A_x=np.array([[1.0], [-1.0]]), b_x=np.array([3.0, 3.0]),
                               A_u=np.vstack([np.eye(2), -np.eye(2)]),
                               b_u=np.array([1.0, 1.0, 1.0, 1.0]))
    yield build_condensed(sys2, cost2, cons2), [np.array([0.5]), np.array([2.4]), np.array([-2.0])]


def test_criterion_3_convex_combination_identity():
    worst = 0.0
    checked = 0
    for qp, states in _small_instances():
        assert qp.m <= 12
        for x0 in states:
            for eta in (1e-3, 1e-1, 10.0):
                bp = make_barrier_problem(qp, eta)
                sol = solve_barrier(bp, x0)
                J = barrier_jacobian(bp, sol)
                comb = convex_combination(bp, sol)
                worst = max(worst, float(np.abs(J - comb.reconstructed).max()))
                checked += 1
    _report(3, "Jacobian equals active-set convex combination", worst <= 1e-8,
            f"worst max-abs gap {worst:.2e} over {checked} instances")


# -- 4: recentering --------------------------------------------------------------

def test_criterion_4_recentering(bench):
    worst = 0.0
    for eta in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3):
        bp = make_barrier_problem(bench.qp, eta, outer_radius=bench.outer_radius)
        sol = solve_barrier(bp, np.zeros(2))
        worst = max(worst, float(np.linalg.norm(sol.u_eta)))
    _report(4, "barrier policy is exactly recentered at the origin", worst <= 1e-9,
            f"max ||u_eta(0)|| = {worst:.2e} across the eta sweep")


# -- 5: bound sandwiches over a 500-point sweep ----------------------------------

def test_criterion_5_bound_sweep(bench):
    rows, reports, skipped = bounds_sweep(bench, [1e-3, 1e-2, 1e-1, 1.0, 10.0],
                                          n_states=100, seed=7, with_hessian=True)
    bad = [r for r in reports if not r.satisfied]
    ok = len(rows) == 500 and not bad
    detail = f"{len(rows)} sweep points, {len(reports)} checks, {len(bad)} violations"
    if bad:
        detail += f"; first: {bad[0].name} lhs={bad[0].lhs:.3g} rhs={bad[0].rhs:.3g}"
    _report(5, "error/directional/residual/Hessian bounds hold", ok, detail)


# -- 6: consolidated quadratic-over-polytope bounds -------------------------------

def test_criterion_6_quad_opt_bounds():
    from smoothmpc.bounds import quad_opt_bounds

    rng = np.random.default_rng(66)
    failures = []
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        extra = int(rng.integers(1, 5))
        G = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((extra, n))])
        b = np.concatenate([rng.uniform(0.5, 2.0, size=2 * n),
                            rng.uniform(0.5, 2.0, size=extra)])
        evals = rng.uniform(0.5, 4.0, size=n)
        Qm = np.linalg.qr(rng.standard_normal((n, n)))[0]
        Hm = Qm @ np.diag(evals) @ Qm.T
        v = rng.uniform(-3, 3, size=n)
        eta = float(10.0 ** rng.uniform(-3, 0))
        for rep in quad_opt_bounds(G, b, Hm, v, eta, nu=float(G.shape[0])):
            if not rep.satisfied:
                failures.append((trial, rep.name))
    _report(6, "quadratic-over-polytope bounds on random polytopes", not failures,
            f"100 polytopes, failures: {failures[:5]}")


# -- 7: matrix-analysis oracle suite ----------------------------------------------

def test_criterion_7_matrix_suite():
    from smoothmpc.matrixops import selftest

    checks, failures = selftest(np.random.default_rng(77), 1000)
    _report(7, "adjugate/determinant oracle suite (1000 instances)",
            checks == 7000 and not failures,
            f"{checks} checks, failures: {failures[:5]}")


# -- 8: smoothing trends -----------------------------------------------------------

def test_criterion_8_smoothing_trends(sweep_rows):
    rs = [r for r in sweep_rows if r["kind"] == "randomized"]
    s = np.array([r["param"] for r in rs])
    sup = np.array([r["sup_error"] for r in rs])
    l1 = np.array([r["L1_max"] for r in rs])
    # sup-error saturates at the policy range (|pi| <= 1): fit the growth
    # law on the pre-saturation points
    pre = sup <= 0.5
    slope_err = float(np.polyfit(np.log(s[pre]), np.log(sup[pre]), 1)[0])
    slope_l1 = float(np.polyfit(np.log(s), np.log(l1), 1)[0])
    bars = sorted([(r["param"], r["L1_max"]) for r in sweep_rows if r["kind"] == "barrier"])
    mono = all(b2 <= b1 * 1.05 for (_, b1), (_, b2) in zip(bars[:-1], bars[1:]))

    qp = build_condensed(*clip_problem())
    K0 = float(np.linalg.solve(qp.H, qp.F.T)[0, 0])

    class Clip1D:
        def __call__(self, x):
            return np.atleast_1d(np.clip(K0 * np.atleast_1d(x)[0], -1, 1))

        def eval_batch(self, X, fallback="nan"):
            return np.clip(K0 * np.atleast_2d(X)[:, :1], -1, 1)

    cfg = SmoothingConfig(sigma=100.0, distribution="gaussian", n_samples=100_000, seed=0)
    flat = max(abs(pi_rs(Clip1D(), cfg, np.array([x]))[0]) for x in (-3.0, -1.0, 0.5, 2.0))

    ok = (abs(slope_err - 1.0) <= 0.15 and abs(slope_l1 + 1.0) <= 0.2
          and mono and flat <= 0.05)
    _report(8, "randomized/barrier smoothing trends", ok,
            f"sup-error slope {slope_err:.3f} (target 1±0.15), L1 slope {slope_l1:.3f} "
            f"(target -1±0.2), barrier L1 non-increasing={mono}, clip flattening {flat:.3f}<=0.05")


# -- 9: imitation experiment trend --------------------------------------------------

def test_criterion_9_imitation_trend(bench, sweep_rows):
    levels = matched_levels(sweep_rows, n_levels=5)
    cfg = TrainConfig(steps=1500, batch_size=128, width=64)
    rows = imitation_experiment(bench, levels, N=20, K=20, train_cfg=cfg,
                                seeds=[0, 1, 2, 3, 4], n_samples=800,
                                n_eval=15, jobs=JOBS)
    means = {}
    for r in rows:
        means.setdefault((r["expert"], r["matched_L1"]), []).append(r["mean_traj_error"])
    wins = 0
    for _, _, l1 in levels:
        b = np.mean(means[("barrier", l1)])
        r = np.mean(means[("randomized", l1)])
        wins += b < r
    frac = wins / len(levels)

    # barrier error monotone non-increasing across the top half of the eta grid
    etas = sorted({eta for eta, _, _ in levels})
    top = etas[len(etas) // 2:]
    by_eta = {}
    for eta, _, l1 in levels:
        by_eta[eta] = np.mean(means[("barrier", l1)])
    top_errors = [by_eta[e] for e in top]
    mono = all(b <= a * (1 + 1e-9) for a, b in zip(top_errors[:-1], top_errors[1:]))

    ok = frac >= 0.8 and mono
    _report(9, "barrier beats randomized at matched smoothness", ok,
            f"barrier lower on {wins}/{len(levels)} levels; top-half eta errors "
            f"{[round(v, 4) for v in top_errors]} monotone={mono}")


# -- 10: tradeoff floor -----------------------------------------------------------

def test_criterion_10_tradeoff_floor():
    qp = build_condensed(*clip_problem())
    K0 = float(np.linalg.solve(qp.H, qp.F.T)[0, 0])
    kink = 1.0 / abs(K0)

    def explicit_1d(xs):
        return np.clip(K0 * xs, -1.0, 1.0)

    results = []
    for eta in (1e-3, 1e-2, 1e-1, 1.0):
        bp = make_barrier_problem(qp, eta)
        half = max(40 * eta, 0.2)
        xs = np.linspace(kink - half, kink + half, 1201)
        g = np.array([solve_barrier(bp, np.array([x])).u_eta[0] for x in xs])
        out = tradeoff_audit(xs, explicit_1d(xs), g, slopes=(K0, 0.0))
        results.append(("barrier", eta, out["satisfied"],
                        out["worst_grad_lipschitz"], out["theoretical_floor"]))

    class Clip1D:
        def __call__(self, x):
            return np.atleast_1d(np.clip(K0 * np.atleast_1d(x)[0], -1, 1))

        def eval_batch(self, X, fallback="nan"):
            return np.clip(K0 * np.atleast_2d(X)[:, :1], -1, 1)

    for sigma in (0.01, 0.05, 0.2, 1.0):
        cfg = SmoothingConfig(sigma=sigma, distribution="gaussian",
                              n_samples=50_000, seed=0)
        rs = RandomizedPolicy(Clip1D(), cfg)
        half = max(8 * sigma, 0.05)
        xs = np.linspace(kink - half, kink + half, 801)
        g = rs.eval_batch(xs[:, None])[:, 0]
        out = tradeoff_audit(xs, explicit_1d(xs), g, slopes=(K0, 0.0))
        results.append(("randomized", sigma, out["satisfied"],
                        out["worst_grad_lipschitz"], out["theoretical_floor"]))
    ok = all(sat for _, _, sat, _, _ in results)
    worst = min(l1 / max(fl, 1e-300) for _, _, _, l1, fl in results)
    _report(10, "every smoothed variant respects the |a-b|^2/(144 eps) floor", ok,
            f"min measured/floor ratio {worst:.2f} over {len(results)} variants")
