"""Workbench machinery: polygon, experts, sweeps, matched levels."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import smoothmpc.experiments
import smoothmpc.qp
from smoothmpc.barrier import (
    GRAD_TOL_FACTOR,
    barrier_hessian,
    barrier_jacobian,
    solve_barrier,
    tensor_spectral_norm,
)
from smoothmpc.config import default_config
from smoothmpc.core import (
    BoxlikeConstraints,
    LinearSystem,
    StageCost,
    build_condensed,
    double_integrator_problem,
)
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import (
    PolygonProjector,
    Workbench,
    _pmap,
    _SmoothnessTask,
    _sup_error,
    bounds_sweep,
    expert_smoothness,
    feasible_polygon,
    imitation_run,
    matched_levels,
    slice_smoothness,
)
from smoothmpc.explicit import solve_qp
from smoothmpc.mlp import TrainConfig
from smoothmpc.qp import bounding_box, chebyshev_center, support
from qp_oracles import support_loop_box
from test_barrier import assert_exact_planar_norm
from systems import layouts, random_system, tolerance


@pytest.fixture(scope="module")
def bench():
    return Workbench.from_config(default_config(), resolution=101)


def sweep_polygon(qp):
    """Oracle: hull of the support points in 720 fixed directions.

    The set-up's former route. Its vertices are exact, but it misses any
    vertex whose normal cone is narrower than the 0.5 degree step.
    """
    G_xu = np.hstack([-qp.P, qp.G])
    pts = []
    for th in np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False):
        c = np.zeros(2 + qp.n)
        c[0], c[1] = np.cos(th), np.sin(th)
        pts.append(support(G_xu, qp.w, c)[0][:2])
    pts = np.array(pts)
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def planar_systems(count, seed=7):
    """The first ``count`` random systems with a 2-D state."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        qp = random_system(rng)[1]
        if qp.d_x == 2:
            out.append(qp)
    return out


def edge_excess(qp, V):
    """Largest relative amount by which the feasible set passes an edge of V."""
    G_xu = np.hstack([-qp.P, qp.G])
    worst = -np.inf
    for a, b in zip(V, np.roll(V, -1, axis=0)):
        e = b - a
        c = np.zeros(2 + qp.n)
        c[:2] = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        offset = float(c[:2] @ a)
        worst = max(worst, (support(G_xu, qp.w, c)[1] - offset) / (1.0 + abs(offset)))
    return worst


@pytest.fixture(scope="module")
def planar_polygons():
    return [(qp, feasible_polygon(qp), sweep_polygon(qp)) for qp in planar_systems(12)]


def test_polygon_equals_sweep_on_double_integrator():
    qp = build_condensed(*double_integrator_problem())
    V = feasible_polygon(qp)
    assert len(V) == 14
    assert np.array_equal(V, sweep_polygon(qp))


def test_polygon_contains_every_sweep_vertex(planar_polygons):
    for _, V, S in planar_polygons:
        for s in S:
            assert np.min(np.linalg.norm(V - s, axis=1)) <= 1e-9 * (1.0 + np.linalg.norm(s))


def test_polygon_vertices_are_feasible(planar_polygons):
    # The origin is interior, so a vertex pushed out is infeasible. At a
    # vertex the input polytope is flat, and the QP still solves there. Its
    # KKT conditions are checked term by term: the multipliers reach 3.5e5
    # on the 2nd draw, so a bound on lambda * residual would not do.
    for qp, V, _ in planar_polygons:
        for v in V:
            assert chebyshev_center(qp.G, qp.bounds_rhs(v))[1] >= -1e-9
            with pytest.raises(InfeasibleError):
                chebyshev_center(qp.G, qp.bounds_rhs(1.001 * v))
            sol = solve_qp(qp, v)
            u, lam, work = sol.u_star, sol.multipliers, sol.sigma.sigma
            b = qp.bounds_rhs(v)
            terms = [qp.H @ u, qp.F.T @ v, qp.G.T @ lam]
            stat = terms[0] - terms[1] + terms[2]
            assert np.linalg.norm(stat) <= 1e-9 * (1.0 + sum(np.linalg.norm(t) for t in terms))
            res = qp.G @ u - b
            assert np.all(res <= 1e-9 * (1.0 + np.abs(b)))
            assert np.all(np.abs(res[work]) <= 1e-9 * (1.0 + np.abs(b[work])))
            assert lam.min() >= 0 and not lam[~work].any()


def test_polygon_edges_are_certified(planar_polygons):
    for qp, V, _ in planar_polygons:
        assert edge_excess(qp, V) <= 1e-9


def test_polygon_finds_vertices_the_sweep_misses(planar_polygons):
    # the 11th planar draw has two vertices with normal cones of 0.064 and
    # 0.0033 degrees; the sweep's polygon cuts them off
    qp, V, S = planar_polygons[10]
    assert (len(V), len(S)) == (8, 6)
    assert edge_excess(qp, V) <= 1e-9
    assert edge_excess(qp, S) > 1e-3


def test_polygon_drops_a_support_point_inside_an_edge(monkeypatch):
    # the set is [-1, 1] x [-2, 2]; the first starting direction (1, 0) is
    # an edge normal, and its support point (1, 0) lies inside that edge
    sys_ = LinearSystem(A=np.eye(2), B=np.array([[0.0], [1.0]]))
    cons = BoxlikeConstraints(A_x=np.vstack([np.eye(2), -np.eye(2)]), b_x=np.ones(4),
                              A_u=np.array([[1.0], [-1.0]]), b_u=np.ones(2))
    qp = build_condensed(sys_, StageCost(Q=np.eye(2), R=np.eye(1), horizon=2), cons)
    hull_inputs = []

    def spy(pts):
        hull_inputs.append(pts)
        return ConvexHull(pts)

    monkeypatch.setattr(smoothmpc.experiments, "ConvexHull", spy)
    V = feasible_polygon(qp)
    assert any(np.array_equal(p, [1.0, 0.0]) for p in hull_inputs[0])
    assert sorted(map(tuple, V)) == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]
    x, y = V.T
    assert 0.5 * (x @ np.roll(y, -1) - y @ np.roll(x, -1)) == 8.0  # counterclockwise


def test_polygon_contains_exactly_the_feasible_set(bench):
    poly = bench.projector
    rng = np.random.default_rng(0)
    inside_checked = outside_checked = 0
    for _ in range(300):
        x = rng.uniform(-12, 12, size=2)
        feasible = True
        try:
            solve_qp(bench.qp, x)
        except InfeasibleError:
            feasible = False
        said = bool(poly.inside(x[None, :])[0])
        if feasible:
            assert said or _near_boundary(poly, x)
            inside_checked += 1
        else:
            assert (not said) or _near_boundary(poly, x)
            outside_checked += 1
    assert inside_checked > 30 and outside_checked > 30


def _near_boundary(poly, x, tol=1e-6):
    p = poly(np.array(x, dtype=float)[None, :])[0]
    return np.linalg.norm(p - x) <= tol or _dist_to_edges(poly, x) <= tol


def _dist_to_edges(poly, x):
    W = x[None, :] - poly.vertices
    t = np.clip(np.einsum("ej,ej->e", W, poly.edges) / np.einsum("ej,ej->e", poly.edges, poly.edges), 0, 1)
    proj = poly.vertices + t[:, None] * poly.edges
    return float(np.min(np.linalg.norm(x[None, :] - proj, axis=1)))


def test_projection_is_idempotent_and_feasible(bench):
    rng = np.random.default_rng(1)
    X = rng.uniform(-30, 30, size=(200, 2))
    P = bench.projector(X)
    assert np.all(bench.projector.inside(P, margin=-1e-9))
    P2 = bench.projector(P)
    assert np.abs(P2 - P).max() <= 1e-9
    # projections of feasible points are identities
    F = bench.sample_initial_states(50, seed=3)
    assert np.abs(bench.projector(F) - F).max() == 0.0
    # projected points solve as feasible QPs (slight shrink guards roundoff)
    for p in P[::40]:
        solve_qp(bench.qp, p * (1 - 1e-9))


def _inside_broadcast(poly, X, margin=0.0):
    """Oracle: the (N, V, 2) broadcast form of ``PolygonProjector.inside``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = X[:, None, :] - poly.vertices[None, :, :]
    cross = poly.edges[None, :, 0] * W[:, :, 1] - poly.edges[None, :, 1] * W[:, :, 0]
    return np.all(cross >= margin, axis=1)


def test_inside_is_the_broadcast_formula_bit_for_bit(bench, planar_polygons):
    rng = np.random.default_rng(11)
    for V in [bench.projector.vertices] + [V for _, V, _ in planar_polygons]:
        poly = PolygonProjector(V)
        lo, hi = V.min(axis=0), V.max(axis=0)
        uniform = rng.uniform(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo), size=(4000, 2))
        on_edges = poly(uniform[~_inside_broadcast(poly, uniform)])
        bad = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
        for X in (uniform, V, on_edges, bad):
            for margin in (0.0, 1e-9, -1e-9):
                assert np.array_equal(poly.inside(X, margin), _inside_broadcast(poly, X, margin))
        # the projected points straddle the edges: both decisions occur
        assert 0 < poly.inside(on_edges).sum() < on_edges.shape[0]


def _project_broadcast(poly, X):
    """Oracle: the (P, V, 2) broadcast form of ``PolygonProjector.__call__``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = X.copy()
    todo = ~poly.inside(X)
    P = X[todo]
    W = P[:, None, :] - poly.vertices[None, :, :]
    t = np.einsum("pej,ej->pe", W, poly.edges) / poly._edge_norm2[None, :]
    proj = poly.vertices[None, :, :] + np.clip(t, 0.0, 1.0)[:, :, None] * poly.edges[None, :, :]
    d2 = np.sum((P[:, None, :] - proj) ** 2, axis=2)
    out[todo] = proj[np.arange(P.shape[0]), np.argmin(d2, axis=1)]
    return out


def test_projection_is_the_broadcast_formula_bit_for_bit(bench, planar_polygons):
    rng = np.random.default_rng(12)
    big = rng.uniform(-12.0, 12.0, size=(200_000, 2))
    poly = bench.projector
    assert np.array_equal(poly(big), _project_broadcast(poly, big))
    for V in [bench.projector.vertices] + [V for _, V, _ in planar_polygons]:
        poly = PolygonProjector(V)
        lo, hi = V.min(axis=0), V.max(axis=0)
        uniform = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), size=(4000, 2))
        # points just outside the vertices, where two edges tie or nearly tie
        corners = V * (1.0 + 1e-12) + 1e-12
        bad = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf], [np.inf, np.inf]])
        for X in (uniform, V, corners, bad):
            with np.errstate(invalid="ignore"):  # inf - inf in the bad rows
                assert np.array_equal(poly(X), _project_broadcast(poly, X), equal_nan=True)


def test_projector_gives_the_bits_of_a_contiguous_batch_for_any_layout(bench):
    poly = bench.projector
    rng = np.random.default_rng(14)
    X = np.vstack([rng.uniform(-15.0, 15.0, size=(3000, 2)),
                   [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]]])
    inside, P = poly.inside(X), poly(X)
    assert np.array_equal(poly.last_inside, inside)
    assert 0 < inside.sum() < X.shape[0]
    for Y in layouts(X):
        assert np.array_equal(poly.inside(Y), inside)
        assert np.array_equal(poly(Y), P, equal_nan=True)
        assert np.array_equal(poly.last_inside, inside)


def test_projector_on_an_empty_batch_and_one_wholly_outside(bench, planar_polygons):
    rng = np.random.default_rng(15)
    for V in [bench.projector.vertices] + [V for _, V, _ in planar_polygons]:
        poly = PolygonProjector(V)
        empty = np.zeros((0, 2))
        assert poly.inside(empty).shape == (0,) and poly(empty).shape == (0, 2)
        assert poly.last_inside.shape == (0,)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=500)
        reach = 2.0 * np.abs(V).max()
        ring = reach * rng.uniform(1.0, 3.0, size=(500, 1)) * np.stack([np.cos(angle),
                                                                         np.sin(angle)], axis=1)
        bad = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf], [np.inf, np.inf]])
        for X in (ring, bad, np.vstack([ring, bad])):
            with np.errstate(invalid="ignore"):  # inf - inf in the bad rows
                assert not poly.inside(X).any()
                assert np.array_equal(poly(X), _project_broadcast(poly, X), equal_nan=True)
            assert not poly.last_inside.any()


def test_projected_fraction_is_read_from_the_sup_error_projection(bench):
    task = _SmoothnessTask(bench, n_samples=40, seed=3)
    row = task(("randomized", 0.8))
    expert = bench.randomized_expert(0.8, n_samples=40, seed=3)
    samples = expert.samples(bench.sample_initial_states(400, seed=3 + 17))
    assert row["projected_fraction"] == float(1.0 - bench.projector.inside(samples).mean())
    assert 0.0 < row["projected_fraction"] < 1.0
    assert np.isnan(task(("barrier", 1.0))["projected_fraction"])


def test_sample_initial_states_deterministic_and_feasible(bench):
    a = bench.sample_initial_states(25, seed=7)
    b = bench.sample_initial_states(25, seed=7)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 8.0
    for x in a[:5]:
        solve_qp(bench.qp, x)


def test_barrier_expert_matches_policy(bench):
    expert = bench.barrier_expert(0.5)
    x = np.array([3.0, -1.0])
    assert np.allclose(expert.eval_batch(x[None])[0], solve_barrier(expert.bp, x).u_eta[:1])
    J = expert.jacobian_batch(x[None])[0]
    assert J.shape == (1, 2)
    # an infeasible state reads NaN
    assert np.isnan(expert.eval_batch(np.array([[8.0, 2.0]]))).all()


def test_barrier_expert_stacked_batch_matches_fresh_solves(bench, monkeypatch):
    # scattered states in one stacked solve, with no LP: fresh per-point
    # solves agree within the Newton tolerance, 2 (1e-10 (1 + |F^T x|)) /
    # lambda_min(H) by strong convexity, in input order, with NaN rows at
    # the infeasible states
    lp_calls = []
    real = smoothmpc.qp.linprog
    monkeypatch.setattr(smoothmpc.qp, "linprog",
                        lambda *a, **k: lp_calls.append(1) or real(*a, **k))
    X = bench.sample_initial_states(400, seed=17)
    expert = bench.barrier_expert(0.01)
    expert.eval_batch(X)
    assert len(lp_calls) == 0
    X = np.vstack([X[:40], [[8.0, 2.0]], X[40:80], [[12.0, 8.0]]])
    U = bench.barrier_expert(0.01).eval_batch(X)
    qp = expert.bp.qp
    mu = np.linalg.eigvalsh(qp.H).min()
    for x, u in zip(X, U):
        try:
            ref = solve_barrier(expert.bp, x).u_eta[: qp.d_u]
        except InfeasibleError:
            assert np.isnan(u).all()
            continue
        tol = 2.0 * GRAD_TOL_FACTOR * (1.0 + np.linalg.norm(qp.F.T @ x)) / mu
        assert np.abs(u - ref).max() <= tol
    assert np.isnan(U).any(axis=1).nonzero()[0].tolist() == [40, 81]


def test_bounding_box_is_the_support_loop_on_sampled_states(bench):
    for x in bench.sample_initial_states(24, seed=0):
        b = bench.qp.bounds_rhs(x)
        lo, hi = bounding_box(bench.qp.G, b)
        lo_ref, hi_ref = support_loop_box(bench.qp.G, b)
        assert np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)


def test_tensor_norm_is_exact_on_the_bounds_sweep_hessians(bench, monkeypatch):
    tensors = []
    monkeypatch.setattr(smoothmpc.experiments, "tensor_spectral_norm",
                        lambda T: tensors.append(T) or tensor_spectral_norm(T))
    bounds_sweep(bench, default_config()["bounds"]["eta_grid"], n_states=16, seed=0)
    assert len(tensors) == 80
    for T in tensors:
        assert_exact_planar_norm(T)


def test_bounds_sweep_solves_each_eta_as_one_stack(bench, monkeypatch):
    stacks = []  # (bp, states, solutions) of each stacked solve
    real = smoothmpc.experiments.solve_barrier_batch

    def stacked(bp, X):
        stacks.append((bp, np.array(X), real(bp, X)))
        return stacks[-1][2]

    def one_state(bp, x0):
        raise AssertionError("bounds_sweep made a one-state barrier solve")

    monkeypatch.setattr(smoothmpc.experiments, "solve_barrier_batch", stacked)
    monkeypatch.setattr(smoothmpc.experiments, "solve_barrier", one_state)
    etas = [1e-3, 1.0]
    rows, _, _ = bounds_sweep(bench, etas, n_states=3, seed=0)
    monkeypatch.undo()
    assert [bp.eta for bp, _, _ in stacks] == etas
    assert len(rows) == 3 * len(etas)
    qp = bench.qp
    norms = np.linalg.norm(qp.G, axis=1)
    for k, row in enumerate(rows):  # state by state, eta inside
        i, j = divmod(k, len(etas))
        bp, X, batch = stacks[j]
        x0 = X[i]
        assert (row["x0_0"], row["x0_1"], row["eta"]) == (x0[0], x0[1], bp.eta)
        sol = solve_barrier(bp, x0)
        tol = tolerance(qp, x0, sol, batch.row(i))
        gap = np.linalg.norm(sol.u_eta - solve_qp(qp, x0).u_star)
        assert abs(row["gap_norm"] - gap) <= tol
        assert abs(row["min_residual"] - sol.phi[norms >= 1.0 - 1e-12].min()) <= norms.max() * tol
        J = np.linalg.norm(barrier_jacobian(bp, sol), 2)
        assert row["jacobian_norm"] == pytest.approx(J, rel=1e-6)
        T = tensor_spectral_norm(barrier_hessian(bp, sol))
        assert row["hessian_norm"] == pytest.approx(T, rel=1e-6)


def test_randomized_expert_total_on_infeasible_states(bench):
    expert = bench.randomized_expert(2.0, n_samples=200, seed=0)
    u = expert.eval_batch(np.array([[14.0, 0.0]]))  # outside the feasible set
    assert np.all(np.isfinite(u))


def test_slice_smoothness_refines_narrow_feature():
    # kink of width ~1e-3 must be resolved from a 0.25 coarse grid
    def jac(X):
        return np.tanh(X[:, 0] / 1e-3)[:, None, None]

    out = slice_smoothness(jac, np.zeros(1), np.ones(1), span=2.0,
                           coarse_h=0.25, min_h=2e-4)
    # max derivative of tanh(s/w) is 1/w
    assert out["L1"] >= 0.5 / 1e-3
    assert out["L0"] <= 1.0 + 1e-9


def test_matched_levels_interpolation():
    rows = [{"kind": "barrier", "param": e, "L1_max": 1.0 / e} for e in (0.1, 1.0, 10.0)]
    rows += [{"kind": "randomized", "param": s, "L1_max": 2.0 / s} for s in (0.05, 0.5, 5.0, 50.0)]
    levels = matched_levels(rows, n_levels=3)
    assert len(levels) == 3
    for eta, sigma, l1 in levels:
        assert abs(2.0 / sigma - l1) / l1 <= 1e-9  # exact on the power law


def test_bounds_sweep_negative_control(bench, monkeypatch):
    rows2, reports2, _ = bounds_sweep(bench, [0.1], n_states=3, seed=1, with_hessian=False)
    assert all(r.satisfied for r in reports2)
    # a global error bound shrunk a millionfold must be reported violated
    real = smoothmpc.experiments.error_upper
    monkeypatch.setattr(smoothmpc.experiments, "error_upper", lambda bp: 1e-6 * real(bp))
    rows, reports, _ = bounds_sweep(bench, [0.1], n_states=3, seed=1, with_hessian=False)
    assert any(not r.satisfied and r.name == "error_upper" for r in reports)


def test_pmap_workers_match_serial_order():
    items = [-3.0, 2.0, -1.0, 4.0]
    assert _pmap(abs, items, jobs=2) == _pmap(abs, items, jobs=1) == [3.0, 2.0, 1.0, 4.0]


def test_sup_error_needs_a_state_evaluated_on_both_policies():
    class NanOn:
        def __init__(self, rows):
            self.rows = rows

        def eval_batch(self, X, fallback="nan"):
            out = np.zeros((X.shape[0], 1))
            out[self.rows] = np.nan
            return out

    pts = np.zeros((3, 2))
    assert _sup_error(NanOn([0]), NanOn([1]), pts) == 0.0
    with pytest.raises(ValueError, match="none of the 3 states evaluated on both policies"):
        _sup_error(NanOn([0, 2]), NanOn([1]), pts)


def test_imitation_run_smoke(bench, tmp_path):
    cfg = TrainConfig(steps=120, batch_size=64, width=16)
    expert = bench.barrier_expert(1.0)
    out = imitation_run(bench, expert, N=3, K=6, train_cfg=cfg, seed=0, n_eval=3,
                        artifact_dir=tmp_path, tag="t")
    assert np.isfinite(out["mean_traj_error"])
    assert out["n_eval_failures"] == 0
    assert (tmp_path / "dataset_t.csv").exists()
    assert (tmp_path / "curve_t.csv").exists()
    assert len((tmp_path / "dataset_t.csv").read_text().strip().splitlines()) == 1 + 3 * 6


def test_bounds_sweep_skips_nonpositive_eta(bench):
    rows, reports, skipped = bounds_sweep(bench, [0.0, 0.1], n_states=2, seed=1,
                                          with_hessian=False)
    assert skipped == [(0.0, "barrier weight must be positive")]
    assert all(r["eta"] == 0.1 for r in rows)


def test_slice_smoothness_linear_law():
    K = np.array([[0.5, -1.5]])
    h = 1e-5

    def fd_jacobian(x):
        cols = [(K @ (x + h * e) - K @ (x - h * e)) / (2 * h) for e in np.eye(2)]
        return np.stack(cols, axis=1)

    out = expert_smoothness(lambda X: np.stack([fd_jacobian(x) for x in X]), feature_scale=0.1)
    assert abs(out["L0_max"] - np.linalg.norm(K, 2)) <= 1e-6
    assert out["L1_max"] <= 1e-6


def test_slice_smoothness_explicit_grows_with_resolution(bench):
    vals = [expert_smoothness(bench.table.jacobian_batch, feature_scale=s)["L1_max"]
            for s in (1.0, 0.01)]
    assert vals[1] >= vals[0]  # kinks make the estimate grow as the step shrinks
    assert vals[1] > 1.0


def test_slice_smoothness_barrier_monotone_in_eta(bench):
    last = np.inf
    for eta in (0.1, 1.0, 10.0):
        scale = float(np.clip(0.1 * np.sqrt(eta), 2e-3, 0.25))
        L1 = expert_smoothness(bench.barrier_expert(eta).jacobian_batch, feature_scale=scale)["L1_max"]
        assert L1 <= last * 1.05
        last = L1


def test_small_smoothing_approaches_explicit_metrics(bench):
    explicit_met = expert_smoothness(bench.table.jacobian_batch, feature_scale=0.02)
    b_exp = bench.barrier_expert(1e-4)
    met_b = expert_smoothness(b_exp.jacobian_batch, feature_scale=0.02)
    assert abs(met_b["L0_max"] - explicit_met["L0_max"]) <= 0.05 * explicit_met["L0_max"]
    r_exp = bench.randomized_expert(1e-3, n_samples=400, seed=0)
    met_r = expert_smoothness(lambda X: r_exp.jacobian_batch(X, h=1e-4), feature_scale=0.02)
    assert abs(met_r["L0_max"] - explicit_met["L0_max"]) <= 0.05 * explicit_met["L0_max"]
