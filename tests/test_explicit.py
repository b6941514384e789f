"""Hard-constrained QP solutions, active-set gains, and piece discovery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothmpc.explicit

from smoothmpc.core import (
    box_constraints,
    build_condensed,
    clip_problem,
    double_integrator_problem,
    residuals,
    LinearSystem,
    StageCost,
)
from smoothmpc.errors import DegenerateActiveSetError, InfeasibleError
from smoothmpc.explicit import (
    ActiveSet,
    PieceTableEvaluator,
    _region_mask,
    discover_pieces,
    enumerate_nonsingular_sigmas,
    gain_for_sigma,
    max_gain_norm,
    pi_mpc,
    solve_qp,
    state_grid,
)
from smoothmpc.qp import dual_ascent_qp, raw_solve_qp
from test_warm_start import random_system


@pytest.fixture(scope="module")
def di_qp():
    sys_, cost, cons = double_integrator_problem()
    return build_condensed(sys_, cost, cons)


@pytest.fixture(scope="module")
def clip_qp():
    sys_, cost, cons = clip_problem()
    return build_condensed(sys_, cost, cons)


def kkt_ok(qp, x0, sol, tol=1e-8):
    stat = qp.H @ sol.u_star - qp.F.T @ x0 + qp.G.T @ sol.multipliers
    res = residuals(qp, x0, sol.u_star)
    comp = sol.multipliers * res
    scale = 1.0 + np.linalg.norm(qp.F.T @ x0)
    return (np.linalg.norm(stat) <= tol * scale and res.min() >= -tol * 10
            and sol.multipliers.min() >= -tol and np.abs(comp).max() <= tol * 10 * scale)


def test_interior_case_unconstrained(di_qp):
    x0 = np.array([0.05, 0.02])
    sol = solve_qp(di_qp, x0)
    assert sol.sigma.popcount == 0
    assert np.abs(sol.u_star - np.linalg.solve(di_qp.H, di_qp.F.T @ x0)).max() <= 1e-9
    assert kkt_ok(di_qp, x0, sol)


def test_clip_saturation(clip_qp):
    x0 = np.array([4.0])
    sol = solve_qp(clip_qp, x0)
    assert abs(sol.u_star[0] + 1.0) <= 1e-10
    assert sol.sigma.popcount == 1
    # brute force over a u grid agrees
    us = np.linspace(-1, 1, 200001)
    vals = 0.5 * clip_qp.H[0, 0] * us ** 2 - x0[0] * clip_qp.F[0, 0] * us
    assert abs(us[np.argmin(vals)] - sol.u_star[0]) <= 1e-4


def test_saturated_point_cross_checked_by_dual_oracle(di_qp):
    # (8, 2) from the original description is infeasible here; (5, 2) saturates
    x0 = np.array([5.0, 2.0])
    sol = solve_qp(di_qp, x0)
    assert abs(sol.u_star[0] + 1.0) <= 1e-9
    u_oracle = dual_ascent_qp(di_qp.H, -(di_qp.F.T @ x0), di_qp.G,
                              di_qp.bounds_rhs(x0), max_iter=400_000)
    assert np.abs(sol.u_star - u_oracle).max() <= 1e-6
    assert kkt_ok(di_qp, x0, sol)


def test_raw_qp_over_polytope_holding_arbitrarily_large_balls():
    # the half-plane z_0 <= 1 has no Chebyshev center; phase 1 must still
    # find a feasible start
    H, q, G, b = np.eye(2), np.array([-3.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0])
    sol = raw_solve_qp(H, q, G, b)
    assert np.abs(sol.z - np.array([1.0, 0.0])).max() <= 1e-12
    assert sol.working_set.tolist() == [True]
    assert np.abs(sol.z - dual_ascent_qp(H, q, G, b)).max() <= 1e-9


def test_kkt_on_random_states(di_qp):
    rng = np.random.default_rng(5)
    done = 0
    while done < 25:
        x0 = rng.uniform(-8, 8, size=2)
        try:
            sol = solve_qp(di_qp, x0)
        except InfeasibleError:
            continue
        assert kkt_ok(di_qp, x0, sol)
        done += 1


def test_infeasible_state_certificate(di_qp):
    with pytest.raises(InfeasibleError) as exc:
        solve_qp(di_qp, np.array([8.0, 2.0]))
    y = exc.value.certificate
    assert y is not None and y.min() >= 0
    assert np.linalg.norm(di_qp.G.T @ y) <= 1e-6 * max(1.0, np.linalg.norm(y))
    assert y @ di_qp.bounds_rhs(np.array([8.0, 2.0])) < 0


def test_gain_sigma_zero_is_unconstrained(di_qp):
    piece = gain_for_sigma(di_qp, ActiveSet(np.zeros(60, dtype=bool)))
    assert np.abs(piece.K - np.linalg.solve(di_qp.H, di_qp.F.T)).max() <= 1e-12
    assert np.abs(piece.k).max() == 0.0


def test_gain_matches_solver(di_qp):
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        x0 = rng.uniform(-7, 7, size=2)
        try:
            sol = solve_qp(di_qp, x0)
        except InfeasibleError:
            continue
        piece = gain_for_sigma(di_qp, sol.sigma)
        assert np.abs(piece.control(x0) - sol.u_star).max() <= 1e-8
        done += 1


def test_gain_overfull_sigma_raises(di_qp):
    sigma = np.zeros(60, dtype=bool)
    sigma[:11] = True  # more active rows than inputs
    with pytest.raises(DegenerateActiveSetError):
        gain_for_sigma(di_qp, ActiveSet(sigma))


def test_pi_mpc_origin_and_affinity(di_qp):
    assert np.abs(pi_mpc(di_qp, np.zeros(2))).max() <= 1e-10
    x = np.array([0.04, 0.01])  # interior piece
    u1 = pi_mpc(di_qp, x)
    u2 = pi_mpc(di_qp, 2.0 * x)
    assert np.abs(2.0 * u1 - u2).max() <= 1e-9  # affine with zero offset near origin


def test_discovery_clip_three_pieces(clip_qp):
    grid = state_grid([-5.0], [5.0], 201)
    coll = discover_pieces(clip_qp, grid)
    assert coll.n_pieces == 3


def test_discovery_unconstrained_single_piece():
    sys_, cost, cons = double_integrator_problem(state_bound=1e6, input_bound=1e6)
    qp = build_condensed(sys_, cost, cons)
    coll = discover_pieces(qp, state_grid([-10, -10], [10, 10], 21))
    assert coll.n_pieces == 1
    assert coll.pieces[0].sigma.popcount == 0


def test_discovery_methods_agree(di_qp):
    grid = state_grid([-10, -10], [10, 10], 101)
    fast = discover_pieces(di_qp, grid, method="assign")
    slow = discover_pieces(di_qp, grid, method="per-point")
    assert fast.n_pieces == slow.n_pieces
    assert fast.n_infeasible == slow.n_infeasible
    fast_keys = sorted(p.gain_key() for p in fast.pieces)
    slow_keys = sorted(p.gain_key() for p in slow.pieces)
    assert fast_keys == slow_keys
    assert fast.occupancy.sum() == slow.occupancy.sum() == fast.n_feasible


def test_piecewise_affine_consistency(di_qp):
    coll = discover_pieces(di_qp, state_grid([-10, -10], [10, 10], 41))
    rng = np.random.default_rng(31)
    table = PieceTableEvaluator(di_qp, coll)
    checked = 0
    while checked < 40:
        x = rng.uniform(-8, 8, size=2)
        try:
            sol = solve_qp(di_qp, x)
        except InfeasibleError:
            continue
        assert np.abs(table(x) - sol.u_star[:1]).max() <= 1e-7
        checked += 1


def test_lipschitz_bound_over_pieces(di_qp):
    coll = discover_pieces(di_qp, state_grid([-10, -10], [10, 10], 41))
    L = max_gain_norm(di_qp, [p.sigma for p in coll.pieces])
    rng = np.random.default_rng(37)
    pairs = 0
    while pairs < 30:
        x = rng.uniform(-6, 6, size=2)
        y = x + rng.uniform(-0.5, 0.5, size=2)
        try:
            ux = solve_qp(di_qp, x).u_star
            uy = solve_qp(di_qp, y).u_star
        except InfeasibleError:
            continue
        assert np.linalg.norm(ux - uy) <= L * np.linalg.norm(x - y) * (1 + 1e-7) + 1e-9
        pairs += 1


def test_piece_csv_export(tmp_path, clip_qp):
    coll = discover_pieces(clip_qp, state_grid([-5.0], [5.0], 101))
    path = tmp_path / "pieces.csv"
    coll.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "sigma,K_row_major,k,occupancy"
    assert len(rows) == 1 + coll.n_pieces


def test_enumerate_nonsingular_small():
    sys_, cost, cons = clip_problem()
    qp = build_condensed(sys_, cost, cons)
    sigmas = enumerate_nonsingular_sigmas(qp)
    # 1 input, 4 rows: empty set plus each single row is nonsingular
    assert ActiveSet(np.zeros(4, dtype=bool)) in sigmas
    assert all(s.popcount <= 1 for s in sigmas)
    assert len(sigmas) == 5


# --- bucketed point location against the sequential region scan -------------

def _scan_oracle(table, X, fallback="qp"):
    """The sequential scan the bucket grid replaced: every state against every
    region in occupancy order, then the QP fallback or NaN."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full((X.shape[0], table.qp.d_u), np.nan)
    todo = np.arange(X.shape[0])
    for region in table._regions:
        if todo.size == 0:
            break
        mask = _region_mask(region, X[todo], table._tol_scale)
        hit = todo[mask]
        if hit.size:
            U = X[hit] @ region.piece.K.T + region.piece.k
            out[hit] = U[:, : table.qp.d_u]
            todo = todo[~mask]
    if todo.size and fallback == "qp":
        for i in todo:
            try:
                out[i] = solve_qp(table.qp, X[i]).u_star[: table.qp.d_u]
            except InfeasibleError:
                pass
    return out


def _scan_piece(table, x):
    X = np.asarray(x, dtype=float)[None, :]
    for region in table._regions:
        if _region_mask(region, X, table._tol_scale)[0]:
            return region.piece
    return None


def probe_states(rng, table, grid, count):
    """Discovery-grid points (on region facets), bucket corners, states
    inside and just outside the bucket box, far outside it, and rows with
    NaN or inf entries."""
    lo, hi = table.collection.box
    span = hi - lo
    corners = lo + rng.integers(0, table._n + 1, size=(count, lo.size)) * table._width
    near = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(count, lo.size))
    far = rng.uniform(-10.0, 10.0, size=(count // 10, lo.size)) * span
    bad = rng.uniform(lo, hi, size=(6, lo.size))
    bad[[0, 1], 0] = np.nan
    bad[2, -1] = np.inf
    bad[3, -1] = -np.inf
    bad[4] = np.nan
    bad[5, 0] = np.inf
    picks = grid[rng.choice(grid.shape[0], size=min(count, grid.shape[0]), replace=False)]
    return np.vstack([picks, corners, near, far, bad])


def assert_matches_scan(table, X, qp_rows, piece_rows):
    """Bucketed eval_batch (both fallbacks) and piece_at equal the scan bit for bit."""
    assert np.array_equal(table.eval_batch(X, fallback="nan"),
                          _scan_oracle(table, X, "nan"), equal_nan=True)
    Xq = X[qp_rows]
    Xq = Xq[np.all(np.isfinite(Xq), axis=1)]  # the QP rejects non-finite states
    assert np.array_equal(table.eval_batch(Xq, fallback="qp"),
                          _scan_oracle(table, Xq, "qp"), equal_nan=True)
    for x in X[piece_rows]:
        assert table.piece_at(x) is _scan_piece(table, x)


@pytest.fixture(scope="module")
def di_table(di_qp):
    grid = state_grid([-10, -10], [10, 10], 101)
    return grid, PieceTableEvaluator(di_qp, discover_pieces(di_qp, grid))


def test_bucketed_table_matches_scan_double_integrator(di_table):
    grid, table = di_table
    rng = np.random.default_rng(41)
    X = probe_states(rng, table, grid, 3000)
    ev = table.eval_batch(X, fallback="nan")
    assert np.isnan(ev).any(axis=1).sum() > 100  # infeasible and unmatched states
    assert_matches_scan(table, X, rng.choice(X.shape[0], 150, replace=False),
                        rng.choice(X.shape[0], 600, replace=False))
    assert_matches_scan(table, grid, np.arange(0, grid.shape[0], 97),
                        np.arange(0, grid.shape[0], 7))
    with pytest.raises(ValueError):
        _scan_oracle(table, np.array([[np.nan, 0.0]]), "qp")
    assert np.isnan(table.eval_batch(np.array([[np.nan, 0.0]]), fallback="qp")).all()


def test_non_finite_states_are_never_tested_or_solved(di_table, monkeypatch):
    _, table = di_table
    bad = np.array([[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf]])
    X = np.vstack([bad, [[1.0, -0.5]]])
    tested = []
    real = smoothmpc.explicit._region_mask
    monkeypatch.setattr(smoothmpc.explicit, "_region_mask",
                        lambda region, Y, tol: tested.append(Y) or real(region, Y, tol))
    monkeypatch.setattr(smoothmpc.explicit, "solve_qp",
                        lambda *a, **k: pytest.fail("a non-finite state reached solve_qp"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fallback in ("qp", "nan"):
            U = table.eval_batch(X, fallback=fallback)
            assert np.isnan(U[:4]).all() and np.isfinite(U[4]).all()
    assert all(np.isfinite(Y).all() for Y in tested)
    for x in bad:
        with pytest.raises(ValueError, match="not finite"):
            table(x)


@pytest.mark.parametrize("shift", [0.0, 2e-10])
def test_bucketed_table_matches_scan_clip(clip_qp, shift):
    # Place the grid so that the kink x* of the law lies on a bucket edge, or
    # just past it: the saturated region then reaches into the bucket below
    # only through its test tolerance (-1e-9 on a multiplier of slope 4).
    interior = gain_for_sigma(clip_qp, ActiveSet(np.zeros(clip_qp.m, dtype=bool)))
    kink = -1.0 / interior.K[0, 0]
    width = 1.0 / 512
    lo = kink - shift - 2304 * width
    grid = state_grid([lo], [lo + smoothmpc.explicit.BUCKET_CELLS * width], 201)
    table = PieceTableEvaluator(clip_qp, discover_pieces(clip_qp, grid))
    assert table._width[0] == width
    assert table._cells(np.array([[kink - shift - 1e-12]]))[0] == 2303
    rng = np.random.default_rng(43)
    near_kink = kink + np.linspace(-1e-9, 1e-9, 401)[:, None]
    X = np.vstack([probe_states(rng, table, grid, 400), near_kink])
    assert_matches_scan(table, X, np.arange(X.shape[0]), np.arange(X.shape[0]))


@pytest.mark.parametrize("d_x", [2, 3])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_bucketed_table_matches_scan_random_systems(d_x, seed):
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    while qp.d_x != d_x:
        qp = random_system(rng)[1]
    grid = state_grid([-2.5] * d_x, [2.5] * d_x, 21 if d_x == 2 else 9)
    table = PieceTableEvaluator(qp, discover_pieces(qp, grid))
    X = probe_states(rng, table, grid, 300)
    assert_matches_scan(table, X, rng.choice(X.shape[0], 60, replace=False),
                        rng.choice(X.shape[0], 150, replace=False))


def test_batch_inside_one_bucket_tests_only_its_candidates(di_table, monkeypatch):
    _, table = di_table
    candidates = table._candidates[:, :-1]
    cell = int(np.argmax(candidates.sum(axis=0)))
    allowed = {id(table._regions[r]) for r in np.flatnonzero(candidates[:, cell])}
    assert 2 <= len(allowed) <= len(table._regions) // 10
    idx = np.array(np.unravel_index(cell, (table._n,) * 2))
    rng = np.random.default_rng(47)
    lo = table.collection.box[0]
    X = lo + (idx + rng.uniform(0.01, 0.99, size=(500, 2))) * table._width
    assert np.all(table._cells(X) == cell)
    expected = _scan_oracle(table, X, "nan")
    tested = []

    def counting(region, X, tol_scale):
        tested.append(id(region))
        return _region_mask(region, X, tol_scale)

    monkeypatch.setattr(smoothmpc.explicit, "_region_mask", counting)
    assert np.array_equal(table.eval_batch(X, fallback="nan"), expected, equal_nan=True)
    assert 1 <= len(tested) <= len(allowed)
    assert set(tested) <= allowed
    assert len(set(tested)) == len(tested)
