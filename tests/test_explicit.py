"""Hard-constrained QP solutions, active-set gains, and piece discovery."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from smoothmpc.experiments import PolygonProjector, feasible_polygon
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
from smoothmpc.qp import raw_solve_qp
from qp_oracles import dual_ascent_qp, primal_active_set_qp
from systems import layouts, random_system


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
    # the half-plane z_0 <= 1 has no Chebyshev center, and the solver
    # needs none
    H, q, G, b = np.eye(2), np.array([-3.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0])
    sol = raw_solve_qp(H, q, G, b)
    assert np.abs(sol.z - np.array([1.0, 0.0])).max() <= 1e-12
    assert sol.working_set.tolist() == [True]
    assert np.abs(sol.z - dual_ascent_qp(H, q, G, b)).max() <= 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_raw_qp_matches_oracles_on_random_systems(seed):
    # States of unit scale on random systems: some programs are feasible,
    # some have an empty polytope. Dual ascent stops on its KKT residual,
    # but its iteration count grows with the dual's condition number on the
    # working set, so it runs only where that number is at most 30.
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    top = np.linalg.eigvalsh(qp.gram).max()
    for _ in range(6):
        x0 = rng.uniform(-2.5, 2.5, size=qp.d_x)
        H, q, G, b = qp.H, -(qp.F.T @ x0), qp.G, qp.bounds_rhs(x0)
        try:
            sol = raw_solve_qp(H, q, G, b)
        except InfeasibleError as err:
            with pytest.raises(InfeasibleError):
                primal_active_set_qp(H, q, G, b)
            y = err.certificate
            assert y.min() >= 0
            assert np.linalg.norm(G.T @ y) <= 1e-7 * max(1.0, np.linalg.norm(y))
            assert y @ b < 0
            continue
        ref = primal_active_set_qp(H, q, G, b)
        assert np.array_equal(sol.working_set, ref.working_set)
        assert np.abs(sol.z - ref.z).max() <= 1e-9 * (1.0 + np.abs(ref.z).max())
        work = sol.working_set
        if top <= 30 * np.linalg.eigvalsh(qp.gram[np.ix_(work, work)]).min(initial=top):
            assert np.abs(sol.z - dual_ascent_qp(H, q, G, b)).max() <= 1e-6


def test_failed_lp_on_an_empty_polytope_raises_infeasible():
    # At the first state of hypothesis seed 10842 the polytope is clearly
    # empty (the QP's certificate has y^T b = -154.5), yet HiGHS ends the
    # Chebyshev LP with status "Unknown"; the Farkas LP settles it
    rng = np.random.default_rng(10842)
    qp = random_system(rng)[1]
    x0 = rng.uniform(-2.5, 2.5, size=qp.d_x)
    H, q, G, b = qp.H, -(qp.F.T @ x0), qp.G, qp.bounds_rhs(x0)
    with pytest.raises(InfeasibleError):
        raw_solve_qp(H, q, G, b)
    with pytest.raises(InfeasibleError) as exc:
        primal_active_set_qp(H, q, G, b)
    y = exc.value.certificate
    assert y.min() >= 0
    assert np.linalg.norm(G.T @ y) <= 1e-7 * max(1.0, np.linalg.norm(y))
    assert y @ b < 0


def test_dual_ascent_oracle_stops_on_its_kkt_residual():
    # At the first state of hypothesis seed 10422 the dual's condition number
    # on the working set is 3e3; a stop on the step size came 1.03e-6 short
    rng = np.random.default_rng(10422)
    qp = random_system(rng)[1]
    x0 = rng.uniform(-2.5, 2.5, size=qp.d_x)
    H, q, G, b = qp.H, -(qp.F.T @ x0), qp.G, qp.bounds_rhs(x0)
    ref = raw_solve_qp(H, q, G, b).z
    assert np.abs(dual_ascent_qp(H, q, G, b) - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())
    with pytest.raises(RuntimeError):
        dual_ascent_qp(H, q, G, b, max_iter=1_000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["H", "q", "G", "b"])
def test_raw_qp_rejects_non_finite_data(which, bad):
    # an empty polytope is a ValueError too: the error must not be that one
    data = {"H": np.eye(2), "q": np.array([1.0, -1.0]),
            "G": np.vstack([np.eye(2), -np.eye(2)]), "b": np.ones(4)}
    data[which].flat[0] = bad
    with pytest.raises(ValueError, match="non-finite") as exc:
        raw_solve_qp(**data)
    assert not isinstance(exc.value, InfeasibleError)


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
        assert np.abs(table.eval_batch(x[None], fallback="qp")[0] - sol.u_star[:1]).max() <= 1e-7
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
    region in occupancy order, then the QP fallback or NaN. The control is
    the table's own product (``_products``), so a group of one hit rounds
    as the table rounds it. Callers pass NaN and +-inf states on purpose;
    their region tests are silenced."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full((X.shape[0], table.qp.d_u), np.nan)
    todo = np.arange(X.shape[0])
    with np.errstate(invalid="ignore"):
        for region in table._regions:
            if todo.size == 0:
                break
            mask = _region_mask(region, X[todo])
            hit = todo[mask]
            if hit.size:
                d_u = table.qp.d_u
                out[hit] = (smoothmpc.explicit._products(X[hit], region.piece.K[:d_u])
                            + region.piece.k[:d_u])
                todo = todo[~mask]
        if todo.size and fallback == "qp":
            for i in todo:
                try:
                    out[i] = solve_qp(table.qp, X[i]).u_star[: table.qp.d_u]
                except InfeasibleError:
                    pass
    return out


def _scan_index(table, x):
    X = np.asarray(x, dtype=float)[None, :]
    with np.errstate(invalid="ignore"):  # non-finite probes, as in _scan_oracle
        for r, region in enumerate(table._regions):
            if _region_mask(region, X)[0]:
                return r
    return -1


def probe_states(rng, table, grid, count):
    """Discovery-grid points (on region facets), bucket corners, states
    inside and just outside the bucket box, far outside it, rows with NaN
    or inf entries and, for a planar state, Gaussian samples projected onto
    the feasible polygon: the states the smoothing path sends, many of
    them exactly on its boundary."""
    lo, hi = table.collection.box
    span = hi - lo
    buckets = table._buckets
    corners = lo + rng.integers(0, buckets.n + 1, size=(count, lo.size)) * buckets.width
    near = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(count, lo.size))
    far = rng.uniform(-10.0, 10.0, size=(count // 10, lo.size)) * span
    bad = rng.uniform(lo, hi, size=(6, lo.size))
    bad[[0, 1], 0] = np.nan
    bad[2, -1] = np.inf
    bad[3, -1] = -np.inf
    bad[4] = np.nan
    bad[5, 0] = np.inf
    picks = grid[rng.choice(grid.shape[0], size=min(count, grid.shape[0]), replace=False)]
    probes = [picks, corners, near, far, bad]
    if lo.size == 2:
        poly = PolygonProjector(feasible_polygon(table.qp))
        centres = poly(rng.uniform(lo, hi, size=(count, 2)))
        probes.append(poly(centres + 0.1 * span * rng.standard_normal((count, 2))))
    return np.vstack(probes)


def assert_matches_scan(table, X, qp_rows, piece_rows):
    """Bucketed eval_batch (both fallbacks) and one-state point location
    equal the scan bit for bit."""
    assert np.array_equal(table.eval_batch(X, fallback="nan"),
                          _scan_oracle(table, X, "nan"), equal_nan=True)
    Xq = X[qp_rows]
    Xq = Xq[np.all(np.isfinite(Xq), axis=1)]  # the QP rejects non-finite states
    assert np.array_equal(table.eval_batch(Xq, fallback="qp"),
                          _scan_oracle(table, Xq, "qp"), equal_nan=True)
    for x in X[piece_rows]:
        assert table._locate(x[None, :])[0] == _scan_index(table, x)


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
                        lambda region, Y: tested.append(Y) or real(region, Y))
    monkeypatch.setattr(smoothmpc.explicit, "solve_qp",
                        lambda *a, **k: pytest.fail("a non-finite state reached solve_qp"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fallback in ("qp", "nan"):
            U = table.eval_batch(X, fallback=fallback)
            assert np.isnan(U[:4]).all() and np.isfinite(U[4]).all()
        J = table.jacobian_batch(X)
        assert np.isnan(J[:4]).all() and np.isfinite(J[4]).all()
    assert all(np.isfinite(Y).all() for Y in tested)


def test_every_layout_gives_the_bits_of_a_contiguous_batch(di_table):
    grid, table = di_table
    X = np.ascontiguousarray(probe_states(np.random.default_rng(47), table, grid, 200))
    finite = X[np.all(np.isfinite(X), axis=1)][::4]  # the QP rejects non-finite states
    which, U, J = table._locate(X), table.eval_batch(X), table.jacobian_batch(X)
    U_qp = table.eval_batch(finite, fallback="qp")
    assert (which >= 0).any() and (which < 0).any()
    for Y in layouts(X):
        assert np.array_equal(table._locate(Y), which)
        assert np.array_equal(table.eval_batch(Y), U, equal_nan=True)
        assert np.array_equal(table.jacobian_batch(Y), J, equal_nan=True)
    for Y in layouts(finite):
        assert np.array_equal(table.eval_batch(Y, fallback="qp"), U_qp, equal_nan=True)


def test_an_empty_batch_gives_empty_answers(di_table):
    table = di_table[1]
    X = np.zeros((0, 2))
    assert table._locate(X).shape == (0,)
    for fallback in ("nan", "qp"):
        assert table.eval_batch(X, fallback=fallback).shape == (0, 1)
    assert table.jacobian_batch(X).shape == (0, 1, 2)


def test_a_batch_wholly_outside_the_box_or_not_finite_matches_scan(di_table):
    table = di_table[1]
    rng = np.random.default_rng(53)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=300)
    far = rng.uniform(10.5, 40.0, size=(300, 1)) * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    far = far[np.abs(far).max(axis=1) > 10.0]  # outside the box [-10, 10]^2
    bad = np.array([[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0], [np.nan, np.nan]])
    for X in (far, bad, np.vstack([bad, far])):
        with np.errstate(invalid="ignore"):
            assert np.array_equal(table.eval_batch(X), _scan_oracle(table, X, "nan"),
                                  equal_nan=True)
            assert [table._locate(X)[i] for i in range(0, X.shape[0], 7)] == \
                [_scan_index(table, x) for x in X[::7]]
    assert np.all(table._locate(bad) == -1)
    assert np.isnan(table.eval_batch(bad, fallback="qp")).all()
    assert np.isnan(table.jacobian_batch(bad)).all()


def test_lookup_default_is_nan_and_call_solves_the_qp(di_qp, di_table):
    grid, table = di_table
    X = probe_states(np.random.default_rng(43), table, grid, 500)
    assert np.array_equal(table.eval_batch(X), table.eval_batch(X, fallback="nan"),
                          equal_nan=True)
    # a table of the unconstrained piece alone: a state where the input
    # saturates is feasible but outside every region
    lone = PieceTableEvaluator(di_qp, discover_pieces(di_qp, np.zeros((1, 2))))
    x = np.array([0.0, 3.0])
    sol = solve_qp(di_qp, x)
    assert sol.sigma.popcount > 0 and lone._locate(x[None, :])[0] == -1
    assert np.isnan(lone.eval_batch(x[None, :])).all()
    assert np.array_equal(lone.eval_batch(x[None, :], fallback="qp")[0], sol.u_star[:1])
    assert np.array_equal(lone.jacobian_batch(x[None, :])[0],
                          gain_for_sigma(di_qp, sol.sigma).K[:1])


def test_unknown_fallback_is_refused(di_table):
    table = di_table[1]
    for fallback in ("QP", "NaN", "none", ""):
        with pytest.raises(ValueError, match="fallback"):
            table.eval_batch(np.zeros((3, 2)), fallback=fallback)


def test_a_table_without_regions_answers_by_the_qp(di_qp):
    # an infeasible grid discovers no piece
    empty = PieceTableEvaluator(di_qp, discover_pieces(di_qp, np.array([[50.0, 50.0]])))
    assert empty.collection.n_pieces == 0
    X = np.array([[0.0, 3.0], [50.0, 50.0], [np.nan, 0.0]])
    J = empty.jacobian_batch(X)
    assert J.shape == (3, 1, 2) and np.isnan(J[1:]).all()
    assert np.array_equal(J[0], gain_for_sigma(di_qp, solve_qp(di_qp, X[0]).sigma).K[:1])
    assert np.array_equal(empty.eval_batch(X, fallback="qp")[0], solve_qp(di_qp, X[0]).u_star[:1])


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
    assert table._buckets.width[0] == width
    assert table._buckets.cells(np.array([[kink - shift - 1e-12]]))[0] == 2303
    rng = np.random.default_rng(43)
    near_kink = kink + np.linspace(-1e-9, 1e-9, 401)[:, None]
    X = np.vstack([probe_states(rng, table, grid, 400), near_kink])
    assert_matches_scan(table, X, np.arange(X.shape[0]), np.arange(X.shape[0]))


@pytest.mark.parametrize("d_x", [2, 3])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@example(seed=233)  # a 10-row working set of the QP with a Gram eigenvalue of 7e-7
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
    # in-box states are tested against the regions' reduced rows
    allowed = {id(table._reduced[r]) for r in np.flatnonzero(candidates[:, cell])}
    assert 2 <= len(allowed) <= len(table._regions) // 10
    idx = np.array(np.unravel_index(cell, (table._buckets.n,) * 2))
    rng = np.random.default_rng(47)
    lo = table.collection.box[0]
    X = lo + (idx + rng.uniform(0.01, 0.99, size=(500, 2))) * table._buckets.width
    assert np.all(table._buckets.cells(X) == cell)
    expected = _scan_oracle(table, X, "nan")
    tested = []

    def counting(region, X):
        tested.append(id(region))
        return _region_mask(region, X)

    monkeypatch.setattr(smoothmpc.explicit, "_region_mask", counting)
    assert np.array_equal(table.eval_batch(X, fallback="nan"), expected, equal_nan=True)
    assert 1 <= len(tested) <= len(allowed)
    assert set(tested) <= allowed
    assert len(set(tested)) == len(tested)


def face_facet_states(table, rng, count):
    """Planar states within a few ulps of both a bucket face and a region
    facet: ``count`` of the points where a row x . a - v = t of a region
    crosses a face x_j = lo_j + i width_j of the bucket grid while the
    region's other rows pass, each with a lattice of -3..3 ulps per
    coordinate around it. Returns the states, 49 per point, and each
    point's region."""
    buckets = table._buckets
    lo, width, n = buckets.lo, buckets.width, buckets.n
    faces = lo[:, None] + np.arange(n + 1) * width[:, None]
    points, owners = [], []
    for r, region in enumerate(table._regions):
        for i, (a, level) in enumerate(zip(region.A, region.v + region.t)):
            for j in (0, 1):
                if a[1 - j] == 0:
                    continue
                p = np.empty((n + 1, 2))
                p[:, j] = faces[j]
                p[:, 1 - j] = (level - a[j] * faces[j]) / a[1 - j]
                slack = p @ region.A.T - region.v - region.t
                slack[:, i] = 0.0
                p = p[np.all((p >= faces[:, 0]) & (p <= faces[:, -1]), axis=1)
                      & np.all(slack <= 1e-12, axis=1)]
                points.append(p)
                owners += [r] * p.shape[0]
    P, owners = np.vstack(points), np.array(owners)
    pick = rng.choice(P.shape[0], min(count, P.shape[0]), replace=False)
    offsets = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 2, indexing="ij"), axis=-1).reshape(-1, 2)
    out = np.repeat(P[pick], offsets.shape[0], axis=0)
    offsets = np.tile(offsets, (pick.size, 1))
    for k in range(1, 4):
        out = np.where(offsets >= k, np.nextafter(out, np.inf), out)
        out = np.where(offsets <= -k, np.nextafter(out, -np.inf), out)
    return out, owners[pick]


def assert_face_facet_states_match_scan(table, rng, count):
    X, owners = face_facet_states(table, rng, count)
    assert np.array_equal(table._locate(X), [_scan_index(table, x) for x in X])
    assert np.array_equal(table.eval_batch(X), _scan_oracle(table, X, "nan"), equal_nan=True)
    # most lattices straddle both a bucket face and their region's facet
    cells = table._buckets.cells(X).reshape(-1, 49)
    held = np.array([_region_mask(table._regions[r], Y) for r, Y in zip(owners, X.reshape(-1, 49, 2))])
    straddle = (cells.min(axis=1) != cells.max(axis=1)) & held.any(axis=1) & ~held.all(axis=1)
    assert straddle.mean() > 0.5


def test_states_at_bucket_faces_and_region_facets_match_scan(di_table):
    assert_face_facet_states_match_scan(di_table[1], np.random.default_rng(71), 80)


@pytest.mark.parametrize("seed", range(3))
def test_states_at_bucket_faces_and_region_facets_match_scan_random_systems(seed):
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    while qp.d_x != 2:
        qp = random_system(rng)[1]
    grid = state_grid([-2.5] * 2, [2.5] * 2, 21)
    assert_face_facet_states_match_scan(PieceTableEvaluator(qp, discover_pieces(qp, grid)), rng, 80)


def test_states_at_a_bucket_face_on_a_region_facet_match_scan_clip(clip_qp):
    # In one dimension a facet is a point: for each row of each region, put
    # the face of bucket 100, 2304 or 4000 on it, and probe -40..40 ulps
    # around it. Dropping both the rounding bound and the index padding from
    # the bucket grid makes a table answer otherwise than the scan here.
    width = 1.0 / 512
    base = PieceTableEvaluator(clip_qp, discover_pieces(clip_qp, state_grid([-4.0], [4.0], 201)))
    facets = np.concatenate([(r.v + r.t)[r.A[:, 0] != 0] / r.A[r.A[:, 0] != 0, 0]
                             for r in base._regions])
    assert facets.size == 10
    for facet in facets:
        X = (facet + np.arange(-40, 41) * np.spacing(facet))[:, None]
        for face in (100, 2304, 4000):
            lo = facet - face * width
            grid = state_grid([lo], [lo + smoothmpc.explicit.BUCKET_CELLS * width], 201)
            table = PieceTableEvaluator(clip_qp, discover_pieces(clip_qp, grid))
            assert np.unique(table._buckets.cells(X)).tolist() == [face - 1, face]
            assert np.array_equal(table._locate(X), [_scan_index(table, x) for x in X])
            assert np.array_equal(table.eval_batch(X), _scan_oracle(table, X, "nan"),
                                  equal_nan=True)


# --- reduced row tests inside the box ------------------------------------------

def bucket_probes(rng, table, cells):
    """States in each bucket of ``cells``: interiors, corners and points on
    the faces of the bucket padded as ``_BucketGrid`` pads it."""
    lo, width, n = table._buckets.lo, table._buckets.width, table._buckets.n
    d = lo.size
    eps = np.finfo(float).eps
    pad = 16 * eps * (n * width + np.abs(lo) + np.abs(lo + n * width))
    low = lo + np.array(np.unravel_index(cells, (n,) * d)).T * width
    high = low + width
    inner = low[:, None] + rng.uniform(size=(cells.size, 4, d)) * width
    pick = np.array(np.meshgrid(*[[0, 1]] * d, indexing="ij")).reshape(d, -1).T
    corners = np.where(pick[None], high[:, None], low[:, None])
    faces = low[:, None] - pad + rng.uniform(size=(cells.size, 2 * d, d)) * (width + 2 * pad)
    for j in range(d):
        faces[:, 2 * j, j] = low[:, j] - pad[j]
        faces[:, 2 * j + 1, j] = high[:, j] + pad[j]
    return np.concatenate([inner, corners, faces], axis=1).reshape(-1, d)


def assert_dropped_rows_pass(table, rng):
    buckets = smoothmpc.explicit._BucketGrid(*table.collection.box)
    dropped = 0
    for r, region in enumerate(table._regions):
        cand = buckets.candidates(region)
        assert np.array_equal(cand, table._candidates[r])
        keep = buckets.kept_rows(region, cand)
        X = bucket_probes(rng, table, np.flatnonzero(cand[:-1]))
        rows = X @ region.A.T - region.v <= region.t
        assert rows[:, ~keep].all()
        dropped += int((~keep).sum())
    assert dropped > 0


def test_dropped_rows_pass_in_every_candidate_bucket(di_table):
    assert_dropped_rows_pass(di_table[1], np.random.default_rng(53))


@pytest.mark.parametrize("d_x", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_dropped_rows_pass_in_every_candidate_bucket_random_systems(d_x, seed):
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    while qp.d_x != d_x:
        qp = random_system(rng)[1]
    grid = state_grid([-2.5] * d_x, [2.5] * d_x, 21 if d_x == 2 else 9)
    assert_dropped_rows_pass(PieceTableEvaluator(qp, discover_pieces(qp, grid)), rng)


def test_reduced_rows_on_the_default_table(di_qp):
    table = PieceTableEvaluator(di_qp, discover_pieces(
        di_qp, state_grid([-10, -10], [10, 10], 201)))
    kept = [reduced.v.size for reduced in table._reduced]
    assert np.mean(kept) <= 12


# --- the one-block region test against the two-block form it replaced ---------

def _two_block_region(qp, piece):
    """A region as separate blocks: (G K - P) x <= w - G k and
    lambda(x) = dual_M x + dual_v >= 0."""
    primal_M = qp.G @ piece.K - qp.P
    primal_v = qp.w - qp.G @ piece.k
    s = piece.sigma.sigma
    if s.any():
        Ms = qp.gram[np.ix_(s, s)]
        dual_M = np.linalg.solve(Ms, (qp.G @ qp.Hinv_FT)[s] - qp.P[s])
        dual_v = -np.linalg.solve(Ms, qp.w[s])
    else:
        dual_M = np.zeros((0, qp.d_x))
        dual_v = np.zeros(0)
    return primal_M, primal_v, dual_M, dual_v


def _two_block_mask(blocks, X, tol_scale):
    """Each block its own product, so a one-row multiplier block goes through
    gemv; the one-block test sends it through gemm with the primal rows."""
    primal_M, primal_v, dual_M, dual_v = blocks
    primal_ok = np.all(X @ primal_M.T - primal_v <= tol_scale, axis=1)
    if dual_M.shape[0]:
        dual_ok = np.all(X @ dual_M.T + dual_v >= -smoothmpc.explicit.DUAL_TOL, axis=1)
    else:
        dual_ok = np.ones(X.shape[0], dtype=bool)
    return primal_ok & dual_ok


def _facet_states(blocks, tol_scale, lo, hi):
    """States within a few ulps of lambda(x) = -DUAL_TOL for a one-row
    multiplier block, on the part of that line where the primal rows pass:
    the centre of the largest ball there (an LP), bisected across the line
    along the multiplier row, then a lattice of -6..6 ulps per coordinate
    around the last state on the passing side."""
    from scipy.optimize import linprog

    primal_M, primal_v, dual_M, dual_v = blocks
    g, c, d = dual_M[0], dual_v[0], dual_M.shape[1]
    norms = np.linalg.norm(primal_M, axis=1)[:, None]
    lp = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([primal_M, norms]),
                 b_ub=primal_v + tol_scale, A_eq=np.r_[g, 0.0][None, :],
                 b_eq=[-smoothmpc.explicit.DUAL_TOL - c],
                 bounds=[*zip(lo, hi), (None, 1.0)], method="highs")
    step = 0.1 * max(lp.x[d], 1e-3) * g / np.linalg.norm(g)
    a, b = lp.x[:d] + step, lp.x[:d] - step

    def passes(x):
        return x @ g + c >= -smoothmpc.explicit.DUAL_TOL

    assert passes(a) and not passes(b)
    for _ in range(2200):  # at most one halving per binade of each coordinate
        mid = 0.5 * (a + b)
        if np.array_equal(mid, a) or np.array_equal(mid, b):
            break
        a, b = (mid, b) if passes(mid) else (a, mid)
    offsets = np.stack(np.meshgrid(*[np.arange(-6, 7)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    out = np.repeat(a[None, :], offsets.shape[0], axis=0)
    for k in range(1, 7):
        out = np.where(offsets >= k, np.nextafter(out, np.inf), out)
        out = np.where(offsets <= -k, np.nextafter(out, -np.inf), out)
    return out


def assert_one_block_matches_two_blocks(table, grid, rng):
    """Region by region, the one-block test decides as the two-block one on
    probe states and the discovery grid. On the facet states of a one-row
    multiplier block the primal rows' values are bit for bit the same, and
    a decision differs only where the multiplier row, summed in gemm's order
    here and in gemv's there, rounds to the two sides of its tolerance.
    Returns the number of one-row multiplier blocks and of such states."""
    qp = table.qp
    tol_scale = smoothmpc.explicit.ACTIVE_TOL * (1.0 + np.abs(qp.w))
    X = np.vstack([probe_states(rng, table, grid, 2000), grid])
    X = X[np.all(np.isfinite(X), axis=1)]
    lone = split = 0
    for region in table._regions:
        blocks = _two_block_region(qp, region.piece)
        assert np.array_equal(_region_mask(region, X), _two_block_mask(blocks, X, tol_scale))
        if blocks[2].shape[0] != 1:
            continue
        lone += 1
        F = _facet_states(blocks, tol_scale, grid.min(axis=0), grid.max(axis=0))
        Y = F @ region.A.T - region.v
        assert np.array_equal(Y[:, :-1], F @ blocks[0].T - blocks[1])
        one, two = Y[:, -1], -(F @ blocks[2].T + blocks[3])[:, 0]
        terms = np.abs(F) @ np.abs(blocks[2][0]) + np.abs(blocks[3][0])
        assert np.all(np.abs(one - two) <= 4 * qp.d_x * np.finfo(float).eps * terms)
        tol = smoothmpc.explicit.DUAL_TOL
        inside = np.all(Y[:, :-1] <= tol_scale, axis=1)
        assert (two[inside] <= tol).any() and (two[inside] > tol).any()
        straddle = ((one <= tol) != (two <= tol)) & inside
        differ = _region_mask(region, F) != _two_block_mask(blocks, F, tol_scale)
        assert np.array_equal(differ, straddle)
        split += int(differ.sum())
    return lone, split


def test_one_block_regions_match_two_blocks_double_integrator(di_qp):
    grid = state_grid([-10, -10], [10, 10], 201)
    table = PieceTableEvaluator(di_qp, discover_pieces(di_qp, grid))
    lone, _ = assert_one_block_matches_two_blocks(table, grid, np.random.default_rng(59))
    assert len(table._regions) == 97 and lone == 4


@pytest.mark.parametrize("d_x", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_one_block_regions_match_two_blocks_random_systems(d_x, seed):
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    while qp.d_x != d_x:
        qp = random_system(rng)[1]
    grid = state_grid([-2.5] * d_x, [2.5] * d_x, 21 if d_x == 2 else 9)
    table = PieceTableEvaluator(qp, discover_pieces(qp, grid))
    assert assert_one_block_matches_two_blocks(table, grid, rng)[0] > 0


# --- one product rule: a state's answer does not depend on its batch ----------

def test_gemm_rows_do_not_depend_on_the_batch():
    """The assumption under the piece table's product rule (``_products``):
    gemm gives a row of X @ A.T the same bits whatever the number of rows,
    for inner dimensions d_x <= 3 and any number of columns from 2 up.
    One-row operands reach gemm through ``_products``."""
    rng = np.random.default_rng(61)
    for d in (1, 2, 3):
        X = rng.standard_normal((65536, d)) * 10.0 ** rng.uniform(-3, 3, size=(65536, d))
        for cols in range(1, 71):
            A = rng.standard_normal((cols, d)) * 10.0 ** rng.uniform(-3, 3, size=(cols, d))
            full = smoothmpc.explicit._products(X, A)
            sizes = (1, 2, 3, 17, 1000, 63000) if cols > 1 else (1, 2, 1000)
            for M in sizes:
                part = (X[:M] @ A.T if M > 1 and cols > 1
                        else smoothmpc.explicit._products(X[:M], A))
                assert np.array_equal(part, full[:M]), (
                    f"the piece table's product rule fails: the first {M} rows of a "
                    f"({X.shape[0]}, {d}) @ ({d}, {cols}) gemm round otherwise on their own")


def _facet_lattices(table, grid, rng, per_block):
    """Up to ``per_block`` of the ``_facet_states`` lattice of each one-row
    multiplier block of the table."""
    tol_scale = smoothmpc.explicit.ACTIVE_TOL * (1.0 + np.abs(table.qp.w))
    out = [np.zeros((0, grid.shape[1]))]
    for region in table._regions:
        blocks = _two_block_region(table.qp, region.piece)
        if blocks[2].shape[0] == 1:
            F = _facet_states(blocks, tol_scale, grid.min(axis=0), grid.max(axis=0))
            out.append(F[rng.choice(F.shape[0], min(per_block, F.shape[0]), replace=False)])
    return np.vstack(out)


def odd_rows(rng, table):
    """Rows outside the discovery box, far outside it (infeasible on these
    systems' state boxes) and not finite."""
    lo, hi = table.collection.box
    span = hi - lo
    near = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(60, lo.size))
    near = near[np.any((near < lo) | (near > hi), axis=1)]
    far = lo + rng.choice([-5.0, 6.0], size=(6, lo.size)) * span
    bad = np.repeat(rng.uniform(lo, hi, size=(1, lo.size)), 5, axis=0)
    bad[0, 0], bad[1, -1], bad[2, -1], bad[3] = np.nan, np.inf, -np.inf, np.nan
    bad[4] = np.inf
    return np.vstack([near, far, bad])


def assert_rows_do_not_depend_on_the_batch(table, X, qp_rows, rng, monkeypatch):
    """Row i of every answer of the table, for the batch X, equals the
    answer for X[i] alone and for X[i] inside a two-row batch, bit for bit.
    The QP fallback and the gains solve exactly the finite rows that no
    region holds, and both leave NaN exactly where those rows are
    infeasible or a row is not finite."""
    answers = (("eval_batch", table.eval_batch, X),
               ("jacobian_batch", table.jacobian_batch, X),
               ("_locate", table._locate, X),
               ("eval_batch qp", lambda Y: table.eval_batch(Y, fallback="qp"), X[qp_rows]))
    for name, f, Y in answers:
        rows = f(Y)
        partner = rng.permutation(Y.shape[0])
        for i, j in enumerate(partner):
            assert np.array_equal(f(Y[i:i + 1])[0], rows[i], equal_nan=True), (name, Y[i])
            assert np.array_equal(f(Y[[i, j]])[0], rows[i], equal_nan=True), (name, Y[i])
    unheld = (table._locate(X) < 0) & np.all(np.isfinite(X), axis=1)
    infeasible = np.zeros(X.shape[0], dtype=bool)
    for i in np.flatnonzero(unheld):
        try:
            solve_qp(table.qp, X[i])
        except InfeasibleError:
            infeasible[i] = True
    assert infeasible.any() and not np.all(np.isfinite(X))
    solved = []
    monkeypatch.setattr(smoothmpc.explicit, "solve_qp",
                        lambda qp, x: solved.append(tuple(x)) or solve_qp(qp, x))
    U = table.eval_batch(X, fallback="qp")
    assert sorted(solved) == sorted(map(tuple, X[unheld]))
    solved.clear()
    J = table.jacobian_batch(X)
    assert sorted(solved) == sorted(map(tuple, X[unheld]))
    nan = ~np.all(np.isfinite(X), axis=1) | infeasible
    assert np.array_equal(np.isnan(U).any(axis=1), nan)
    assert np.array_equal(np.isnan(J).any(axis=(1, 2)), nan)


def test_table_answers_do_not_depend_on_the_batch_double_integrator(di_qp, monkeypatch):
    grid = state_grid([-10, -10], [10, 10], 201)
    table = PieceTableEvaluator(di_qp, discover_pieces(di_qp, grid))
    rng = np.random.default_rng(67)
    F = _facet_lattices(table, grid, rng, 169)
    assert F.shape[0] == 4 * 169
    X = np.vstack([probe_states(rng, table, grid, 250), F, odd_rows(rng, table)])
    assert_rows_do_not_depend_on_the_batch(table, X, rng.choice(X.shape[0], 100, replace=False),
                                           rng, monkeypatch)


@pytest.mark.parametrize("d_x", [2, 3])
@pytest.mark.parametrize("seed", range(2))
def test_table_answers_do_not_depend_on_the_batch_random_systems(d_x, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    while qp.d_x != d_x:
        qp = random_system(rng)[1]
    grid = state_grid([-2.5] * d_x, [2.5] * d_x, 21 if d_x == 2 else 9)
    table = PieceTableEvaluator(qp, discover_pieces(qp, grid))
    X = np.vstack([probe_states(rng, table, grid, 100), _facet_lattices(table, grid, rng, 100),
                   odd_rows(rng, table)])
    assert_rows_do_not_depend_on_the_batch(table, X, rng.choice(X.shape[0], 60, replace=False),
                                           rng, monkeypatch)
