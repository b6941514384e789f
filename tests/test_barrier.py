"""Barrier solver, closed-form Jacobian, convex combination, solution Hessian."""

import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from smoothmpc.barrier import (
    barrier_hessian,
    barrier_hessian_batch,
    barrier_jacobian,
    barrier_jacobian_batch,
    convex_combination,
    make_barrier_problem,
    recentering_vector,
    solve_barrier,
    solve_barrier_batch,
    tensor_spectral_norm,
)
from smoothmpc.bounds import newton_log_barrier
from smoothmpc.core import (
    BoxlikeConstraints,
    LinearSystem,
    StageCost,
    box_constraints,
    build_condensed,
    double_integrator_problem,
    feasible_radii,
)
from smoothmpc.errors import InfeasibleError
from smoothmpc.explicit import solve_qp
from smoothmpc.qp import chebyshev_center
from systems import cold_state, random_system, tolerance


@pytest.fixture(scope="module")
def di_radius(di_qp):
    return feasible_radii(di_qp, np.zeros(2)).R


def asym_box_qp():
    """Input-only problem with the box -1 <= u <= 2."""
    sys_ = LinearSystem(A=np.zeros((1, 1)), B=np.zeros((1, 1)))
    cost = StageCost(Q=np.eye(1), R=np.eye(1), horizon=1)
    cons = BoxlikeConstraints(A_x=np.array([[1.0], [-1.0]]), b_x=np.array([5.0, 5.0]),
                              A_u=np.array([[1.0], [-1.0]]), b_u=np.array([2.0, 1.0]))
    return build_condensed(sys_, cost, cons)


def test_recentering_symmetric_cancels(di_qp):
    d = recentering_vector(di_qp)
    assert np.abs(d).max() <= 1e-12


def test_recentering_gives_nu_1200(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=1.0, outer_radius=di_radius)
    assert abs(bp.nu - 20 * 60) <= 1e-9


def test_recentering_asymmetric_box():
    qp = asym_box_qp()
    d = recentering_vector(qp)
    assert abs(d[0] - 0.5) <= 1e-12  # -(1/2) + 1


def test_solution_at_origin_is_zero(di_qp, di_radius):
    for eta in (1e-4, 1e-2, 1.0, 1e2):
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_radius)
        sol = solve_barrier(bp, np.zeros(2))
        assert np.linalg.norm(sol.u_eta) <= 1e-9
        assert np.all(sol.phi > 0)


@pytest.mark.parametrize("eta", [1e-3, 1.0])
def test_solve_at_origin_takes_no_newton_step(eta):
    rng = np.random.default_rng(6)
    _, qp = random_system(rng)
    sol = solve_barrier(make_barrier_problem(qp, eta, outer_radius=1.0), np.zeros(qp.d_x))
    assert sol.newton_iters == 0 and not sol.u_eta.any()


def test_phase_one_start_matches_the_chebyshev_start_on_random_systems():
    # at states where u = 0 is infeasible, against the same Newton from the
    # Chebyshev center (bounds.newton_log_barrier), each to its gradient norm
    rng = np.random.default_rng(3)
    cases = 0
    while cases < 25:
        _, qp = random_system(rng)
        bp = make_barrier_problem(qp, float(10.0 ** rng.uniform(-3, 0)))
        found = cold_state(rng, bp)
        if found is None:
            continue
        x0, sol = found
        active = np.linalg.norm(qp.G, axis=1) > 0
        G, b = qp.G[active], qp.bounds_rhs(x0)[active]
        lin = bp.eta * bp.d - qp.F.T @ x0
        u = newton_log_barrier(qp.H, lin, G, b, bp.eta)
        grad = qp.H @ u + lin + bp.eta * G.T @ (1.0 / (b - G @ u))
        ref = SimpleNamespace(grad_norm=float(np.linalg.norm(grad)))
        assert np.linalg.norm(sol.u_eta - u) <= tolerance(qp, x0, sol, ref)
        cases += 1


def test_gradient_norm_invariant(di_qp, di_radius):
    rng = np.random.default_rng(2)
    bp = make_barrier_problem(di_qp, eta=0.3, outer_radius=di_radius)
    checked = 0
    while checked < 10:
        x0 = rng.uniform(-5, 5, size=2)
        try:
            sol = solve_barrier(bp, x0)
        except InfeasibleError:
            continue
        g_scale = 1.0 + np.linalg.norm(di_qp.F.T @ x0)
        assert sol.grad_norm <= 1e-10 * g_scale
        assert np.all(sol.phi > 0)
        checked += 1


def test_small_eta_matches_hard_solution(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=1e-6, outer_radius=di_radius)
    x0 = np.array([3.0, 1.0])
    sol = solve_barrier(bp, x0)
    u_star = solve_qp(di_qp, x0).u_star
    assert np.linalg.norm(sol.u_eta - u_star) <= 1e-2


def test_one_d_interpolation_between_v_and_center(clip_qp):
    # hard minimizer v = K0 x inside the box; u_eta must stay between v and 0
    x0 = np.array([-0.25])
    v = float(np.linalg.solve(clip_qp.H, clip_qp.F.T @ x0)[0])
    assert 0 < v < 1
    last = v
    for eta in (1e-6, 1e-3, 1e-1, 1e1, 1e3):
        bp = make_barrier_problem(clip_qp, eta=eta)
        u = solve_barrier(bp, x0).u_eta[0]
        assert -1e-9 <= u <= v + 1e-9
        assert u <= last + 1e-9  # larger eta pulls toward the recentered center
        last = u


def test_one_d_grid_search_oracle(clip_qp):
    x0 = np.array([-0.25])
    bp = make_barrier_problem(clip_qp, eta=0.05)
    sol = solve_barrier(bp, x0)
    us = np.linspace(-1 + 1e-9, 1 - 1e-9, 400001)
    b = bp.qp.bounds_rhs(x0)
    phi = b[None, :] - us[:, None] @ bp.qp.G.T.reshape(1, -1)
    vals = (0.5 * bp.qp.H[0, 0] * us ** 2 - (x0 @ bp.qp.F)[0] * us
            - bp.eta * (np.log(phi).sum(axis=1) - bp.d[0] * us))
    assert abs(us[np.argmin(vals)] - sol.u_eta[0]) <= 1e-5


def test_newton_decrement_monotone_after_first_step(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=di_radius)
    sol = solve_barrier(bp, np.array([4.0, -1.5]))
    decs = np.array(sol.decrements)
    assert decs.size >= 2
    tail = decs[1:]
    assert np.all(np.diff(tail) <= 1e-9 * (1 + tail[:-1]))


def test_infeasible_state_signals(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=di_radius)
    with pytest.raises(InfeasibleError):
        solve_barrier(bp, np.array([8.0, 2.0]))  # residual no input affects is 0
    with pytest.raises(InfeasibleError):
        solve_barrier(bp, np.array([12.0, 8.0]))


@pytest.mark.parametrize("x0", [[12.0, 8.0], [0.0, 9.9]])
def test_infeasible_state_certificate_has_length_m(di_qp, di_radius, x0):
    # [12, 8] fails a residual no input affects; [0, 9.9] fails the
    # Chebyshev LP over the rows that do, whose certificate is scattered
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=di_radius)
    x0 = np.array(x0)
    with pytest.raises(InfeasibleError) as exc:
        solve_barrier(bp, x0)
    y = exc.value.certificate
    assert y is not None and y.shape == (di_qp.m,) and y.min() >= 0
    assert np.linalg.norm(di_qp.G.T @ y) <= 1e-6 * np.linalg.norm(y)
    assert y @ di_qp.bounds_rhs(x0) < 0


def m_space_jacobian(qp, eta, phi):
    """The Jacobian in the constraint space, as the paper states it:
    H^{-1} [F^T - G^T M^{-1} (G H^{-1} F^T - P)] with M = G H^{-1} G^T + Phi^2 / eta.
    The oracle of the input-space form ``barrier_jacobian`` computes."""
    M = qp.G @ np.linalg.solve(qp.H, qp.G.T) + np.diag(phi ** 2 / eta)
    GHF = qp.G @ np.linalg.solve(qp.H, qp.F.T)
    return np.linalg.solve(qp.H, qp.F.T - qp.G.T @ np.linalg.solve(M, GHF - qp.P))


def mp_jacobian(bp, x0, u):
    """A^{-1} (F^T + eta G^T Phi^{-2} P), A = H + eta G^T Phi^{-2} G, in 50-digit
    arithmetic, with phi = w + P x0 - G u formed from the exact binary values
    of the program, x0 and u (no cancellation error in phi)."""
    qp = bp.qp
    with mpmath.workdps(50):
        H, F, G, P = (mpmath.matrix(a.tolist()) for a in (qp.H, qp.F, qp.G, qp.P))
        phi = (mpmath.matrix(qp.w.tolist()) + P * mpmath.matrix(x0.tolist())
               - G * mpmath.matrix(u.tolist()))
        W = mpmath.diag([mpmath.mpf(bp.eta) / p ** 2 for p in phi])
        J = mpmath.inverse(H + G.T * W * G) * (F.T + G.T * W * P)
        return np.array(J.tolist(), dtype=float)


def test_jacobian_formula_at_origin(di_qp, di_radius):
    # u_eta(0) = 0 makes phi = w exactly, for every eta
    for eta in (1e-3, 1.0, 1e3):
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_radius)
        sol = solve_barrier(bp, np.zeros(2))
        J = barrier_jacobian(bp, sol)
        J_direct = m_space_jacobian(di_qp, eta, di_qp.w)
        assert np.abs(J - J_direct).max() <= 1e-10 * max(1.0, np.abs(J_direct).max())


def test_jacobian_matches_m_space_formula_at_interior_states(di_qp, di_radius):
    rng = np.random.default_rng(5)
    cases = [(di_qp, di_radius, rng.uniform(-4, 4, size=2)) for _ in range(10)]
    while len(cases) < 20:
        _, qp = random_system(rng)
        cases.append((qp, 1.0, rng.uniform(-0.5, 0.5, size=qp.d_x)))
    done = 0
    for qp, radius, x0 in cases:
        bp = make_barrier_problem(qp, float(10.0 ** rng.uniform(-3, 1)), outer_radius=radius)
        try:
            sol = solve_barrier(bp, x0)
        except InfeasibleError:
            continue
        if sol.phi.min() < 1e-2:
            continue
        J_m = m_space_jacobian(qp, bp.eta, sol.phi)
        assert np.abs(barrier_jacobian(bp, sol) - J_m).max() <= 1e-10 * np.abs(J_m).max()
        done += 1
    assert done >= 10


def feasible(qp, x0):
    """Does the input polytope at x0 have an interior?"""
    try:
        return chebyshev_center(qp.G, qp.bounds_rhs(x0))[1] > 0
    except InfeasibleError:
        return False


def boundary_state(qp, direction, inset):
    """The point ``inset`` inside the feasibility boundary along the unit
    ``direction``, located by bisection."""
    lo, hi = 0.0, 1.0
    while feasible(qp, hi * direction):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(qp, mid * direction) else (lo, mid)
    return (lo - inset) * direction


def assert_jacobian_matches_mp(bp, x0):
    sol = solve_barrier(bp, x0)
    J_ref = mp_jacobian(bp, x0, sol.u_eta)
    assert np.abs(barrier_jacobian(bp, sol) - J_ref).max() <= 1e-8 * np.abs(J_ref).max()
    return sol


def test_jacobian_matches_mp_reference_at_feasibility_boundary(di_qp, di_radius):
    x0 = np.array([-12.39996, 6.19998])
    for eta in (1e-3, 1e-2, 0.1, 1.0):
        sol = assert_jacobian_matches_mp(
            make_barrier_problem(di_qp, eta=eta, outer_radius=di_radius), x0)
        assert sol.phi.min() < 3e-6


def test_jacobian_matches_mp_reference_at_boundary_of_random_systems():
    rng = np.random.default_rng(3)
    etas = (1e-3, 1e-2, 0.1, 1.0)
    for i in range(8):
        _, qp = random_system(rng)
        direction = rng.standard_normal(qp.d_x)
        x0 = boundary_state(qp, direction / np.linalg.norm(direction), 1e-5)
        bp = make_barrier_problem(qp, etas[i % 4], outer_radius=1.0)
        sol = assert_jacobian_matches_mp(bp, x0)
        assert sol.phi.min() < 1e-3


def test_jacobian_limit_small_eta_is_unconstrained_gain(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=1e-8, outer_radius=di_radius)
    x0 = np.array([0.5, 0.2])  # interior state: no constraint near the optimizer
    sol = solve_barrier(bp, x0)
    J = barrier_jacobian(bp, sol)
    K0 = np.linalg.solve(di_qp.H, di_qp.F.T)
    assert np.abs(J - K0).max() <= 1e-4


def fd_jacobian(bp, x0, h):
    cols = []
    for j in range(bp.qp.d_x):
        e = np.zeros(bp.qp.d_x)
        e[j] = h
        up = solve_barrier(bp, x0 + e).u_eta
        um = solve_barrier(bp, x0 - e).u_eta
        cols.append((up - um) / (2 * h))
    return np.stack(cols, axis=1)


def test_jacobian_matches_finite_differences(di_qp, di_radius):
    rng = np.random.default_rng(8)
    done = 0
    while done < 15:
        x0 = rng.uniform(-5, 5, size=2)
        eta = float(10.0 ** rng.uniform(-4, 2))
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_radius)
        try:
            sol = solve_barrier(bp, x0)
        except InfeasibleError:
            continue
        if sol.phi.min() < 1e-3:  # keep the FD stencil strictly feasible
            continue
        J = barrier_jacobian(bp, sol)
        h = 1e-5 * (1.0 + np.linalg.norm(x0))
        J_fd = fd_jacobian(bp, x0, h)
        rel = np.abs(J - J_fd).max() / max(1.0, np.abs(J).max())
        assert rel <= 1e-5
        done += 1


def test_convex_combination_one_d_box(clip_qp):
    x0 = np.array([0.4])
    bp = make_barrier_problem(clip_qp, eta=0.2)
    sol = solve_barrier(bp, x0)
    comb = convex_combination(bp, sol)
    J = barrier_jacobian(bp, sol)
    assert np.abs(comb.reconstructed - J).max() <= 1e-10 * max(1.0, np.abs(J).max())
    wsum = sum(comb.weights.values())
    assert abs(wsum - 1.0) <= 1e-12
    assert all(v >= 0 for v in comb.weights.values())
    # both input rows active together is a singular Gram submatrix: 3 usable
    # sets from the input box and none mixing both sides
    keys = {k for k, v in comb.weights.items() if v > 1e-300}
    assert not any(k[0] == "1" and k[1] == "1" for k in keys)


def test_convex_combination_concentrates_for_small_eta(clip_qp):
    x0 = np.array([4.0])  # deep in the saturated piece
    bp = make_barrier_problem(clip_qp, eta=1e-6)
    sol = solve_barrier(bp, x0)
    comb = convex_combination(bp, sol)
    top = max(comb.weights.values())
    assert top > 0.99


def test_convex_combination_refuses_large_m(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=di_radius)
    sol = solve_barrier(bp, np.zeros(2))
    with pytest.raises(ValueError):
        convex_combination(bp, sol)


def test_hessian_unconstrained_is_zero():
    sys_, cost, cons = double_integrator_problem(state_bound=1e5, input_bound=1e5)
    qp = build_condensed(sys_, cost, cons)
    bp = make_barrier_problem(qp, eta=1e-3)
    T = barrier_hessian(bp, solve_barrier(bp, np.array([0.5, 0.1])))
    assert tensor_spectral_norm(T) <= 1e-5


def test_hessian_symmetric_slots_and_sign_symmetry(di_qp, di_radius):
    bp = make_barrier_problem(di_qp, eta=1.0, outer_radius=di_radius)
    T = barrier_hessian(bp, solve_barrier(bp, np.zeros(2)))
    scale = 1.0 + np.abs(T).max()
    assert np.abs(T - np.transpose(T, (0, 2, 1))).max() <= 1e-4 * scale
    e1 = np.array([1.0, 0.0])
    assert abs(np.linalg.norm(T @ e1, 2) - np.linalg.norm(T @ (-e1), 2)) <= 1e-12


def fd_hessian(bp, x0, h):
    """Richardson-extrapolated central differences of the closed-form Jacobian,
    the reference for ``barrier_hessian``: (4 D(h/2) - D(h)) / 3 per state axis."""
    slabs = []
    for j in range(bp.qp.d_x):
        e = np.zeros(bp.qp.d_x)
        e[j] = 1.0

        def D(s):
            up = barrier_jacobian(bp, solve_barrier(bp, x0 + s * e))
            down = barrier_jacobian(bp, solve_barrier(bp, x0 - s * e))
            return (up - down) / (2.0 * s)

        slabs.append((4.0 * D(h / 2) - D(h)) / 3.0)
    return np.stack(slabs, axis=2)


def assert_hessian_matches_oracle(bp, x0, h):
    T = barrier_hessian(bp, solve_barrier(bp, x0))
    scale = np.abs(T).max()
    assert scale > 0
    assert np.abs(T - fd_hessian(bp, x0, h)).max() <= 1e-6 * scale
    assert np.abs(T - np.transpose(T, (0, 2, 1))).max() <= 1e-14 * scale


def test_hessian_matches_richardson_oracle_on_random_systems():
    rng = np.random.default_rng(0)
    dims = []
    while len(dims) < 20:
        _, qp = random_system(rng)
        x0 = rng.uniform(-0.5, 0.5, size=qp.d_x)
        bp = make_barrier_problem(qp, float(10.0 ** rng.uniform(-3, 0)), outer_radius=1.0)
        try:
            solve_barrier(bp, x0)
        except InfeasibleError:
            continue
        assert_hessian_matches_oracle(bp, x0, 1e-4)
        dims.append(qp.d_x)
    assert set(dims) == {2, 3}


def test_hessian_matches_richardson_oracle_on_clip(clip_qp):
    for x0 in (0.2, 0.45, 0.7, 2.0):
        for eta in (1e-3, 1e-1, 1.0):
            assert_hessian_matches_oracle(make_barrier_problem(clip_qp, eta),
                                          np.array([x0]), 1e-4)


def test_hessian_matches_richardson_oracle_near_feasibility_boundary(di_qp, di_radius):
    x0 = boundary_state(di_qp, np.array([1.0, 1.0]) / np.sqrt(2.0), 5e-5)
    # a coordinate step of 1e-5 (1 + ||x0||) leaves the feasible set here
    h_old = 1e-5 * (1.0 + np.linalg.norm(x0))
    assert not all(feasible(di_qp, x0 + s * h_old * e) for e in np.eye(2) for s in (1.0, -1.0))
    for eta in (1e-3, 1e-2, 0.1, 1.0):
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_radius)
        assert_hessian_matches_oracle(bp, x0, 1e-6)


def test_hessian_batch_is_the_per_row_hessian_bit_for_bit():
    """A stack's Jacobians and Hessians, from one factor per row, are the
    one-row ``barrier_jacobian`` and ``barrier_hessian`` bit for bit: at
    interior states, at states just inside the feasibility boundary and,
    as NaN rows, at infeasible ones."""
    rng = np.random.default_rng(5)
    dims = set()
    while dims != {2, 3}:
        _, qp = random_system(rng)
        directions = rng.standard_normal((3, qp.d_x))
        edge = [boundary_state(qp, d / np.linalg.norm(d), inset)
                for d, inset in zip(directions, (1e-3, 1e-5, 1e-7))]
        X = np.vstack([rng.uniform(-0.5, 0.5, size=(5, qp.d_x)), edge, np.full((1, qp.d_x), 50.0)])
        for eta in (1e-3, 1e-2, 1e-1, 1.0):
            bp = make_barrier_problem(qp, eta, outer_radius=1.0)
            batch = solve_barrier_batch(bp, X)
            solved = [i for i, err in enumerate(batch.errors) if err is None]
            assert set(range(5, 8)) <= set(solved) and 8 not in solved
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # ill-conditioned at the boundary
                J, T = barrier_hessian_batch(bp, batch.phi)
                assert np.array_equal(J, barrier_jacobian_batch(bp, batch.phi), equal_nan=True)
                for i in range(X.shape[0]):
                    if i not in solved:
                        assert np.isnan(J[i]).all() and np.isnan(T[i]).all()
                        continue
                    sol = batch.row(i)
                    assert np.array_equal(J[i], barrier_jacobian(bp, sol))
                    assert np.array_equal(T[i], barrier_hessian(bp, sol))
        dims.add(qp.d_x)


def test_hessian_makes_no_barrier_solves(di_qp, di_radius, monkeypatch):
    import smoothmpc.barrier

    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=di_radius)
    sol = solve_barrier(bp, np.array([2.0, 0.5]))
    calls = []
    real = smoothmpc.barrier.solve_barrier
    monkeypatch.setattr(smoothmpc.barrier, "solve_barrier",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    barrier_hessian(bp, sol)
    assert calls == []


def sweep_norm_loop(T):
    """The per-angle reference for the d = 2 branch of ``tensor_spectral_norm``."""
    thetas = np.linspace(0.0, np.pi, 721)
    sweep = [float(np.linalg.norm(T @ np.array([np.cos(th), np.sin(th)]), 2))
             for th in thetas]
    best = max(sweep)
    i = int(np.argmax(sweep))
    lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)]
    for _ in range(60):
        mid1 = lo + (hi - lo) / 3
        mid2 = hi - (hi - lo) / 3
        f1 = np.linalg.norm(T @ np.array([np.cos(mid1), np.sin(mid1)]), 2)
        f2 = np.linalg.norm(T @ np.array([np.cos(mid2), np.sin(mid2)]), 2)
        if f1 < f2:
            lo = mid1
        else:
            hi = mid2
        best = max(best, float(f1), float(f2))
    return best


def test_tensor_norm_two_d_matches_per_angle_loop(di_qp, di_radius):
    rng = np.random.default_rng(3)
    tensors = [rng.standard_normal((int(rng.integers(1, 12)), 2, 2)) for _ in range(10)]
    for x0, eta in (([2.0, 0.5], 1e-3), ([-4.0, 1.0], 0.1), ([6.0, -2.0], 1.0)):
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_radius)
        tensors.append(barrier_hessian(bp, solve_barrier(bp, np.array(x0))))
    for T in tensors:
        ref = sweep_norm_loop(T)
        assert abs(tensor_spectral_norm(T) - ref) <= 1e-12 * ref


def assert_exact_planar_norm(T):
    """The exact d = 2 norm is never below the sweep and within 1e-9 of it."""
    exact, ref = tensor_spectral_norm(T), sweep_norm_loop(T)
    assert exact >= ref * (1.0 - 1e-12)
    assert exact <= ref * (1.0 + 1e-9)


def test_tensor_norm_two_d_is_exact_on_random_and_degenerate_tensors():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        assert_exact_planar_norm(10.0 ** rng.uniform(-6, 6) * rng.standard_normal((n, 2, 2)))
    # rank 1: M(theta)^T M(theta) has rank <= 1 at every angle, so the
    # stationarity equation vanishes identically
    for _ in range(10):
        assert_exact_planar_norm(rng.standard_normal((1, 2, 2)))
        a, b, c = rng.standard_normal(int(rng.integers(1, 12))), rng.standard_normal(2), rng.standard_normal(2)
        assert_exact_planar_norm(np.einsum("i,j,k->ijk", a, b, c))
    # M(theta) = cos theta I + sin theta J with J a rotation by pi/2:
    # M^T M = I at every angle
    rot = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])], axis=2)
    assert_exact_planar_norm(3.0 * rot)
    assert tensor_spectral_norm(3.0 * rot) == pytest.approx(3.0, rel=1e-15)
    assert tensor_spectral_norm(np.zeros((4, 2, 2))) == 0.0


def test_tensor_norm_power_iteration_dominates_sphere_sample():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 3:
        _, qp = random_system(rng)
        if qp.d_x != 3:
            continue
        bp = make_barrier_problem(qp, 0.05, outer_radius=1.0)
        try:
            sol = solve_barrier(bp, rng.uniform(-0.5, 0.5, size=3))
        except InfeasibleError:
            continue
        T = barrier_hessian(bp, sol)
        Y = rng.standard_normal((20000, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        sampled = np.linalg.svd(np.einsum("ijk,sk->sij", T, Y), compute_uv=False)[:, 0].max()
        assert tensor_spectral_norm(T) >= sampled * (1.0 - 1e-9)
        checked += 1


def test_pi_barrier_origin_and_monotone_deviation(di_qp, di_radius):
    from smoothmpc.explicit import pi_mpc

    assert np.abs(solve_barrier(make_barrier_problem(di_qp, 1.0, outer_radius=di_radius),
                                np.zeros(2)).u_eta[:1]).max() <= 1e-9
    x = np.array([5.0, 1.5])  # near the saturated boundary
    u_hard = pi_mpc(di_qp, x)
    lastdev = -1.0
    for eta in (1e-3, 1e-1, 1e1):
        bp = make_barrier_problem(di_qp, eta, outer_radius=di_radius)
        dev = np.linalg.norm(solve_barrier(bp, x).u_eta[:1] - u_hard)
        assert dev >= lastdev - 1e-9
        lastdev = dev
