"""Bound calculators against solver measurements and independent oracles."""

import math

import numpy as np
import pytest

from smoothmpc.barrier import barrier_hessian, make_barrier_problem, solve_barrier, tensor_spectral_norm
from smoothmpc.bounds import (
    BoundReport,
    NotApplicableError,
    barrier_axioms_check,
    directional_bounds,
    error_upper,
    first_residual_lower_bound,
    hessian_upper_bound,
    log_barrier_1d,
    newton_log_barrier,
    normalized_min_residual,
    one_d_gap_oracle,
    quad_opt_bounds,
    quadratic_lipschitz,
    residual_lower_bound,
    sc_parameter,
)
from smoothmpc.core import build_condensed, double_integrator_problem, feasible_radii
from smoothmpc.errors import InfeasibleError
from smoothmpc.explicit import (
    c_constant,
    discover_pieces,
    enumerate_nonsingular_sigmas,
    gain_constants,
    max_gain_norm,
    solve_qp,
    state_grid,
)
from qp_oracles import primal_active_set_qp
from systems import random_bounded_polytope, random_system


@pytest.fixture(scope="module")
def di_R(di_qp):
    return feasible_radii(di_qp, np.zeros(2)).R


def test_sc_parameter_values():
    assert sc_parameter(60, 3.0, np.zeros(10)) == 1200.0
    assert sc_parameter(1, 1.0, np.array([1.0])) == 40.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(1, 50))
        assert sc_parameter(m, rng.uniform(0.1, 5), rng.standard_normal(3)) >= 20 * m


def test_error_upper_values(di_qp, di_R):
    bp = make_barrier_problem(di_qp, eta=1.0, outer_radius=di_R)
    assert abs(error_upper(bp, eta=0.0)) == 0.0
    got = math.sqrt(2 * 1.0 * bp.nu / di_qp.alpha1)
    assert abs(error_upper(bp) - got) <= 1e-12


def test_error_bound_on_sweep(di_qp, di_R):
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 30:
        x0 = rng.uniform(-5, 5, size=2)
        eta = float(10.0 ** rng.uniform(-3, 1))
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_R)
        try:
            sol = solve_barrier(bp, x0)
            u_star = solve_qp(di_qp, x0).u_star
        except InfeasibleError:
            continue
        assert np.linalg.norm(sol.u_eta - u_star) <= error_upper(bp) * (1 + 1e-9)
        checked += 1


def test_directional_bounds_not_applicable_inside(di_qp, di_R):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=di_R)
    x0 = np.array([0.05, 0.0])
    u_star = solve_qp(di_qp, x0).u_star
    with pytest.raises(NotApplicableError):
        directional_bounds(bp, x0, u_star)


def test_directional_bounds_vanish_at_zero_eta(di_qp, di_R):
    x0 = np.array([5.0, 1.5])
    u_star = solve_qp(di_qp, x0).u_star
    rad = feasible_radii(di_qp, x0)
    lo, hi = [], []
    for eta in (1e-2, 1e-4, 1e-6):
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_R)
        db = directional_bounds(bp, x0, u_star, radii=rad)
        lo.append(db.lower)
        hi.append(db.upper)
    assert hi[0] > hi[1] > hi[2] > 0
    assert lo[0] > lo[1] > lo[2] > 0
    assert hi[-1] < 1e-4 and lo[-1] < 1e-6


def test_directional_sandwich_clip_oracle(clip_qp):
    """Golden-grid oracle for the 1-D clip instance confirms the sandwich."""
    x0 = np.array([2.0])
    u_star = solve_qp(clip_qp, x0).u_star  # saturated at -1
    rad = feasible_radii(clip_qp, x0)
    for eta in (1e-4, 1e-2, 1e-1):
        bp = make_barrier_problem(clip_qp, eta=eta)
        db = directional_bounds(bp, x0, u_star, radii=rad)
        us = np.linspace(-1 + 1e-12, 1 - 1e-12, 2_000_001)
        b = clip_qp.bounds_rhs(x0)
        phi = b[None, :] - us[:, None] * clip_qp.G.T.reshape(1, -1)
        vals = (0.5 * clip_qp.H[0, 0] * us ** 2 - (x0 @ clip_qp.F)[0] * us
                - eta * (np.log(phi).sum(axis=1) - bp.d[0] * us))
        u_eta = us[np.argmin(vals)]
        gap = float(db.a @ (np.array([u_eta]) - u_star))
        assert db.lower - 1e-6 <= gap <= db.upper + 1e-6


def test_directional_sandwich_di_sweep(di_qp, di_R):
    x0 = np.array([8.0, -2.0])
    u_star = solve_qp(di_qp, x0).u_star
    rad = feasible_radii(di_qp, x0)
    for eta in (1e-3, 1e-2, 1e-1, 1.0):
        bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_R)
        sol = solve_barrier(bp, x0)
        db = directional_bounds(bp, x0, u_star, radii=rad)
        gap = float(db.a @ (sol.u_eta - u_star))
        assert db.lower <= gap * (1 + 1e-9) + 1e-12
        assert gap <= db.upper * (1 + 1e-9)


def test_residual_lower_bound_sweep(di_qp, di_R):
    rng = np.random.default_rng(9)
    row_ok = np.linalg.norm(di_qp.G, axis=1) >= 1.0 - 1e-12
    checked = 0
    while checked < 30:
        x0 = rng.uniform(-6, 6, size=2)
        eta = float(10.0 ** rng.uniform(-3, 1))
        try:
            rad = feasible_radii(di_qp, x0)
            if rad.r < 1e-6:
                continue
            u_star = solve_qp(di_qp, x0).u_star
            bp = make_barrier_problem(di_qp, eta=eta, outer_radius=di_R)
            sol = solve_barrier(bp, x0)
        except InfeasibleError:
            continue
        res_lb = residual_lower_bound(bp, x0, u_star, radii=rad)
        assert res_lb > 0
        assert sol.phi[row_ok].min() >= res_lb * (1 - 1e-9)
        # the floor as stated, written out apart from the sandwich it reuses
        delta = u_star - di_qp.Hinv_FT @ x0
        D = math.sqrt(float(delta @ di_qp.H @ delta))
        a1, a2, nu = di_qp.alpha1, di_qp.alpha2, bp.nu
        stated = (a1 / a2) * (rad.r / rad.R_center) * min(
            (math.sqrt(eta + D * D) - D) / math.sqrt(nu * a1), rad.r / (2 * nu + 4 * math.sqrt(nu)))
        assert abs(res_lb - stated) <= 1e-12 * stated
        checked += 1


def test_residual_lower_bound_saturates_for_large_eta(di_qp, di_R):
    x0 = np.array([2.0, 0.5])
    u_star = solve_qp(di_qp, x0).u_star
    rad = feasible_radii(di_qp, x0)
    nu = make_barrier_problem(di_qp, eta=1.0, outer_radius=di_R).nu
    cap = (di_qp.alpha1 / di_qp.alpha2) * (rad.r / rad.R_center) * rad.r / (2 * nu + 4 * math.sqrt(nu))
    big = residual_lower_bound(make_barrier_problem(di_qp, eta=1e9, outer_radius=di_R),
                               x0, u_star, radii=rad)
    assert abs(big - cap) <= 1e-12 * max(1.0, cap)


def test_first_residual_lower_bound_limits(di_qp, di_R):
    x0 = np.array([2.0, 0.5])
    rad = feasible_radii(di_qp, x0)
    nu = make_barrier_problem(di_qp, eta=1.0, outer_radius=di_R).nu
    # large-eta asymptote r/(150 nu)
    bp_inf = make_barrier_problem(di_qp, eta=1e12, outer_radius=di_R)
    val = first_residual_lower_bound(bp_inf, x0, L_q=0.0, radii=rad)
    assert abs(val - rad.r / (150.0 * nu)) <= 1e-6 * val


def test_first_residual_lower_bound_on_clip_oracle(clip_qp):
    x0 = np.array([2.0])
    rad = feasible_radii(clip_qp, x0)
    for eta in (1e-3, 1e-1, 1.0):
        bp = make_barrier_problem(clip_qp, eta=eta)
        sol = solve_barrier(bp, x0)
        L_q = quadratic_lipschitz(clip_qp, x0, rad.R_center)
        floor = first_residual_lower_bound(bp, x0, L_q, radii=rad)
        measured = normalized_min_residual(clip_qp, x0, sol.u_eta)
        assert measured >= floor * (1 - 1e-9)


def test_hessian_upper_bound_dominates_clip(clip_qp):
    sigmas = enumerate_nonsingular_sigmas(clip_qp)
    L = max_gain_norm(clip_qp, sigmas)
    C = c_constant(clip_qp, sigmas)
    x0 = np.array([2.0])
    for eta in (1e-3, 1e-1, 1e1):
        bp = make_barrier_problem(clip_qp, eta=eta)
        T = barrier_hessian(bp, solve_barrier(bp, x0))
        measured = tensor_spectral_norm(T)
        bound = hessian_upper_bound(bp, x0, L, C)
        assert measured <= bound * (1 + 1e-6)


def test_gain_constants_are_the_per_sigma_references_bit_for_bit(clip_qp, di_qp):
    rng = np.random.default_rng(3)
    cases = [(clip_qp, enumerate_nonsingular_sigmas(clip_qp)),
             (di_qp, [p.sigma for p in discover_pieces(
                 di_qp, state_grid([-10, -10], [10, 10], 61)).pieces])]
    while len(cases) < 8:
        _, qp = random_system(rng)
        grid = state_grid([-1.0] * qp.d_x, [1.0] * qp.d_x, 9)
        cases.append((qp, [p.sigma.sigma for p in discover_pieces(qp, grid).pieces]))
    for qp, sigmas in cases:
        assert len(sigmas) > 1
        assert gain_constants(qp, sigmas) == (max_gain_norm(qp, sigmas), c_constant(qp, sigmas))
        assert qp.norms == (float(np.linalg.norm(qp.P, 2)), float(np.linalg.norm(qp.G, 2)))
    assert gain_constants(clip_qp, []) == (0.0, 0.0) == (max_gain_norm(clip_qp, []),
                                                        c_constant(clip_qp, []))


def test_hessian_upper_bound_unconstrained_trivial(di_qp, di_R):
    sys_, cost, cons = double_integrator_problem(state_bound=1e5, input_bound=1e5)
    qp = build_condensed(sys_, cost, cons)
    bp = make_barrier_problem(qp, eta=1e-3)
    T = barrier_hessian(bp, solve_barrier(bp, np.array([0.5, 0.1])))
    assert tensor_spectral_norm(T) <= 1e-5  # any positive bound dominates


def test_directional_bounds_match_quad_opt_sandwich(clip_qp):
    # both calculators evaluate the same sandwich (nu = m) on the clip
    # program, whose constraint rows are all nonzero
    checked = 0
    for x0 in (np.array([0.8]), np.array([2.0]), np.array([-3.0])):
        u_star = solve_qp(clip_qp, x0).u_star
        for eta in (1e-3, 1e-1):
            bp = make_barrier_problem(clip_qp, eta=eta)
            db = directional_bounds(bp, x0, u_star)
            reports = {r.name: r for r in quad_opt_bounds(
                clip_qp.G, clip_qp.bounds_rhs(x0), clip_qp.H, clip_qp.Hinv_FT @ x0, eta,
                nu=clip_qp.m)}
            upper = reports["quad_gap_directional_upper"].rhs
            lower = reports["quad_ball_radius"].lhs
            assert abs(upper - db.upper) <= 1e-9 * abs(db.upper)
            assert abs(lower - db.lower) <= 1e-9 * abs(db.lower)
            checked += 1
    assert checked == 6


def test_quad_opt_bounds_random_polytopes():
    rng = np.random.default_rng(21)
    trials = 0
    while trials < 40:
        n = int(rng.integers(2, 4))
        G, b = random_bounded_polytope(rng, n, int(rng.integers(1, 5)))
        evals = rng.uniform(0.5, 4.0, size=n)
        Qm = np.linalg.qr(rng.standard_normal((n, n)))[0]
        Hm = Qm @ np.diag(evals) @ Qm.T
        v = rng.uniform(-3, 3, size=n)
        eta = float(10.0 ** rng.uniform(-3, 0))
        reports = quad_opt_bounds(G, b, Hm, v, eta, nu=float(G.shape[0]))
        for rep in reports:
            assert rep.satisfied, f"{rep.name}: {rep.lhs} > {rep.rhs} ({rep.context})"
        trials += 1


def test_quad_opt_bounds_center_case():
    G = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    reports = quad_opt_bounds(G, b, np.eye(2), np.zeros(2), eta=0.1, nu=4.0)
    names = [r.name for r in reports]
    assert "quad_gap_directional_na" in names
    gap = [r for r in reports if r.name == "quad_gap_global"][0]
    assert gap.lhs <= 1e-9  # x_eta = x_star = center by symmetry


def test_newton_log_barrier_flat_polytope():
    G = np.array([[1.0], [-1.0]])
    with pytest.raises(InfeasibleError, match="empty interior"):
        newton_log_barrier(np.eye(1), np.zeros(1), G, np.zeros(2), eta=0.1)


def test_quad_opt_gap_shrinks_with_eta():
    rng = np.random.default_rng(33)
    G, b = random_bounded_polytope(rng, 2, 3)
    Hm = np.eye(2)
    v = np.array([3.0, 0.5])  # outside, so the gap is nonzero
    lin = -(Hm @ v)
    x_star = primal_active_set_qp(Hm, lin, G, b).z
    gaps = []
    for eta in (0.2, 0.1, 0.05, 0.025):
        x_eta = newton_log_barrier(Hm, lin, G, b, eta)
        gaps.append(np.linalg.norm(x_eta - x_star))
    for a, bb in zip(gaps[:-1], gaps[1:]):
        assert bb < a
        # between the sqrt(2) rate of the bound and the linear rate of a
        # strongly active constraint (up to an O(eta) correction)
        assert 1.0 <= a / bb <= 2.1


def test_one_d_gap_oracle_log_barrier():
    barrier = log_barrier_1d(1.0)
    out = one_d_gap_oracle(barrier, (1.0, 1.0, -0.5), eta=0.01)
    assert all(r.satisfied for r in out["reports"])
    assert 0 < out["x_eta"] < 1


def test_one_d_gap_oracle_monotone_region():
    barrier = log_barrier_1d(1.0)
    # v to the right of the analytic center 0.5: x_eta stays in [x_ac, v]
    out = one_d_gap_oracle(barrier, (1.0, 1.0, 0.8), eta=0.05)
    assert 0.5 - 1e-9 <= out["x_eta"] <= 0.8 + 1e-9


def test_one_d_gap_oracle_linear_rate_at_small_eta():
    barrier = log_barrier_1d(1.0)
    etas = np.array([10.0 ** k for k in (-6, -5, -4, -3)])
    xs = [one_d_gap_oracle(barrier, (1.0, 1.0, -0.5), eta=float(e))["x_eta"] for e in etas]
    slope = np.polyfit(np.log(etas), np.log(xs), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_barrier_axioms_unit_box():
    G = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    reports = barrier_axioms_check(G, b, R=math.sqrt(2.0), n_samples=1000, seed=1)
    assert all(r.satisfied for r in reports)


def test_barrier_axioms_boundary_stress():
    # worst pair for the box: x approaching a vertex, y that vertex; the
    # inner product then approaches the number of meeting facets (2 here),
    # while the Fact's ceiling is m = 4
    G = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    x = (1.0 - 1e-6) * np.ones(2)
    y = np.ones(2)
    resid = b - G @ x
    grad = G.T @ (1.0 / resid)
    ip = grad @ (y - x)
    assert 1.9 <= ip <= 4.0


def test_barrier_axioms_1d_calculus():
    phi2 = 1.0 / 0.5 ** 2 + 1.0 / 0.5 ** 2  # second derivative at midpoint of (0,1)
    assert phi2 >= 8.0 - 1e-12
    assert phi2 >= 1.0 / (9.0 * 0.25)


def test_bound_report_slack():
    rep = BoundReport.check("x", 1.0, 1.0 - 1e-12)
    assert rep.satisfied
    rep2 = BoundReport.check("x", 1.0, 0.5)
    assert not rep2.satisfied
