"""Condensed-program construction, residuals, and polytope geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothmpc.core import (
    BoxlikeConstraints,
    LinearSystem,
    StageCost,
    box_constraints,
    build_condensed,
    clip_problem,
    double_integrator_problem,
    feasible_radii,
    load_problem,
    residuals,
    stacked_maps,
    state_halfwidth,
)
from smoothmpc.errors import ConfigurationError, InfeasibleError, UnboundedError
from smoothmpc.qp import bounding_box, chebyshev_center, support
from qp_oracles import support_loop_box
from systems import random_system

RNG = np.random.default_rng(7)


def test_stacked_maps_hand_example():
    sys_ = LinearSystem(A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.array([[0.0], [1.0]]))
    maps = stacked_maps(sys_, 2)
    assert np.allclose(maps.Ahat, np.array([[1, 1], [0, 1], [1, 2], [0, 1]], dtype=float))
    assert np.allclose(maps.Bhat[2:4, 0:1], np.array([[1.0], [1.0]]))  # AB block
    assert np.allclose(maps.Bhat[0:2, 1:2], 0.0)  # above diagonal


def test_stacked_maps_identity_system():
    sys_ = LinearSystem(A=np.eye(3), B=np.eye(3))
    maps = stacked_maps(sys_, 1)
    assert np.allclose(maps.Ahat, np.eye(3))
    assert np.allclose(maps.Bhat, np.eye(3))


def test_stacked_maps_matches_simulation():
    rng = np.random.default_rng(3)
    sys_ = LinearSystem(A=rng.standard_normal((3, 3)) * 0.5, B=rng.standard_normal((3, 2)))
    T = 5
    maps = stacked_maps(sys_, T)
    x0 = rng.standard_normal(3)
    u = rng.standard_normal(T * 2)
    x = x0.copy()
    rolled = []
    for t in range(T):
        x = sys_.step(x, u[2 * t:2 * t + 2])
        rolled.append(x.copy())
    assert np.abs(np.concatenate(rolled) - (maps.Ahat @ x0 + maps.Bhat @ u)).max() <= 1e-12


def test_build_condensed_scalar_one_step():
    sys_ = LinearSystem(A=np.array([[1.0]]), B=np.array([[1.0]]))
    cost = StageCost(Q=np.eye(1), R=np.eye(1), horizon=1)
    cons = box_constraints(1, 1, 100.0, 100.0)
    qp = build_condensed(sys_, cost, cons)
    assert np.allclose(qp.H, [[4.0]])
    assert np.allclose(qp.F, [[-2.0]])
    # unconstrained minimizer matches argmin (x+u)^2 + u^2 = -x/2
    x0 = np.array([3.0])
    u = np.linalg.solve(qp.H, qp.F.T @ x0)
    assert abs(u[0] + 1.5) <= 1e-12


def test_build_condensed_constraint_count(di_qp):
    assert di_qp.m == 2 * 10 + 4 * 10 == 60


def test_build_condensed_zero_A_kills_cross_term():
    sys_ = LinearSystem(A=np.zeros((2, 2)), B=np.eye(2))
    cost = StageCost(Q=np.eye(2), R=np.eye(2), horizon=3)
    cons = box_constraints(2, 2, 5.0, 5.0)
    qp = build_condensed(sys_, cost, cons)
    assert np.abs(qp.F[:, 2:]).max() == 0.0  # only the first block sees x0... via A_x terms
    # the cost cross-term vanishes entirely: F = -2 Ahat^T Qbar Bhat with Ahat = 0
    assert np.abs(qp.F).max() == 0.0


def test_build_condensed_rejects_non_pd_cost():
    sys_ = LinearSystem(A=np.eye(2), B=np.eye(2))
    with pytest.raises(ValueError):
        StageCost(Q=np.zeros((2, 2)), R=np.eye(2), horizon=2)


def test_condensed_cost_equivalence(di_qp):
    """0.5 u^T H u - x0^T F u == V(x0,u) - V(x0,0) on random pairs."""
    sys_, cost, cons = double_integrator_problem()
    maps = stacked_maps(sys_, cost.horizon)

    def V(x0, u):
        xs = maps.Ahat @ x0 + maps.Bhat @ u
        total = 0.0
        for t in range(cost.horizon):
            xt = xs[2 * t:2 * t + 2]
            ut = u[t:t + 1]
            total += xt @ cost.Q[t] @ xt + ut @ cost.R[t] @ ut
        return total

    rng = np.random.default_rng(11)
    for _ in range(200):
        x0 = rng.uniform(-5, 5, size=2)
        u = rng.uniform(-1, 1, size=10)
        lhs = di_qp.objective(x0, u)
        rhs = V(x0, u) - V(x0, np.zeros(10))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_constraint_equivalence(di_qp):
    """G u <= w + P x0 iff the rolled-out trajectory satisfies the boxes."""
    from smoothmpc.explicit import solve_qp

    sys_, cost, cons = double_integrator_problem()
    rng = np.random.default_rng(13)

    def rollout_ok(x0, u):
        x = x0.copy()
        ok = np.abs(u).max() <= 1.0 + 1e-12
        for t in range(10):
            x = sys_.step(x, u[t:t + 1])
            ok = ok and np.abs(x).max() <= 10.0 + 1e-12
        return ok

    checked_feasible = checked_infeasible = 0
    for _ in range(150):
        x0 = rng.uniform(-4, 4, size=2)
        # random candidates are almost always infeasible over 10 steps
        u = rng.uniform(-1.5, 1.5, size=10)
        res = residuals(di_qp, x0, u)
        assert (res.min() >= -1e-9) == rollout_ok(x0, u)
        checked_infeasible += not rollout_ok(x0, u)
        # optimizer inputs are feasible by construction
        try:
            u_opt = solve_qp(di_qp, x0).u_star
        except Exception:
            continue
        res_opt = residuals(di_qp, x0, u_opt)
        assert res_opt.min() >= -1e-9
        assert rollout_ok(x0, u_opt)
        checked_feasible += 1
    assert checked_feasible > 10 and checked_infeasible > 10


def test_eigenvalue_bracket(di_qp):
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.standard_normal(10)
        quad = v @ di_qp.H @ v
        assert di_qp.alpha1 * (v @ v) <= quad * (1 + 1e-12) + 1e-12
        assert quad <= di_qp.alpha2 * (v @ v) * (1 + 1e-12)


def test_residuals_examples(di_qp):
    res = residuals(di_qp, np.zeros(2), np.zeros(10))
    assert np.allclose(np.sort(np.unique(res)), [1.0, 10.0])
    u_bad = np.zeros(10)
    u_bad[0] = 2.0
    res_bad = residuals(di_qp, np.zeros(2), u_bad)
    assert np.isclose(res_bad[0], -1.0)  # the u_0 <= 1 row


def test_residuals_active_at_boundary(di_qp):
    from smoothmpc.explicit import solve_qp

    sol = solve_qp(di_qp, np.array([5.0, 2.0]))  # saturated state
    res = residuals(di_qp, np.array([5.0, 2.0]), sol.u_star)
    assert res.min() >= -1e-8
    assert res.min() <= 1e-8  # at least one active constraint


def test_feasible_radii_boxes():
    sys_ = LinearSystem(A=np.zeros((1, 1)), B=np.zeros((1, 1)))
    cost = StageCost(Q=np.eye(1), R=np.eye(1), horizon=1)
    cons = box_constraints(1, 1, 100.0, 1.0)
    qp = build_condensed(sys_, cost, cons)
    rad = feasible_radii(qp, np.zeros(1))
    assert abs(rad.r - 1.0) <= 1e-9
    assert abs(rad.R - 1.0) <= 1e-9
    assert np.abs(rad.center).max() <= 1e-9


def test_feasible_radii_2d_box():
    sys_ = LinearSystem(A=np.zeros((2, 2)), B=np.zeros((2, 2)))
    cost = StageCost(Q=np.eye(2), R=np.eye(2), horizon=1)
    cons = BoxlikeConstraints(
        A_x=np.vstack([np.eye(2), -np.eye(2)]), b_x=np.array([100.0] * 4),
        A_u=np.vstack([np.eye(2), -np.eye(2)]), b_u=np.array([1.0, 2.0, 1.0, 2.0]))
    qp = build_condensed(sys_, cost, cons)
    rad = feasible_radii(qp, np.zeros(2))
    assert abs(rad.r - 1.0) <= 1e-9
    assert abs(rad.R - np.sqrt(5.0)) <= 1e-9


def test_feasible_radii_double_integrator_regression(di_qp):
    rad = feasible_radii(di_qp, np.zeros(2))
    # regression constants for the benchmark problem
    assert rad.r > 0 and np.isfinite(rad.R)
    assert abs(rad.r - 0.5923) <= 2e-4
    assert abs(rad.R - np.sqrt(10.0)) <= 1e-9


def test_feasible_radii_infeasible_signal(di_qp):
    with pytest.raises(InfeasibleError):
        feasible_radii(di_qp, np.array([8.0, 2.0]))


def _assert_farkas(G, b, y):
    assert y is not None and y.min() >= 0
    assert np.linalg.norm(G.T @ y) <= 1e-6 * np.linalg.norm(y)
    assert y @ b < 0


def test_feasible_radii_infeasible_certificate(di_qp):
    x0 = np.array([12.0, 8.0])
    with pytest.raises(InfeasibleError) as exc:
        feasible_radii(di_qp, x0)
    _assert_farkas(di_qp.G, di_qp.bounds_rhs(x0), exc.value.certificate)


def test_feasible_radii_unbounded_signal():
    sys_ = LinearSystem(A=np.zeros((1, 1)), B=np.zeros((1, 1)))
    cost = StageCost(Q=np.eye(1), R=np.eye(1), horizon=1)
    cons = BoxlikeConstraints(A_x=np.array([[1.0], [-1.0]]), b_x=np.array([100.0, 100.0]),
                              A_u=np.array([[1.0]]), b_u=np.array([1.0]))
    qp = build_condensed(sys_, cost, cons)
    with pytest.raises(UnboundedError):
        feasible_radii(qp, np.zeros(1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_bounding_box_matches_support_loop_on_random_systems(seed):
    # States of unit scale make some polytopes empty, and dropping rows at
    # random makes some unbounded. The block LP reaches a few degenerate
    # vertices through other bases than the separate LPs, so its box is not
    # bit for bit the oracle's everywhere: 2.4e-15 relative at most in 400
    # draws, and bit for bit on the double integrator
    rng = np.random.default_rng(seed)
    qp = random_system(rng)[1]
    x0 = rng.uniform(-2.5, 2.5, size=qp.d_x)
    keep = rng.uniform(size=qp.m) < rng.choice([0.6, 1.0])
    G, b = qp.G[keep], qp.bounds_rhs(x0)[keep]
    try:
        ref = np.concatenate(support_loop_box(G, b))
    except (InfeasibleError, UnboundedError) as err:
        with pytest.raises(type(err)) as exc:
            bounding_box(G, b)
        if isinstance(err, InfeasibleError):
            _assert_farkas(G, b, exc.value.certificate)
        return
    box = np.concatenate(bounding_box(G, b))
    assert np.abs(box - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_presolve_verdict_of_an_empty_polytope_is_checked():
    # HiGHS's presolve calls this polytope empty in the bounding-box LP and
    # in the support LP of coordinate 4, yet the elastic LP's least slack is
    # -0.166 and it holds a ball; solved without presolve, both LPs are
    # unbounded
    rng = np.random.default_rng(77)
    qp = random_system(rng)[1]
    x0 = rng.uniform(-2.5, 2.5, size=qp.d_x)
    keep = rng.uniform(size=qp.m) < 0.7
    G, b = qp.G[keep], qp.bounds_rhs(x0)[keep]
    assert chebyshev_center(G, b)[1] > 0
    with pytest.raises(UnboundedError):
        bounding_box(G, b)
    with pytest.raises(UnboundedError):
        support(G, b, np.eye(G.shape[1])[4])


def test_load_problem_roundtrip():
    cfg = {
        "system": {"A": [[1, 1], [0, 1]], "B": [[0], [1]]},
        "cost": {"Q": [[1, 0], [0, 1]], "R": [[0.01]], "horizon": 10},
        "constraints": {"state_box": 10.0, "input_box": 1.0},
    }
    sys_, cost, cons = load_problem(cfg)
    qp = build_condensed(sys_, cost, cons)
    ref = build_condensed(*double_integrator_problem())
    assert np.allclose(qp.H, ref.H) and np.allclose(qp.G, ref.G) and np.allclose(qp.w, ref.w)



def test_state_halfwidth_of_boxes_and_halfspaces():
    unit_u = (np.array([[1.0], [-1.0]]), np.ones(2))
    assert state_halfwidth(box_constraints(2, 1, 10.0, 1.0)) == 10.0
    assert state_halfwidth(box_constraints(2, 1, [4.0, 7.5], 1.0)) == 7.5
    # x <= 1, y <= 2, x + y >= -3: the box is [-5, 1] x [-4, 2]
    tri = BoxlikeConstraints(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                             np.array([1.0, 2.0, 3.0]), *unit_u)
    assert abs(state_halfwidth(tri) - 5.0) <= 1e-9
    slab = BoxlikeConstraints(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2), *unit_u)
    with pytest.raises(ConfigurationError, match="do not bound"):
        state_halfwidth(slab)

def test_clip_problem_policy_shape():
    from smoothmpc.explicit import pi_mpc

    sys_, cost, cons = clip_problem()
    qp = build_condensed(sys_, cost, cons)
    assert abs(pi_mpc(qp, np.array([5.0]))[0] + 1.0) <= 1e-9
    assert abs(pi_mpc(qp, np.array([-5.0]))[0] - 1.0) <= 1e-9
    assert abs(pi_mpc(qp, np.array([0.2]))[0] + 2.0 * 0.2 / (1 + 1e-4)) <= 1e-9
