"""Warm-started barrier solves on random systems, and solve-once dataset sampling."""

import numpy as np
import pytest

import smoothmpc.experiments
from smoothmpc.barrier import GRAD_TOL_FACTOR, barrier_jacobian, make_barrier_problem, solve_barrier
from smoothmpc.core import BoxlikeConstraints, LinearSystem, StageCost, build_condensed
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import BarrierExpert
from smoothmpc.simulate import sample_dataset
from test_bounds import random_bounded_polytope


def random_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + 0.1 * np.eye(n)


def random_system(rng):
    """Random dynamics, weights and horizon; state and input polytopes are
    unit-scale boxes plus random extra rows."""
    d_x, d_u, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 6))
    sys_ = LinearSystem(A=rng.standard_normal((d_x, d_x)) / np.sqrt(d_x),
                        B=rng.standard_normal((d_x, d_u)))
    cost = StageCost(Q=random_spd(rng, d_x), R=random_spd(rng, d_u), horizon=T)
    A_x, b_x = random_bounded_polytope(rng, d_x, int(rng.integers(0, 3)))
    A_u, b_u = random_bounded_polytope(rng, d_u, int(rng.integers(0, 3)))
    cons = BoxlikeConstraints(A_x=A_x, b_x=b_x, A_u=A_u, b_u=b_u)
    return sys_, build_condensed(sys_, cost, cons)


def cold_state(rng, bp):
    """A state where u = 0 is infeasible but the barrier problem is solvable,
    so ``solve_barrier`` takes the Chebyshev (cold) start; None if the ray
    drawn leaves the feasible set first."""
    qp = bp.qp
    active = np.linalg.norm(qp.G, axis=1) > 0
    direction = rng.standard_normal(qp.d_x)
    direction /= np.linalg.norm(direction)
    for scale in np.geomspace(0.05, 5.0, 25):
        x0 = scale * direction
        if qp.bounds_rhs(x0)[active].min() < 0:
            try:
                return x0, solve_barrier(bp, x0)
            except InfeasibleError:
                return None
    return None


def tolerance(qp, x0, *sols):
    # V_eta is alpha1-strongly convex (the barrier term is convex), so
    # ||u - u*|| <= ||grad V_eta(u)|| / alpha1 for each solution
    tol = GRAD_TOL_FACTOR * (1.0 + float(np.linalg.norm(qp.F.T @ x0)))
    return sum(max(s.grad_norm, tol) for s in sols) / qp.alpha1


def random_cases(seed, count):
    rng = np.random.default_rng(seed)
    cases = 0
    while cases < count:
        sys_, qp = random_system(rng)
        bp = make_barrier_problem(qp, float(10.0 ** rng.uniform(-3, 0)))
        found = cold_state(rng, bp)
        if found is None:
            continue
        cases += 1
        yield rng, bp, *found


def test_warm_start_matches_cold_solve():
    for rng, bp, x0, cold in random_cases(seed=3, count=25):
        qp = bp.qp
        # warm starts from a nearby state and from another eta at x0
        near = x0 + 1e-2 * rng.standard_normal(qp.d_x)
        starts = [solve_barrier(make_barrier_problem(qp, 3.0 * bp.eta, outer_radius=1.0), x0)]
        try:
            starts.append(solve_barrier(bp, near))
        except InfeasibleError:
            pass
        for start in starts:
            warm = solve_barrier(bp, x0, warm=start.u_eta)
            assert np.all(warm.phi > 0)
            err = float(np.linalg.norm(warm.u_eta - cold.u_eta))
            assert err <= tolerance(qp, x0, warm, cold), (err, tolerance(qp, x0, warm, cold))


def test_infeasible_warm_start_falls_back_to_cold_path():
    for rng, bp, x0, cold in random_cases(seed=4, count=15):
        qp = bp.qp
        bad = 10.0 * (1.0 + np.abs(qp.bounds_rhs(x0)).max()) * rng.standard_normal(qp.n)
        assert np.min(qp.bounds_rhs(x0) - qp.G @ bad) <= 0
        again = solve_barrier(bp, x0, warm=bad)
        assert np.array_equal(again.u_eta, cold.u_eta)
        assert again.newton_iters == cold.newton_iters


def test_sample_dataset_solves_each_recorded_state_once(monkeypatch):
    rng = np.random.default_rng(5)
    sys_, qp = random_system(rng)
    bp = make_barrier_problem(qp, 0.05)
    solved = []
    real = smoothmpc.experiments.solve_barrier_batch

    def counted(bp_, X, warm=None):
        batch = real(bp_, X, warm=warm)
        solved.extend(x.tobytes() for x in np.asarray(X, dtype=float))
        return batch

    monkeypatch.setattr(smoothmpc.experiments, "solve_barrier_batch", counted)
    expert = BarrierExpert(bp)
    N, K = 4, 6
    ds = sample_dataset(sys_, expert, lambda r: r.uniform(-0.3, 0.3, size=qp.d_x),
                        N=N, K=K, seed=0, jacobian_fn=expert.jacobian_batch)
    assert len(solved) == N * K  # stacked rows; a rejected proposal's rows would count too
    assert sorted(solved) == sorted(x.tobytes() for x in ds.states.reshape(N * K, -1))
    for x, J in zip(ds.states.reshape(N * K, -1), ds.jacobians.reshape(N * K, qp.d_u, -1)):
        ref = barrier_jacobian(bp, solve_barrier(bp, x))[: qp.d_u]
        assert np.abs(J - ref).max() <= 1e-6 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("eta", [1e-3, 1.0])
def test_solve_at_origin_takes_no_newton_step(eta):
    rng = np.random.default_rng(6)
    _, qp = random_system(rng)
    sol = solve_barrier(make_barrier_problem(qp, eta, outer_radius=1.0), np.zeros(qp.d_x))
    assert sol.newton_iters == 0 and not sol.u_eta.any()
