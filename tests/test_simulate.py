"""Rollouts, dataset sampling, imitation metrics, and the stability gain."""

import numpy as np
import pytest

from smoothmpc.core import build_condensed, double_integrator_problem
from smoothmpc.errors import InfeasibleError
from smoothmpc.explicit import pi_mpc
from smoothmpc.simulate import imitation_error, iss_gain, rollout, sample_dataset
from rollout_oracles import Rows


@pytest.fixture(scope="module")
def di():
    sys_, cost, cons = double_integrator_problem()
    return sys_, build_condensed(sys_, cost, cons)


def test_rollout_replays_dynamics(di):
    sys_, qp = di
    traj = rollout(sys_, Rows(lambda x: pi_mpc(qp, x)), np.array([3.0, -1.0]), 15)
    assert traj.completed
    for t in range(traj.K):
        assert np.allclose(traj.states[t + 1], sys_.step(traj.states[t], traj.inputs[t]))


def test_rollout_origin_stays_at_origin(di):
    sys_, qp = di
    traj = rollout(sys_, Rows(lambda x: pi_mpc(qp, x)), np.zeros(2), 10)
    assert np.abs(traj.states).max() <= 1e-9


def test_rollout_stabilizes_double_integrator(di):
    sys_, qp = di
    # the originally described start (8, 2) is infeasible; use its feasible mirror
    traj = rollout(sys_, Rows(lambda x: pi_mpc(qp, x)), np.array([8.0, -2.0]), 50)
    assert traj.completed
    assert np.linalg.norm(traj.states[-1]) <= 0.1


def test_rollout_barrier_policies_stabilize(di):
    from smoothmpc.barrier import make_barrier_problem
    from smoothmpc.core import feasible_radii
    from smoothmpc.experiments import BarrierExpert

    sys_, qp = di
    R = feasible_radii(qp, np.zeros(2)).R
    for eta in (1e-2, 1.0, 100.0):
        bp = make_barrier_problem(qp, eta, outer_radius=R)
        traj = rollout(sys_, BarrierExpert(bp), np.array([8.0, -2.0]), 50)
        assert traj.completed, traj.failure
        assert np.linalg.norm(traj.states[-1]) <= 0.1


def test_rollout_truncates_on_failure(di):
    sys_, qp = di

    def fragile(x):
        if x[0] > 2.0:
            raise InfeasibleError("boom")
        return np.zeros(1)

    traj = rollout(sys_, Rows(fragile), np.array([1.0, 1.0]), 10)
    assert not traj.completed and "boom" in traj.failure
    assert traj.states.shape[0] == traj.inputs.shape[0] + 1
    # a failure at the first state leaves no inputs
    traj = rollout(sys_, Rows(fragile), np.array([3.0, 1.0]), 10)
    assert not traj.completed
    assert traj.states.shape == (1, 2) and traj.inputs.shape == (0, 1)


def test_rollout_propagates_a_policy_bug(di):
    sys_, qp = di

    def buggy(x):
        if x[0] > 2.0:
            raise TypeError("not a policy failure")
        return np.zeros(1)

    with pytest.raises(TypeError, match="not a policy failure"):
        rollout(sys_, Rows(buggy), np.array([1.0, 1.0]), 10)


def test_sample_dataset_shapes_and_determinism(di):
    sys_, qp = di

    def sampler(rng):
        return rng.uniform(-4, 4, size=2)

    expert = Rows(lambda x: pi_mpc(qp, x))
    ds1 = sample_dataset(sys_, expert, sampler, N=5, K=8, seed=42)
    ds2 = sample_dataset(sys_, expert, sampler, N=5, K=8, seed=42)
    assert ds1.states.shape == (5, 8, 2) and ds1.inputs.shape == (5, 8, 1)
    assert np.array_equal(ds1.states, ds2.states)
    assert np.array_equal(ds1.inputs, ds2.inputs)
    # 400 pairs at the benchmark sizes
    ds = sample_dataset(sys_, expert, sampler, N=20, K=20, seed=0)
    X, U, _ = ds.flat()
    assert X.shape == (400, 2) and U.shape == (400, 1)


def test_sample_dataset_empty(di):
    sys_, qp = di
    ds = sample_dataset(sys_, Rows(lambda x: pi_mpc(qp, x)), lambda rng: np.zeros(2), N=0, K=5,
                        seed=0)
    assert ds.N == 0


def test_imitation_error_identical_policies(di):
    sys_, qp = di
    pol = Rows(lambda x: pi_mpc(qp, x))
    out = imitation_error(sys_, pol, pol, np.array([[2.0, 0.5], [-3.0, 1.0]]), K=10)
    assert np.abs(out["max_traj_error"]).max() <= 1e-12
    assert out["sup_policy_error"] <= 1e-12


def test_imitation_error_perturbed_policy(di):
    sys_, qp = di
    expert = Rows(lambda x: pi_mpc(qp, x))
    shifted = Rows(lambda x: pi_mpc(qp, x) + 0.05)
    out = imitation_error(sys_, expert, shifted, np.array([[2.0, 0.5]]), K=10)
    assert out["max_traj_error"][0] > 0.05  # deviation accumulates through the loop
    assert out["sup_policy_error"] >= 0.05 - 1e-9


def test_iss_gain_structure():
    gamma_inv = lambda s: 10.0 * s
    binv = lambda s: 3.0
    # huge gamma_inv: second branch dominates
    v = iss_gain(1.0, L=2.0, normA=1.0, normB=1.0, Binv_eval=binv,
                 gamma_inv_eval=lambda s: 1e9)
    assert v == pytest.approx(1.0 * (1 + 1 + 3 * 1) ** -3.0)
    # zero system norms: v = min(gamma_inv(eps/2), eps)
    v2 = iss_gain(1.0, L=0.0, normA=0.0, normB=0.0, Binv_eval=binv, gamma_inv_eval=gamma_inv)
    assert v2 == pytest.approx(min(5.0, 1.0))
    # doubling eps at fixed B^-1 at least doubles the second branch
    f = lambda e: e * (1 + 1 + 3) ** -3.0
    assert f(2.0) == pytest.approx(2 * f(1.0))
    # class-K sanity: nondecreasing on a grid
    vals = [iss_gain(e, 2.0, 1.0, 1.0, binv, gamma_inv) for e in np.linspace(0.1, 5, 30)]
    assert np.all(np.diff(vals) >= -1e-12)
