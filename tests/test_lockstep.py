"""Lockstep rollouts, dataset sampling and imitation error against the
one-start-at-a-time oracles of ``rollout_oracles``.

A policy evaluated as one-row stacks (``Rows.one_row_stacks``) gives each
row the bits it has alone, so there the lockstep engine must reproduce the
oracles bit for bit: the proposals drawn, the starts accepted and their
order, every state, input and Jacobian, the inf rows and each failure's
text. The piece table sends every product through gemm (its one product
rule), so a state's answer does not depend on its stack: the table, the
smoothed policy through it and the fragile table reproduce the oracles
bit for bit stacked too. The network's products have its hidden width as
inner dimension, whose gemm rounding does depend on the stack, so stacked
it agrees with its one-row values to rounding, with the same starts
accepted and the same failures. The barrier expert solves each stack in
one Newton, and the oracle one state at a time: the two agree to the
Newton tolerance.
"""

import numpy as np
import pytest

import smoothmpc.experiments
from smoothmpc.barrier import barrier_jacobian, make_barrier_problem, solve_barrier
from smoothmpc.core import build_condensed, double_integrator_problem
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import BarrierExpert, PolygonProjector, feasible_polygon
from smoothmpc.explicit import PieceTableEvaluator, discover_pieces, state_grid
from smoothmpc.mlp import MLPPolicy
from smoothmpc.simulate import _lockstep, imitation_error, sample_dataset
from smoothmpc.smoothing import RandomizedPolicy, SmoothingConfig
from rollout_oracles import (
    OneStateExpert,
    Rows,
    imitation_error_oracle,
    rollout_oracle,
    sample_dataset_oracle,
)
from systems import random_system, tolerance

N, K = 6, 8


class Fragile:
    """``base`` that raises InfeasibleError, naming the state, when some row
    has x_0 > edge, and gives NaN rows where x_1 > edge."""

    def __init__(self, base, edge):
        self.base = base
        self.edge = edge

    def eval_batch(self, X):
        X = np.atleast_2d(X)
        bad = np.flatnonzero(X[:, 0] > self.edge)
        if bad.size:
            raise InfeasibleError(f"x_0 = {X[bad[0], 0]!r} is past the edge")
        U = np.array(self.base.eval_batch(X), dtype=float)
        U[X[:, 1] > self.edge] = np.nan
        return U


def _case(name, sys_, qp, half, resolution, start):
    """Policies on one system: the table, its smoothing, a random network."""
    d = sys_.d_x
    table = PieceTableEvaluator(qp, discover_pieces(qp, state_grid([-half] * d, [half] * d,
                                                                   resolution)))
    projector = PolygonProjector(feasible_polygon(qp)) if d == 2 else None
    smoothed = RandomizedPolicy(table, SmoothingConfig(sigma=0.1 * half, n_samples=40, seed=3),
                                projector=projector)
    net = MLPPolicy.init(d, sys_.d_u, width=16, halfwidths=[half] * d, seed=1)
    return {"name": name, "sys": sys_, "qp": qp, "table": table, "smoothed": smoothed,
            "net": net, "sampler": lambda rng: rng.uniform(-start, start, size=d),
            "edge": 0.5 * start}


@pytest.fixture(scope="module")
def cases():
    s, c, k = double_integrator_problem()
    out = [_case("double integrator", s, build_condensed(s, c, k), 10.0, 41, 8.0)]
    rng = np.random.default_rng(11)
    found = {}
    while len(found) < 2:
        sys_, qp = random_system(rng)
        found.setdefault(sys_.d_x, (sys_, qp))
    for d in (2, 3):
        out.append(_case(f"random d_x={d}", *found[d], 2.0, 21 if d == 2 else 9, 1.5))
    return out


def _policies(case):
    """(label, stacked policy, its one-row-stack form)."""
    out = []
    for key in ("table", "smoothed", "net"):
        pol = case[key]
        out.append((key, pol, Rows.one_row_stacks(pol)))
    fragile = Fragile(case["table"], case["edge"])
    out.append(("fragile table", fragile, Rows.one_row_stacks(fragile)))
    return out


def _same_trajectory(a, b):
    return (np.array_equal(a.states, b.states) and np.array_equal(a.inputs, b.inputs)
            and a.completed == b.completed and a.failure == b.failure)


def test_lockstep_rows_are_one_start_rollouts(cases):
    failures = set()
    for case in cases:
        sys_ = case["sys"]
        X0 = np.random.default_rng(0).uniform(-1.0, 1.0, (12, sys_.d_x)) * 2.0 * case["edge"]
        for label, stacked, rows in _policies(case):
            oracle = [rollout_oracle(sys_, rows, x0, K) for x0 in X0]
            run = _lockstep(sys_, rows, X0, K)
            for i, ref in enumerate(oracle):
                assert _same_trajectory(run.trajectory(i), ref), (case["name"], label, i)
                failures.add(ref.failure and ref.failure.split(":")[0])
            run = _lockstep(sys_, stacked, X0, K)
            for i, ref in enumerate(oracle):
                got = run.trajectory(i)
                if label != "net":
                    assert _same_trajectory(got, ref), (case["name"], label, i)
                    continue
                assert (got.completed, got.failure) == (ref.completed, ref.failure)
                assert np.allclose(got.states, ref.states, rtol=1e-12, atol=1e-12)
    # each kind of failure ran: a raise inside a stack, a NaN row, a failed smoothing
    assert {"InfeasibleError", "policy has no input at this state (NaN)",
            "SmoothingFailureError"} <= failures


def _counted(sampler):
    drawn = []

    def draw(rng):
        drawn.append(sampler(rng))
        return drawn[-1]

    return draw, drawn


def test_sample_dataset_keeps_the_proposals_a_one_at_a_time_loop_keeps(cases):
    refilled = {}
    for case in cases:
        sys_ = case["sys"]
        for label, stacked, rows in _policies(case):
            ref, drawn_ref = sample_dataset_oracle(sys_, rows, case["sampler"], N, K, seed=5)
            for pol in (rows, stacked):
                draw, drawn = _counted(case["sampler"])
                ds = sample_dataset(sys_, pol, draw, N, K, seed=5)
                assert np.array_equal(np.array(drawn), np.array(drawn_ref)), (case["name"], label)
                assert np.array_equal(ds.states[:, 0], ref.states[:, 0])
                if pol is rows or label != "net":
                    assert np.array_equal(ds.states, ref.states), (case["name"], label)
                    assert np.array_equal(ds.inputs, ref.inputs), (case["name"], label)
                else:
                    assert np.allclose(ds.states, ref.states, rtol=1e-12, atol=1e-12)
                    assert np.allclose(ds.inputs, ref.inputs, rtol=1e-12, atol=1e-12)
            refilled[case["name"], label] = len(drawn_ref) - N
    # the refill path ran on every system
    assert all(refilled[case["name"], "fragile table"] > 0 for case in cases), refilled


def test_smoothed_dataset_jacobians_are_the_one_state_stencils(cases):
    for case in cases:
        sys_, smoothed = case["sys"], case["smoothed"]
        rows = Rows.one_row_stacks(smoothed)
        one = Rows(lambda x: smoothed.jacobian_batch(x[None, :])[0])
        ref, _ = sample_dataset_oracle(sys_, rows, case["sampler"], N, K, seed=2,
                                       jacobian_fn=one.eval_batch)
        ds = sample_dataset(sys_, rows, case["sampler"], N, K, seed=2, jacobian_fn=one.eval_batch)
        assert np.array_equal(ds.states, ref.states) and np.array_equal(ds.inputs, ref.inputs)
        assert np.array_equal(ds.jacobians, ref.jacobians), case["name"]
        ds = sample_dataset(sys_, smoothed, case["sampler"], N, K, seed=2,
                            jacobian_fn=smoothed.jacobian_batch)
        assert np.array_equal(ds.states, ref.states) and np.array_equal(ds.inputs, ref.inputs)
        assert np.array_equal(ds.jacobians, ref.jacobians), case["name"]


def test_barrier_dataset_matches_the_warm_chain_within_the_newton_tolerance(cases):
    for case in cases:
        sys_, qp = case["sys"], case["qp"]
        bp = make_barrier_problem(qp, 0.05)
        expert = BarrierExpert(bp)
        one = OneStateExpert(bp)
        ref, drawn_ref = sample_dataset_oracle(sys_, one, case["sampler"], N, K, seed=7,
                                               jacobian_fn=one.jacobian_batch)
        draw, drawn = _counted(case["sampler"])
        ds = sample_dataset(sys_, expert, draw, N, K, seed=7, jacobian_fn=expert.jacobian_batch)
        assert np.array_equal(np.array(drawn), np.array(drawn_ref)), case["name"]
        assert np.array_equal(ds.states[:, 0], ref.states[:, 0])
        assert np.allclose(ds.states, ref.states, rtol=1e-6, atol=1e-6)
        # every recorded row against a one-state solve at its own state
        for x, u, J in zip(ds.states.reshape(N * K, -1), ds.inputs.reshape(N * K, -1),
                           ds.jacobians.reshape(N * K, qp.d_u, -1)):
            sol = solve_barrier(bp, x)
            assert np.linalg.norm(u - sol.u_eta[: qp.d_u]) <= tolerance(qp, x, sol, sol)
            Jref = barrier_jacobian(bp, sol)[: qp.d_u]
            assert np.abs(J - Jref).max() <= 1e-6 * (1.0 + np.abs(Jref).max())


def test_sample_dataset_solves_each_recorded_state_once(monkeypatch):
    rng = np.random.default_rng(5)
    sys_, qp = random_system(rng)
    bp = make_barrier_problem(qp, 0.05)
    solved = []
    real = smoothmpc.experiments.solve_barrier_batch

    def counted(bp_, X):
        batch = real(bp_, X)
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


def test_imitation_error_matches_one_start_at_a_time(cases):
    for case in cases:
        sys_, net = case["sys"], case["net"]
        starts = np.random.default_rng(1).uniform(-1.0, 1.0, (10, sys_.d_x)) * 2.0 * case["edge"]
        learners = (Rows.one_row_stacks(net), Rows.one_row_stacks(Fragile(net, case["edge"])))
        for label, stacked, rows in _policies(case):
            for learner in learners:
                ref = imitation_error_oracle(sys_, rows, learner, starts, K)
                out = imitation_error(sys_, rows, learner, starts, K)
                assert np.array_equal(out["max_traj_error"], ref["max_traj_error"])
                assert out["sup_policy_error"] == ref["sup_policy_error"]
            ref = imitation_error_oracle(sys_, rows, learners[0], starts, K)
            if label != "net":
                # a table-backed expert stacked, against the net's one-row stacks
                out = imitation_error(sys_, stacked, learners[0], starts, K)
                assert np.array_equal(out["max_traj_error"], ref["max_traj_error"])
                assert out["sup_policy_error"] == ref["sup_policy_error"], (case["name"], label)
                continue
            out = imitation_error(sys_, stacked, net, starts, K)
            inf = np.isinf(ref["max_traj_error"])
            assert np.array_equal(np.isinf(out["max_traj_error"]), inf), (case["name"], label)
            assert np.allclose(out["max_traj_error"][~inf], ref["max_traj_error"][~inf],
                               rtol=1e-9, atol=1e-12)
            assert out["sup_policy_error"] == pytest.approx(ref["sup_policy_error"], rel=1e-9)


def test_imitation_error_of_the_barrier_expert(cases):
    case = cases[0]
    sys_, qp, net = case["sys"], case["qp"], case["net"]
    bp = make_barrier_problem(qp, 0.05)
    starts = np.random.default_rng(2).uniform(-8.0, 8.0, (10, 2))
    ref = imitation_error_oracle(sys_, OneStateExpert(bp), Rows.one_row_stacks(net), starts, K)
    out = imitation_error(sys_, BarrierExpert(bp), net, starts, K)
    inf = np.isinf(ref["max_traj_error"])
    assert inf.any() and not inf.all()
    assert np.array_equal(np.isinf(out["max_traj_error"]), inf)
    assert np.allclose(out["max_traj_error"][~inf], ref["max_traj_error"][~inf], rtol=1e-6)
    assert out["sup_policy_error"] == pytest.approx(ref["sup_policy_error"], rel=1e-6)
