"""One-start-at-a-time rollouts, dataset sampling and imitation error.

These are the loops the lockstep engine of ``smoothmpc.simulate``
replaced, kept as oracles: each start is rolled on its own, one state per
policy call, and a dataset draws, rolls and accepts one proposal at a
time. A policy is asked for one state as a one-row stack. ``Rows`` turns
a single-state function into a batch evaluator, and ``OneStateExpert``
is the barrier expert that solved one state at a time.
"""

import numpy as np

from smoothmpc.barrier import barrier_jacobian, solve_barrier
from smoothmpc.errors import InfeasibleError
from smoothmpc.simulate import (
    _POLICY_FAILURES,
    MAX_REJECTS,
    NAN_FAILURE,
    ImitationDataset,
    Trajectory,
)


class Rows:
    """A batch evaluator that calls ``f`` on each row of the stack in turn.

    With a single-state function it wraps a scalar policy; with a batch
    evaluator's one-row stacks (``Rows.one_row_stacks(policy)``) it gives
    every row the bits it has alone, whatever the stack.
    """

    def __init__(self, f):
        self.f = f

    @classmethod
    def one_row_stacks(cls, policy):
        return cls(lambda x: policy.eval_batch(x[None, :])[0])

    def eval_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([np.atleast_1d(np.asarray(self.f(x), dtype=float)) for x in X])


class OneStateExpert:
    """The barrier expert as one state at a time: each state is one cold
    ``solve_barrier``, and a call at the same state as the last, bit for
    bit, reuses its solution."""

    def __init__(self, bp):
        self.bp = bp
        self.last = None  # (state bytes, BarrierSolution)

    def solve(self, x):
        x = np.asarray(x, dtype=float)
        if self.last is None or self.last[0] != x.tobytes():
            self.last = (x.tobytes(), solve_barrier(self.bp, x))
        return self.last[1]

    def eval_batch(self, X):
        (x,) = np.atleast_2d(X)
        try:
            return self.solve(x).u_eta[None, : self.bp.qp.d_u]
        except InfeasibleError:
            return np.full((1, self.bp.qp.d_u), np.nan)

    def jacobian_batch(self, X):
        (x,) = np.atleast_2d(X)
        return barrier_jacobian(self.bp, self.solve(x))[None, : self.bp.qp.d_u]


def rollout_oracle(sys, policy, x0, K, jacobian_fn=None, jacobians=None):
    """x_{t+1} = A x_t + B u_t for K steps, one state per call; appends
    each state's Jacobian to ``jacobians`` when ``jacobian_fn`` is given."""
    x = np.asarray(x0, dtype=float)
    states, inputs = [x.copy()], []

    def stop(why):
        return Trajectory(states=np.array(states),
                          inputs=np.array(inputs).reshape(len(inputs), sys.d_u),
                          completed=False, failure=why)

    for _ in range(K):
        try:
            u = policy.eval_batch(x[None, :])[0]
            J = None if jacobian_fn is None else jacobian_fn(x[None, :])[0]
        except _POLICY_FAILURES as err:
            return stop(f"{type(err).__name__}: {err}")
        if np.isnan(u).any() or (J is not None and np.isnan(J).any()):
            return stop(NAN_FAILURE)
        if J is not None:
            jacobians.append(J)
        inputs.append(u)
        x = sys.step(x, u)
        states.append(x.copy())
    return Trajectory(states=np.array(states), inputs=np.array(inputs).reshape(K, sys.d_u))


def sample_dataset_oracle(sys, expert, sampler, N, K, seed, jacobian_fn=None):
    """Draw and roll one proposal at a time until each of the N slots
    holds a completed rollout; also returns every proposal drawn."""
    rng = np.random.default_rng(seed)
    states = np.zeros((N, K, sys.d_x))
    inputs = np.zeros((N, K, sys.d_u))
    jacs = None if jacobian_fn is None else np.zeros((N, K, sys.d_u, sys.d_x))
    drawn = []
    for i in range(N):
        for _ in range(MAX_REJECTS):
            cand = np.asarray(sampler(rng), dtype=float)
            drawn.append(cand)
            traj_jacs = []
            traj = rollout_oracle(sys, expert, cand, K, jacobian_fn, traj_jacs)
            if traj.completed:
                break
        else:
            raise RuntimeError("could not sample an initial state the expert completes")
        states[i], inputs[i] = traj.states[:K], traj.inputs
        if jacs is not None:
            jacs[i] = traj_jacs
    return ImitationDataset(states=states, inputs=inputs, jacobians=jacs), drawn


def imitation_error_oracle(sys, expert, learner, eval_states, K):
    """Per-start max state deviation (inf when truncated) and the sup policy
    distance along the expert trajectories, one start and one state at a time."""
    traj_errors = []
    sup_policy = 0.0
    for x0 in np.atleast_2d(np.asarray(eval_states, dtype=float)):
        ref = rollout_oracle(sys, expert, x0, K)
        hat = rollout_oracle(sys, learner, x0, K)
        steps = min(ref.states.shape[0], hat.states.shape[0])
        err = float(np.max(np.linalg.norm(ref.states[:steps] - hat.states[:steps], axis=1)))
        traj_errors.append(err if steps == K + 1 else float("inf"))
        for x, u in zip(ref.states, ref.inputs):
            try:
                du = float(np.linalg.norm(learner.eval_batch(x[None, :])[0] - u))
            except _POLICY_FAILURES:
                du = float("inf")
            sup_policy = max(sup_policy, du if du == du else float("inf"))
    return {"max_traj_error": np.array(traj_errors), "sup_policy_error": sup_policy}
