"""Closed-loop simulation, dataset generation, imitation and stability metrics.

Rollouts step in lockstep: a (B, d_x) stack of starts goes through the
closed loop together, one policy call per step for every start still
running. A policy is a batch evaluator, ``policy.eval_batch(X)`` giving
one input row per state and NaN where it has none; a NaN row ends its
trajectory. A single rollout is the one-row stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LinearSystem
from .errors import InfeasibleError, NewtonConvergenceError, SmoothingFailureError

__all__ = [
    "Trajectory",
    "rollout",
    "ImitationDataset",
    "sample_dataset",
    "imitation_error",
    "iss_gain",
]

# What a policy raises at a state it cannot handle; anything else is a bug
# and propagates.
_POLICY_FAILURES = (InfeasibleError, NewtonConvergenceError, SmoothingFailureError)
MAX_REJECTS = 10_000
NAN_FAILURE = "policy has no input at this state (NaN)"


@dataclass(frozen=True)
class Trajectory:
    """States x_0..x_K and inputs u_0..u_{K-1} of one closed-loop run.

    ``completed`` is False when the policy failed mid-rollout; ``failure``
    then carries the diagnostic and the arrays are truncated.
    """

    states: np.ndarray
    inputs: np.ndarray
    completed: bool = True
    failure: str | None = None

    @property
    def K(self) -> int:
        return self.inputs.shape[0]


def _evaluate(fns, widths, X: np.ndarray) -> tuple:
    """The values of the batch functions ``fns`` at the rows of X, each
    flattened to (B, width), and why each row has none (None where it has
    all of them): a NaN value, or the policy failure it raised.

    When the stack raises one of ``_POLICY_FAILURES``, every row is
    evaluated again as a one-row stack to find the rows that fail; any
    other exception propagates.
    """

    def rows(X):
        return [np.asarray(fn(X), dtype=float).reshape(X.shape[0], w)
                for fn, w in zip(fns, widths)]

    B = X.shape[0]
    failures = [None] * B
    try:
        vals = rows(X)
    except _POLICY_FAILURES:
        vals = [np.full((B, w), np.nan) for w in widths]
        for i in range(B):
            try:
                for v, row in zip(vals, rows(X[i:i + 1])):
                    v[i] = row[0]
            except _POLICY_FAILURES as err:
                failures[i] = f"{type(err).__name__}: {err}"
    for i in np.flatnonzero(np.isnan(np.hstack(vals)).any(axis=1)):
        failures[i] = failures[i] or NAN_FAILURE
    return vals, failures


@dataclass(frozen=True)
class _Lockstep:
    """B closed-loop runs stepped together, padded with NaN past each end.

    states: (B, K + 1, d_x); inputs: (B, K, d_u); jacobians: (B, K, d_u,
    d_x) or None; steps[i] is the number of inputs of run i, and
    failures[i] why it stopped early (None when it completed).
    """

    states: np.ndarray
    inputs: np.ndarray
    jacobians: np.ndarray | None
    steps: np.ndarray
    failures: list

    def trajectory(self, i: int) -> Trajectory:
        k = int(self.steps[i])
        return Trajectory(states=self.states[i, : k + 1], inputs=self.inputs[i, :k],
                          completed=self.failures[i] is None, failure=self.failures[i])


def _lockstep(sys: LinearSystem, policy, X0: np.ndarray, K: int, jacobian_fn=None) -> _Lockstep:
    """Simulate x_{t+1} = A x_t + B u_t from every row of X0 for K steps,
    with u_t one ``policy.eval_batch`` call over the runs still going (and
    one ``jacobian_fn`` call when given). A run stops at the first state
    where ``_evaluate`` finds no input. A run is the one-start run bit for
    bit when the policy is backed by the piece table (the table, its
    smoothing), whose answers do not depend on the stack; the barrier
    expert solves each stack in one Newton, so its runs agree with
    one-start runs within the Newton tolerance."""
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    B = X0.shape[0]
    fns, widths = [policy.eval_batch], [sys.d_u]
    if jacobian_fn is not None:
        fns.append(jacobian_fn)
        widths.append(sys.d_u * sys.d_x)
    states = np.full((B, K + 1, sys.d_x), np.nan)
    states[:, 0] = X0
    values = [np.full((B, K, w), np.nan) for w in widths]  # inputs, flat Jacobians
    steps = np.full(B, K)
    failures = [None] * B
    live = np.arange(B)
    for t in range(K):
        if not live.size:
            break
        X = states[live, t]
        vals, why = _evaluate(fns, widths, X)
        ok = np.array([w is None for w in why], dtype=bool)
        for j in np.flatnonzero(~ok):
            steps[live[j]], failures[live[j]] = t, why[j]
        live, X = live[ok], X[ok]
        for out, v in zip(values, vals):
            out[live, t] = v[ok]
        states[live, t + 1] = sys.step(X, vals[0][ok])
    jacs = None if jacobian_fn is None else values[1].reshape(B, K, sys.d_u, sys.d_x)
    return _Lockstep(states=states, inputs=values[0], jacobians=jacs, steps=steps,
                     failures=failures)


def rollout(sys: LinearSystem, policy, x0: np.ndarray, K: int) -> Trajectory:
    """Simulate x_{t+1} = A x_t + B u_t for K steps, u_t from ``policy.eval_batch``.

    The one-row stack of the lockstep rollouts. A policy failure
    (infeasible state, stalled Newton, failed smoothing) or a NaN input
    truncates the trajectory; any other exception propagates.
    """
    return _lockstep(sys, policy, np.asarray(x0, dtype=float)[None, :], K).trajectory(0)


@dataclass(frozen=True)
class ImitationDataset:
    """Expert demonstrations: N trajectories of K states with expert inputs.

    states: (N, K, d_x); inputs: (N, K, d_u); jacobians: (N, K, d_u, d_x)
    or None.
    """

    states: np.ndarray
    inputs: np.ndarray
    jacobians: np.ndarray | None = None

    @property
    def N(self) -> int:
        return self.states.shape[0]

    @property
    def K(self) -> int:
        return self.states.shape[1]

    def flat(self):
        N, K, d_x = self.states.shape
        X = self.states.reshape(N * K, d_x)
        U = self.inputs.reshape(N * K, -1)
        J = None if self.jacobians is None else self.jacobians.reshape(N * K, U.shape[1], d_x)
        return X, U, J

    def to_csv(self, path) -> None:
        """One row per (trajectory, step): state, expert input, Jacobian."""
        import csv

        N, K, d_x = self.states.shape
        d_u = self.inputs.shape[2]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            cols = (["traj", "step"] + [f"x{j}" for j in range(d_x)]
                    + [f"u{j}" for j in range(d_u)])
            if self.jacobians is not None:
                cols += [f"J{i}{j}" for i in range(d_u) for j in range(d_x)]
            writer.writerow(cols)
            for i in range(N):
                for t in range(K):
                    row = [i, t] + [f"{v:.12g}" for v in self.states[i, t]] \
                        + [f"{v:.12g}" for v in self.inputs[i, t]]
                    if self.jacobians is not None:
                        row += [f"{v:.12g}" for v in self.jacobians[i, t].ravel()]
                    writer.writerow(row)


def sample_dataset(sys: LinearSystem, expert, sampler, N: int, K: int, seed: int,
                   jacobian_fn=None) -> ImitationDataset:
    """Roll the expert from N i.i.d. initial states for K steps, in lockstep.

    ``sampler(rng)`` proposes initial states; proposals where the expert
    fails to complete the K-step rollout are rejected, so every recorded
    state is one the expert handled. N proposals are drawn and rolled as
    one stack; when some fail, as many more are drawn and rolled, until N
    complete. The first N that complete, in draw order, are kept: the
    proposals a one-at-a-time loop would keep. MAX_REJECTS failures in a
    row raise. ``jacobian_fn(X)``, a batch function of
    shape (B, d_u, d_x), is called on each step's stack right after the
    expert, so an expert that keeps its last stack serves both from one
    solve. When it is given, a start whose label fails (NaN or a policy
    failure) is rejected too; without it, only the expert's inputs
    decide, and ``jacobians`` is None. Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    states = np.zeros((N, K, sys.d_x))
    inputs = np.zeros((N, K, sys.d_u))
    jacs = None if jacobian_fn is None else np.zeros((N, K, sys.d_u, sys.d_x))
    filled = rejects = 0
    while filled < N:
        cands = np.array([np.asarray(sampler(rng), dtype=float) for _ in range(N - filled)])
        run = _lockstep(sys, expert, cands, K, jacobian_fn)
        keep = []
        for i, why in enumerate(run.failures):
            if why is None:
                keep.append(i)
                rejects = 0
                continue
            rejects += 1
            if rejects == MAX_REJECTS:
                raise RuntimeError("could not sample an initial state the expert completes")
        got = slice(filled, filled + len(keep))
        states[got] = run.states[keep, :K]
        inputs[got] = run.inputs[keep]
        if jacs is not None:
            jacs[got] = run.jacobians[keep]
        filled += len(keep)
    return ImitationDataset(states=states, inputs=inputs, jacobians=jacs)


def imitation_error(sys: LinearSystem, expert, learner, eval_states: np.ndarray,
                    K: int) -> dict:
    """Per-start trajectory deviation and sup distance between two policies.

    Rolls both policies from all starts in lockstep; reports max-over-time
    state error per start (inf where either rollout is truncated) plus the
    sup policy distance along the expert trajectories, from one learner
    call over all their states (inf at a state the learner fails at).
    """
    eval_states = np.atleast_2d(np.asarray(eval_states, dtype=float))
    ref = _lockstep(sys, expert, eval_states, K)
    hat = _lockstep(sys, learner, eval_states, K)
    traj_errors = np.linalg.norm(ref.states - hat.states, axis=2).max(axis=1)
    traj_errors[np.minimum(ref.steps, hat.steps) < K] = np.inf  # truncated counts as failure
    along = np.arange(K)[None, :] < ref.steps[:, None]
    X, U_ref = ref.states[:, :K][along], ref.inputs[along]
    sup_policy = 0.0
    if X.shape[0]:
        (U,), failures = _evaluate([learner.eval_batch], [sys.d_u], X)
        du = np.linalg.norm(U - U_ref, axis=1)
        du[[why is not None for why in failures]] = np.inf
        sup_policy = float(du.max())
    return {"max_traj_error": traj_errors, "sup_policy_error": sup_policy}


def iss_gain(epsilon: float, L: float, normA: float, normB: float,
             Binv_eval, gamma_inv_eval) -> float:
    """Disturbance gain v(eps) under which trajectories stay eps-close.

    v(eps) = min( gamma^{-1}(eps/2),
                  eps * (1 + ||A|| + (1 + L) ||B||)^(-B^{-1}(eps/4)) ),
    where gamma is the stability gain of the controller and B^{-1} the
    settling-time function; both are supplied as evaluators.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = 1.0 + normA + (1.0 + L) * normB
    return float(min(gamma_inv_eval(epsilon / 2.0),
                     epsilon * base ** (-float(Binv_eval(epsilon / 4.0)))))
