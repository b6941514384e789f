"""Closed-loop simulation, dataset generation, imitation and stability metrics."""

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


def rollout(sys: LinearSystem, policy, x0: np.ndarray, K: int) -> Trajectory:
    """Simulate x_{t+1} = A x_t + B policy(x_t) for K steps.

    A policy failure (infeasible state, stalled Newton, failed smoothing)
    truncates the trajectory; any other exception propagates.
    """
    x = np.asarray(x0, dtype=float)
    states = [x.copy()]
    inputs = []
    for _ in range(K):
        try:
            u = np.atleast_1d(np.asarray(policy(x), dtype=float))
        except _POLICY_FAILURES as err:
            return Trajectory(states=np.array(states),
                              inputs=np.array(inputs).reshape(len(inputs), sys.d_u),
                              completed=False, failure=f"{type(err).__name__}: {err}")
        inputs.append(u)
        x = sys.step(x, u)
        states.append(x.copy())
    return Trajectory(states=np.array(states), inputs=np.array(inputs))


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
    """Roll the expert from N i.i.d. initial states for K steps.

    ``sampler(rng)`` proposes initial states; proposals where the expert
    fails to complete the K-step rollout are rejected, so every recorded
    state is one the expert handled. When ``jacobian_fn`` is given it is
    called at each state right after the expert, so an expert that keeps
    its last solution serves both from one solve. Deterministic given
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    d_x = sys.d_x
    states = np.zeros((N, K, d_x))
    inputs = None
    jacs = None
    for i in range(N):
        traj = None
        for _ in range(MAX_REJECTS):
            cand = np.asarray(sampler(rng), dtype=float)
            traj_jacs = []

            def policy(x):
                u = expert(x)
                if jacobian_fn is not None:
                    traj_jacs.append(jacobian_fn(x))
                return u

            attempt = rollout(sys, policy, cand, K)
            if attempt.completed:
                traj = attempt
                break
        if traj is None:
            raise RuntimeError("could not sample an initial state the expert completes")
        states[i] = traj.states[:K]
        if inputs is None:
            inputs = np.zeros((N, K, traj.inputs.shape[1]))
            if jacobian_fn is not None:
                jacs = np.zeros((N, K, traj.inputs.shape[1], d_x))
        inputs[i] = traj.inputs
        if jacobian_fn is not None:
            for t, J in enumerate(traj_jacs):
                jacs[i, t] = J
    if N == 0:
        inputs = np.zeros((0, K, 1))
    return ImitationDataset(states=states, inputs=inputs, jacobians=jacs)


def imitation_error(sys: LinearSystem, expert, learner, eval_states: np.ndarray,
                    K: int) -> dict:
    """Per-start trajectory deviation and sup distance between two policies.

    Rolls both policies from each start; reports max-over-time state error
    per start plus the sup policy distance along the expert trajectories.
    """
    eval_states = np.atleast_2d(np.asarray(eval_states, dtype=float))
    traj_errors = []
    sup_policy = 0.0
    for x0 in eval_states:
        ref = rollout(sys, expert, x0, K)
        hat = rollout(sys, learner, x0, K)
        steps = min(ref.states.shape[0], hat.states.shape[0])
        err = float(np.max(np.linalg.norm(ref.states[:steps] - hat.states[:steps], axis=1)))
        if steps < K + 1:
            err = max(err, float("inf"))  # truncated rollout counts as failure
        traj_errors.append(err)
        for t in range(ref.inputs.shape[0]):
            x = ref.states[t]
            try:
                du = np.linalg.norm(np.atleast_1d(learner(x)) - ref.inputs[t])
            except _POLICY_FAILURES:
                du = float("inf")
            sup_policy = max(sup_policy, float(du))
    return {"max_traj_error": np.array(traj_errors), "sup_policy_error": sup_policy}


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
