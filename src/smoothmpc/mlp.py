"""Dense GELU network trained by hand-rolled backprop and AdamW.

Four weight layers with GELU on the hidden activations, inputs normalized
by configurable half-widths. The loss is mean squared control error plus
an optional Jacobian-matching term; its gradient is assembled manually,
including the second-derivative (gelu'') paths introduced by the
Jacobian penalty. AdamW applies decoupled weight decay, so with zero data
gradient every parameter contracts by exactly (1 - lr * wd) per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import TrainingDivergedError
from .simulate import ImitationDataset

__all__ = ["MLPPolicy", "TrainConfig", "AdamW", "train_imitator", "gelu", "gelu_prime", "gelu_second"]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(z):
    return 0.5 * z * (1.0 + erf(z / _SQRT2))


def _pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def gelu_prime(z):
    return 0.5 * (1.0 + erf(z / _SQRT2)) + z * _pdf(z)


def gelu_second(z):
    return _pdf(z) * (2.0 - z * z)


class MLPPolicy:
    """Control policy net: x -> scale -> [dense+GELU]x3 -> dense -> u."""

    def __init__(self, weights, biases, halfwidths):
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.halfwidths = np.asarray(halfwidths, dtype=float)
        self.n_layers = len(self.weights)

    @classmethod
    def init(cls, d_x: int, d_u: int, width: int = 64, n_layers: int = 4,
             halfwidths=None, seed: int = 0) -> "MLPPolicy":
        rng = np.random.default_rng(seed)
        dims = [d_x] + [width] * (n_layers - 1) + [d_u]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        weights[-1] *= 0.1  # small head keeps the initial policy near zero
        if halfwidths is None:
            halfwidths = np.ones(d_x)
        return cls(weights, biases, halfwidths)

    # --- flat parameter vector -------------------------------------------------
    @property
    def flat_params(self) -> np.ndarray:
        return np.concatenate([W.ravel() for W in self.weights]
                              + [b.ravel() for b in self.biases])

    @flat_params.setter
    def flat_params(self, vec: np.ndarray):
        vec = np.asarray(vec, dtype=float)
        pos = 0
        for W in self.weights:
            W[...] = vec[pos:pos + W.size].reshape(W.shape)
            pos += W.size
        for b in self.biases:
            b[...] = vec[pos:pos + b.size]
            pos += b.size
        if pos != vec.size:
            raise ValueError("flat parameter vector has the wrong length")

    # --- evaluation --------------------------------------------------------------
    def _forward(self, X: np.ndarray):
        A = X / self.halfwidths
        acts = [A]
        zs = []
        for l in range(self.n_layers):
            Z = A @ self.weights[l].T + self.biases[l]
            zs.append(Z)
            A = gelu(Z) if l < self.n_layers - 1 else Z
            acts.append(A)
        return zs, acts

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._forward(X)[1][-1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact network Jacobians d u / d x, shape (B, d_u, d_x)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        zs, _ = self._forward(X)
        B = X.shape[0]
        d_x = X.shape[1]
        M = np.broadcast_to(np.diag(1.0 / self.halfwidths), (B, d_x, d_x)).copy()
        for l in range(self.n_layers - 1):
            M = np.einsum("ij,bjk->bik", self.weights[l], M)
            M *= gelu_prime(zs[l])[:, :, None]
        return np.einsum("ij,bjk->bik", self.weights[-1], M)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.jacobian_batch(np.asarray(x, dtype=float)[None, :])[0]

    # --- loss and gradient ---------------------------------------------------
    def loss_and_grads(self, X: np.ndarray, U: np.ndarray,
                       J_target: np.ndarray | None = None,
                       lambda_jac: float = 0.0):
        """Mean squared control error (+ lambda_jac * Jacobian mismatch).

        Returns (loss, grad weights list, grad biases list). The Jacobian
        term differentiates through the activation derivatives, adding
        gelu'' paths to every hidden layer.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        B = X.shape[0]
        L = self.n_layers
        zs, acts = self._forward(X)
        Y = acts[-1]
        diff = Y - U
        loss = float(np.sum(diff ** 2) / B)

        dW = [np.zeros_like(W) for W in self.weights]
        db = [np.zeros_like(b) for b in self.biases]
        inject = [None] * L  # extra pre-activation gradients from the Jacobian term

        if lambda_jac > 0.0 and J_target is not None:
            Dp = [gelu_prime(zs[l]) for l in range(L - 1)]
            d_x = X.shape[1]
            Ms = [np.broadcast_to(np.diag(1.0 / self.halfwidths), (B, d_x, d_x)).copy()]
            for l in range(L - 1):
                Q = np.einsum("ij,bjk->bik", self.weights[l], Ms[l])
                Ms.append(Q * Dp[l][:, :, None])
            J = np.einsum("ij,bjk->bik", self.weights[-1], Ms[L - 1])
            E = 2.0 * lambda_jac * (J - J_target) / B
            loss += float(lambda_jac * np.sum((J - J_target) ** 2) / B)
            dW[L - 1] += np.einsum("bck,bjk->cj", E, Ms[L - 1])
            P = np.broadcast_to(self.weights[-1], (B,) + self.weights[-1].shape)
            for l in range(L - 2, -1, -1):
                Q = np.einsum("ij,bjk->bik", self.weights[l], Ms[l])
                PD = P * Dp[l][:, None, :]
                dW[l] += np.einsum("bci,bck,bjk->ij", PD, E, Ms[l])
                inject[l] = gelu_second(zs[l]) * np.einsum("bci,bck,bik->bi", P, E, Q)
                P = np.einsum("bci,ij->bcj", PD, self.weights[l])

        delta = 2.0 * diff / B
        for l in range(L - 1, -1, -1):
            dW[l] += delta.T @ acts[l]
            db[l] += delta.sum(axis=0)
            if l > 0:
                delta = (delta @ self.weights[l]) * gelu_prime(zs[l - 1])
                if inject[l - 1] is not None:
                    delta = delta + inject[l - 1]
        return loss, dW, db


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for imitation training."""

    learning_rate: float = 3e-4
    weight_decay: float = 1e-3
    steps: int = 2000
    batch_size: int = 128
    seed: int = 0
    lambda_jac: float = 0.0
    val_fraction: float = 0.1
    width: int = 64

    def __post_init__(self):
        if min(self.learning_rate, self.weight_decay) < 0 or self.steps < 0:
            raise ValueError("hyperparameters must be nonnegative")
        if self.batch_size < 1 or self.width < 1:
            raise ValueError("batch size and width must be positive")


class AdamW:
    """Adam with decoupled weight decay on a list of parameter arrays."""

    def __init__(self, params, lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p -= self.lr * self.wd * p


def train_imitator(ds: ImitationDataset, cfg: TrainConfig,
                   halfwidths=None) -> tuple:
    """Fit the policy net to expert demonstrations.

    Returns (policy, curves) where curves holds per-step training loss and
    periodic validation loss. Raises TrainingDivergedError on a non-finite
    loss. steps = 0 returns the freshly initialized network.
    """
    X, U, J = ds.flat()
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    policy = MLPPolicy.init(X.shape[1], U.shape[1], width=cfg.width,
                            halfwidths=halfwidths, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    perm = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        train_idx = perm
    params = policy.weights + policy.biases
    opt = AdamW(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    train_curve, val_curve = [], []
    order = rng.permutation(train_idx)
    pos = 0
    for step in range(cfg.steps):
        if pos + cfg.batch_size > order.size:
            order = rng.permutation(train_idx)
            pos = 0
        batch = order[pos:pos + cfg.batch_size]
        pos += cfg.batch_size
        Jb = None if J is None else J[batch]
        loss, dW, db = policy.loss_and_grads(X[batch], U[batch], Jb, cfg.lambda_jac)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"loss became {loss} at step {step}")
        opt.step(dW + db)
        train_curve.append(loss)
        if val_idx.size and (step % 50 == 0 or step == cfg.steps - 1):
            vloss = float(np.sum((policy.eval_batch(X[val_idx]) - U[val_idx]) ** 2) / val_idx.size)
            val_curve.append((step, vloss))
    curves = {"train": np.array(train_curve), "val": np.array(val_curve)}
    return policy, curves
