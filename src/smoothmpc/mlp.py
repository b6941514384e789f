"""Dense GELU network trained by hand-rolled backprop and AdamW.

Four weight layers with GELU on the hidden activations, inputs normalized
by configurable half-widths. One flat vector, ``MLPPolicy.params``, holds
every weight and bias: the layers are views of it, and the gradient and
AdamW's moments share its layout. The forward pass keeps Phi(z), so GELU
z Phi(z) and its slope Phi(z) + z pdf(z) cost one erf. The loss is mean
squared control error plus an optional Jacobian-matching term (TaSIL),
differentiated back through the chain of input Jacobians that
``jacobian_batch`` builds. AdamW applies decoupled weight decay, so with
zero data gradient every parameter contracts by exactly (1 - lr * wd).
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
# AdamW's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _cdf(z):
    return 0.5 * (1.0 + erf(z / _SQRT2))


def _pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def gelu(z):
    return z * _cdf(z)


def gelu_prime(z):
    return _cdf(z) + z * _pdf(z)


def gelu_second(z):
    return _pdf(z) * (2.0 - z * z)


class MLPPolicy:
    """Control policy net: x -> scale -> [dense+GELU]x3 -> dense -> u."""

    def __init__(self, weights, biases, halfwidths):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        ends = np.cumsum([a.size for a in arrays])
        self._layout = [(end - a.size, end, a.shape) for a, end in zip(arrays, ends)]
        self.params = np.concatenate([a.ravel() for a in arrays])
        self.weights, self.biases = self._views(self.params)
        self.halfwidths = np.asarray(halfwidths, dtype=float)

    @classmethod
    def init(cls, d_x: int, d_u: int, width: int = 64, halfwidths=None,
             seed: int = 0) -> "MLPPolicy":
        rng = np.random.default_rng(seed)
        dims = [d_x, width, width, width, d_u]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        weights[-1] *= 0.1  # small head keeps the initial policy near zero
        if halfwidths is None:
            halfwidths = np.ones(d_x)
        return cls(weights, biases, halfwidths)

    def _views(self, flat: np.ndarray) -> tuple:
        """Views of a params-shaped vector: the weight matrices and the biases."""
        views = [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]
        return views[:len(views) // 2], views[len(views) // 2:]

    # --- evaluation --------------------------------------------------------------
    def _forward(self, X: np.ndarray, with_slopes: bool = True):
        """Pre-activations, layer inputs and output, and gelu' of each hidden
        layer (none when ``with_slopes`` is False). Phi(z), GELU and gelu'
        are built in place, with the operations of ``_cdf``, ``gelu`` and
        ``gelu_prime`` in their order."""
        zs, acts, slopes = [], [X / self.halfwidths], []
        for W, b in zip(self.weights, self.biases):
            z = acts[-1] @ W.T
            z += b
            zs.append(z)
            if len(zs) == len(self.weights):
                acts.append(z)
                break
            cdf = np.divide(z, _SQRT2)
            erf(cdf, out=cdf)
            cdf += 1.0
            cdf *= 0.5
            acts.append(np.multiply(z, cdf))
            if with_slopes:
                pdf = np.multiply(z, -0.5)
                pdf *= z
                np.exp(pdf, out=pdf)
                pdf *= _INV_SQRT_2PI
                pdf *= z
                cdf += pdf  # Phi(z) + z pdf(z)
                slopes.append(cdf)
        return zs, acts, slopes

    def _jacobian_chain(self, slopes):
        """Input Jacobians Ms[l] of each layer's input and Qs[l] = W_l Ms[l] of
        its pre-activation; Ms[l + 1] = gelu'(z_l) Qs[l] and Qs[-1] = du/dx."""
        B, d_x = slopes[0].shape[0], self.halfwidths.size
        Ms = [np.broadcast_to(np.diag(1.0 / self.halfwidths), (B, d_x, d_x)).copy()]
        Qs = [np.matmul(self.weights[0], Ms[0])]
        for W, D in zip(self.weights[1:], slopes):
            Ms.append(Qs[-1] * D[:, :, None])
            Qs.append(np.matmul(W, Ms[-1]))
        return Ms, Qs

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._forward(X, with_slopes=False)[1][-1]

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact network Jacobians d u / d x, shape (B, d_u, d_x)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._jacobian_chain(self._forward(X)[2])[1][-1]

    # --- loss and gradient ---------------------------------------------------
    def loss_and_grads(self, X: np.ndarray, U: np.ndarray,
                       J_target: np.ndarray | None = None,
                       lambda_jac: float = 0.0):
        """Mean squared control error (+ lambda_jac * Jacobian mismatch).

        Returns (loss, grad), with grad a new array laid out like
        ``params``; each layer's first term is written straight into its
        view of it. The Jacobian term is differentiated back through the chain of input
        Jacobians, adding gelu'' paths to every hidden layer.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        B = X.shape[0]
        L = len(self.weights)
        zs, acts, slopes = self._forward(X)
        diff = acts[-1] - U
        loss = float(np.sum(diff ** 2) / B)

        grad = np.empty_like(self.params)  # every entry is written below
        dW, db = self._views(grad)
        jac = lambda_jac > 0.0 and J_target is not None
        if jac:
            Ms, Qs = self._jacobian_chain(slopes)
            J_err = Qs[-1] - J_target
            loss += float(lambda_jac * np.sum(J_err ** 2) / B)
            Qbar = 2.0 * lambda_jac * J_err / B  # d loss / d Qs[l]

        delta = diff
        delta *= 2.0
        delta /= B
        for l in range(L - 1, -1, -1):
            np.matmul(delta.T, acts[l], out=dW[l])
            np.sum(delta, axis=0, out=db[l])
            if jac:
                dW[l] += np.tensordot(Qbar, Ms[l], axes=([0, 2], [0, 2]))
            if l > 0:
                delta = delta @ self.weights[l]
                delta *= slopes[l - 1]
                if jac:
                    Mbar = np.matmul(self.weights[l].T, Qbar)  # d loss / d Ms[l]
                    delta += gelu_second(zs[l - 1]) * np.sum(Mbar * Qs[l - 1], axis=2)
                    Qbar = Mbar * slopes[l - 1][:, :, None]
        return loss, grad


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
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


class AdamW:
    """Adam with decoupled weight decay on one parameter array, in place.

    Two scratch vectors of the parameters' size hold the step's
    intermediates, so a step allocates nothing.
    """

    def __init__(self, params: np.ndarray, lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._s1 = np.empty_like(params)
        self._s2 = np.empty_like(params)
        self.t = 0

    def step(self, grad: np.ndarray):
        """m, v and p updated as m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        p -= lr (m / b1c) / (sqrt(v / b2c) + eps), p -= lr wd p, with b1, b2
        and eps the ADAM_ constants."""
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        p, m, v, s1, s2 = self.params, self.m, self.v, self._s1, self._s2
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=s1)
        m += s1
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=s1)
        s1 *= grad
        v += s1
        np.divide(m, b1c, out=s1)
        s1 *= self.lr
        np.divide(v, b2c, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        p -= s1
        np.multiply(p, self.lr * self.wd, out=s1)
        p -= s1


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
    opt = AdamW(policy.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
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
        loss, grad = policy.loss_and_grads(X[batch], U[batch], Jb, cfg.lambda_jac)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"loss became {loss} at step {step}")
        opt.step(grad)
        train_curve.append(loss)
        if val_idx.size and (step % 50 == 0 or step == cfg.steps - 1):
            vloss = float(np.sum((policy.eval_batch(X[val_idx]) - U[val_idx]) ** 2) / val_idx.size)
            val_curve.append((step, vloss))
    curves = {"train": np.array(train_curve), "val": np.array(val_curve)}
    return policy, curves
