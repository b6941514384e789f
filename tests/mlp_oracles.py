"""The allocating training step that ``smoothmpc.mlp`` replaced, kept as an oracle.

``loss_and_grads`` and ``AdamW`` build every intermediate as a fresh array:
the forward pass from ``_cdf`` and ``_pdf``, each layer's gradient as zeros
plus its terms, and each optimizer update from whole-vector temporaries.
The in-place step must give the same loss, the same gradient values and,
after any number of optimizer steps, the same parameters bit for bit.
"""

import numpy as np

from smoothmpc.mlp import _cdf, _pdf, gelu_second


def forward(net, X):
    """Pre-activations, layer inputs and output, and gelu' of each hidden layer."""
    zs, acts, slopes = [], [X / net.halfwidths], []
    for W, b in zip(net.weights, net.biases):
        zs.append(acts[-1] @ W.T + b)
        acts.append(zs[-1])
        if len(zs) < len(net.weights):
            cdf = _cdf(zs[-1])
            acts[-1] = zs[-1] * cdf
            slopes.append(cdf + zs[-1] * _pdf(zs[-1]))
    return zs, acts, slopes


def jacobian_chain(net, slopes):
    """Input Jacobians Ms[l] of each layer's input and Qs[l] = W_l Ms[l]."""
    B, d_x = slopes[0].shape[0], net.halfwidths.size
    Ms = [np.broadcast_to(np.diag(1.0 / net.halfwidths), (B, d_x, d_x)).copy()]
    Qs = [np.matmul(net.weights[0], Ms[0])]
    for W, D in zip(net.weights[1:], slopes):
        Ms.append(Qs[-1] * D[:, :, None])
        Qs.append(np.matmul(W, Ms[-1]))
    return Ms, Qs


def loss_and_grads(net, X, U, J_target=None, lambda_jac=0.0):
    """Mean squared control error (+ lambda_jac * Jacobian mismatch) and its
    gradient laid out like ``net.params``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    B = X.shape[0]
    L = len(net.weights)
    zs, acts, slopes = forward(net, X)
    diff = acts[-1] - U
    loss = float(np.sum(diff ** 2) / B)

    grad = np.zeros_like(net.params)
    dW, db = net._views(grad)
    jac = lambda_jac > 0.0 and J_target is not None
    if jac:
        Ms, Qs = jacobian_chain(net, slopes)
        J_err = Qs[-1] - J_target
        loss += float(lambda_jac * np.sum(J_err ** 2) / B)
        Qbar = 2.0 * lambda_jac * J_err / B

    delta = 2.0 * diff / B
    for l in range(L - 1, -1, -1):
        dW[l] += delta.T @ acts[l]
        db[l] += delta.sum(axis=0)
        if jac:
            dW[l] += np.tensordot(Qbar, Ms[l], axes=([0, 2], [0, 2]))
        if l > 0:
            delta = (delta @ net.weights[l]) * slopes[l - 1]
            if jac:
                Mbar = np.matmul(net.weights[l].T, Qbar)
                delta = delta + gelu_second(zs[l - 1]) * np.sum(Mbar * Qs[l - 1], axis=2)
                Qbar = Mbar * slopes[l - 1][:, :, None]
    return loss, grad


class AdamW:
    """Adam with decoupled weight decay on one parameter array, in place."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        p, m, v = self.params, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        p -= self.lr * self.wd * p
