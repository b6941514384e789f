"""Network forward/backward correctness and optimizer behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from smoothmpc.mlp import AdamW, MLPPolicy, TrainConfig, gelu, gelu_prime, gelu_second, train_imitator
from smoothmpc.simulate import ImitationDataset
import mlp_oracles

RNG = np.random.default_rng(123)


def test_gelu_derivatives_match_fd():
    z = np.linspace(-4, 4, 101)
    h = 1e-6
    fd1 = (gelu(z + h) - gelu(z - h)) / (2 * h)
    fd2 = (gelu_prime(z + h) - gelu_prime(z - h)) / (2 * h)
    assert np.abs(gelu_prime(z) - fd1).max() <= 1e-8
    assert np.abs(gelu_second(z) - fd2).max() <= 1e-7


def test_gelu_keeps_the_two_erf_closed_forms_bit_for_bit():
    # GELU is z * Phi(z) and gelu' is Phi(z) + z pdf(z) from one erf; the
    # scaling by 1/2 is exact, so both equal the forms with their own erf
    z = np.linspace(-40.0, 40.0, 200_001)
    erf_z = erf(z / np.sqrt(2.0))
    pdf = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * z * z)
    assert np.array_equal(gelu(z), 0.5 * z * (1.0 + erf_z))
    assert np.array_equal(gelu_prime(z), 0.5 * (1.0 + erf_z) + z * pdf)


def test_params_is_the_storage_of_every_layer():
    net = MLPPolicy.init(2, 1, width=8, seed=4, halfwidths=[2.0, 2.0])
    assert net.params.dtype == np.float64
    assert net.params.size == sum(W.size for W in net.weights) + sum(b.size for b in net.biases)
    assert all(np.shares_memory(a, net.params) for a in net.weights + net.biases)
    x = np.array([0.5, -1.0])
    u0 = net.eval_batch(x[None])
    net.params[-1] += 0.25  # the output bias is the last entry
    assert np.array_equal(net.eval_batch(x[None]), u0 + 0.25)
    before = [W.copy() for W in net.weights]
    opt = AdamW(net.params, lr=1e-2, weight_decay=0.0)
    opt.step(net.loss_and_grads(x[None, :], np.array([[3.0]]))[1])
    assert all(not np.array_equal(W, W0) for W, W0 in zip(net.weights, before))


def test_flat_adamw_matches_a_per_array_adamw_bit_for_bit():
    rng = np.random.default_rng(8)
    shapes = [(5, 3), (4,), (2, 6)]
    sizes = [int(np.prod(s)) for s in shapes]
    flat = rng.standard_normal(sum(sizes))
    ref = [p.reshape(s).copy() for p, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    ms = [np.zeros_like(p) for p in ref]
    vs = [np.zeros_like(p) for p in ref]
    lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
    opt = AdamW(flat, lr=lr, weight_decay=wd)
    for t in range(1, 51):
        grad = rng.standard_normal(flat.size)
        opt.step(grad)
        b1c, b2c = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, g, m, v in zip(ref, np.split(grad, np.cumsum(sizes)[:-1]), ms, vs):
            g = g.reshape(p.shape)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
            p -= lr * wd * p
    assert np.array_equal(flat, np.concatenate([p.ravel() for p in ref]))


def _gradient_by_three_operand_einsums(net, X, U, J_target, lam):
    """The loss gradient with the Jacobian term contracted three operands at a time."""
    L, B, d_x = len(net.weights), X.shape[0], X.shape[1]
    zs, acts = [], [X / net.halfwidths]
    for l in range(L):
        zs.append(acts[-1] @ net.weights[l].T + net.biases[l])
        acts.append(gelu(zs[-1]) if l < L - 1 else zs[-1])
    Dp = [gelu_prime(z) for z in zs[:-1]]
    Ms = [np.broadcast_to(np.diag(1.0 / net.halfwidths), (B, d_x, d_x)).copy()]
    for l in range(L - 1):
        Ms.append(np.einsum("ij,bjk->bik", net.weights[l], Ms[l]) * Dp[l][:, :, None])
    J = np.einsum("ij,bjk->bik", net.weights[-1], Ms[L - 1])
    E = 2.0 * lam * (J - J_target) / B
    dW = [np.zeros_like(W) for W in net.weights]
    inject = [None] * L
    dW[L - 1] += np.einsum("bck,bjk->cj", E, Ms[L - 1])
    P = np.broadcast_to(net.weights[-1], (B,) + net.weights[-1].shape)
    for l in range(L - 2, -1, -1):
        Q = np.einsum("ij,bjk->bik", net.weights[l], Ms[l])
        PD = P * Dp[l][:, None, :]
        dW[l] += np.einsum("bci,bck,bjk->ij", PD, E, Ms[l])
        inject[l] = gelu_second(zs[l]) * np.einsum("bci,bck,bik->bi", P, E, Q)
        P = np.einsum("bci,ij->bcj", PD, net.weights[l])
    db = [np.zeros_like(b) for b in net.biases]
    delta = 2.0 * (acts[-1] - U) / B
    for l in range(L - 1, -1, -1):
        dW[l] += delta.T @ acts[l]
        db[l] += delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.weights[l]) * Dp[l - 1] + inject[l - 1]
    return np.concatenate([g.ravel() for g in dW + db])


@pytest.mark.parametrize("seed", range(4))
def test_pairwise_jacobian_term_matches_the_three_operand_contraction(seed):
    rng = np.random.default_rng(seed)
    net = MLPPolicy.init(2, 1, width=16, seed=seed, halfwidths=[3.0, 3.0])
    net.params += 0.3 * rng.standard_normal(net.params.size)
    X = rng.uniform(-4, 4, size=(32, 2))
    U = rng.uniform(-1, 1, size=(32, 1))
    Jt = rng.uniform(-1, 1, size=(32, 1, 2))
    lam = 0.5
    grad = net.loss_and_grads(X, U, Jt, lam)[1]
    ref = _gradient_by_three_operand_einsums(net, X, U, Jt, lam)
    assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()


def test_forward_finite_and_flat_roundtrip():
    net = MLPPolicy.init(2, 1, width=16, seed=0, halfwidths=[10.0, 10.0])
    x = np.array([3.0, -2.0])
    assert np.all(np.isfinite(net.eval_batch(x[None])))
    vec = net.params.copy()
    net2 = MLPPolicy.init(2, 1, width=16, seed=99, halfwidths=[10.0, 10.0])
    net2.params[:] = vec
    assert np.allclose(net2.eval_batch(x[None]), net.eval_batch(x[None]))


def test_network_jacobian_matches_fd():
    net = MLPPolicy.init(2, 1, width=8, seed=3, halfwidths=[2.0, 5.0])
    x = np.array([0.7, -1.2])
    J = net.jacobian_batch(x[None])[0]
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        col = (net.eval_batch((x + e)[None])[0] - net.eval_batch((x - e)[None])[0]) / (2 * h)
        assert np.abs(J[:, j] - col).max() <= 1e-7


def _num_grad(net, X, U, Jt, lam, direction, h=1e-6):
    base = net.params.copy()
    net.params[:] = base + h * direction
    lp = net.loss_and_grads(X, U, Jt, lam)[0]
    net.params[:] = base - h * direction
    lm = net.loss_and_grads(X, U, Jt, lam)[0]
    net.params[:] = base
    return (lp - lm) / (2 * h)


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_backprop_matches_finite_differences(lam):
    net = MLPPolicy.init(2, 1, width=6, seed=5, halfwidths=[3.0, 3.0])
    X = RNG.uniform(-2, 2, size=(7, 2))
    U = RNG.uniform(-1, 1, size=(7, 1))
    Jt = RNG.uniform(-1, 1, size=(7, 1, 2))
    loss, flat_grad = net.loss_and_grads(X, U, Jt, lam)
    for _ in range(20):
        direction = RNG.standard_normal(flat_grad.size)
        direction /= np.linalg.norm(direction)
        num = _num_grad(net, X, U, Jt, lam, direction)
        ana = float(flat_grad @ direction)
        assert abs(num - ana) <= 1e-4 * max(1.0, abs(ana))


def test_adamw_zero_gradient_contracts_exactly():
    flat = RNG.standard_normal(17)
    params = [flat[:12].reshape(4, 3), flat[12:]]
    before = [p.copy() for p in params]
    opt = AdamW(flat, lr=0.01, weight_decay=0.1)
    for _ in range(3):
        opt.step(np.zeros_like(flat))
    factor = (1.0 - 0.01 * 0.1) ** 3
    for p, b in zip(params, before):
        assert np.allclose(p, b * factor, rtol=0, atol=1e-15)


def _linear_dataset(seed=0, N=12, K=10):
    rng = np.random.default_rng(seed)
    Kmat = np.array([[-0.4, -1.1]])
    states = rng.uniform(-5, 5, size=(N, K, 2))
    inputs = states @ Kmat.T
    jacs = np.broadcast_to(Kmat, (N, K, 1, 2)).copy()
    return ImitationDataset(states=states, inputs=inputs, jacobians=jacs)


def test_training_fits_linear_policy():
    ds = _linear_dataset()
    cfg = TrainConfig(steps=5000, batch_size=64, seed=0, learning_rate=3e-4,
                      weight_decay=1e-3, width=64)
    policy, curves = train_imitator(ds, cfg, halfwidths=[5.0, 5.0])
    X, U, _ = ds.flat()
    mse = float(np.sum((policy.eval_batch(X) - U) ** 2) / X.shape[0])
    assert mse <= 1e-4
    assert curves["train"].shape[0] == 5000
    assert len(curves["val"]) >= 2


def test_jacobian_term_improves_jacobian_error():
    ds = _linear_dataset(seed=2, N=4, K=6)
    X, _, Jt = ds.flat()
    base_cfg = TrainConfig(steps=1500, batch_size=24, seed=1, width=16)
    jac_cfg = TrainConfig(steps=1500, batch_size=24, seed=1, width=16, lambda_jac=1.0)
    p0, _ = train_imitator(ds, base_cfg, halfwidths=[5.0, 5.0])
    p1, _ = train_imitator(ds, jac_cfg, halfwidths=[5.0, 5.0])
    err0 = np.abs(p0.jacobian_batch(X) - Jt).max()
    err1 = np.abs(p1.jacobian_batch(X) - Jt).max()
    assert err1 < err0


def test_zero_steps_returns_initialized_network():
    ds = _linear_dataset()
    cfg = TrainConfig(steps=0, seed=7, width=16)
    policy, curves = train_imitator(ds, cfg, halfwidths=[5.0, 5.0])
    fresh = MLPPolicy.init(2, 1, width=16, halfwidths=[5.0, 5.0], seed=7)
    assert np.allclose(policy.params, fresh.params)
    assert curves["train"].size == 0


def test_training_is_bitwise_deterministic():
    ds = _linear_dataset()
    cfg = TrainConfig(steps=300, batch_size=32, seed=11, width=16)
    p1, c1 = train_imitator(ds, cfg, halfwidths=[5.0, 5.0])
    p2, c2 = train_imitator(ds, cfg, halfwidths=[5.0, 5.0])
    assert np.array_equal(p1.params, p2.params)
    assert np.array_equal(c1["train"], c2["train"])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 64),
       B=st.sampled_from([1, 2, 37, 128]), lam=st.sampled_from([0.0, 0.5]),
       with_jac=st.booleans())
def test_in_place_step_matches_the_allocating_oracle_bit_for_bit(seed, width, B, lam, with_jac):
    # The gradient is compared by value: a term of -0.0 stays -0.0 when
    # written straight into its view, where the oracle's zeros + (-0.0) gave
    # +0.0. AdamW's moments and the parameters come out the same bits.
    rng = np.random.default_rng(seed)
    d_x, d_u = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    halfwidths = 10.0 ** rng.uniform(-1, 1, d_x)
    net = MLPPolicy.init(d_x, d_u, width=width, halfwidths=halfwidths, seed=seed % 1000)
    net.params += 0.3 * rng.standard_normal(net.params.size)
    ref = MLPPolicy(net.weights, net.biases, halfwidths)
    X = rng.uniform(-2.0, 2.0, (B, d_x)) * halfwidths
    U = rng.uniform(-1.0, 1.0, (B, d_u))
    Jt = rng.uniform(-1.0, 1.0, (B, d_u, d_x)) if with_jac else None
    opt = AdamW(net.params, lr=1e-2, weight_decay=1e-2)
    opt_ref = mlp_oracles.AdamW(ref.params, lr=1e-2, weight_decay=1e-2)
    prev = None
    for _ in range(200):
        loss, grad = net.loss_and_grads(X, U, Jt, lam)
        loss_ref, grad_ref = mlp_oracles.loss_and_grads(ref, X, U, Jt, lam)
        assert loss == loss_ref
        assert np.array_equal(grad, grad_ref)
        if prev is not None:
            assert not np.shares_memory(grad, prev[0])
            assert np.array_equal(prev[0], prev[1])  # untouched by this call
        prev = (grad, grad.copy())
        opt.step(grad)
        opt_ref.step(grad_ref)
        assert net.params.tobytes() == ref.params.tobytes()
    assert opt.m.tobytes() == opt_ref.m.tobytes() and opt.v.tobytes() == opt_ref.v.tobytes()
    assert np.array_equal(net.eval_batch(X), mlp_oracles.forward(ref, X)[1][-1])
