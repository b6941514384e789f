"""Randomized smoothing estimator, projection, and the tradeoff audit."""

import numpy as np
import pytest

from smoothmpc import smoothing
from smoothmpc.core import build_condensed, clip_problem
from smoothmpc.errors import ResolutionError, SmoothingFailureError
from smoothmpc.smoothing import (
    RandomizedPolicy,
    SmoothingConfig,
    draw_noise,
    pi_rs,
    tradeoff_audit,
)

RNG = np.random.default_rng(1)


class Clip:
    """Batch policy u = clip(-2 x, -1, 1) on the first state coordinate."""

    def eval_batch(self, X):
        return np.clip(-2.0 * X[:, :1], -1.0, 1.0)


class Linear:
    """Batch policy u = K x."""

    def __init__(self, K):
        self.K = K

    def eval_batch(self, X):
        return X @ self.K.T


def test_noise_families_zero_mean_and_support():
    rng = np.random.default_rng(0)
    for dist in ("gaussian", "uniform-box", "uniform-ball"):
        W = draw_noise(dist, 200_000, 3, rng)
        assert np.abs(W.mean(axis=0)).max() <= 0.01
        if dist == "uniform-box":
            assert np.abs(W).max() <= 1.0
        if dist == "uniform-ball":
            assert np.linalg.norm(W, axis=1).max() <= 1.0


def test_linear_policy_smoothed_is_identity():
    # the smoothed linear law is K x plus sigma K times the mean of the draws
    K = np.array([[0.3, -0.7], [1.1, 0.2]])
    x = np.array([1.0, -2.0])
    for dist in ("gaussian", "uniform-box", "uniform-ball"):
        cfg = SmoothingConfig(sigma=0.5, distribution=dist, n_samples=4000, seed=3)
        W = draw_noise(dist, 4000, 2, np.random.default_rng(3))
        u = pi_rs(Linear(K), cfg, x)
        assert u.shape == (2,)
        assert np.abs(u - (K @ x + 0.5 * K @ W.mean(axis=0))).max() <= 1e-12


def test_clip_example_flattens_for_large_sigma():
    cfg = SmoothingConfig(sigma=100.0, distribution="gaussian", n_samples=100_000, seed=0)
    for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
        assert abs(pi_rs(Clip(), cfg, np.array([x]))[0]) <= 0.05


def test_small_sigma_recovers_base_policy():
    cfg = SmoothingConfig(sigma=1e-4, distribution="gaussian", n_samples=5000, seed=0)
    W = draw_noise("gaussian", 5000, 1, np.random.default_rng(0))
    for x in (-2.0, -0.3, 0.1, 2.0):
        u = pi_rs(Clip(), cfg, np.array([x]))[0]
        # Lipschitz constant 2 times sigma times the mean draw length
        assert abs(u - np.clip(-2.0 * x, -1.0, 1.0)) <= 2 * 1e-4 * np.abs(W).mean() + 1e-15


def test_noise_is_drawn_once_for_policies_sharing_a_config(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return draw_noise(*args)

    RandomizedPolicy._noise.cache_clear()
    monkeypatch.setattr(smoothing, "draw_noise", counting)
    cfg = SmoothingConfig(sigma=0.3, distribution="uniform-ball", n_samples=300, seed=12)
    X = np.array([[0.5, -1.0], [2.0, 0.0]])
    first = RandomizedPolicy(Clip(), cfg).samples(X)
    second = RandomizedPolicy(Linear(np.eye(2)), cfg).samples(X)
    assert len(calls) == 1
    assert np.array_equal(first, second)
    W = draw_noise("uniform-ball", 300, 2, np.random.default_rng(12))
    assert np.array_equal(first, (X[:, None, :] + 0.3 * W[None]).reshape(-1, 2))
    assert not RandomizedPolicy._noise("uniform-ball", 300, 2, 12).flags.writeable


def test_determinism_bitwise():
    cfg = SmoothingConfig(sigma=0.7, distribution="uniform-ball", n_samples=500, seed=9)
    x = np.array([0.4])
    assert np.array_equal(pi_rs(Clip(), cfg, x), pi_rs(Clip(), cfg, x))


def test_projection_applied_and_reported():
    # feasible set [0, inf): project negative samples to the boundary
    def proj(X):
        return np.maximum(X, 0.0)

    class Identity:
        def eval_batch(self, X):
            return np.where(X[:, :1] < -1e-12, np.nan, X[:, :1])

    cfg = SmoothingConfig(sigma=1.0, distribution="gaussian", n_samples=2000, seed=2)
    x = np.array([0.5])
    rs = RandomizedPolicy(Identity(), cfg, projector=proj)
    samples = rs.samples(x)
    assert np.mean(samples[:, 0] < 0.0) > 0.2
    u = pi_rs(Identity(), cfg, x, projector=proj)
    # every projected sample evaluates: E[max(0.5 + w, 0)] > 0.5
    assert abs(u[0] - np.mean(np.maximum(samples[:, 0], 0.0))) <= 1e-12
    assert u[0] > 0.5


def test_failure_signal_over_half():
    class Flaky:
        def eval_batch(self, X):
            return np.where(X[:, :1] > 0.0, np.nan, 0.0)

    cfg = SmoothingConfig(sigma=1.0, distribution="gaussian", n_samples=400, seed=4)
    with pytest.raises(SmoothingFailureError):
        pi_rs(Flaky(), cfg, np.array([3.0]))


class FailingShare:
    """Batch policy u = x[0] that fails (NaN) on the first ``tenths`` of
    every ten consecutive rows, so on that share of each state's samples."""

    def __init__(self, tenths):
        self.tenths = tenths

    def eval_batch(self, X):
        out = X[:, :1].copy()
        out[np.arange(X.shape[0]) % 10 < self.tenths] = np.nan
        return out


def test_batch_failure_over_half_of_a_state_raises():
    cfg = SmoothingConfig(sigma=0.5, distribution="gaussian", n_samples=100, seed=2)
    X = np.array([[0.0, 1.0], [2.0, -1.0]])
    with pytest.raises(SmoothingFailureError, match="60%"):
        RandomizedPolicy(FailingShare(6), cfg).eval_batch(X)

    class FailsRightOfFive:
        def eval_batch(self, X):
            return np.where(X[:, :1] > 5.0, np.nan, 1.0)

    # 50 % of all samples fail, but all of the second state's
    with pytest.raises(SmoothingFailureError, match="state 1"):
        RandomizedPolicy(FailsRightOfFive(), cfg).eval_batch(np.array([[0.0, 0.0], [9.0, 0.0]]))


def test_batch_failure_under_half_averages_the_rest():
    cfg = SmoothingConfig(sigma=0.5, distribution="gaussian", n_samples=100, seed=2)
    X = np.array([[0.0, 1.0], [2.0, -1.0]])
    u = RandomizedPolicy(FailingShare(4), cfg).eval_batch(X)
    W = draw_noise("gaussian", 100, 2, np.random.default_rng(2))
    kept = np.arange(100) % 10 >= 4
    expected = [np.mean(x[0] + 0.5 * W[kept, 0]) for x in X]
    assert np.allclose(u[:, 0], expected, rtol=0, atol=1e-12)


def test_batch_type_error_propagates():
    # a bug in the base policy is raised, never counted as failed samples
    class Broken:
        def eval_batch(self, X):
            if np.any(X[:, 0] > 0.5):
                raise TypeError("base policy bug")
            return np.zeros((X.shape[0], 1))

    cfg = SmoothingConfig(sigma=1.0, distribution="gaussian", n_samples=1000, seed=0)
    with pytest.raises(TypeError, match="base policy bug"):
        pi_rs(Broken(), cfg, np.array([0.0]))
    with pytest.raises(TypeError, match="base policy bug"):
        RandomizedPolicy(Broken(), cfg).eval_batch(np.array([[0.0], [1.0]]))


def test_randomized_policy_jacobian_crn():
    cfg = SmoothingConfig(sigma=0.3, distribution="gaussian", n_samples=3000, seed=5)
    rs = RandomizedPolicy(Clip(), cfg)
    J = rs.jacobian_batch(np.array([[0.0]]), h=1e-3)[0]
    # smoothed slope at the center is close to the inner slope -2
    assert -2.05 <= J[0, 0] <= -1.5


def test_tradeoff_audit_sqrt_smoother():
    delta = 0.05
    xs = np.linspace(-1, 1, 4001)
    f = np.abs(xs)
    g = np.sqrt(xs ** 2 + delta ** 2)
    out = tradeoff_audit(xs, f, g, slopes=(-1.0, 1.0))
    assert abs(out["epsilon"] - delta) <= 1e-3
    assert out["worst_grad_lipschitz"] >= out["theoretical_floor"]
    assert out["satisfied"]
    # the closed-form smoother has curvature 1/delta at the kink
    assert out["worst_grad_lipschitz"] <= 1.2 / delta


def test_tradeoff_audit_linear_trivial():
    xs = np.linspace(-1, 1, 101)
    f = 0.7 * xs
    out = tradeoff_audit(xs, f, f, slopes=(0.7, 0.7))
    assert out["theoretical_floor"] == 0.0
    assert out["satisfied"]


def test_tradeoff_audit_resolution_error():
    delta = 1e-4
    xs = np.linspace(-1, 1, 101)  # step 0.02 >> delta
    f = np.abs(xs)
    g = np.sqrt(xs ** 2 + delta ** 2)
    with pytest.raises(ResolutionError):
        tradeoff_audit(xs, f, g, slopes=(-1.0, 1.0))


def test_tradeoff_audit_barrier_smoothed_clip():
    from smoothmpc.barrier import make_barrier_problem, solve_barrier

    qp = build_condensed(*clip_problem())
    K0 = float(np.linalg.solve(qp.H, qp.F.T)[0, 0])
    for eta in (1e-3, 1e-2):
        bp = make_barrier_problem(qp, eta)
        half = 24.0 * eta  # transition width scale at the kink
        xs = np.linspace(0.5 - half, 0.5 + half, 801)
        f = np.clip(K0 * xs, -1.0, 1.0)
        g = np.array([solve_barrier(bp, np.array([x])).u_eta[0] for x in xs])
        out = tradeoff_audit(xs, f, g, slopes=(K0, 0.0))
        assert out["satisfied"], out
