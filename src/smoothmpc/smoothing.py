"""Randomized smoothing of policies and the smoothing-tradeoff audit.

A randomized-smoothed policy averages the base policy over zero-mean
noise around the queried state. Noise draws depend on the configured
seed alone (drawn once per family, count, dimension and seed, then
cached), so evaluations are bitwise deterministic and different states
share common random numbers, which keeps finite-difference gradients of
the smoothed policy low-variance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, SmoothingFailureError

__all__ = [
    "SmoothingConfig",
    "draw_noise",
    "pi_rs",
    "RandomizedPolicy",
    "tradeoff_audit",
]

DISTRIBUTIONS = ("uniform-ball", "uniform-box", "gaussian")
# a smoothed evaluation raises when more than this share of its samples fail
MAX_FAILED_FRACTION = 0.5
# a smoothed batch is evaluated in blocks of whole states, at most this many samples each
SAMPLE_BLOCK = 2 ** 15


@dataclass(frozen=True)
class SmoothingConfig:
    """Noise scale, distribution family, sample count, and seed."""

    sigma: float
    distribution: str = "gaussian"
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.n_samples < 1:
            raise ValueError("need n_samples >= 1")


def draw_noise(distribution: str, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n zero-mean noise vectors of the requested family (unit scale)."""
    if distribution == "gaussian":
        return rng.standard_normal((n, dim))
    if distribution == "uniform-box":
        return rng.uniform(-1.0, 1.0, size=(n, dim))
    if distribution == "uniform-ball":
        g = rng.standard_normal((n, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
        return g * radii
    raise ValueError(f"unknown distribution {distribution!r}")


def pi_rs(policy, cfg: SmoothingConfig, x: np.ndarray, projector=None) -> np.ndarray:
    """Smoothed control at one state: one row of ``RandomizedPolicy.eval_batch``."""
    return RandomizedPolicy(policy, cfg, projector=projector).eval_batch(
        np.asarray(x, dtype=float)[None, :])[0]


class RandomizedPolicy:
    """Smoothed policy, a batch evaluator, with common-random-number derivatives.

    The base policy is a batch evaluator: ``base.eval_batch(X)`` gives one
    row per state, NaN where it has no value. Samples landing outside the
    feasible state set are Euclidean-projected back by ``projector``
    before evaluation; ``projected_share`` keeps the share of the last
    batch's samples that the projection moved.
    """

    def __init__(self, base_policy, cfg: SmoothingConfig, projector=None):
        self.base = base_policy
        self.cfg = cfg
        self.projector = projector
        self.projected_share = float("nan")

    @staticmethod
    @functools.lru_cache(maxsize=16)
    def _noise(distribution: str, n: int, dim: int, seed: int) -> np.ndarray:
        """The draws of ``draw_noise`` from ``default_rng(seed)``, drawn once and read-only.

        Cached on the class, not per instance, since ``pi_rs`` builds a
        fresh policy on every call.
        """
        W = draw_noise(distribution, n, dim, np.random.default_rng(seed))
        W.setflags(write=False)
        return W

    def samples(self, X: np.ndarray) -> np.ndarray:
        """Unprojected noisy states, n_samples per row of X, state by state.

        Every state gets the same draws from the configured seed.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = X.shape[1]
        W = self._noise(self.cfg.distribution, self.cfg.n_samples, d, self.cfg.seed)
        return (X[:, None, :] + self.cfg.sigma * W[None, :, :]).reshape(-1, d)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Smoothed controls for a batch of states sharing one set of draws.

        Blocks of max(1, SAMPLE_BLOCK // n_samples) states are drawn,
        projected, evaluated and averaged one at a time, so memory does not
        grow with the batch. Raises SmoothingFailureError if more than half
        the samples of some state fail, naming the first state of the
        largest failed share; otherwise failed samples are left out of
        each state's mean, and a block with a failing state takes none.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = self.cfg.n_samples
        per = max(1, SAMPLE_BLOCK // n)
        failed, means, moved = [], [], 0
        for lo in range(0, max(X.shape[0], 1), per):  # one empty block for no states
            pts = raw = self.samples(X[lo:lo + per])
            if self.projector is not None:
                pts = self.projector(raw)
                moved += int(np.count_nonzero(np.any(pts != raw, axis=1)))
            vals = self.base.eval_batch(pts)
            vals = vals.reshape(-1, n, vals.shape[1])
            failed.append(np.any(np.isnan(vals), axis=2).mean(axis=1))
            if failed[-1].max(initial=0.0) <= MAX_FAILED_FRACTION:
                means.append(np.nanmean(vals, axis=1))
        if len(means) < len(failed):
            failed = np.concatenate(failed)
            worst = int(np.argmax(failed))
            raise SmoothingFailureError(
                f"{failed[worst]:.0%} of smoothing samples failed to evaluate at state {worst}")
        total = X.shape[0] * n  # one minus the unmoved share, as a mask's mean gives it
        self.projected_share = 1.0 - (total - moved) / total if total else 0.0
        return np.concatenate(means)

    def jacobian_batch(self, X: np.ndarray, h: float = 1e-4) -> np.ndarray:
        """Central differences at the rows of X, shape (N, d_u, d_x), with the
        same noise draws on both sides; every state's stencil goes into one
        ``eval_batch``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        N, d = X.shape
        step = h * np.eye(d)
        stencil = np.concatenate([X[:, None, :] + step, X[:, None, :] - step], axis=1)
        vals = self.eval_batch(stencil.reshape(-1, d)).reshape(N, 2 * d, -1)
        return np.swapaxes(vals[:, :d] - vals[:, d:], 1, 2) / (2.0 * h)


def tradeoff_audit(xs: np.ndarray, original: np.ndarray, smoothed: np.ndarray,
                   slopes: tuple) -> dict:
    """Audit a smoothed 1-D function against the error/smoothness floor.

    Given samples of the original kinked function and its smoothing on a
    uniform grid straddling the kink, measures the sup-error epsilon, the
    worst finite-difference gradient-variation ratio, and the floor
    |a - b|^2 / (144 epsilon) that any smoothing of a kink with one-sided
    slopes (a, b) must exceed.
    """
    xs = np.asarray(xs, dtype=float)
    original = np.asarray(original, dtype=float)
    smoothed = np.asarray(smoothed, dtype=float)
    if xs.ndim != 1 or xs.shape != original.shape or xs.shape != smoothed.shape:
        raise ValueError("need equally shaped 1-D sample arrays")
    h = np.diff(xs)
    if np.abs(h - h[0]).max() > 1e-9 * abs(h[0]):
        raise ValueError("grid must be uniform")
    h = float(h[0])
    a, b = slopes
    eps = float(np.max(np.abs(smoothed - original)))
    if a != b and eps > 0 and h > 6.0 * eps / abs(a - b):
        raise ResolutionError(
            f"grid step {h:.3g} too coarse for features at scale {eps:.3g}")
    grad = (smoothed[2:] - smoothed[:-2]) / (2.0 * h)
    worst = float(np.max(np.abs(np.diff(grad)))) / h if grad.size >= 2 else 0.0
    floor = (a - b) ** 2 / (144.0 * eps) if eps > 0 else 0.0
    return {
        "epsilon": eps,
        "worst_grad_lipschitz": worst,
        "theoretical_floor": floor,
        "satisfied": bool(worst >= floor * (1 - 1e-9)),
    }
