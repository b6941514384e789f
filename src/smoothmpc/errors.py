"""Exception types shared across the package."""

from __future__ import annotations

from typing import Callable

import numpy as np


class InfeasibleError(ValueError):
    """Constraint polytope is empty.

    ``certificate`` is a Farkas vector y >= 0 with y^T G = 0 and
    y^T (w + P x0) < 0 when available. The QP solver attaches its own
    directly. Only a certificate that costs an LP is deferred: it is given
    as a zero-argument callable, which runs (once) when the certificate is
    first read, since most callers catch the error without reading it.
    """

    def __init__(self, message: str,
                 certificate: np.ndarray | Callable[[], np.ndarray | None] | None = None):
        super().__init__(message)
        self._certificate = certificate

    @property
    def certificate(self) -> np.ndarray | None:
        if callable(self._certificate):
            self._certificate = self._certificate()
        return self._certificate


class UnboundedError(ValueError):
    """Constraint polytope is unbounded along some direction."""


class DegenerateActiveSetError(np.linalg.LinAlgError):
    """Active set selects a singular principal submatrix of the Gram matrix."""


class NewtonConvergenceError(RuntimeError):
    """Newton iteration did not reach the gradient tolerance.

    Carries the last iterate for diagnosis.
    """

    def __init__(self, message: str, last_iterate: np.ndarray, grad_norm: float, iters: int):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm
        self.iters = iters


class SmoothingFailureError(RuntimeError):
    """Policy evaluation failed on more than half of the noise samples."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


class ConfigurationError(ValueError):
    """A valid configuration that a command cannot run, such as a non-planar state."""


class ResolutionError(ValueError):
    """Sample grid too coarse to resolve the feature scale requested."""
