"""Recentered log-barrier MPC: Newton solver, closed-form Jacobian and Hessian,
and the convex-combination structure of the solution map.

The barrier program replaces the hard constraints of the condensed QP by

    V_eta(x0, u) = 0.5 u^T H u - x0^T F u - eta * [sum_i log phi_i(x0, u) - d^T u],

with phi = P x0 + w - G u and the recentering vector d chosen so that the
minimizer at x0 = 0 is exactly u = 0. Rows of G that are identically zero
contribute a u-independent constant to the barrier; they are validated for
strict positivity and excluded from the Newton system.

The state derivatives of the minimizer differentiate its optimality
condition in the input space. With A = H + eta G^T Phi^{-2} G, the Newton
matrix at the solution, J = A^{-1} (F^T + eta G^T Phi^{-2} P), the residuals
move as dphi = P - G J, and T[:, j, k] = -2 eta A^{-1} G^T Phi^{-3}
(dphi_j * dphi_k): one n x n Cholesky factor serves both.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_solve

from .core import CondensedQP, feasible_radii
from .errors import InfeasibleError, NewtonConvergenceError
from .explicit import enumerate_nonsingular_sigmas, gain_for_sigma
from .qp import chebyshev_center

__all__ = [
    "BarrierProblem",
    "BarrierSolution",
    "recentering_vector",
    "make_barrier_problem",
    "sc_parameter",
    "solve_barrier",
    "barrier_jacobian",
    "convex_combination",
    "ConvexCombination",
    "barrier_hessian",
    "tensor_spectral_norm",
    "pi_barrier",
]

GRAD_TOL_FACTOR = 1e-10
MAX_NEWTON_ITERS = 200
POWER_RESTARTS = 8
POWER_ITERS = 200
LINESEARCH_ACCEPT = 0.25
LINESEARCH_SHRINK = 0.5


def recentering_vector(qp: CondensedQP) -> np.ndarray:
    """Gradient of sum_i log phi_i(0, u) at u = 0, i.e. d = -G^T (1/w).

    Requires w > 0 componentwise (the origin strictly inside the
    constraint set at x0 = 0); this makes u = 0 the barrier minimizer at
    the origin for every eta.
    """
    if np.any(qp.w <= 0):
        raise InfeasibleError("origin is not strictly feasible: some w_i <= 0")
    return -(qp.G.T @ (1.0 / qp.w))


@dataclass(frozen=True)
class BarrierProblem:
    """Condensed QP plus barrier weight, recentering vector, and the
    self-concordance parameter nu = 20(m + R^2 ||d||^2) of the recentered
    barrier, with R the origin-centered outer radius at x0 = 0."""

    qp: CondensedQP
    eta: float
    d: np.ndarray
    nu: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("barrier weight eta must be positive")
        d = np.ascontiguousarray(self.d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)


def sc_parameter(m: int, R: float, d: np.ndarray) -> float:
    """Self-concordance parameter 20(m + R^2 ||d||^2) of the recentered barrier."""
    if m < 1 or R <= 0:
        raise ValueError("need m >= 1 and R > 0")
    d = np.asarray(d, dtype=float)
    return 20.0 * (m + R ** 2 * float(d @ d))


def make_barrier_problem(qp: CondensedQP, eta: float,
                         outer_radius: float | None = None) -> BarrierProblem:
    """Assemble the barrier program; computes R at x0 = 0 unless supplied."""
    d = recentering_vector(qp)
    if outer_radius is None:
        outer_radius = feasible_radii(qp, np.zeros(qp.d_x)).R
    return BarrierProblem(qp=qp, eta=float(eta), d=d, nu=sc_parameter(qp.m, outer_radius, d))


@dataclass(frozen=True)
class BarrierSolution:
    """Strict-interior minimizer with Newton diagnostics.

    ``phi`` holds all m residuals (positive, including rows of G that are
    identically zero). ``decrements`` is the Newton-decrement history of
    the main phase.
    """

    u_eta: np.ndarray
    phi: np.ndarray
    newton_iters: int
    grad_norm: float
    decrements: tuple


def _scatter_certificate(err: InfeasibleError, active: np.ndarray) -> np.ndarray | None:
    """The certificate of ``err`` over the ``active`` rows, as a length-m vector."""
    if err.certificate is None:
        return None
    cert = np.zeros(active.size)
    cert[active] = err.certificate
    return cert


def _strict_start(G: np.ndarray, b: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Chebyshev center of {u : G u <= b}, the rows that actually constrain u.

    ``active`` marks those rows among all m; an infeasibility certificate
    is scattered back to length m when it is read.
    """
    try:
        center, r = chebyshev_center(G, b)
    except InfeasibleError as err:
        raise InfeasibleError("no strictly feasible input sequence",
                              certificate=partial(_scatter_certificate, err, active)) from err
    if r <= 0:
        raise InfeasibleError("constraint polytope has empty interior")
    return center


def _objective(H, f, d, eta, G, b):
    """(value, grad, hess, phi_of) of the log-barrier objective

        0.5 u^T H u - f^T u + eta * (d^T u - sum_i log(b - G u)_i),

    with phi_of(u) = b - G u the residuals, in the argument order of ``_newton``.
    """

    def phi_of(u):
        return b - G @ u

    def value(u):
        return float(0.5 * u @ H @ u - f @ u
                     + eta * (-np.sum(np.log(phi_of(u))) + d @ u))

    def grad(u):
        return H @ u - f + eta * (G.T @ (1.0 / phi_of(u)) + d)

    def hess(u):
        return _newton_matrix(H, eta, G, 1.0 / phi_of(u))

    return value, grad, hess, phi_of


def _newton_matrix(H, eta, G, r):
    """H + eta G^T Diag(r^2) G, the log-barrier objective's Hessian at residuals 1 / r."""
    return H + eta * (G * (r ** 2)[:, None]).T @ G


def _newton(u, value, grad, hess, phi_of, max_iter, tol, record=None):
    """Two-phase Newton: Armijo-damped far out, pure steps near the optimum.

    The pure phase (Newton decrement below 0.25) backtracks only to stay
    inside the domain; Armijo tests there would drown in floating-point
    cancellation of the objective. Returns the best iterate seen.
    """
    best_u, best_g = u, float(np.linalg.norm(grad(u)))
    for it in range(1, max_iter + 1):
        g = grad(u)
        gnorm = float(np.linalg.norm(g))
        if gnorm < best_g:
            best_u, best_g = u, gnorm
        if gnorm <= tol:
            return u, gnorm, it - 1
        Hm = hess(u)
        try:
            p = -np.linalg.solve(Hm, g)
        except np.linalg.LinAlgError:
            p = -np.linalg.lstsq(Hm, g, rcond=None)[0]
        decrement2 = float(-g @ p)
        if record is not None:
            record.append(np.sqrt(max(decrement2, 0.0)))
        if decrement2 <= 0:
            return best_u, best_g, it - 1
        t = 1.0
        if np.sqrt(decrement2) <= 0.25:
            while t > 1e-14 and np.min(phi_of(u + t * p), initial=np.inf) <= 0:
                t *= LINESEARCH_SHRINK
        else:
            f0 = value(u)
            slope = float(g @ p)
            while t > 1e-14:
                cand = u + t * p
                if np.min(phi_of(cand), initial=np.inf) > 0 and \
                        value(cand) <= f0 + LINESEARCH_ACCEPT * t * slope:
                    break
                t *= LINESEARCH_SHRINK
        if t <= 1e-14:
            return best_u, best_g, it
        u = u + t * p
    gnorm = float(np.linalg.norm(grad(u)))
    if gnorm < best_g:
        best_u, best_g = u, gnorm
    return best_u, best_g, max_iter


def solve_barrier(bp: BarrierProblem, x0: np.ndarray,
                  warm: np.ndarray | None = None) -> BarrierSolution:
    """Minimize the barrier objective at x0 to gradient tolerance.

    Newton starts from the first strictly feasible of ``warm`` (an input
    sequence, typically the solution at a nearby state or eta), ``warm``
    shifted by one input block, and u = 0, the exact minimizer at x0 = 0.
    When none is, the start is a phase-I damped Newton on the pure
    recentered barrier from the Chebyshev center (guaranteeing strict
    feasibility independent of eta). Raises InfeasibleError when no
    strict interior exists and NewtonConvergenceError when 200 iterations
    do not reach tolerance.
    """
    qp = bp.qp
    eta = bp.eta
    x0 = np.asarray(x0, dtype=float)
    b = qp.bounds_rhs(x0)
    row_norms = np.linalg.norm(qp.G, axis=1)
    active = row_norms > 0.0
    if np.any(b[~active] <= 0.0):
        # a negative such residual is its own Farkas certificate
        cert = np.where(~active & (b < 0.0), 1.0, 0.0)
        raise InfeasibleError("a residual that no input affects is non-positive at x0",
                              certificate=cert if cert.any() else None)

    G = qp.G[active]
    ba = b[active]
    Fx = qp.F.T @ x0
    g_scale = 1.0 + float(np.linalg.norm(Fx))
    tol = GRAD_TOL_FACTOR * g_scale
    value, grad, hess, phi_of = _objective(qp.H, Fx, bp.d, eta, G, ba)

    zero = np.zeros(qp.n)
    starts = [zero]
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        # the receding-horizon successor of warm: after a closed-loop step
        # the tail of the previous plan, padded with a zero input, is
        # usually feasible when the plan itself is not
        starts = [warm, np.concatenate([warm[qp.d_u:], zero[: qp.d_u]]), zero]
    u = next((s for s in starts if np.min(phi_of(s), initial=np.inf) > 0), None)
    if u is None:
        # phase I: approach the analytic center of the recentered barrier
        phase1 = _objective(np.zeros((qp.n, qp.n)), zero, bp.d, 1.0, G, ba)
        u, _, _ = _newton(_strict_start(G, ba, active), *phase1, max_iter=30, tol=1e-8)

    decs: list = []
    u, gnorm, iters = _newton(u, value, grad, hess, phi_of, max_iter=MAX_NEWTON_ITERS,
                              tol=min(tol, 1e-12 * g_scale), record=decs)
    if gnorm > tol:
        # phi near zero is computed as a difference of O(b) quantities, so
        # the gradient cannot be evaluated below this cancellation floor;
        # accept iterates that are converged up to it
        phi = phi_of(u)
        scale_i = np.abs(ba) + np.abs(G @ u)
        floor = np.finfo(float).eps * eta * float(
            np.linalg.norm(G, axis=1) @ (scale_i / phi ** 2))
        if gnorm > max(tol, 2.0 * floor):
            raise NewtonConvergenceError(
                f"Newton stalled at gradient norm {gnorm:.3e} (tol {tol:.3e})",
                last_iterate=u, grad_norm=gnorm, iters=iters)

    return BarrierSolution(u_eta=u, phi=b - qp.G @ u, newton_iters=iters,
                           grad_norm=gnorm, decrements=tuple(decs))


def _sensitivity(bp: BarrierProblem, sol: BarrierSolution):
    """(solve, J): A^{-1} through the Cholesky factor L of the Newton matrix A,
    positive definite whenever all residuals are positive, and the Jacobian.

    (max L_ii / min L_ii)^2, a lower bound on cond(A), above 1e14 (or a
    failed factorization) draws a warning.
    """
    qp = bp.qp
    if np.any(sol.phi <= 0):
        raise ValueError("barrier derivatives require strictly positive residuals")
    r = 1.0 / sol.phi
    A = _newton_matrix(qp.H, bp.eta, qp.G, r)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        warnings.warn("barrier Jacobian system is not numerically positive definite",
                      RuntimeWarning)
        solve = partial(np.linalg.solve, A)
    else:
        diag = np.diag(L)
        cond_lb = float((diag.max() / diag.min()) ** 2)
        if cond_lb > 1e14:
            warnings.warn(f"barrier Jacobian system is ill-conditioned (cond >= {cond_lb:.2e})",
                          RuntimeWarning)
        solve = partial(cho_solve, (L, True))
    return solve, solve(qp.F.T + bp.eta * qp.G.T @ ((r ** 2)[:, None] * qp.P))


def barrier_jacobian(bp: BarrierProblem, sol: BarrierSolution) -> np.ndarray:
    """Closed-form sensitivity du_eta/dx0 = A^{-1} (F^T + eta G^T Phi^{-2} P)
    of the barrier minimizer to the state."""
    return _sensitivity(bp, sol)[1]


@dataclass(frozen=True)
class ConvexCombination:
    """Normalized active-set weights reconstructing the barrier Jacobian."""

    weights: dict
    reconstructed: np.ndarray
    log_normalizer: float


def convex_combination(bp: BarrierProblem, sol: BarrierSolution) -> ConvexCombination:
    """Expand the barrier Jacobian as a convex combination of hard gains.

    Enumerates all active sets sigma with nonsingular Gram submatrix,
    weighting K_sigma by h_sigma proportional to
    det([G H^{-1} G^T]_sigma) * prod_{i not in sigma} (phi_i^2 / eta),
    computed in log space. Requires m <= MAX_ENUMERATION_M.
    """
    qp = bp.qp
    log_c = np.log(sol.phi ** 2 / bp.eta)

    entries = []
    for sigma in enumerate_nonsingular_sigmas(qp):
        s = sigma.sigma
        sub = qp.gram[np.ix_(s, s)]
        logdet = 0.0 if sub.shape[0] == 0 else float(np.linalg.slogdet(sub)[1])
        logh = logdet + float(log_c[~s].sum())
        entries.append((sigma, logh))
    logs = np.array([lh for _, lh in entries])
    top = logs.max()
    raw = np.exp(logs - top)
    total = raw.sum()
    recon = np.zeros((qp.n, qp.d_x))
    weights = {}
    for (sigma, _), wgt in zip(entries, raw / total):
        piece = gain_for_sigma(qp, sigma)
        recon += wgt * piece.K
        weights[sigma.bitstring()] = float(wgt)
    log_normalizer = float(top + np.log(total))
    return ConvexCombination(weights=weights, reconstructed=recon,
                             log_normalizer=log_normalizer)


def barrier_hessian(bp: BarrierProblem, sol: BarrierSolution) -> np.ndarray:
    """State Hessian of the solution map at ``sol``, shape (n, d_x, d_x).

    T[:, j, k] = -2 eta A^{-1} G^T Phi^{-3} (dphi_j * dphi_k) with
    dphi = P - G J: one more solve with the Jacobian's factor of A. T is
    symmetric in its two state slots by construction.
    """
    qp = bp.qp
    solve, J = _sensitivity(bp, sol)
    dphi = qp.P - qp.G @ J
    rhs = (sol.phi ** -3)[:, None, None] * (dphi[:, :, None] * dphi[:, None, :])
    Z = solve(qp.G.T @ rhs.reshape(qp.m, -1))
    return (-2.0 * bp.eta) * Z.reshape(qp.n, qp.d_x, qp.d_x)


def _slice_norms(T: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Spectral norms of T contracted with (cos theta, sin theta), one per angle."""
    Y = np.stack([np.cos(thetas), np.sin(thetas)])
    return np.linalg.svd(np.moveaxis(T @ Y, -1, 0), compute_uv=False)[:, 0]


def tensor_spectral_norm(T: np.ndarray) -> float:
    """max over unit y of the spectral norm of T[:, :, :] contracted with y.

    For 2-D state slots an angular sweep plus refinement is exact enough;
    otherwise a higher-order power iteration with POWER_RESTARTS seeded
    random restarts runs on the unfolded tensor.
    """
    T = np.asarray(T, dtype=float)
    d = T.shape[2]
    if d == 1:
        return float(np.linalg.norm(T[:, :, 0], 2))
    if d == 2:
        thetas = np.linspace(0.0, np.pi, 721)
        sweep = _slice_norms(T, thetas)
        best = float(sweep.max())
        # local refinement around the best angle
        i = int(np.argmax(sweep))
        lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)]
        for _ in range(60):
            mid1 = lo + (hi - lo) / 3
            mid2 = hi - (hi - lo) / 3
            f1, f2 = _slice_norms(T, np.array([mid1, mid2]))
            if f1 < f2:
                lo = mid1
            else:
                hi = mid2
            best = max(best, float(f1), float(f2))
        return best
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(POWER_RESTARTS):
        y = rng.standard_normal(d)
        y /= np.linalg.norm(y)
        for _ in range(POWER_ITERS):
            Mslice = T @ y
            u_, s_, vt_ = np.linalg.svd(Mslice, full_matrices=False)
            v = u_[:, 0]
            wvec = vt_[0]
            y_new = np.einsum("i,ijk,j->k", v, T, wvec)
            ny = np.linalg.norm(y_new)
            if ny == 0:
                break
            y = y_new / ny
        best = max(best, float(np.linalg.norm(T @ y, 2)))
    return best


def pi_barrier(bp: BarrierProblem, x: np.ndarray) -> np.ndarray:
    """Barrier control law: first input block of the barrier minimizer."""
    sol = solve_barrier(bp, x)
    return sol.u_eta[: bp.qp.d_u]
