"""Recentered log-barrier MPC: Newton solver, closed-form Jacobian and Hessian,
and the convex-combination structure of the solution map.

The barrier program replaces the hard constraints of the condensed QP by

    V_eta(x0, u) = 0.5 u^T H u - x0^T F u - eta * [sum_i log phi_i(x0, u) - d^T u],

with phi = P x0 + w - G u and the recentering vector d chosen so that the
minimizer at x0 = 0 is exactly u = 0. Rows of G that are identically zero
contribute a u-independent constant to the barrier; they are validated for
strict positivity and excluded from the Newton system.

One Newton engine minimizes it over a stack of states at once, each row
under its own mask; a row with no strictly feasible start first runs a
Newton phase I on the slack problem, so no LP runs on the solve path.

The state derivatives of the minimizer differentiate its optimality
condition in the input space. With A = H + eta G^T Phi^{-2} G, the Newton
matrix at the solution, J = A^{-1} (F^T + eta G^T Phi^{-2} P), the residuals
move as dphi = P - G J, and T[:, j, k] = -2 eta A^{-1} G^T Phi^{-3}
(dphi_j * dphi_k): one n x n Cholesky factor serves both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.linalg import cho_solve

from .core import CondensedQP, feasible_radii
from .errors import InfeasibleError, NewtonConvergenceError
from .explicit import enumerate_nonsingular_sigmas, gain_for_sigma
from .qp import farkas_certificate

__all__ = [
    "BarrierProblem",
    "BarrierSolution",
    "BarrierBatch",
    "recentering_vector",
    "make_barrier_problem",
    "sc_parameter",
    "solve_barrier",
    "solve_barrier_batch",
    "barrier_jacobian",
    "barrier_jacobian_batch",
    "convex_combination",
    "ConvexCombination",
    "barrier_hessian",
    "barrier_hessian_batch",
    "tensor_spectral_norm",
]

GRAD_TOL_FACTOR = 1e-10
MAX_NEWTON_ITERS = 200
POWER_RESTARTS = 8
POWER_ITERS = 200
LINESEARCH_ACCEPT = 0.25
LINESEARCH_SHRINK = 0.5
MIN_STEP = 1e-14
# phase I: t grows by PHASE_ONE_GROWTH once a row's Newton decrement is at
# most PHASE_ONE_CENTRED; a polytope whose Chebyshev radius is at most
# PHASE_ONE_FLOOR times its offsets' scale counts as having no interior
MAX_PHASE_ONE_ITERS = 200
PHASE_ONE_GROWTH = 10.0
PHASE_ONE_CENTRED = 0.5
PHASE_ONE_FLOOR = 1e-10


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

    @cached_property
    def active(self) -> tuple:
        """(mask, rows, rows^T): the rows of G that are not identically zero."""
        mask = np.linalg.norm(self.qp.G, axis=1) > 0.0
        G = self.qp.G[mask]
        return mask, G, np.ascontiguousarray(G.T)


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
    the solve.
    """

    u_eta: np.ndarray
    phi: np.ndarray
    newton_iters: int
    grad_norm: float
    decrements: tuple


@dataclass(frozen=True)
class BarrierBatch:
    """Minimizers at a stack of states, one row per state.

    A row whose input polytope has no strict interior holds NaN in
    ``u_eta``, ``phi`` and ``grad_norm``, 0 in ``newton_iters``, and its
    InfeasibleError in ``errors``, which is None at every solved row.
    ``steps`` holds each Newton iteration's (rows, squared decrements).
    """

    u_eta: np.ndarray
    phi: np.ndarray
    newton_iters: np.ndarray
    grad_norm: np.ndarray
    errors: tuple
    steps: tuple

    def row(self, i: int) -> BarrierSolution:
        """Row i as one solution; raises the row's error where it has none."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return BarrierSolution(
            u_eta=self.u_eta[i], phi=self.phi[i], newton_iters=int(self.newton_iters[i]),
            grad_norm=float(self.grad_norm[i]),
            decrements=tuple(math.sqrt(max(float(v), 0.0))
                             for rows, dec2 in self.steps for v in dec2[rows == i]))


def _certificate(G: np.ndarray, b: np.ndarray, active: np.ndarray) -> np.ndarray | None:
    """Farkas certificate of {u : G u <= b}, the ``active`` rows among all m, as a length-m vector."""
    y = farkas_certificate(G, b)
    if y is None:
        return None
    cert = np.zeros(active.size)
    cert[active] = y
    return cert


def _newton_matrices(H, eta, G, GT, r):
    """H + eta G^T Diag(r_i^2) G for each row r_i of r: the log-barrier
    objective's Hessian at residuals 1 / r_i, shape (k, n, n). GT is G^T,
    contiguous: the product runs about 20 % faster on it."""
    return H + eta * ((GT * (r * r)[:, None, :]) @ G)


def _solve_stack(A, R):
    """A_i^{-1} R_i for each matrix of the stack A; by least squares when one is singular."""
    try:
        return np.linalg.solve(A, R)
    except np.linalg.LinAlgError:
        return np.stack([np.linalg.lstsq(a, r, rcond=None)[0] for a, r in zip(A, R)])


def _values(u, phi, H, f, eta):
    """0.5 u^T H u - f^T u - eta sum log phi, one value per row of u."""
    return np.vecdot(u, 0.5 * (u @ H) - f) - eta * np.sum(np.log(phi), axis=1)


def _line_search(u, p, phi, dec2, H, f, eta, GT, b):
    """The points u + t p and their residuals b - G (u + t p), and the rows
    that found no step (None for none).

    Each row starts at t = 1 and halves t until the point is strictly
    inside the domain and, for a row whose Newton decrement exceeds 0.25,
    until it also meets the Armijo condition V(u + t p) <= V(u) - 0.25 t
    dec2. Near the optimum an Armijo test would drown in floating-point
    cancellation of V, so there only the domain is kept. A row fails when
    t falls to MIN_STEP.
    """
    new_u = u + p
    new_phi = b - new_u @ GT
    ok = new_phi.min(axis=1, initial=np.inf) > 0.0
    damped = np.sqrt(dec2) > 0.25
    if np.count_nonzero(damped):
        f0 = _values(u, phi, H, f, eta)
        if ok.all():
            ok = (_values(new_u, new_phi, H, f, eta) <= f0 - LINESEARCH_ACCEPT * dec2) | ~damped
        else:
            arm = np.flatnonzero(ok & damped)
            ok[arm] = (_values(new_u[arm], new_phi[arm], H, f[arm], eta)
                       <= f0[arm] - LINESEARCH_ACCEPT * dec2[arm])
    if ok.all():
        return new_u, new_phi, None
    t = np.ones(u.shape[0])
    failed = np.zeros(u.shape[0], dtype=bool)
    rows = np.flatnonzero(~ok)
    while rows.size:
        t[rows] *= LINESEARCH_SHRINK
        dead = t[rows] <= MIN_STEP
        failed[rows[dead]] = True
        rows = rows[~dead]
        cand_u = u[rows] + t[rows, None] * p[rows]
        cand_phi = b[rows] - cand_u @ GT
        ok = cand_phi.min(axis=1, initial=np.inf) > 0.0
        arm = np.flatnonzero(ok & damped[rows])
        if arm.size:
            i = rows[arm]
            ok[arm] = (_values(cand_u[arm], cand_phi[arm], H, f[i], eta)
                       <= f0[i] - LINESEARCH_ACCEPT * t[i] * dec2[i])
        new_u[rows[ok]] = cand_u[ok]
        new_phi[rows[ok]] = cand_phi[ok]
        rows = rows[~ok]
    return new_u, new_phi, failed if failed.any() else None


def _newton(u, phi, H, f, eta, G, GT, b, tol, max_iter, record=None):
    """Two-phase Newton on each row of a stack of log-barrier objectives

        V_i(u) = 0.5 u^T H u - f_i^T u - eta sum_j log (b_i - G u)_j,

    from strictly feasible rows u with residuals phi = b - u G^T:
    Armijo-damped far out, pure steps near the optimum (``_line_search``).
    A row leaves the loop when its gradient norm reaches tol_i, when its
    squared decrement is not positive, when its line search fails, or
    after max_iter iterations; each gradient evaluation, including the
    one after the last step, updates the row's best iterate in place.
    Returns (u, gradient norms, iterations): each row's first iterate of
    least gradient norm, that norm, and the iterations the row ran, a
    failed line search counting as one. ``record``, a list, receives each
    iteration's (rows, squared decrements). GT is G^T, contiguous.
    np.count_nonzero tests the masks: it is the cheapest test.
    """
    k = u.shape[0]
    best_u = u.copy()
    best_g = np.full(k, np.inf)
    iters = np.full(k, max_iter)
    live = np.arange(k)
    for it in range(1, max_iter + 2):
        r = 1.0 / phi
        g = u @ H + eta * (r @ G) - f
        gnorm = np.sqrt(np.vecdot(g, g))
        better = gnorm < best_g[live]
        best_u[live[better]] = u[better]
        best_g[live[better]] = gnorm[better]
        if it > max_iter:
            break
        stop = gnorm <= tol
        if np.count_nonzero(stop):
            iters[live[stop]] = it - 1
            keep = ~stop
            live, u, phi, f, b, tol, r, g = (a[keep] for a in (live, u, phi, f, b, tol, r, g))
            if not live.size:
                break
        p = -_solve_stack(_newton_matrices(H, eta, G, GT, r), g[:, :, None])[:, :, 0]
        dec2 = -np.vecdot(g, p)
        if record is not None:
            record.append((live, dec2))
        stop = dec2 <= 0.0
        if np.count_nonzero(stop):
            iters[live[stop]] = it - 1
            keep = ~stop
            live, u, phi, f, b, tol, p, dec2 = (a[keep] for a in (live, u, phi, f, b, tol, p, dec2))
            if not live.size:
                break
        u, phi, stop = _line_search(u, p, phi, dec2, H, f, eta, GT, b)
        if stop is not None:
            iters[live[stop]] = it
            keep = ~stop
            live, u, phi, f, b, tol = (a[keep] for a in (live, u, phi, f, b, tol))
            if not live.size:
                break
    return best_u, best_g, iters


def _phase_one(G: np.ndarray, GT: np.ndarray, b: np.ndarray) -> tuple:
    """A strictly feasible point of {u : G u <= b_i} for each row b_i of b.

    Minimizes the slack s over (u, s) subject to g_j u - b_ij <= s |g_j|
    for every row g_j of G (Boyd & Vandenberghe, Convex Optimization,
    section 11.4.1), whose minimum is minus the Chebyshev radius, by the
    barrier method: Newton steps on t s - sum_j log(s |g_j| + b_ij - g_j u)
    from u = 0, with t multiplied by PHASE_ONE_GROWTH whenever a row's
    Newton decrement lambda is at most PHASE_ONE_CENTRED. A row stops as
    soon as s < 0, at a strictly feasible u. At a centred row the minimum
    is at least s - gap, gap = (m + lambda (lambda + sqrt(m)) / (1 -
    lambda)) / t: m / t bounds the central point's duality gap, and the
    rest its distance in s (Nesterov, Introductory Lectures on Convex
    Optimization, theorem 4.1.13). So the polytope is empty when s > gap,
    and its interior is empty up to rounding when gap <= PHASE_ONE_FLOOR
    (1 + max_j |b_ij| / |g_j|), the Chebyshev radius being at most gap.

    Returns (u, reasons): NaN rows of u where reasons holds why no point
    exists, None elsewhere. Raises NewtonConvergenceError when a row's line
    search fails or MAX_PHASE_ONE_ITERS iterations decide nothing.
    """
    k, m = b.shape
    n = G.shape[1]
    norms = np.linalg.norm(G, axis=1)
    Gs = np.hstack([G / norms[:, None], -np.ones((m, 1))])
    GsT = np.ascontiguousarray(Gs.T)
    bs = b / norms[None, :]
    floor = PHASE_ONE_FLOOR * (1.0 + np.abs(bs).max(axis=1))
    z = np.zeros((k, n + 1))
    z[:, n] = 1.0 - bs.min(axis=1)
    phi = bs - z @ GsT
    t = (1.0 / phi).sum(axis=1)  # the start is centred in s
    H0 = np.zeros((n + 1, n + 1))
    e_s = np.zeros(n + 1)
    e_s[n] = 1.0
    u = np.full((k, n), np.nan)
    reasons = [None] * k
    live = np.arange(k)
    for _ in range(MAX_PHASE_ONE_ITERS):
        # s < 0, checked on the residuals the Newton solve will start from
        found = z[:, n] < 0.0
        if found.any():
            found[found] = (b[found] - z[found, :n] @ GT).min(axis=1) > 0.0
            u[live[found]] = z[found, :n]
            live, z, phi, t, b, bs, floor = (a[~found] for a in (live, z, phi, t, b, bs, floor))
            if not live.size:
                return u, reasons
        r = 1.0 / phi
        g = r @ Gs
        g[:, n] += t
        sol = _solve_stack(_newton_matrices(H0, 1.0, Gs, GsT, r),
                           np.stack([g, np.broadcast_to(e_s, g.shape)], axis=2))
        p, q = -sol[:, :, 0], sol[:, :, 1]
        dec2 = -np.vecdot(g, p)
        lam = np.sqrt(np.maximum(dec2, 0.0))
        centred = lam <= PHASE_ONE_CENTRED
        if centred.any():
            lam = np.where(centred, lam, 0.0)
            gap = (m + lam * (lam + np.sqrt(m)) / (1.0 - lam)) / t
            empty = centred & (z[:, n] > gap)
            flat = centred & ~empty & (gap <= floor)
            for i in live[empty]:
                reasons[i] = "no strictly feasible input sequence"
            for i in live[flat]:
                reasons[i] = "constraint polytope has empty interior"
            keep = ~(empty | flat)
            live, z, phi, t, b, bs, floor, g, p, q, centred = (
                a[keep] for a in (live, z, phi, t, b, bs, floor, g, p, q, centred))
            if not live.size:
                return u, reasons
            # a larger t changes only the s entry of the gradient
            dt = np.where(centred, (PHASE_ONE_GROWTH - 1.0) * t, 0.0)
            t = t + dt
            g[:, n] += dt
            p = p - dt[:, None] * q
            dec2 = -np.vecdot(g, p)
        z, phi, failed = _line_search(z, p, phi, dec2, H0, -t[:, None] * e_s, 1.0, GsT, bs)
        if failed is not None:
            raise NewtonConvergenceError("phase I line search found no step",
                                         last_iterate=z[failed][0, :n],
                                         grad_norm=float("nan"), iters=0)
    raise NewtonConvergenceError(
        f"phase I decided no row in {MAX_PHASE_ONE_ITERS} iterations",
        last_iterate=z[0, :n], grad_norm=float("nan"), iters=MAX_PHASE_ONE_ITERS)


def solve_barrier_batch(bp: BarrierProblem, X: np.ndarray) -> BarrierBatch:
    """Minimize the barrier objective at each row of a (B, d_x) stack of states.

    Each row starts from u = 0, the exact minimizer at x0 = 0, when its
    least residual there, as a distance to the facet, exceeds the floor
    below which ``_phase_one`` calls the interior empty: Newton from a
    start that close to a facet only doubles the tight residual per step
    and stalls. The other rows run ``_phase_one`` together, and rows with
    no strict interior are marked in ``errors``: their Farkas certificate
    runs its LP only when read. Then one Newton (``_newton``) runs over
    every solved row. Raises NewtonConvergenceError for the first row that
    does not reach the gradient tolerance 1e-10 (1 + |F^T x0|), or the
    cancellation floor of its residuals.
    """
    qp = bp.qp
    eta = bp.eta
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B = X.shape[0]
    b = qp.w + X @ qp.P.T
    active, G, GT = bp.active
    errors = [None] * B
    solved = np.all(b[:, ~active] > 0.0, axis=1)
    for i in np.flatnonzero(~solved):
        # a negative such residual is its own Farkas certificate
        cert = np.where(~active & (b[i] < 0.0), 1.0, 0.0)
        errors[i] = InfeasibleError("a residual that no input affects is non-positive at x0",
                                    certificate=cert if cert.any() else None)

    ba = b[:, active]
    f = X @ qp.F
    g_scale = 1.0 + np.sqrt(np.vecdot(f, f))
    tol = GRAD_TOL_FACTOR * g_scale

    u = np.zeros((B, qp.n))
    u[~solved] = np.nan
    dist = ba / np.linalg.norm(G, axis=1)
    clear = dist.min(axis=1, initial=np.inf) > PHASE_ONE_FLOOR * (
        1.0 + np.abs(dist).max(axis=1, initial=0.0))
    cold = np.flatnonzero(solved & ~clear)
    if cold.size:
        u[cold], reasons = _phase_one(G, GT, ba[cold])
        for i, why in zip(cold, reasons):
            if why is not None:
                solved[i] = False
                errors[i] = InfeasibleError(why, certificate=partial(_certificate, G, ba[i], active))

    iters = np.zeros(B, dtype=int)
    gnorm = np.full(B, np.nan)
    rows = np.flatnonzero(solved)
    steps = []
    if rows.size:
        u0, b0 = u[rows], ba[rows]
        u[rows], gnorm[rows], iters[rows] = _newton(
            u0, b0 - u0 @ GT, qp.H, f[rows] - eta * bp.d, eta, G, GT, b0,
            np.minimum(tol[rows], 1e-12 * g_scale[rows]), MAX_NEWTON_ITERS, steps)
    for i in np.flatnonzero(gnorm > tol):
        # phi near zero is computed as a difference of O(b) quantities, so
        # the gradient cannot be evaluated below this cancellation floor;
        # accept iterates that are converged up to it
        Gu = G @ u[i]
        floor = np.finfo(float).eps * eta * float(
            np.linalg.norm(G, axis=1) @ ((np.abs(ba[i]) + np.abs(Gu)) / (ba[i] - Gu) ** 2))
        if gnorm[i] > max(tol[i], 2.0 * floor):
            raise NewtonConvergenceError(
                f"Newton stalled at gradient norm {gnorm[i]:.3e} (tol {tol[i]:.3e})",
                last_iterate=u[i], grad_norm=float(gnorm[i]), iters=int(iters[i]))
    return BarrierBatch(u_eta=u, phi=b - u @ qp.G.T, newton_iters=iters, grad_norm=gnorm,
                        errors=tuple(errors),
                        steps=tuple((rows[live], dec2) for live, dec2 in steps))


def solve_barrier(bp: BarrierProblem, x0: np.ndarray) -> BarrierSolution:
    """Minimize the barrier objective at x0 to gradient tolerance: the
    one-row stack of ``solve_barrier_batch``.

    Raises InfeasibleError when no strict interior exists and
    NewtonConvergenceError when 200 iterations do not reach tolerance.
    """
    return solve_barrier_batch(bp, np.asarray(x0, dtype=float)[None, :]).row(0)


def _sensitivity(bp: BarrierProblem, phi: np.ndarray):
    """(solve, J) at a stack of residual rows phi, shape (k, m).

    ``solve`` applies A_i^{-1} through the Cholesky factor L_i of each
    Newton matrix A_i = H + eta G^T Phi_i^{-2} G, positive definite
    whenever all residuals are positive, and J_i = A_i^{-1} (F^T + eta
    G^T Phi_i^{-2} P) is the Jacobian. (max L_ii / min L_ii)^2, a lower
    bound on cond(A_i), above 1e14 at some row (or a failed factorization)
    draws a warning.
    """
    qp = bp.qp
    if np.any(phi <= 0):
        raise ValueError("barrier derivatives require strictly positive residuals")
    active, G, GT = bp.active
    r = 1.0 / phi[:, active]
    A = _newton_matrices(qp.H, bp.eta, G, GT, r)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        warnings.warn("barrier Jacobian system is not numerically positive definite",
                      RuntimeWarning)
        solve = partial(np.linalg.solve, A)
    else:
        diag = np.diagonal(L, axis1=1, axis2=2)
        cond_lb = float(np.max((diag.max(axis=1) / diag.min(axis=1)) ** 2))
        if cond_lb > 1e14:
            warnings.warn(f"barrier Jacobian system is ill-conditioned (cond >= {cond_lb:.2e})",
                          RuntimeWarning)
        Lt = np.swapaxes(L, 1, 2)

        def solve(R):
            return np.linalg.solve(Lt, np.linalg.solve(L, R))
    return solve, solve(qp.F.T + bp.eta * GT @ ((r * r)[:, :, None] * qp.P[active]))


def barrier_jacobian_batch(bp: BarrierProblem, phi: np.ndarray) -> np.ndarray:
    """Closed-form sensitivities du_eta/dx0 = A^{-1} (F^T + eta G^T Phi^{-2} P)
    at a stack of residual rows phi (``BarrierBatch.phi``), shape (k, n, d_x);
    NaN where a row of phi is (a state with no solution)."""
    phi = np.atleast_2d(phi)
    ok = ~np.isnan(phi).any(axis=1)
    out = np.full((phi.shape[0], bp.qp.n, bp.qp.d_x), np.nan)
    if ok.any():
        out[ok] = _sensitivity(bp, phi[ok])[1]
    return out


def barrier_jacobian(bp: BarrierProblem, sol: BarrierSolution) -> np.ndarray:
    """Closed-form sensitivity du_eta/dx0 of the barrier minimizer to the
    state: the one-row stack of ``barrier_jacobian_batch``."""
    return barrier_jacobian_batch(bp, sol.phi[None, :])[0]


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


def barrier_hessian_batch(bp: BarrierProblem, phi: np.ndarray) -> tuple:
    """Jacobians (k, n, d_x) and state Hessians (k, n, d_x, d_x) of the
    solution map at a stack of residual rows phi, from one factor of each
    Newton matrix; NaN where a row of phi is (a state with no solution).

    T_i[:, j, l] = -2 eta A_i^{-1} G^T Phi_i^{-3} (dphi_j * dphi_l) with
    dphi = P - G J_i: one more solve with the Jacobian's factor of A_i. T_i
    is symmetric in its two state slots by construction.
    """
    qp = bp.qp
    phi = np.atleast_2d(phi)
    ok = ~np.isnan(phi).any(axis=1)
    J = np.full((phi.shape[0], qp.n, qp.d_x), np.nan)
    T = np.full((phi.shape[0], qp.n, qp.d_x, qp.d_x), np.nan)
    if ok.any():
        p = phi[ok]
        solve, J[ok] = _sensitivity(bp, p)
        dphi = qp.P - qp.G @ J[ok]
        rhs = (p ** -3)[:, :, None, None] * (dphi[:, :, :, None] * dphi[:, :, None, :])
        Z = solve(qp.G.T @ rhs.reshape(p.shape[0], qp.m, -1))
        T[ok] = (-2.0 * bp.eta) * Z.reshape(-1, qp.n, qp.d_x, qp.d_x)
    return J, T


def barrier_hessian(bp: BarrierProblem, sol: BarrierSolution) -> np.ndarray:
    """State Hessian of the solution map at ``sol``, shape (n, d_x, d_x): the
    one-row stack of ``barrier_hessian_batch``."""
    return barrier_hessian_batch(bp, sol.phi[None, :])[1][0]


def _fourier(S0: float, S1: float, S2: float) -> np.ndarray:
    """S0 + S1 cos psi + S2 sin psi as coefficients of z^-1, z^0, z^1, z = e^{i psi}."""
    return np.array([(S1 + 1j * S2) / 2, S0, (S1 - 1j * S2) / 2])


def _planar_angles(T: np.ndarray) -> np.ndarray:
    """Angles theta among which ||T (cos theta, sin theta)||_2 takes its maximum.

    With A, B the two slices of T, M(theta) = cos theta A + sin theta B has
    M^T M = P + Q cos psi + R sin psi at psi = 2 theta, so its trace tr,
    diagonal difference delta and doubled off-diagonal entry beta are
    affine in (cos psi, sin psi), and lambda_max = (tr + sqrt(delta^2 +
    beta^2)) / 2. At a stationary point, squared, tr'^2 (delta^2 + beta^2)
    = (delta delta' + beta beta')^2: a trigonometric polynomial of degree
    4, whose roots are those of a degree-8 polynomial in z = e^{i psi}.
    Where M^T M has rank <= 1 for every theta (or is a multiple of I) the
    equation vanishes identically and lambda_max is tr / 2 (or tr), so the
    stationary angle of tr is added, and theta = 0.
    """
    S = T / np.abs(T).max()
    A, B = S[:, :, 0], S[:, :, 1]
    AA, BB, AB = A.T @ A, B.T @ B, A.T @ B
    P, Q, R = (AA + BB) / 2, (AA - BB) / 2, (AB + AB.T) / 2
    tr = _fourier(np.trace(P), np.trace(Q), np.trace(R))
    delta = _fourier(P[0, 0] - P[1, 1], Q[0, 0] - Q[1, 1], R[0, 0] - R[1, 1])
    beta = _fourier(2 * P[0, 1], 2 * Q[0, 1], 2 * R[0, 1])
    d = 1j * np.arange(-1, 2)  # d/dpsi multiplies the coefficient of z^k by i k
    lhs = np.convolve(np.convolve(d * tr, d * tr), np.convolve(delta, delta) + np.convolve(beta, beta))
    rhs = np.convolve(delta, d * delta) + np.convolve(beta, d * beta)
    # coefficients of z^-4 .. z^4; times z^4 they are a polynomial in z
    roots = np.roots((lhs - np.convolve(rhs, rhs))[::-1])
    return np.concatenate([[0.0, np.angle(tr[0]) / 2], np.angle(roots) / 2])


def tensor_spectral_norm(T: np.ndarray) -> float:
    """max over unit y of the spectral norm of T[:, :, :] contracted with y.

    For 2-D state slots the maximum is exact: ``_planar_angles`` gives at
    most 10 candidate angles, all evaluated in one batched SVD. Otherwise
    a higher-order power iteration with POWER_RESTARTS seeded random
    restarts runs on the unfolded tensor.
    """
    T = np.asarray(T, dtype=float)
    d = T.shape[2]
    if d == 1:
        return float(np.linalg.norm(T[:, :, 0], 2))
    if d == 2:
        if not T.any():
            return 0.0
        thetas = _planar_angles(T)
        slices = np.moveaxis(T @ np.stack([np.cos(thetas), np.sin(thetas)]), -1, 0)
        return float(np.linalg.svd(slices, compute_uv=False)[:, 0].max())
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
