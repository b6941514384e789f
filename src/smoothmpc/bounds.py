"""Calculators and empirical verifiers for the barrier-solution bounds.

Every asymptotic statement about the barrier minimizer is instantiated
here with its explicit constants so that sweep checks are deterministic:
the self-concordance parameter of the recentered barrier (re-exported
from ``barrier``), the global error bound, the directional error
sandwich, two residual lower bounds, the solution-Hessian upper bound,
the consolidated quadratic-over-polytope bounds, the one-dimensional gap
oracle, and the barrier axioms.

Outer radii: the sandwich and residual bounds require an outer ball
concentric with an inscribed ball. ``feasible_radii`` reports the
origin-centered corner bound R; the calculators use the same corner bound
measured from the Chebyshev center (R_center), which keeps the inscribed
and enclosing balls concentric and the bounds sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierProblem, _newton, sc_parameter
from .core import CondensedQP, FeasibleRadii, feasible_radii, polytope_radii
from .errors import InfeasibleError
from .qp import bounding_box, chebyshev_center, raw_solve_qp

__all__ = [
    "BoundReport",
    "NotApplicableError",
    "sc_parameter",
    "error_upper",
    "directional_bounds",
    "DirectionalBounds",
    "residual_lower_bound",
    "first_residual_lower_bound",
    "normalized_min_residual",
    "hessian_upper_bound",
    "quad_opt_bounds",
    "newton_log_barrier",
    "SelfConcordantBarrier1D",
    "log_barrier_1d",
    "one_d_gap_oracle",
    "barrier_axioms_check",
]

REPORT_SLACK = 1e-10


class NotApplicableError(ValueError):
    """Bound does not apply (e.g. the unconstrained minimizer is feasible)."""


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs with the context that produced it."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    context: dict

    @classmethod
    def check(cls, name: str, lhs: float, rhs: float, context: dict | None = None):
        ok = lhs <= rhs + REPORT_SLACK * max(1.0, abs(rhs))
        return cls(name=name, lhs=float(lhs), rhs=float(rhs), satisfied=bool(ok),
                   context=dict(context or {}))


def error_upper(bp: BarrierProblem, eta: float | None = None) -> float:
    """Global bound sqrt(2 eta nu / alpha1) on ||u_eta - u_star||."""
    eta = bp.eta if eta is None else eta
    return math.sqrt(2.0 * eta * bp.nu / bp.qp.alpha1)


def _h_norm(qp: CondensedQP, v: np.ndarray) -> float:
    return math.sqrt(float(v @ qp.H @ v))


@dataclass(frozen=True)
class DirectionalBounds:
    a: np.ndarray
    lower: float
    upper: float


def _sandwich(eta: float, nu: float, a1: float, a2: float, D: float,
              r: float, R: float) -> tuple:
    """(lower, upper) bounds on the gap a^T (x_eta - x_star) along the
    direction a of H (x_star - v), for a quadratic with curvature in
    [a1, a2] whose minimizer v lies at H-distance D from x_star, under a
    nu-barrier on a polytope with concentric radii r <= R."""
    upper = (math.sqrt(4.0 * eta * nu + D * D) - D) / (2.0 * math.sqrt(a1))
    lower = math.sqrt(a1 / a2) * (r / R) * min(
        (math.sqrt(eta + D * D) - D) / math.sqrt(nu * a2),
        math.sqrt(a1 / a2) * r / (2.0 * nu + 4.0 * math.sqrt(nu)),
    )
    return lower, upper


def directional_bounds(bp: BarrierProblem, x0: np.ndarray, u_star: np.ndarray,
                       radii: FeasibleRadii | None = None) -> DirectionalBounds:
    """Error sandwich along a = H(u* - K0 x0)/||H(u* - K0 x0)||, K0 = H^{-1} F^T.

    Uses the pure log-barrier parameter (nu = m) exactly as the sandwich
    is stated; r is the Chebyshev radius and R the concentric corner
    bound of the input polytope at x0.
    """
    qp = bp.qp
    x0 = np.asarray(x0, dtype=float)
    delta = np.asarray(u_star, dtype=float) - qp.Hinv_FT @ x0
    Hd = qp.H @ delta
    if np.linalg.norm(Hd) <= 1e-12 * (1.0 + np.linalg.norm(u_star)):
        raise NotApplicableError("unconstrained minimizer coincides with u_star")
    if radii is None:
        radii = feasible_radii(qp, x0)
    lower, upper = _sandwich(bp.eta, qp.m, qp.alpha1, qp.alpha2, _h_norm(qp, delta),
                             radii.r, radii.R_center)
    return DirectionalBounds(a=Hd / np.linalg.norm(Hd), lower=lower, upper=upper)


def residual_lower_bound(bp: BarrierProblem, x0: np.ndarray, u_star: np.ndarray,
                         radii: FeasibleRadii | None = None) -> float:
    """Strict-interiority floor for min_i phi_i(u_eta) over rows with ||g_i|| >= 1.

    The lower side of the sandwich with the recentered-barrier parameter nu,
    (lambda_min/lambda_max)(r/R) * min{ (sqrt(eta + D^2) - D)/sqrt(nu lambda_min),
    r/(2 nu + 4 sqrt(nu)) }, with D the H-norm distance of u_star from the
    unconstrained solution.
    """
    qp = bp.qp
    x0 = np.asarray(x0, dtype=float)
    delta = np.asarray(u_star, dtype=float) - qp.Hinv_FT @ x0
    if radii is None:
        radii = feasible_radii(qp, x0)
    return _sandwich(bp.eta, bp.nu, qp.alpha1, qp.alpha2, _h_norm(qp, delta),
                     radii.r, radii.R_center)[0]


def normalized_min_residual(qp: CondensedQP, x0: np.ndarray, u: np.ndarray) -> float:
    """min_i (w + P x0 - G u)_i / ||g_i|| over rows with nonzero g_i."""
    b = qp.bounds_rhs(x0)
    norms = np.linalg.norm(qp.G, axis=1)
    keep = norms > 0
    phi = b[keep] - qp.G[keep] @ np.asarray(u, dtype=float)
    return float(np.min(phi / norms[keep]))


def first_residual_lower_bound(bp: BarrierProblem, x0: np.ndarray, L_q: float,
                               radii: FeasibleRadii | None = None) -> float:
    """Residual floor min{eta/2, r eta^2 / (150 (nu eta^2 + R^2 (L^2 + 1)))}.

    Stated for unit-norm constraint rows, so it lower-bounds the
    row-normalized residuals (see ``normalized_min_residual``). L_q is a
    Lipschitz bound of the quadratic objective over the polytope.
    """
    if radii is None:
        radii = feasible_radii(bp.qp, np.asarray(x0, dtype=float))
    r, R = radii.r, radii.R_center
    eta = bp.eta
    denom = 150.0 * (bp.nu * eta * eta + R * R * (L_q * L_q + 1.0))
    return min(eta / 2.0, r * eta * eta / denom)


def quadratic_lipschitz(qp: CondensedQP, x0: np.ndarray, R: float) -> float:
    """sup ||H u - F^T x0|| over ||u|| <= R, a valid L for the quadratic part."""
    return qp.alpha2 * R + float(np.linalg.norm(qp.F.T @ np.asarray(x0, dtype=float)))


def hessian_upper_bound(bp: BarrierProblem, x0: np.ndarray, L: float, C: float,
                        u_star: np.ndarray | None = None,
                        radii: FeasibleRadii | None = None) -> float:
    """Solution-Hessian bound (C / res_lb) (||P|| + ||G|| L)^2.

    L is the gain-variation Lipschitz constant max ||K_sigma|| and C the
    max of ||2 H^{-1} G^T (G H^{-1} G^T)_sigma^+|| over nonsingular active
    sets (enumerated when m <= 20, otherwise over discovered sets).
    """
    qp = bp.qp
    if u_star is None:
        from .explicit import solve_qp

        u_star = solve_qp(qp, x0).u_star
    res = residual_lower_bound(bp, x0, u_star, radii=radii)
    if res <= 0:
        raise ValueError("residual lower bound is not positive")
    Pn, Gn = qp.norms
    return (C / res) * (Pn + Gn * L) ** 2


def newton_log_barrier(Hq: np.ndarray, lin: np.ndarray, G: np.ndarray, b: np.ndarray,
                       eta: float, tol: float = 1e-12, max_iter: int = 400,
                       chebyshev: tuple | None = None) -> np.ndarray:
    """Minimize 0.5 x^T Hq x + lin^T x - eta sum_i log(b_i - g_i^T x).

    Oracle-grade Newton solve on an arbitrary polytope with the pure log
    barrier, started from the Chebyshev center: ``chebyshev`` is its
    (center, radius) when the caller has solved it, else its LP runs here.
    """
    Hq = np.asarray(Hq, dtype=float)
    lin = np.asarray(lin, dtype=float)
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    x_init, r = chebyshev_center(G, b) if chebyshev is None else chebyshev
    if r <= 0:
        raise InfeasibleError("polytope has empty interior")
    scale = 1.0 + float(np.linalg.norm(lin))
    x, _, _ = _newton(x_init[None, :], b[None, :] - x_init @ G.T, Hq, -lin[None, :], eta,
                      G, np.ascontiguousarray(G.T), b[None, :], np.array([tol * scale]), max_iter)
    return x[0]


def quad_opt_bounds(G: np.ndarray, b: np.ndarray, Hmat: np.ndarray, v: np.ndarray,
                    eta: float, nu: float) -> list:
    """Verify the consolidated quadratic-over-polytope bounds on {x: G x <= b}.

    Solves x_star (active set) and x_eta (Newton with the pure log
    barrier), then checks (i) the global gap sqrt(eta nu / m), (ii) the
    directional gap along a = H(x_star - v)/|..| (reported not-applicable
    when x_star = v), and (iii) that the concentric-ball radius
    lower-bounds the distance of x_eta from the boundary.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    Hmat = np.asarray(Hmat, dtype=float)
    v = np.asarray(v, dtype=float)
    eigs = np.linalg.eigvalsh(Hmat)
    m_eig, M_eig = float(eigs.min()), float(eigs.max())

    x_star = raw_solve_qp(Hmat, -(Hmat @ v), G, b).z
    # concentric radii around the Chebyshev center, where the Newton solve starts
    radii = polytope_radii(G, b)
    r, R = radii.r, radii.R_center
    x_eta = newton_log_barrier(Hmat, -(Hmat @ v), G, b, eta, chebyshev=(radii.center, r))

    ctx = {"eta": eta, "nu": nu, "m_eig": m_eig, "M_eig": M_eig, "r": r, "R": R}
    reports = [
        BoundReport.check("quad_gap_global", float(np.linalg.norm(x_eta - x_star)),
                          math.sqrt(eta * nu / m_eig), ctx),
    ]
    dv = x_star - v
    Dh = math.sqrt(float(dv @ Hmat @ dv))
    if np.linalg.norm(Hmat @ dv) > 1e-10 * (1.0 + np.linalg.norm(v)):
        a = Hmat @ dv / np.linalg.norm(Hmat @ dv)
        gap = float(a @ (x_eta - x_star))
        radius, upper = _sandwich(eta, nu, m_eig, M_eig, Dh, r, R)
        reports.append(BoundReport.check("quad_gap_directional_nonneg", 0.0, gap, ctx))
        reports.append(BoundReport.check("quad_gap_directional_upper", gap, upper, ctx))
        dist = float(np.min((b - G @ x_eta) / np.linalg.norm(G, axis=1)))
        reports.append(BoundReport.check("quad_ball_radius", radius, dist, ctx))
        reports.append(BoundReport.check("quad_directional_lower", radius, gap, ctx))
    else:
        reports.append(BoundReport.check("quad_gap_directional_na", 0.0, 0.0,
                                         {**ctx, "note": "x_star equals v"}))
    return reports


@dataclass(frozen=True)
class SelfConcordantBarrier1D:
    """A one-dimensional barrier on (0, r) with its value evaluator."""

    r: float
    value: callable
    nu: float


def log_barrier_1d(r: float) -> SelfConcordantBarrier1D:
    """The standard two-sided log barrier -log x - log(r - x), nu = 2."""
    return SelfConcordantBarrier1D(
        r=r,
        value=lambda x: -math.log(x) - math.log(r - x),
        nu=2.0,
    )


def _golden_minimize(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, bnd = lo, hi
    c = bnd - invphi * (bnd - a)
    d = a + invphi * (bnd - a)
    fc, fd = f(c), f(d)
    while (bnd - a) > tol:
        if fc < fd:
            bnd, d, fd = d, c, fc
            c = bnd - invphi * (bnd - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (bnd - a)
            fd = f(d)
    return 0.5 * (a + bnd)


def one_d_gap_oracle(barrier: SelfConcordantBarrier1D, quad: tuple, eta: float,
                     curvature: float | None = None) -> dict:
    """Locate x_eta on (0, r) by golden section and check its sandwich.

    ``quad`` is (m, M, v): curvature bounds of the convex term and its
    minimizer; the convex term used is 0.5*curvature*(x - v)^2 with
    ``curvature`` in [m, M] (defaults to m). Returns x_eta with the lower
    and upper bound values and their BoundReports.
    """
    m_c, M_c, v = quad
    if curvature is None:
        curvature = m_c
    if not (m_c <= curvature <= M_c) or m_c <= 0:
        raise ValueError("need 0 < m <= curvature <= M")
    r, nu = barrier.r, barrier.nu

    def f(x):
        return 0.5 * curvature * (x - v) ** 2 + eta * barrier.value(x)

    pad = 1e-14 * r
    x_eta = _golden_minimize(f, pad, r - pad, tol=1e-12 * max(1.0, r))
    lower = min(0.5 * (math.sqrt(2.0 * eta / M_c + v * v) + v),
                m_c * r / (M_c * (2.0 * nu + 4.0 * math.sqrt(nu))))
    upper = 0.5 * (math.sqrt(4.0 * eta * nu / m_c + v * v) + v)
    ctx = {"eta": eta, "v": v, "m": m_c, "M": M_c, "nu": nu, "r": r}
    return {
        "x_eta": x_eta,
        "lower": lower,
        "upper": upper,
        "reports": [
            BoundReport.check("one_d_lower", lower, x_eta, ctx),
            BoundReport.check("one_d_upper", x_eta, upper, ctx),
        ],
    }


def barrier_axioms_check(G: np.ndarray, b: np.ndarray, R: float,
                         n_samples: int = 1000, seed: int = 0) -> list:
    """Sampled checks of the log-barrier axioms on {x : G x <= b}.

    For interior x and closure y: grad(phi)(x)^T (y - x) <= m (the barrier
    parameter of the m-row log barrier), and lambda_min(hess phi) >=
    1/(9 R^2) for a set inside a radius-R ball. Sampling is rejection from
    the coordinate bounding box.
    """
    rng = np.random.default_rng(seed)
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = G.shape
    lo, hi = bounding_box(G, b)

    def sample(strict: bool):
        pts = []
        while len(pts) < n_samples:
            cand = rng.uniform(lo, hi, size=(4 * n_samples, n))
            resid = b[None, :] - cand @ G.T
            ok = np.all(resid > (1e-9 if strict else -1e-12), axis=1)
            pts.extend(cand[ok][: n_samples - len(pts)])
        return np.array(pts)

    xs = sample(strict=True)
    ys = sample(strict=False)
    worst_ip = -np.inf
    worst_eig = np.inf
    for x, y in zip(xs, ys):
        resid = b - G @ x
        grad = G.T @ (1.0 / resid)
        worst_ip = max(worst_ip, float(grad @ (y - x)))
        hess = (G * (1.0 / resid ** 2)[:, None]).T @ G
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(hess).min()))
    ctx = {"m": m, "R": R, "n_samples": int(n_samples)}
    return [
        BoundReport.check("barrier_inner_product", worst_ip, float(m), ctx),
        BoundReport.check("barrier_hessian_floor", 1.0 / (9.0 * R * R), worst_eig, ctx),
    ]
