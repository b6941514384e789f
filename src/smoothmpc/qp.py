"""Dense strictly convex QP solver and the package's linear programs.

Solves min 0.5 z^T H z + q^T z subject to G z <= b with H positive
definite, by the dual active-set method of Goldfarb & Idnani (1983): it
starts at the unconstrained minimizer and adds violated rows, so it needs
no feasible starting point, and an empty polytope ends it with a dual ray
that is its own Farkas certificate. Exact active sets at the optimizer
are required downstream, which rules out interior-point solvers here.

Every linear program of the package runs here, and none serves the QP:
the Chebyshev-center and support LPs over {z : G z <= b}, the bounding
box as one LP of 2n independent support blocks, with one mapping of
HiGHS statuses to exceptions, and the Farkas certificate of an empty
polytope. They give the feasible radii, the bounding box, the feasible
polygon and the barrier's cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

from .errors import InfeasibleError, UnboundedError

__all__ = [
    "RawQPSolution",
    "raw_solve_qp",
    "chebyshev_center",
    "support",
    "bounding_box",
    "farkas_certificate",
]


# a row counts as violated when (G z - b)_i > FEAS_TOL * (1 + |b_i|); a
# row p counts as dependent on the working rows when, in the H^-1 inner
# product, the squared norm of its part outside their span is at most
# FEAS_TOL * (G H^-1 G^T)_pp, the rule of matrixops.is_singular_submatrix
FEAS_TOL = 1e-10


@dataclass(frozen=True)
class RawQPSolution:
    z: np.ndarray
    working_set: np.ndarray  # bool, length m; linearly independent active rows
    multipliers: np.ndarray  # length m, zero off the working set
    iterations: int


def _solve_lp(c: np.ndarray, A_ub, b_ub: np.ndarray, G: np.ndarray, b: np.ndarray,
              bounds=(None, None)):
    """HiGHS LP over rows A_ub <= b_ub that describe {z : G z <= b}.

    HiGHS's presolve can report a nonempty polytope as empty, so status 2
    is checked by one more solve without presolve, whose status counts.
    Status 2 raises InfeasibleError with a Farkas certificate for (G, b),
    computed when first read, and status 3 UnboundedError. Any other
    failure runs the Farkas LP at once: a certificate means the polytope
    is empty after all, and raises InfeasibleError with it; otherwise the
    failure raises RuntimeError.
    """
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs",
                      options={"presolve": False})
    if res.status == 2:
        raise InfeasibleError("constraint polytope is empty",
                              certificate=partial(farkas_certificate, G, b))
    if res.status == 3:
        raise UnboundedError("constraint polytope is unbounded")
    if not res.success:
        y = farkas_certificate(G, b)
        if y is not None:
            raise InfeasibleError("constraint polytope is empty", certificate=y)
        raise RuntimeError(f"LP failed: {res.message}")
    return res


def chebyshev_center(G: np.ndarray, b: np.ndarray) -> tuple:
    """Center and radius of the largest ball inside {z : G z <= b}."""
    n = G.shape[1]
    norms = np.linalg.norm(G, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = _solve_lp(c, np.hstack([G, norms[:, None]]), b, G, b, [(None, None)] * n + [(0, None)])
    return res.x[:n], float(res.x[n])


def support(G: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """Maximizer and maximum of c^T z over {z : G z <= b}."""
    res = _solve_lp(-c, G, b, G, b)
    return res.x, float(-res.fun)


def bounding_box(G: np.ndarray, b: np.ndarray) -> tuple:
    """Coordinate box [lo, hi] enclosing {z : G z <= b}, from one LP.

    The LP has 2n independent blocks, each a copy of {z : G z <= b}:
    block 2j maximizes z_j and block 2j + 1 minimizes it, and HiGHS solves
    them together. hi[j] and lo[j] are coordinate j of those blocks'
    solutions, which is each block's optimal value exactly, since its cost
    has a single entry of +-1.
    """
    n = G.shape[1]
    c = np.eye(n)[:, None, :] * [[-1.0], [1.0]]  # c[j, s] is the cost of block 2j + s
    A_ub = block_diag([G] * (2 * n), format="csr")
    z = _solve_lp(c.ravel(), A_ub, np.tile(b, 2 * n), G, b).x.reshape(n, 2, n)
    hi, lo = np.diagonal(z, axis1=0, axis2=2).copy()
    return lo, hi


def farkas_certificate(G: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Farkas vector y >= 0, y^T G = 0, y^T b < 0 for an empty polytope.

    Obtained from the dual of the elastic LP min s s.t. G z - s <= b.
    Returns None if the polytope is actually feasible.
    """
    m, n = G.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.hstack([G, -np.ones((m, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=[(None, None)] * (n + 1), method="highs")
    if not res.success or res.fun <= 1e-12:
        return None
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    # y^T G = 0 and y^T b = -s* < 0 up to LP tolerances
    return y


def raw_solve_qp(H: np.ndarray, q: np.ndarray, G: np.ndarray, b: np.ndarray) -> RawQPSolution:
    """Dual active-set method (Goldfarb & Idnani) for a strictly convex QP.

    Starts at the unconstrained minimizer -H^-1 q with an empty working
    set and repeatedly takes the most violated row p (largest
    (G z - b)_p / (1 + |b_p|), smallest index on ties) until no row is
    violated by more than FEAS_TOL. A step raises the multiplier of p
    while the working rows stay active: a full step makes p active and
    adds it, a partial step stops where a working multiplier reaches zero,
    drops that row and tries p again. When neither step exists, p is a
    nonnegative combination of working rows that it cannot meet, and the
    dual ray is the Farkas certificate of the empty polytope.
    """
    H, q, G, b = (np.asarray(a, dtype=float) for a in (H, q, G, b))
    if not all(np.isfinite(a).all() for a in (H, q, G, b)):
        raise ValueError("QP data has non-finite entries")
    m, n = G.shape
    # in w = L^T z, with H = L L^T, the QP is min 0.5 |w - w0|^2 s.t. V^T w <= b
    L = np.linalg.cholesky(H)
    V = np.linalg.solve(L, G.T)
    w = -np.linalg.solve(L, q)
    scale_b = 1.0 + np.abs(b)
    lam = np.zeros(m)
    work = np.zeros(m, dtype=bool)
    p = -1
    max_iter = 50 * (m + n + 10)
    for it in range(1, max_iter + 1):
        if p < 0:
            viol = (V.T @ w - b) / scale_b
            if viol.max(initial=-np.inf) <= FEAS_TOL:
                return RawQPSolution(z=np.linalg.solve(L.T, w), working_set=work,
                                     multipliers=np.maximum(lam, 0.0), iterations=it)
            p = int(np.argmax(viol))
        A = np.flatnonzero(work)
        # split v_p into V_A r and the step d orthogonal to the working rows;
        # by QR, so that d is accurate when v_p nearly lies in their span
        Q, R = np.linalg.qr(V[:, A])
        c = Q.T @ V[:, p]
        r = np.linalg.solve(R, c)
        d = V[:, p] - Q @ c
        t = np.inf
        if d @ d > FEAS_TOL * (V[:, p] @ V[:, p]):
            t = (V[:, p] @ w - b[p]) / (d @ d)
        pos = r > 0
        block = -1
        if pos.any():
            ratios = lam[A[pos]] / r[pos]
            j = int(np.argmin(ratios))
            if ratios[j] < t:
                t, block = float(ratios[j]), int(A[pos][j])
        if not np.isfinite(t):
            y = np.zeros(m)
            y[A] = np.maximum(-r, 0.0)
            y[p] = 1.0
            raise InfeasibleError("constraint polytope is empty", certificate=y)
        w = w - t * d
        lam[A] -= t * r
        lam[p] += t
        if block >= 0:
            lam[block] = 0.0
            work[block] = False
        else:
            work[p] = True
            p = -1

    raise RuntimeError(f"dual active-set method did not converge in {max_iter} iterations")
