"""Independent QP oracles for cross-checking ``smoothmpc.qp.raw_solve_qp``.

``primal_active_set_qp`` is a primal active-set method with smallest-index
(Bland) rules, started from a Chebyshev-center phase-1 LP (or a support LP
on a polytope that holds arbitrarily large balls); it returns the same
``RawQPSolution`` record. ``dual_ascent_qp`` runs accelerated projected
gradient on the dual and returns the primal minimizer only.
``support_loop_box`` is the coordinate box from 2n separate support LPs.
``interior_radius`` is the Chebyshev-LP feasibility test that the barrier
solve ran before its Newton phase I replaced it.
"""

from functools import partial

import numpy as np

from smoothmpc.errors import InfeasibleError, UnboundedError
from smoothmpc.qp import RawQPSolution, chebyshev_center, farkas_certificate, support


def primal_active_set_qp(
    H: np.ndarray,
    q: np.ndarray,
    G: np.ndarray,
    b: np.ndarray,
    z0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> RawQPSolution:
    """Primal active-set method for a strictly convex inequality-constrained QP.

    ``z0`` optionally warm-starts from a feasible point (validated);
    otherwise a Chebyshev-center phase 1 runs first, or, on a polytope
    that holds arbitrarily large balls, a support LP gives some feasible
    point. Ties in the removal/blocking rules are broken by smallest
    constraint index.
    """
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = G.shape
    scale_b = 1.0 + np.abs(b)

    if z0 is not None and np.all(G @ z0 - b <= 1e-9 * scale_b):
        z = np.asarray(z0, dtype=float).copy()
    else:
        try:
            z = chebyshev_center(G, b)[0]
        except UnboundedError:
            z = support(G, b, np.zeros(n))[0]
    # the LP start may violate rows by its own tolerance: raise above 1e-7
    # of the scale, and otherwise start the active-set method from it
    if (G @ z - b).max(initial=-np.inf) > 1e-7 * scale_b.max():
        raise InfeasibleError("phase-1 produced an infeasible start",
                              certificate=partial(farkas_certificate, G, b))

    work = np.zeros(m, dtype=bool)
    if max_iter is None:
        max_iter = 50 * (m + n + 10)

    lam_work = np.zeros(0)
    for it in range(1, max_iter + 1):
        g = H @ z + q
        idx = np.flatnonzero(work)
        k = idx.size
        if k:
            KKT = np.zeros((n + k, n + k))
            KKT[:n, :n] = H
            KKT[:n, n:] = G[idx].T
            KKT[n:, :n] = G[idx]
            rhs = np.concatenate([-g, np.zeros(k)])
            sol = np.linalg.solve(KKT, rhs)
            p, lam_work = sol[:n], sol[n:]
        else:
            p = np.linalg.solve(H, -g)
            lam_work = np.zeros(0)

        if np.linalg.norm(p) <= tol * (1.0 + np.linalg.norm(z)):
            if k == 0 or lam_work.min() >= -tol:
                mult = np.zeros(m)
                mult[idx] = np.maximum(lam_work, 0.0)
                return RawQPSolution(z=z, working_set=work.copy(), multipliers=mult,
                                     iterations=it)
            drop = idx[np.flatnonzero(lam_work < -tol)[0]]
            work[drop] = False
            continue

        rows = np.flatnonzero(~work)
        Gp = G[rows] @ p
        pos = Gp > 1e-13 * (1.0 + np.abs(Gp).max(initial=0.0))
        alpha = 1.0
        block = -1
        if pos.any():
            cand = rows[pos]
            ratios = np.maximum(b[cand] - G[cand] @ z, 0.0) / Gp[pos]
            amin = float(ratios.min())
            if amin < 1.0:
                alpha = amin
                # Bland tie-break: smallest index among near-minimal ratios
                tie = cand[ratios <= amin + 1e-12 * (1.0 + amin)]
                block = int(tie.min())
        z = z + alpha * p
        if block >= 0:
            work[block] = True

    raise RuntimeError(f"active-set method did not converge in {max_iter} iterations")


def dual_ascent_qp(
    H: np.ndarray,
    q: np.ndarray,
    G: np.ndarray,
    b: np.ndarray,
    max_iter: int = 1_000_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Accelerated projected gradient on the dual; independent of the active-set path.

    Maximizes the dual of min 0.5 z^T H z + q^T z s.t. G z <= b over
    lambda >= 0 and returns the primal z(lambda). z(lambda) is stationary
    and lambda >= 0 by construction, so the iteration stops on the rest of
    the KKT conditions: every row violated by at most tol (1 + |b_i|), and
    a duality gap |lambda^T (G z - b)| of at most tol (1 + |f(z)|). Raises
    RuntimeError if that takes more than ``max_iter`` steps. Used only as a
    cross-check oracle at desk scale.
    """
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    Hinv_GT = np.linalg.solve(H, G.T)
    M = G @ Hinv_GT
    Hinv_q = np.linalg.solve(H, q)
    L = float(np.linalg.eigvalsh(M).max())
    if L <= 0:
        return -Hinv_q
    step = 1.0 / L
    y = prev = np.zeros(G.shape[0])
    t = 1.0
    for _ in range(max_iter):
        grad = -(M @ y) - (G @ Hinv_q) - b  # gradient of the dual at y
        lam = np.maximum(y + step * grad, 0.0)
        z = -Hinv_q - Hinv_GT @ lam
        slack = G @ z - b
        objective = 0.5 * z @ H @ z + q @ z
        if (slack <= tol * (1.0 + np.abs(b))).all() and abs(lam @ slack) <= tol * (1.0 + abs(objective)):
            return z
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = lam + ((t - 1.0) / t_new) * (lam - prev)
        prev, t = lam, t_new
    raise RuntimeError(f"dual ascent did not meet the KKT tolerance in {max_iter} iterations")


def support_loop_box(G: np.ndarray, b: np.ndarray) -> tuple:
    """Coordinate box [lo, hi] of {z : G z <= b}, one support LP per direction.

    The oracle of ``smoothmpc.qp.bounding_box``, which solves the 2n LPs as
    blocks of one; it raises where the first failing direction raises.
    """
    n = G.shape[1]
    lo = np.empty(n)
    hi = np.empty(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        hi[j] = support(G, b, e)[1]
        lo[j] = -support(G, b, -e)[1]
    return lo, hi


def interior_radius(G: np.ndarray, b: np.ndarray) -> float:
    """Chebyshev radius of {z : G z <= b}; -inf when it is empty.

    Rows of G that are identically zero are left out of the LP: the
    polytope is empty when one of their offsets is negative, and has no
    interior when one is zero.
    """
    active = np.linalg.norm(G, axis=1) > 0.0
    if np.any(b[~active] < 0.0):
        return -np.inf
    if np.any(b[~active] == 0.0):
        return 0.0
    try:
        return chebyshev_center(G[active], b[active])[1]
    except InfeasibleError:
        return -np.inf
