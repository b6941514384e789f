"""The stacked Newton engine that logged every iterate, kept as an oracle.

``smoothmpc.barrier._newton`` keeps each row's best iterate as it goes.
This is the engine it replaced: it logs (rows, u, gradient norms) at every
iteration and, when a row leaves other than by convergence, searches the
log for the row's first iterate of least gradient norm; after the last
iteration it evaluates the gradient once more. Both must return the same
u, gradient norms, iteration counts and ``record`` bit for bit.
"""

import numpy as np

from smoothmpc.barrier import _line_search, _newton_matrices, _solve_stack


def newton_with_iterate_log(u, phi, H, f, eta, G, GT, b, tol, max_iter, record=None):
    """Two-phase Newton on each row of a stack of log-barrier objectives

        V_i(u) = 0.5 u^T H u - f_i^T u - eta sum_j log (b_i - G u)_j,

    from strictly feasible rows u with residuals phi = b - u G^T:
    Armijo-damped far out, pure steps near the optimum (``_line_search``).
    A row leaves the loop when its gradient norm reaches tol_i, or with the
    best iterate it saw when its squared decrement is not positive, its
    line search fails or max_iter iterations pass. Returns (u, gradient
    norms, iterations); ``record``, a list, receives each iteration's
    (rows, squared decrements). GT is G^T, contiguous. np.count_nonzero
    tests the masks: it is the cheapest test.
    """
    k = u.shape[0]
    out_u = np.empty_like(u)
    out_g = np.empty(k)
    iters = np.full(k, max_iter)
    live = np.arange(k)
    seen = []  # (rows, u, gradient norms) of every iteration

    def leave(stop, count, best):
        i = live[stop]
        iters[i] = count
        if not best:
            out_u[i], out_g[i] = u[stop], gnorm[stop]
            return ~stop
        # the first iterate of least gradient norm, over every iteration of row i
        out_g[i] = np.inf
        for rows, u_seen, g_seen in seen:
            pos = np.minimum(np.searchsorted(rows, i), rows.size - 1)
            hit = (rows[pos] == i) & (g_seen[pos] < out_g[i])
            out_u[i[hit]] = u_seen[pos[hit]]
            out_g[i[hit]] = g_seen[pos[hit]]
        return ~stop

    for it in range(1, max_iter + 1):
        r = 1.0 / phi
        g = u @ H + eta * (r @ G) - f
        gnorm = np.sqrt(np.vecdot(g, g))
        seen.append((live, u, gnorm))
        stop = gnorm <= tol
        if np.count_nonzero(stop):
            keep = leave(stop, it - 1, False)
            live, u, phi, f, b, tol, r, g = (a[keep] for a in (live, u, phi, f, b, tol, r, g))
            if not live.size:
                return out_u, out_g, iters
        p = -_solve_stack(_newton_matrices(H, eta, G, GT, r), g[:, :, None])[:, :, 0]
        dec2 = -np.vecdot(g, p)
        if record is not None:
            record.append((live, dec2))
        stop = dec2 <= 0.0
        if np.count_nonzero(stop):
            keep = leave(stop, it - 1, True)
            live, u, phi, f, b, tol, p, dec2 = (a[keep] for a in (live, u, phi, f, b, tol, p, dec2))
            if not live.size:
                return out_u, out_g, iters
        u, phi, stop = _line_search(u, p, phi, dec2, H, f, eta, GT, b)
        if stop is not None:
            keep = leave(stop, it, True)
            live, u, phi, f, b, tol = (a[keep] for a in (live, u, phi, f, b, tol))
            if not live.size:
                return out_u, out_g, iters
    g = u @ H + eta * ((1.0 / phi) @ G) - f
    seen.append((live, u, np.sqrt(np.vecdot(g, g))))
    leave(np.ones(live.size, dtype=bool), max_iter, True)
    return out_u, out_g, iters
