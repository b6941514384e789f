"""Random systems for the tests, and the Newton tolerance of a barrier solve."""

import numpy as np

from smoothmpc.barrier import GRAD_TOL_FACTOR, solve_barrier
from smoothmpc.core import BoxlikeConstraints, LinearSystem, StageCost, build_condensed
from smoothmpc.errors import InfeasibleError


def random_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + 0.1 * np.eye(n)


def random_bounded_polytope(rng, n, extra_rows):
    G = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((extra_rows, n))])
    b = np.concatenate([rng.uniform(0.5, 2.0, size=2 * n),
                        rng.uniform(0.5, 2.0, size=extra_rows)])
    return G, b


def random_system(rng):
    """Random dynamics, weights and horizon; state and input polytopes are
    unit-scale boxes plus random extra rows."""
    d_x, d_u, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 6))
    sys_ = LinearSystem(A=rng.standard_normal((d_x, d_x)) / np.sqrt(d_x),
                        B=rng.standard_normal((d_x, d_u)))
    cost = StageCost(Q=random_spd(rng, d_x), R=random_spd(rng, d_u), horizon=T)
    A_x, b_x = random_bounded_polytope(rng, d_x, int(rng.integers(0, 3)))
    A_u, b_u = random_bounded_polytope(rng, d_u, int(rng.integers(0, 3)))
    cons = BoxlikeConstraints(A_x=A_x, b_x=b_x, A_u=A_u, b_u=b_u)
    return sys_, build_condensed(sys_, cost, cons)


def cold_state(rng, bp):
    """A state where u = 0 is infeasible but the barrier problem is solvable,
    so ``solve_barrier`` starts from phase I, and its solution; None if the
    ray drawn leaves the feasible set first."""
    qp = bp.qp
    active = np.linalg.norm(qp.G, axis=1) > 0
    direction = rng.standard_normal(qp.d_x)
    direction /= np.linalg.norm(direction)
    for scale in np.geomspace(0.05, 5.0, 25):
        x0 = scale * direction
        if qp.bounds_rhs(x0)[active].min() < 0:
            try:
                return x0, solve_barrier(bp, x0)
            except InfeasibleError:
                return None
    return None


def tolerance(qp, x0, *sols):
    # V_eta is alpha1-strongly convex (the barrier term is convex), so
    # ||u - u*|| <= ||grad V_eta(u)|| / alpha1 for each solution
    tol = GRAD_TOL_FACTOR * (1.0 + float(np.linalg.norm(qp.F.T @ x0)))
    return sum(max(s.grad_norm, tol) for s in sols) / qp.alpha1


def layouts(X):
    """X, a C-contiguous float64 batch, as three other layouts a caller may
    pass: a strided view, a Fortran-ordered copy and a read-only copy."""
    wide = np.zeros((X.shape[0], 2 * X.shape[1]))
    wide[:, ::2] = X
    frozen = X.copy()
    frozen.setflags(write=False)
    out = [wide[:, ::2], np.asfortranarray(X), frozen]
    assert not out[0].flags.c_contiguous and not out[2].flags.writeable
    assert X.shape[0] < 2 or not out[1].flags.c_contiguous
    return out
