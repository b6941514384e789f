"""The stacked barrier solve against row-by-row solves and a Chebyshev-LP oracle."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newton_oracles
import smoothmpc.barrier
from newton_oracles import newton_with_iterate_log
from smoothmpc.barrier import (
    _line_search,
    _newton,
    _solve_stack,
    barrier_jacobian,
    barrier_jacobian_batch,
    make_barrier_problem,
    solve_barrier,
    solve_barrier_batch,
)
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import feasible_polygon
from qp_oracles import interior_radius
from systems import random_bounded_polytope, random_spd, random_system, tolerance

# the oracle's verdict is taken as clear below CLEAR times the offsets'
# scale; above, the LP's own tolerances decide
CLEAR = 1e-6


def strictly_inside(G, b, u):
    """Whether every residual b - G u is positive in exact arithmetic on the
    floats given: u is then a witness that {z : G z <= b} has an interior."""
    u = [Fraction(v) for v in u]
    return all(Fraction(bj) > sum(Fraction(g) * v for g, v in zip(row, u))
               for row, bj in zip(G.tolist(), b.tolist()))


def boundary_state(qp, direction):
    """The last state along ``direction`` whose input polytope is nonempty, by bisection."""
    def nonempty(x):
        return interior_radius(qp.G, qp.bounds_rhs(x)) >= 0.0

    lo, hi = 0.0, 1.0
    while nonempty(hi * direction):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if nonempty(mid * direction) else (lo, mid)
    return lo * direction


def mixed_states(rng, qp):
    """Interior states, cold ones (u = 0 infeasible), states with an input
    polytope of empty interior (on the boundary of the feasible set) and
    infeasible ones, shuffled into one stack."""
    rays = rng.standard_normal((6, qp.d_x))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    edge = np.array([boundary_state(qp, d) for d in rays])
    states = [0.02 * edge, rng.uniform(0.3, 0.95, (6, 1)) * edge, 1.5 * edge]
    if qp.d_x == 2:
        states.append(feasible_polygon(qp))
    else:
        states.append(edge)
    X = np.vstack(states)
    return X[rng.permutation(X.shape[0])]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(1300)  # the Chebyshev LP gives -0.0 at a boundary state with an interior
def test_stacked_solve_matches_row_by_row_solves_and_the_lp_oracle(seed):
    # A solved row is checked by its own witness: u_eta strictly inside,
    # exactly. The LP oracle judges only the rows the barrier gives up on;
    # at a state bisected onto the boundary it can call an interior of
    # radius 5e-9 empty.
    rng = np.random.default_rng(seed)
    _, qp = random_system(rng)
    bp = make_barrier_problem(qp, float(10.0 ** rng.uniform(-3, 0)), outer_radius=1.0)
    X = mixed_states(rng, qp)
    batch = solve_barrier_batch(bp, X)
    J = barrier_jacobian_batch(bp, batch.phi)
    kinds = set()
    for i, x in enumerate(X):
        b = qp.bounds_rhs(x)
        try:
            seq = solve_barrier(bp, x)
        except InfeasibleError:
            seq = None
        if seq is None:
            r = interior_radius(qp.G, b)
            scale = 1.0 + np.max(np.abs(b) / np.maximum(np.linalg.norm(qp.G, axis=1), 1e-300))
            assert batch.errors[i] is not None and np.isnan(batch.u_eta[i]).all()
            assert np.isnan(J[i]).all()
            assert r <= CLEAR * scale, (i, r)
            kinds.add("empty" if r < 0 else "no interior")
            continue
        assert batch.errors[i] is None and strictly_inside(qp.G, b, batch.u_eta[i]), i
        assert np.all(batch.phi[i] > 0)
        err = float(np.linalg.norm(batch.u_eta[i] - seq.u_eta))
        row = SimpleNamespace(grad_norm=batch.grad_norm[i])
        assert err <= tolerance(qp, x, seq, row), (i, err)
        Jseq = barrier_jacobian(bp, seq)
        assert np.abs(J[i] - Jseq).max() <= 1e-6 * (1.0 + np.abs(Jseq).max())
        kinds.add("cold" if b[np.linalg.norm(qp.G, axis=1) > 0].min() <= 0 else "interior")
    assert {"interior", "empty", "no interior"} <= kinds


def test_infeasible_rows_keep_a_lazy_certificate(di_qp):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=np.sqrt(10.0))
    X = np.array([[0.0, 0.0], [0.0, 9.9], [1.0, -2.0], [12.0, 8.0]])
    batch = solve_barrier_batch(bp, X)
    assert [e is None for e in batch.errors] == [True, False, True, False]
    for i in (1, 3):
        y = batch.errors[i].certificate
        assert y is not None and y.shape == (di_qp.m,) and y.min() >= 0
        assert np.linalg.norm(di_qp.G.T @ y) <= 1e-6 * np.linalg.norm(y)
        assert y @ di_qp.bounds_rhs(X[i]) < 0
    for i in (0, 2):
        assert np.linalg.norm(batch.u_eta[i] - solve_barrier(bp, X[i]).u_eta) <= 1e-9


def test_a_start_within_rounding_of_a_facet_goes_to_phase_one(di_qp):
    # u = 0 leaves a least residual of 4.3e-14 and 1.7e-12 at these states,
    # whose Chebyshev radius is 0.59: Newton from u = 0 only doubled the
    # tight residual per step and stalled with NewtonConvergenceError
    bp = make_barrier_problem(di_qp, eta=0.01, outer_radius=np.sqrt(10.0))
    X = np.array([[-5.000000000000043, 1.5], [2.0, 0.7999999999998337]])
    assert np.all(0.0 < di_qp.bounds_rhs(X[0]).min()) and di_qp.bounds_rhs(X[0]).min() < 1e-13
    assert np.all(0.0 < di_qp.bounds_rhs(X[1]).min()) and di_qp.bounds_rhs(X[1]).min() < 1e-11
    batch = solve_barrier_batch(bp, X)
    for i, x in enumerate(X):
        sol = solve_barrier(bp, x)
        assert batch.errors[i] is None and sol.phi.min() > 1e-4
        err = float(np.linalg.norm(batch.u_eta[i] - sol.u_eta))
        assert err <= tolerance(di_qp, x, sol, SimpleNamespace(grad_norm=batch.grad_norm[i]))
        assert interior_radius(di_qp.G, di_qp.bounds_rhs(x)) > 0.5


def _newton_stack(rng):
    """Arguments of ``_newton`` for a random stack from u = 0: an SPD H, a
    bounded polytope whose offsets vary by row, eta over four decades and
    linear terms of norm 1e-2 to 1e17, far enough out that the line search
    meets the domain's edge below its least step. Rows ask for the
    solver's gradient tolerance, or a third of them for an exact zero."""
    n, k = int(rng.integers(2, 6)), int(rng.integers(4, 30))
    G, b = random_bounded_polytope(rng, n, int(rng.integers(0, 4)))
    b = b * rng.uniform(0.5, 1.5, size=(k, b.size))
    f = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2, 17, size=(k, 1))
    tol = np.where(rng.uniform(size=k) < 1 / 3, 0.0,
                   1e-12 * (1.0 + np.linalg.norm(f, axis=1)))
    return (np.zeros((k, n)), b.copy(), random_spd(rng, n), f, 10.0 ** rng.uniform(-3, 1),
            G, np.ascontiguousarray(G.T), b, tol)


def test_newton_keeps_the_iterate_the_logged_engine_returned(monkeypatch):
    # Every row leaves with its first iterate of least gradient norm, found
    # in place; the engine that logged every iterate and searched the log
    # at each exit must agree bit for bit, at each of the four exits. No
    # draw reaches a non-positive decrement by itself (a solve ruined by
    # rounding could point uphill), so a few rows' steps are flipped, the
    # same in both engines, to take that exit at any iteration.
    def misdirected(A, R):
        P = _solve_stack(A, R)
        P[np.ascontiguousarray(R[:, 0, 0]).view(np.uint64) % 31 == 7] *= -1.0
        return P

    failed_searches = []

    def counted(*args):
        out = _line_search(*args)
        failed_searches.append(0 if out[2] is None else int(out[2].sum()))
        return out

    monkeypatch.setattr(smoothmpc.barrier, "_solve_stack", misdirected)
    monkeypatch.setattr(newton_oracles, "_solve_stack", misdirected)
    monkeypatch.setattr(newton_oracles, "_line_search", counted)
    exits = dict.fromkeys(("converged", "decrement", "line search", "cap"), 0)
    for seed in range(60):
        args = _newton_stack(np.random.default_rng(seed))
        tol = args[-1]
        for max_iter in (1, 2, 3, 5, 8, 200):
            got, want = [], []
            u, g, iters = _newton(*args, max_iter, got)
            failed_searches.clear()
            u_ref, g_ref, iters_ref = newton_with_iterate_log(*args, max_iter, want)
            assert np.array_equal(u, u_ref) and np.array_equal(g, g_ref)
            assert np.array_equal(iters, iters_ref)
            assert len(got) == len(want)
            assert all(np.array_equal(r, r_ref) and np.array_equal(d, d_ref)
                       for (r, d), (r_ref, d_ref) in zip(got, want))
            last = np.full(iters.size, np.inf)
            for rows, dec2 in want:
                last[rows] = dec2
            counts = {"converged": np.count_nonzero((iters < max_iter) & (g <= tol)),
                      "decrement": np.count_nonzero(last <= 0.0),
                      "line search": sum(failed_searches)}
            counts["cap"] = iters.size - sum(counts.values())
            for name, c in counts.items():
                exits[name] += c
    assert min(exits.values()) > 0, exits


def test_stall_exit_matches_the_logged_engine_and_the_capped_iterate():
    # Rows that ask for an exact zero gradient never converge; with the
    # acceptance target 1e-10 (1 + |f|) a row leaves once its best gradient
    # norm meets the target and STALL_EVALS evaluations have not lowered
    # it. The logged engine decides that exit from its log, and the
    # capped engine runs every such row on: a stalled row's iterate is
    # within (|g| + |g_cap|) / lambda_min(H) of the capped one, as V is
    # lambda_min(H)-strongly convex.
    stalled = saved = 0
    for seed in range(30):
        args = _newton_stack(np.random.default_rng(seed))
        H, f = args[2], args[3]
        accept = 1e-10 * (1.0 + np.linalg.norm(f, axis=1))
        got, want = [], []
        u, g, iters = _newton(*args, 200, got, accept)
        u_ref, g_ref, iters_ref = newton_with_iterate_log(*args, 200, want, accept)
        assert np.array_equal(u, u_ref) and np.array_equal(g, g_ref)
        assert np.array_equal(iters, iters_ref)
        assert all(np.array_equal(r, r_ref) and np.array_equal(d, d_ref)
                   for (r, d), (r_ref, d_ref) in zip(got, want))
        u_cap, g_cap, iters_cap = _newton(*args, 200)
        assert np.array_equal(_newton(*args, 200, None, np.full(iters.size, -1.0))[2], iters_cap)
        early = iters < iters_cap
        assert np.all(g[early] <= accept[early])
        mu = np.linalg.eigvalsh(H)[0]
        gap = np.linalg.norm(u - u_cap, axis=1)
        assert np.all(gap[early] <= (g + g_cap)[early] / mu * (1.0 + 1e-9))
        stalled += np.count_nonzero(early)
        saved += int((iters_cap - iters)[early].sum())
    assert stalled >= 10 and saved >= 1000, (stalled, saved)
