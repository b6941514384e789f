"""Bucket-local piece discovery against the grid-wide loop it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothmpc.explicit as explicit
from smoothmpc.errors import DegenerateActiveSetError, InfeasibleError
from smoothmpc.explicit import PieceCollection, discover_pieces, solve_qp, state_grid
from systems import random_system


def grid_wide_discovery(qp, grid):
    """The oracle of ``discover_pieces(method="assign")``: each new region is
    tested on every unassigned grid point, and a cursor walks the grid
    point by point to the next unassigned one."""
    grid = np.asarray(grid, dtype=float)
    N = grid.shape[0]
    status = np.zeros(N, dtype=np.int8)  # 0 unassigned, 1 assigned, -1 infeasible
    sigma_pieces: dict = {}

    cursor = 0
    while True:
        while cursor < N and status[cursor] != 0:
            cursor += 1
        if cursor >= N:
            break
        x = grid[cursor]
        try:
            sol = explicit.solve_qp(qp, x)
        except InfeasibleError as err:
            status[cursor] = -1
            y = err.certificate
            if y is not None:
                here = float(y @ (qp.w + qp.P @ x))
                valid = (here < 0
                         and np.linalg.norm(qp.G.T @ y) <= 1e-7 * max(1.0, np.linalg.norm(y)))
                if valid:
                    vals = y @ qp.w + grid @ (qp.P.T @ y)
                    cut = vals < -1e-9 * (1.0 + abs(float(y @ qp.w)))
                    status[(status == 0) & cut] = -1
            continue
        key = sol.sigma.bitstring()
        if key not in sigma_pieces:
            piece = explicit.gain_for_sigma(qp, sol.sigma)
            sigma_pieces[key] = [piece, 0]
            region = explicit._region_data(qp, piece)
            todo = status == 0
            mask = explicit._region_mask(region, grid[todo])
            hit = np.flatnonzero(todo)[mask]
            status[hit] = 1
            sigma_pieces[key][1] += hit.size
        if status[cursor] == 0:
            status[cursor] = 1
            sigma_pieces[key][1] += 1

    n_inf = int((status == -1).sum())
    pieces, occupancy = explicit._dedupe_by_gain(
        qp, {k: tuple(v) for k, v in sigma_pieces.items()})
    return PieceCollection(pieces=pieces, occupancy=occupancy,
                           n_feasible=N - n_inf, n_infeasible=n_inf,
                           sigma_count=len(sigma_pieces),
                           box=(grid.min(axis=0), grid.max(axis=0)))


def discovered(discover, qp, grid):
    """``discover(qp, grid)``, or the DegenerateActiveSetError it raised when
    the QP's working set at a state has a singular Gram block, and the
    states it solved the QP at, in order."""
    solved = []
    real = explicit.solve_qp

    def recording(qp_, x):
        solved.append(np.array(x))
        return real(qp_, x)

    with mock.patch.object(explicit, "solve_qp", recording):
        try:
            out = discover(qp, grid)
        except DegenerateActiveSetError as err:
            out = err
    return out, np.array(solved)


def assert_same_discovery(qp, grid):
    """The same table as the grid-wide loop, from QPs at the same states, or
    the same error after the same QPs."""
    got, got_solved = discovered(discover_pieces, qp, grid)
    ref, ref_solved = discovered(grid_wide_discovery, qp, grid)
    assert np.array_equal(got_solved, ref_solved)
    if isinstance(ref, DegenerateActiveSetError):
        assert isinstance(got, DegenerateActiveSetError)
    else:
        assert_same_collection(got, ref)
    return got, ref


def facet_states(qp, X, count):
    """Pairs of states within rounding of a facet between two regions, where
    a state can pass both regions' tests: segments between consecutive
    feasible rows of X whose active sets differ, bisected 50 times."""
    out = []
    for a, b in zip(X[:-1], X[1:]):
        try:
            sa, sb = solve_qp(qp, a).sigma, solve_qp(qp, b).sigma
        except InfeasibleError:
            continue
        if sa == sb:
            continue
        for _ in range(50):  # the feasible set is convex: every midpoint is feasible
            mid = 0.5 * (a + b)
            a, b = (mid, b) if solve_qp(qp, mid).sigma == sa else (a, mid)
        out += [a, b]
        if len(out) >= count:
            break
    return np.array(out).reshape(-1, X.shape[1])


def assert_same_collection(got, ref):
    assert len(got.pieces) == len(ref.pieces)
    for a, b in zip(got.pieces, ref.pieces):
        assert a.sigma == b.sigma
        assert np.array_equal(a.K, b.K) and np.array_equal(a.k, b.k)
    assert np.array_equal(got.occupancy, ref.occupancy)
    assert (got.n_feasible, got.n_infeasible, got.sigma_count) == (
        ref.n_feasible, ref.n_infeasible, ref.sigma_count)
    assert all(np.array_equal(g, r) for g, r in zip(got.box, ref.box))


def system_with(rng, d_x):
    qp = random_system(rng)[1]
    while qp.d_x != d_x:
        qp = random_system(rng)[1]
    return qp


@pytest.mark.parametrize("d_x", [2, 3])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scattered=st.booleans())
def test_discovery_matches_grid_wide_loop_on_random_systems(d_x, seed, scattered):
    rng = np.random.default_rng(seed)
    qp = system_with(rng, d_x)
    if scattered:
        # a cloud with its own box, repeated points and states on facets, shuffled
        cloud = rng.uniform(-2.5, 2.5, size=(600, d_x)) * rng.uniform(0.3, 1.0, size=d_x)
        grid = rng.permutation(np.vstack([cloud, cloud[:20], facet_states(qp, cloud, 20)]))
    else:
        grid = state_grid([-2.5] * d_x, [2.5] * d_x, 31 if d_x == 2 else 11)
        grid = np.vstack([grid, facet_states(qp, grid, 20)])
    assert_same_discovery(qp, grid)


def test_discovery_matches_grid_wide_loop_on_small_grids(di_qp):
    rng = np.random.default_rng(3)
    one = np.array([[0.5, -0.25]])
    flat = np.column_stack([np.linspace(-9.0, 9.0, 301), np.full(301, 1.5)])
    cloud = rng.uniform(-10.0, 10.0, size=(2, 2))
    for grid in (one, flat, cloud, np.array([[8.0, 2.0]])):
        assert_same_discovery(di_qp, grid)
    qp = system_with(rng, 3)
    assert_same_discovery(qp, state_grid([-2.0, -2.0, 0.7], [2.0, 2.0, 0.7], 15))


def test_discovery_matches_grid_wide_loop_across_a_kink(clip_qp):
    # states within rounding of the clip law's kink pass both regions' tests
    grid = state_grid([-5.0], [5.0], 101)
    grid = np.vstack([grid, facet_states(clip_qp, grid, 8)])
    got, _ = assert_same_discovery(clip_qp, grid)
    assert got.occupancy.sum() == grid.shape[0] == got.n_feasible


@pytest.mark.parametrize("resolution", [201, 401])
def test_double_integrator_table_is_the_grid_wide_loops(di_qp, tmp_path, resolution):
    grid = state_grid([-10, -10], [10, 10], resolution)
    got, ref = assert_same_discovery(di_qp, grid)
    got.to_csv(tmp_path / "got.csv")
    ref.to_csv(tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture
def tested_rows(monkeypatch):
    """The number of states each ``_region_mask`` call was given."""
    rows = []
    real = explicit._region_mask

    def counted(region, X):
        rows.append(X.shape[0])
        return real(region, X)

    monkeypatch.setattr(explicit, "_region_mask", counted)
    return rows


def test_discovery_tests_a_fifth_of_the_grid_wide_rows(di_qp, tested_rows):
    grid = state_grid([-10, -10], [10, 10], 201)
    grid_wide_discovery(di_qp, grid)
    oracle = sum(tested_rows)
    tested_rows.clear()
    discover_pieces(di_qp, grid)
    assert len(tested_rows) > 0 and min(tested_rows) >= 2
    assert sum(tested_rows) <= oracle / 5
