"""Every LP of the package runs through smoothmpc.qp; pinned LP counts per layer."""

import pathlib

import numpy as np
import pytest

import smoothmpc
import smoothmpc.qp
from smoothmpc.barrier import make_barrier_problem, solve_barrier
from smoothmpc.bounds import quad_opt_bounds
from smoothmpc.core import feasible_radii
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import feasible_polygon
from smoothmpc.explicit import discover_pieces, solve_qp, state_grid
from test_experiments import planar_systems


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = smoothmpc.qp.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(smoothmpc.qp, "linprog", counted)
    return calls


def test_barrier_solve_lp_counts(di_qp, lp_calls):
    # when u = 0 is not strictly feasible, a Newton phase I finds a start,
    # with no LP
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=np.sqrt(10.0))
    solve_barrier(bp, np.zeros(2))
    assert len(lp_calls) == 0
    x0 = np.array([1.0, -2.0])
    assert di_qp.bounds_rhs(x0).min() < 0  # u = 0 is infeasible here
    solve_barrier(bp, x0)
    assert len(lp_calls) == 0


def test_radii_lp_count(di_qp, lp_calls):
    # the Chebyshev LP and one block LP for the whole bounding box
    feasible_radii(di_qp, np.array([1.0, 0.5]))
    assert len(lp_calls) == 2


def test_quad_opt_bounds_lp_count(lp_calls):
    # the radii's two LPs; the pure-barrier Newton starts at their Chebyshev
    # center instead of solving that LP again
    G = np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]])
    b = np.array([1.0, 2.0, 1.5, 1.0, 1.8])
    reports = quad_opt_bounds(G, b, np.eye(2), np.array([3.0, 0.5]), eta=0.1, nu=5.0)
    assert all(r.satisfied for r in reports)
    assert len(lp_calls) == 2


def test_polygon_lp_count(di_qp, lp_calls):
    # three starting LPs, then one per inserted point and one per final
    # edge: 2V when the starting points are distinct vertices, one more
    # for each repeated starting point, two for each point inside an edge
    V = feasible_polygon(di_qp)
    assert len(V) == 14 and len(lp_calls) == 2 * len(V)
    for qp in planar_systems(12):
        lp_calls.clear()
        V = feasible_polygon(qp)
        assert 2 * len(V) <= len(lp_calls) <= 2 * len(V) + 3


def test_qp_solves_and_discovery_run_no_lp(di_qp, lp_calls):
    solve_qp(di_qp, np.array([5.0, 2.0]))
    with pytest.raises(InfeasibleError) as exc:
        solve_qp(di_qp, np.array([8.0, 2.0]))
    assert exc.value.certificate is not None
    assert len(lp_calls) == 0
    vertex = feasible_polygon(di_qp)[0]
    lp_calls.clear()  # the polygon's own support LPs
    solve_qp(di_qp, vertex)
    discover_pieces(di_qp, state_grid([-10, -10], [10, 10], 201))
    assert len(lp_calls) == 0


def test_infeasible_solve_defers_certificate_lp(di_qp, lp_calls):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=np.sqrt(10.0))
    with pytest.raises(InfeasibleError) as exc:
        solve_barrier(bp, np.array([0.0, 9.9]))
    assert len(lp_calls) == 0  # phase I decides, with no LP
    assert exc.value.certificate is not None
    assert len(lp_calls) == 1  # the Farkas LP, run when the certificate is read
    assert exc.value.certificate is not None
    assert len(lp_calls) == 1  # and kept


def test_only_qp_module_mentions_linprog():
    root = pathlib.Path(smoothmpc.__file__).parent
    sources = sorted(root.glob("*.py"))
    assert len(sources) > 5
    mentions = [p.name for p in sources if "linprog" in p.read_text()]
    assert mentions == ["qp.py"]


def test_log_barrier_objective_is_written_once():
    # every Newton solve (the barrier solve, its phase I and the quad-opt
    # oracle) evaluates its objective in barrier._values
    root = pathlib.Path(smoothmpc.__file__).parent
    counts = {p.name: p.read_text().count("np.sum(np.log(") for p in sorted(root.glob("*.py"))}
    assert {name: c for name, c in counts.items() if c} == {"barrier.py": 1}
