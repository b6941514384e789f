"""Every LP of the package runs through smoothmpc.qp; pinned LP counts per layer."""

import pathlib

import numpy as np
import pytest

import smoothmpc
import smoothmpc.qp
from smoothmpc.barrier import make_barrier_problem, solve_barrier
from smoothmpc.core import build_condensed, double_integrator_problem, feasible_radii
from smoothmpc.errors import InfeasibleError
from smoothmpc.experiments import feasible_polygon


@pytest.fixture(scope="module")
def di_qp():
    sys_, cost, cons = double_integrator_problem()
    return build_condensed(sys_, cost, cons)


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = smoothmpc.qp.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(smoothmpc.qp, "linprog", counted)
    return calls


def test_one_lp_per_barrier_solve(di_qp, lp_calls):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=np.sqrt(10.0))
    solved = 0
    for x0 in ([0.0, 0.0], [2.0, 0.5], [-4.0, 1.0], [1.0, -2.0]):
        lp_calls.clear()
        solve_barrier(bp, np.array(x0))
        assert len(lp_calls) == 1
        solved += 1
    assert solved == 4


def test_radii_lp_count(di_qp, lp_calls):
    feasible_radii(di_qp, np.array([1.0, 0.5]))
    assert len(lp_calls) == 2 * di_qp.n + 1


def test_polygon_lp_count(di_qp, lp_calls):
    feasible_polygon(di_qp)
    assert len(lp_calls) == 720


def test_infeasible_solve_adds_certificate_lp(di_qp, lp_calls):
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=np.sqrt(10.0))
    with pytest.raises(InfeasibleError):
        solve_barrier(bp, np.array([0.0, 9.9]))
    assert len(lp_calls) == 2  # Chebyshev LP, then the Farkas LP


def test_only_qp_module_mentions_linprog():
    root = pathlib.Path(smoothmpc.__file__).parent
    sources = sorted(root.glob("*.py"))
    assert len(sources) > 5
    mentions = [p.name for p in sources if "linprog" in p.read_text()]
    assert mentions == ["qp.py"]
