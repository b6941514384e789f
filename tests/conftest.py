"""Fixtures shared by the test modules."""

import pytest

from smoothmpc.core import build_condensed, clip_problem, double_integrator_problem


@pytest.fixture(scope="session")
def di_qp():
    """The benchmark's double integrator: 2 states, 1 input, horizon 10."""
    return build_condensed(*double_integrator_problem())


@pytest.fixture(scope="session")
def clip_qp():
    """The scalar one-step system whose law is a clipped linear map."""
    return build_condensed(*clip_problem())
