"""The benchmark's tracer still finds every package boundary it wraps.

``perfbench/tracing.py`` patches 36 names of the package by module path
and raises for a name that is bound nowhere, so renaming or deleting one
of them breaks every benchmark run. This test installs the tracer as the
benchmark does, without editing it, and checks that each boundary was
patched and that uninstalling restores every original binding. The
counters it reads from results also run here, on real ones.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import scipy.optimize

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bindings(boundaries) -> dict:
    """Every value bound in a package module namespace or a traced class."""
    for b in boundaries:
        importlib.import_module(b.module)
    out = {("linprog",): scipy.optimize.linprog}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "smoothmpc" or name.startswith("smoothmpc.")):
            out.update({(name, key): val for key, val in vars(mod).items()})
    for b in boundaries:
        if b.cls is not None:
            owner = getattr(sys.modules[b.module], b.cls)
            out[(b.module, b.cls, b.attr)] = owner.__dict__[b.attr]
    return out


def _function(b):
    """The boundary's function as its module or class now binds it."""
    mod = sys.modules[b.module]
    if b.cls is None:
        return getattr(mod, b.attr)
    raw = getattr(mod, b.cls).__dict__[b.attr]
    return getattr(raw, "__func__", raw)


def test_tracer_patches_every_boundary_and_restores_them():
    tracing = _load_tracing()
    boundaries = tracing.BOUNDARIES
    assert len(boundaries) == 36
    before = _bindings(boundaries)
    originals = {b.name: _function(b) for b in boundaries}
    tracer = tracing.Tracer().install()
    try:
        unpatched = [b.name for b in boundaries
                     if getattr(_function(b), "__wrapped__", None) is not originals[b.name]]
    finally:
        tracer.uninstall()
    assert unpatched == []
    after = _bindings(boundaries)
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []


def test_counters_read_real_results(di_qp):
    # the tracer's counters run on what the package returns: a stacked
    # newton_iters would make int() raise in every benchmark run
    import numpy as np

    from smoothmpc.barrier import make_barrier_problem, solve_barrier
    from smoothmpc.errors import InfeasibleError
    from smoothmpc.experiments import slice_smoothness
    from smoothmpc.explicit import PieceTableEvaluator, discover_pieces, state_grid

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    bp = make_barrier_problem(di_qp, eta=0.1, outer_radius=np.sqrt(10.0))
    x0 = np.array([1.0, -2.0])
    sol = solve_barrier(bp, x0)
    counts = {}
    tracing._count_solve(tracer, (bp, x0), {}, sol, counts)
    assert counts == {"newton_iters": sol.newton_iters} and type(sol.newton_iters) is int
    bad = np.array([0.0, 9.9])
    try:
        solve_barrier(bp, bad)
    except InfeasibleError as err:
        tracing._solve_error(tracer, (bp,), {"x0": bad}, err, counts)
    assert counts["failures"] == 1  # the default tracer calls every state strictly feasible

    table = PieceTableEvaluator(di_qp, discover_pieces(di_qp, state_grid([-10, -10], [10, 10], 21)))
    X = np.random.default_rng(0).uniform(-12.0, 12.0, size=(50, 2))
    U = table.eval_batch(X)
    counts = {}
    tracing._count_table(tracer, (table, X), {}, U, counts)
    assert counts == {"points": 50, "nan_rows": int(np.isnan(U).any(axis=1).sum())}
    assert 0 < counts["nan_rows"] < 50

    counts = {}
    args, kwargs = tracing._count_jacobian_evals(
        tracer, (table.jacobian_batch, np.zeros(2), np.ones(2), 1.0, 0.25, 0.25), {}, counts)
    slice_smoothness(*args, **kwargs)
    assert counts == {"jacobian_evals": 1}  # the coarse scan, in one call

    # the rollout counters read a Trajectory, a dataset and the eval starts
    from smoothmpc.core import double_integrator_problem
    from smoothmpc.experiments import BarrierExpert
    from smoothmpc.simulate import imitation_error, rollout, sample_dataset

    sys_ = double_integrator_problem()[0]
    expert = BarrierExpert(bp)
    for start, want in ((x0, {"steps": 6, "truncated": 0}), (bad, {"steps": 0, "truncated": 1})):
        counts = {}
        traj = rollout(sys_, expert, start, 6)
        tracing._count_rollout(tracer, (sys_, expert, start, 6), {}, traj, counts)
        assert counts == want and type(traj.K) is int
    sampler = lambda rng: rng.uniform(-3.0, 3.0, size=2)
    ds = sample_dataset(sys_, expert, sampler, N=3, K=4, seed=0, jacobian_fn=expert.jacobian_batch)
    counts = {}
    tracing._count_dataset(tracer, (sys_, expert, sampler), {"N": 3, "K": 4, "seed": 0}, ds, counts)
    assert counts == {"trajectories": 3}
    starts = X[:7]
    out = imitation_error(sys_, expert, table, starts, 4)
    counts = {}
    tracing._count_imitation_error(tracer, (sys_, expert, table, starts, 4), {}, out, counts)
    assert counts == {"starts": 7} and out["max_traj_error"].shape == (7,)
