"""An imitation run samples the expert's Jacobian labels only when something
reads them: the TaSIL term of the loss or the dataset it writes.

On the double integrator at the benchmark's ``imitate`` sizes, for both
experts, the run without labels draws the same starts and records the same
states and inputs as the run with them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import smoothmpc.experiments
from smoothmpc.config import default_config
from smoothmpc.experiments import Workbench, imitation_run
from smoothmpc.mlp import MLPPolicy, TrainConfig

N, K, ETA, SIGMA, SAMPLES = 20, 20, 0.1, 0.3, 800


@pytest.fixture(scope="module")
def bench():
    return Workbench.from_config(default_config(), resolution=201)


class Counting:
    """A batch function that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, X):
        self.calls += 1
        return self.fn(X)


def _run(bench, monkeypatch, kind, seed, lambda_jac=0.0, artifact_dir=None):
    """One short imitation run; returns its dataset, the expert's
    ``eval_batch`` calls while sampling it, the label calls, and whether each
    training step's loss read label rows."""
    expert = (bench.barrier_expert(ETA) if kind == "barrier"
              else bench.randomized_expert(SIGMA, n_samples=SAMPLES, seed=seed))
    labels = Counting(expert.jacobian_batch)
    monkeypatch.setattr(expert, "jacobian_batch", labels)
    seen = {}
    sample = smoothmpc.experiments.sample_dataset
    loss_and_grads = MLPPolicy.loss_and_grads

    def sampling(sys, expert, sampler, **kw):
        seen["steps"] = Counting(expert.eval_batch)
        seen["ds"] = sample(sys, SimpleNamespace(eval_batch=seen["steps"]), sampler, **kw)
        return seen["ds"]

    def reading(net, X, U, J_target=None, lambda_jac=0.0):
        seen.setdefault("read", []).append(J_target is not None and lambda_jac > 0.0)
        return loss_and_grads(net, X, U, J_target, lambda_jac)

    monkeypatch.setattr(smoothmpc.experiments, "sample_dataset", sampling)
    monkeypatch.setattr(MLPPolicy, "loss_and_grads", reading)
    cfg = TrainConfig(steps=3, batch_size=64, width=8, lambda_jac=lambda_jac)
    imitation_run(bench, expert, N=N, K=K, train_cfg=cfg, seed=seed, n_eval=1,
                  artifact_dir=artifact_dir, tag="t")
    monkeypatch.undo()
    return seen["ds"], seen["steps"].calls, labels.calls, seen["read"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["barrier", "randomized"])
def test_labels_are_sampled_only_when_read(bench, monkeypatch, tmp_path, kind, seed):
    bare, steps, label_calls, read = _run(bench, monkeypatch, kind, seed)
    assert bare.jacobians is None and label_calls == 0 and not any(read)
    assert steps >= K

    written, steps, label_calls, read = _run(bench, monkeypatch, kind, seed,
                                             artifact_dir=tmp_path)
    assert written.jacobians is not None and label_calls == steps and not any(read)
    assert np.array_equal(written.states, bare.states)
    assert np.array_equal(written.inputs, bare.inputs)
    header = (tmp_path / "dataset_t.csv").read_text().splitlines()[0].split(",")
    assert header[-2:] == ["J00", "J01"]

    tasil, steps, label_calls, read = _run(bench, monkeypatch, kind, seed, lambda_jac=0.5)
    assert tasil.jacobians is not None and label_calls == steps and all(read)
    assert np.array_equal(tasil.states, bare.states)
    assert np.array_equal(tasil.inputs, bare.inputs)
    assert np.array_equal(tasil.jacobians, written.jacobians)
