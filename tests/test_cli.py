"""CLI commands: exit codes, CSV artifacts, determinism."""

import numpy as np
import pytest
import yaml

import smoothmpc.experiments
from smoothmpc.cli import main
from smoothmpc.config import config_hash, default_config, load_config, validate_config

TINY = {
    "system": {"A": [[1.0, 1.0], [0.0, 1.0]], "B": [[0.0], [1.0]]},
    "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "horizon": 10},
    "constraints": {"state_box": 10.0, "input_box": 1.0},
    "pieces": {"resolution": 41},
    "bounds": {"eta_grid": [0.1], "n_states": 3, "with_hessian": False},
    "smoothness": {"eta_grid": [1.0], "sigma_grid": [0.1, 2.0], "n_samples": 150},
    "imitation": {"N": 3, "K": 5, "seeds": [0], "n_levels": 1, "n_eval": 2,
                  "expert_samples": 100,
                  "train": {"steps": 40, "batch_size": 15, "width": 8}},
    "matrix_selftest": {"instances": 40},
    "seed": 0,
}


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return path


def test_config_defaults_and_hash():
    cfg = validate_config({})
    assert cfg == default_config() | {}
    h1 = config_hash(cfg)
    h2 = config_hash(validate_config({}))
    assert h1 == h2 and len(h1) == 12
    assert config_hash(validate_config({"seed": 1})) != h1


def test_config_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        validate_config({"cost": {"horizon": 0}})
    with pytest.raises(ValueError):
        validate_config({"smoothness": {"eta_grid": []}})
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ValueError):
        load_config(bad)


def test_cli_invalid_config_exit_3(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"cost": {"horizon": 0}}))
    assert main(["pieces", "--config", str(bad), "--out", str(tmp_path)]) == 3


def test_cli_pieces(tmp_path, capsys):
    # scalar clip system: exactly 3 pieces, stable at any resolution
    cfg = dict(TINY)
    cfg["system"] = {"A": [[2.0]], "B": [[1.0]]}
    cfg["cost"] = {"Q": [[1.0]], "R": [[1e-4]], "horizon": 1}
    cfg["constraints"] = {"state_box": 100.0, "input_box": 1.0}
    path = tmp_path / "clip.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    code = main(["pieces", "--config", str(path), "--out", str(out)])
    assert code == 0
    rows = (out / "pieces.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3
    text = (out / "piece_counts.csv").read_text()
    assert text.startswith("# config=")
    assert "stable across resolutions: True" in capsys.readouterr().out



def test_cli_pieces_on_a_halfspace_state_box(tmp_path):
    # the clip system's state box |x| <= 100, once as a bound and once as halfspaces
    cfg = dict(TINY)
    cfg["system"] = {"A": [[2.0]], "B": [[1.0]]}
    cfg["cost"] = {"Q": [[1.0]], "R": [[1e-4]], "horizon": 1}
    tables = []
    for state_box in (100.0, {"A": [[1.0], [-1.0]], "b": [100.0, 100.0]}):
        cfg["constraints"] = {"state_box": state_box, "input_box": 1.0}
        path = tmp_path / "clip.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / f"out{len(tables)}"
        assert main(["pieces", "--config", str(path), "--out", str(out),
                     "--resolution", "11"]) == 0
        tables.append((out / "pieces.csv").read_bytes())
    assert tables[0] == tables[1]


def test_cli_constraints_outside_the_boxes_exit_3(tmp_path, capsys):
    # halfspaces under constraints.state were merged next to the default
    # state_box and silently ignored
    cfg = dict(TINY)
    cfg["constraints"] = {"state": {"A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                    "b": [5.0, 5.0, 5.0, 5.0]}}
    path = tmp_path / "state.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["pieces", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "['state']" in err

@pytest.mark.parametrize("state_box", [{"A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], "b": [5.0, 5.0]},
                                       {"b": [5.0, 5.0]}])
def test_cli_malformed_halfspaces_exit_3(tmp_path, capsys, state_box):
    # a row count that does not match b, and a system without A, are
    # refused when the config is read, not by a traceback later
    cfg = dict(TINY)
    cfg["constraints"] = {"state_box": state_box, "input_box": 1.0}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["pieces", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--resolution", "5"]) == 3
    assert capsys.readouterr().err.startswith("configuration error: invalid configuration: constraints")


@pytest.mark.parametrize("cost", [{"Q": [[1.0, 0.0], [0.0, -1.0]]},  # not positive definite
                                  {"R": [[0.01, 0.0]]},  # not square
                                  {"Q": [[1.0]]}])  # the wrong size
def test_cli_invalid_cost_exit_3(tmp_path, capsys, cost):
    # every verb builds the condensed program; a cost it cannot be built
    # from is refused when the config is read, not by a traceback later
    cfg = dict(TINY)
    cfg["cost"] = {**TINY["cost"], **cost}
    path = tmp_path / "bad_cost.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["pieces", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--resolution", "5"]) == 3
    assert capsys.readouterr().err.startswith("configuration error: invalid configuration: cost")


def test_cli_pieces_unstable_count_exit_2(tiny_cfg, tmp_path):
    # the benchmark count has not converged at toy resolutions
    code = main(["pieces", "--config", str(tiny_cfg), "--out", str(tmp_path / "o"),
                 "--resolution", "21"])
    assert code == 2


def test_cli_bounds_and_determinism(tiny_cfg, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["bounds", "--config", str(tiny_cfg), "--out", str(out1)]) == 0
    assert main(["bounds", "--config", str(tiny_cfg), "--out", str(out2)]) == 0
    assert (out1 / "bounds_sweep.csv").read_bytes() == (out2 / "bounds_sweep.csv").read_bytes()
    assert (out1 / "bound_reports.csv").exists()


def test_cli_bounds_corrupt_exit_2(tiny_cfg, tmp_path, monkeypatch):
    real = smoothmpc.experiments.error_upper
    monkeypatch.setattr(smoothmpc.experiments, "error_upper", lambda bp: 1e-6 * real(bp))
    code = main(["bounds", "--config", str(tiny_cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_smoothness(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["smoothness", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    lines = (out / "smoothness.csv").read_text().strip().splitlines()
    assert lines[1].split(",")[0] == "kind"
    assert len(lines) == 2 + 3  # comment, header, 1 barrier + 2 randomized rows


def test_cli_imitate(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["imitate", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    lines = (out / "imitation.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 2  # one level x {barrier, randomized} x one seed


def test_cli_imitate_reproducible(tiny_cfg, tmp_path):
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert main(["imitate", "--config", str(tiny_cfg), "--out", str(o1)]) == 0
    assert main(["imitate", "--config", str(tiny_cfg), "--out", str(o2)]) == 0
    assert (o1 / "imitation.csv").read_bytes() == (o2 / "imitation.csv").read_bytes()


def test_cli_matrix_selftest(tiny_cfg, tmp_path, capsys):
    assert main(["matrix-selftest", "--config", str(tiny_cfg),
                 "--out", str(tmp_path)]) == 0
    assert "0 failures" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["bounds", "smoothness", "imitate"])
def test_cli_non_planar_state_exit_3_before_discovery(verb, tmp_path, monkeypatch, capsys):
    cfg = dict(TINY)
    cfg["system"] = {"A": np.eye(3).tolist(), "B": [[0.0], [0.0], [1.0]]}
    cfg["cost"] = {"Q": np.eye(3).tolist(), "R": [[0.01]], "horizon": 3}
    path = tmp_path / "cube.yaml"
    path.write_text(yaml.safe_dump(cfg))

    def no_discovery(*args, **kwargs):
        raise AssertionError("pieces discovered before the state dimension was checked")

    monkeypatch.setattr(smoothmpc.experiments, "discover_pieces", no_discovery)
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "d_x = 3" in err


@pytest.mark.parametrize("train", [{"val_fraction": -0.1}, {"val_fraction": 1.0},
                                   {"steps": 40, "stepz": 40}])
def test_cli_invalid_train_block_exit_3_before_discovery(train, tmp_path, monkeypatch, capsys):
    cfg = dict(TINY)
    cfg["imitation"] = {**TINY["imitation"], "train": train}
    path = tmp_path / "bad_train.yaml"
    path.write_text(yaml.safe_dump(cfg))

    def no_discovery(*args, **kwargs):
        raise AssertionError("pieces discovered before the training block was checked")

    monkeypatch.setattr(smoothmpc.experiments, "discover_pieces", no_discovery)
    assert main(["imitate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "imitation.train" in err
