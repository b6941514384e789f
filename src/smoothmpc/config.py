"""Experiment configuration: schema, defaults, validation, and hashing.

One YAML (or JSON) file drives every CLI command; per-command flags only
override the seed, output directory, worker count, and grid resolution.
Matrices are row-major nested lists.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import yaml

from .core import LinearSystem, build_condensed, constraints_from_config, load_problem
from .mlp import TrainConfig

__all__ = ["default_config", "load_config", "validate_config", "config_hash"]


def default_config() -> dict:
    """The benchmark setup: 2-D double integrator, 10-step horizon."""
    return {
        "system": {"A": [[1.0, 1.0], [0.0, 1.0]], "B": [[0.0], [1.0]]},
        "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "horizon": 10},
        "constraints": {"state_box": 10.0, "input_box": 1.0},
        "pieces": {"resolution": 401},
        "bounds": {"eta_grid": [1e-3, 1e-2, 1e-1, 1.0, 10.0],
                   "n_states": 100, "with_hessian": True},
        "smoothness": {"eta_grid": [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0],
                       "sigma_grid": [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0],
                       "n_samples": 1500},
        "imitation": {"N": 20, "K": 20, "seeds": [0, 1, 2, 3, 4],
                      "n_levels": 5, "n_eval": 20, "expert_samples": 800,
                      "train": {"learning_rate": 3e-4, "weight_decay": 1e-3,
                                "steps": 3000, "batch_size": 128, "width": 64,
                                "lambda_jac": 0.0}},
        "matrix_selftest": {"instances": 1000},
        "seed": 0,
    }


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(f"invalid configuration: {msg}")


@contextmanager
def _invalid(what: str):
    """Report a TypeError or ValueError raised inside as an invalid ``what``."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise ValueError(f"invalid configuration: {what}: {err}") from None


def validate_config(cfg: dict) -> dict:
    """Schema check; returns the config merged over the defaults."""
    merged = default_config()
    for key, val in (cfg or {}).items():
        if isinstance(val, dict) and isinstance(merged.get(key), dict):
            merged[key].update(val)
        else:
            merged[key] = val
    _require("system" in merged and "A" in merged["system"] and "B" in merged["system"],
             "system.A and system.B are required")
    with _invalid("system"):
        sys_ = LinearSystem(A=merged["system"]["A"], B=merged["system"]["B"])
    cons = merged["constraints"]
    _require(isinstance(cons, dict), "constraints must be a mapping")
    extra = sorted(set(cons) - {"state_box", "input_box"})
    _require(not extra, f"constraints takes only state_box and input_box, got {extra}")
    with _invalid("constraints"):
        constraints_from_config(cons, sys_.d_x, sys_.d_u)
    with _invalid("cost"):
        build_condensed(*load_problem(merged))
    for name in ("eta_grid", "sigma_grid"):
        grid = merged["smoothness"][name]
        _require(len(grid) > 0 and all(g > 0 for g in grid),
                 f"smoothness.{name} must be a nonempty positive list")
    _require(len(merged["bounds"]["eta_grid"]) > 0, "bounds.eta_grid must be nonempty")
    _require(len(merged["imitation"]["seeds"]) > 0, "imitation.seeds must be nonempty")
    _require(int(merged["imitation"]["N"]) >= 0 and int(merged["imitation"]["K"]) >= 1,
             "imitation.N/K out of range")
    with _invalid("imitation.train"):
        TrainConfig(**merged["imitation"]["train"])
    return merged


def load_config(path: str | Path | None) -> dict:
    """Read and validate a YAML/JSON config; None loads the defaults."""
    if path is None:
        return validate_config({})
    text = Path(path).read_text()
    data = yaml.safe_load(text)
    _require(isinstance(data, dict), "top level must be a mapping")
    return validate_config(data)


def config_hash(cfg: dict) -> str:
    """Stable short digest of the canonical JSON form."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
