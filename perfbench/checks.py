"""Output checks: reference comparison at per-output tolerances.

References are each workload's outputs at the default seed (0) and one
held-out seed (1), captured by ``capture.py`` at the commit that added
the benchmark. A value passes when both are NaN or
``|a - b| <= abs + rel * |b|``.

Tolerance classes follow the repository's accuracy gates:

- ``TABLE``: piece-table and QP values, 1e-12;
- ``CALC``: closed-form bound calculators fed by QP and LP values;
- ``BARRIER``: barrier-derived values, about 1e-10 times their scale
  (input sequences have norm up to sqrt(10));
- ``JAC``: closed-form barrier Jacobians, whose inner system scales
  residual errors by up to 1/eta;
- ``FD``: values finite-differenced from barrier Jacobians or smoothed
  table values (the Hessian step is about 1e-5, the smoothing step
  sigma / 20), plus slice maxima whose refinement picks a peak;
- ``MLP``: imitation results, which pass through 1500 AdamW steps and
  closed-loop rollouts of the learned policy.

Work counters in the outputs (``newton_iters``) are not checked: a
faster solver may change them without changing a result.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXACT = (0.0, 0.0)
TABLE = (1e-12, 1e-12)
CALC = (1e-9, 1e-12)
BARRIER = (1e-8, 1e-9)
JAC = (1e-7, 1e-9)
FD = (1e-4, 1e-6)
MLP = (1e-5, 1e-8)

BOUNDS_ROW = {
    "x0_0": EXACT, "x0_1": EXACT, "eta": EXACT,
    "gap_norm": BARRIER, "error_upper": CALC, "min_residual": BARRIER,
    "residual_floor": CALC, "first_residual_floor": CALC, "directional_gap": BARRIER,
    "directional_lower": CALC, "directional_upper": CALC, "jacobian_norm": JAC,
    "hessian_norm": FD, "hessian_upper": CALC, "newton_iters": None,
}
# lhs/rhs of each bound report mirror row values (or their calculators).
REPORT_SIDES = {
    "error_upper": (BARRIER, CALC),
    "residual_floor": (CALC, BARRIER),
    "first_residual_floor": (CALC, BARRIER),
    "directional_lower": (CALC, BARRIER),
    "directional_upper": (BARRIER, CALC),
    "hessian_upper": (FD, CALC),
}
SMOOTHNESS_ROW = {
    "barrier": {"kind": EXACT, "param": EXACT, "L0_max": JAC, "L1_max": FD,
                "sup_error": BARRIER, "hessian_norm": FD, "projected_fraction": EXACT},
    "randomized": {"kind": EXACT, "param": EXACT, "L0_max": FD, "L1_max": FD,
                   "sup_error": TABLE, "hessian_norm": EXACT, "projected_fraction": TABLE},
}
IMITATE_ROW = {
    "expert": EXACT, "param": EXACT, "matched_L1": EXACT, "seed": EXACT,
    "mean_traj_error": MLP, "max_traj_error": MLP, "sup_policy_error": MLP,
    "final_train_loss": MLP, "n_eval_failures": EXACT,
}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (0, 1)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())["outputs"]


def close(a, b, tol) -> bool:
    if isinstance(b, float) or isinstance(a, float):
        if a is None or b is None:
            return False
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        rel, abs_ = tol
        return abs(a - b) <= abs_ + rel * abs(b)
    return a == b


def _compare_rows(check, label, rows, ref_rows, spec_of):
    check(f"{label} row count", len(rows) == len(ref_rows), [len(rows), len(ref_rows)])
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        spec = spec_of(ref)
        check(f"{label} row {i} columns", set(row) == set(ref), sorted(set(row) ^ set(ref)))
        for key, tol in spec.items():
            if tol is None or key not in ref:
                continue
            check(f"{label} row {i} {key}", close(row.get(key), ref[key], tol),
                  [row.get(key), ref[key]])


def compare(workload: str, outputs: dict, ref: dict, check) -> None:
    """Check one round's outputs against the stored reference."""
    if workload == "bounds":
        _compare_rows(check, "bounds", outputs["rows"], ref["rows"], lambda r: BOUNDS_ROW)
        check("bounds report count", len(outputs["reports"]) == len(ref["reports"]),
              [len(outputs["reports"]), len(ref["reports"])])
        for i, (rep, rr) in enumerate(zip(outputs["reports"], ref["reports"])):
            lhs_tol, rhs_tol = REPORT_SIDES[rr["name"]]
            check(f"report {i} {rr['name']}",
                  rep["name"] == rr["name"] and rep["satisfied"]
                  and close(rep["lhs"], rr["lhs"], lhs_tol)
                  and close(rep["rhs"], rr["rhs"], rhs_tol),
                  [rep, rr])
        check("bounds skipped", outputs["skipped"] == ref["skipped"], outputs["skipped"])
    elif workload == "smoothness":
        _compare_rows(check, "smoothness", outputs["rows"], ref["rows"],
                      lambda r: SMOOTHNESS_ROW[r["kind"]])
    elif workload == "imitate":
        _compare_rows(check, "imitate", outputs["rows"], ref["rows"], lambda r: IMITATE_ROW)
    else:
        raise ValueError(f"unknown workload {workload!r}")


class CheckLog:
    """Counts checked outputs; keeps the first failures for the record."""

    def __init__(self, keep: int = 20):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.keep = keep

    def __call__(self, label: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.keep:
                self.failures.append({"check": label, "detail": repr(detail)[:400]})
