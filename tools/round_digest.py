"""Digests of the benchmark's set-up and of one round of each workload.

Usage (from the root of a checkout):

    python3 tools/round_digest.py

Builds the benchmark's ``Workbench`` once, as ``perfbench/workloads.py``
does, runs one round of each workload at seeds 0 and 1, and prints one
SHA-256 per (workload, seed) over the set-up (radii, feasible polygon and
every piece of the table) and the round's outputs. Two checkouts whose
lines are equal give bit-identical outputs. BLAS is pinned to one thread,
as in the benchmark; ``perfbench/`` is imported, never written.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEEDS = (0, 1)


def setup_digest(bench):
    """SHA-256 of the set-up's numbers, every float by its bits."""
    coll = bench.table.collection
    digest = hashlib.sha256()
    for a in (np.array([bench.outer_radius, bench.state_halfwidth]), bench.projector.vertices,
              np.asarray(coll.occupancy),
              np.array([coll.n_feasible, coll.n_infeasible, coll.sigma_count])):
        digest.update(np.ascontiguousarray(a).tobytes())
    for piece in coll.pieces:
        digest.update(piece.sigma.bitstring().encode())
        digest.update(piece.K.tobytes())
        digest.update(piece.k.tobytes())
    return digest


def main() -> int:
    cfg = workloads.config()
    bench = workloads.setup(cfg)
    setup = setup_digest(bench)
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            outputs = workload(seed).run(bench, cfg)
            digest = setup.copy()
            digest.update(json.dumps(outputs, sort_keys=True).encode())
            print(f"{name} seed={seed} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
