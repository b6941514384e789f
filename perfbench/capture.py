"""Write the reference outputs the benchmark checks against.

    python3 perfbench/capture.py [--workload NAME ...]

Runs one sweep of each workload at each reference seed and stores its
outputs under ``perfbench/reference/``. References belong to the commit
whose outputs define correct: re-capture only in a change that is meant
to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> int:
    import checks
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    run.import_package()

    cfg = workloads.config()
    bench = workloads.setup(cfg)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        for seed in checks.REFERENCE_SEEDS:
            outputs = workloads.WORKLOADS[name](seed).run(bench, cfg)
            env = run.environment(seed)
            doc = {"workload": name, "seed": seed, "source_sha256": env["source_sha256"],
                   "git_commit": env["git_commit"], "outputs": outputs}
            path = checks.reference_path(name, seed)
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
