"""Write reference_seed0.json: compact seed-0 outputs of every workload.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference. It stores digests,
row counts, column maxima and sampled values, not whole CSVs; the
benchmark compares seed-0 values against it within 1e-6 absolute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

import workloads as wl  # noqa: E402


def main() -> int:
    work_dir = os.path.join(run.ROOT, ".bench_work", "reference")
    os.makedirs(work_dir)
    ref = {}
    try:
        for workload in wl.WORKLOADS:
            jobs = wl.build_jobs(workload, 0, work_dir)
            result = run.run_pass(jobs, os.path.join(work_dir, workload), None)
            if result["failures"]:
                print(json.dumps(result["failures"], indent=1), file=sys.stderr)
                return 1
            ref.update(result["summaries"])
    finally:
        shutil.rmtree(os.path.dirname(work_dir), ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref)} entries to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
