"""Record the drift guard's reference outputs into bench/golden.json.

    python3 bench/record_golden.py

Run from the root of an egtan source tree, only at a commit whose outputs
are the reference: every later benchmark run compares its golden items (and,
for ``verify``, every item) with this file at the pinned tolerances.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

if __name__ == "__main__":
    run.os.environ.update(run.BLAS_ENV)
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    workdir = run.WORK / "record-golden"
    record = {"recorded_at": run._commit(), "workloads": {}}
    try:
        for w in WORKLOADS.values():
            record["workloads"][w.name] = {
                key: w.run(spec) for key, spec in w.golden_specs(workdir)
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH_DIR / "golden.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
