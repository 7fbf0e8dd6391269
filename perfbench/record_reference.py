"""Record the output digests that runs at the default seed are checked against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference.  At the default
seed it runs the first sweep-grid and windows-d96 ops (more than one
benchmark run reaches) and one verify per witness-cli file, checks each
output as a benchmark run would, and rewrites ``reference_digests.json``
with one SHA-256 per op input and the failure classes seen.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness


#: ops recorded per workload; None means one op per witness-cli file
COUNTS = {"sweep-grid": 150, "windows-d96": 40, "witness-cli": None}


def main() -> int:
    seed = harness.DEFAULT_SEED
    reference: dict = {"seed": seed, "failures": {}}
    harness.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.RUN_DIR) as tmp:
        for workload, count in COUNTS.items():
            inputs = harness.prepare_inputs(workload, seed, Path(tmp) / workload)
            ops = [harness.op_argv(workload, seed, i, inputs)
                   for i in range(count or len(inputs.names))]
            records = [harness.run_op(workload, key, argv, inputs) for key, argv in ops]
            harness.finish_checks(workload, seed, records, {})
            bad = [r for r in records if r.mismatch is not None]
            if bad:
                print(f"error: {workload} op {bad[0].key}: {bad[0].mismatch}", file=sys.stderr)
                return 1
            reference[workload] = {r.key: r.digest for r in records}
            reference["failures"][workload] = {
                r.key: r.failure for r in records if r.failed
            }
            print(f"{workload}: {len(records)} ops, "
                  f"{len(reference['failures'][workload])} failed")
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
