"""Run one workload of the pontgap benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics in a closed loop for
``--seconds``; ``--trace 1`` runs a fixed op list untraced and then
traced and reports the per-layer metrics.  Every metric is printed as
``metric NAME = VALUE UNIT (n=SAMPLES)``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path


def parse_args(harness, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs into --dir, print their digest")
    parser.add_argument("--dir", default=None, help="input directory for --setup-only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    args = parse_args(harness, argv)
    if args.setup_only:
        inputs = harness.prepare_inputs(args.workload, args.seed, Path(args.dir))
        print(inputs.digest)
        return 0

    harness.RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=harness.RUN_DIR))
    try:
        for key, value in harness.environment().items():
            print(f"env {key} = {value}")
        if args.trace:
            span_path = harness.RUN_DIR / f"spans-{args.workload}.csv"
            result = harness.run_traced(args.workload, args.seed, scratch, span_path)
            print(f"spans written to {os.path.relpath(span_path)}")
        else:
            result = harness.run_untraced(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for note in result.notes:
        print(note)
    for m in result.metrics:
        print(f"metric {m.name} = {m.value!r} {m.unit} (n={m.samples})")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in result.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
