"""Self-tests of the benchmark's tracer and output checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import harness  # noqa: E402
import numpy  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER, Tracer, layer_metrics  # noqa: E402

import pontgap  # noqa: E402

#: the workload each per-layer metric must be non-zero on
ASSIGNED = {
    "windows-d96": [
        "lapack.svd.calls", "lapack.svd.s", "lapack.svd.gflop_est",
        "lapack.svd_per_window", "linalg.null_space.calls",
        "linalg.null_space.self_s", "linalg.orthonormal_columns.calls",
        "linalg.orthonormal_columns.self_s", "spectral.gap_subspace.calls",
        "spectral.gap_subspace.self_s", "spectral.svd_per_gap_subspace",
    ],
    "sweep-grid": [
        "lapack.eig.calls", "lapack.eig.s", "lapack.eigh.calls", "lapack.eigh.s",
        "lapack.solve.calls", "lapack.solve.s", "linalg.complex_eigen.self_s",
        "linalg.frob.calls", "linalg.self_s", "spectral.spectrum.calls",
        "spectral.spectrum.self_s", "indefinite.subspace_inertia.calls",
        "indefinite.subspace_inertia.self_s", "theorem.verify_main_theorem.calls",
        "theorem.verify_main_theorem.self_s", "cli.self_s",
        "prng.draws", "prng.self_s", "gen.random_space.s", "gen.random_pair.s",
        "gen.margin_checks",
    ],
    "witness-cli": [
        "theorem.proof_witness.calls", "theorem.proof_witness.self_s",
        "theorem.choose_delta_prime.self_s", "theorem.choose_delta_prime.errors",
        "gapform.decompose_resolvent_gap.self_s",
        "gapform.decompose_spectrum_inside.self_s", "indefinite.sum_subspaces.s",
        "indefinite.intersect_subspaces.s", "indefinite.oblique_projection.s",
        "spectral.complement_subspace.self_s", "spectral.restrict_operator.s",
        "instancefile.parse_instance.s", "instancefile.parse_instance.bytes",
        "instancefile.stable_dumps.s", "instancefile.stable_dumps.bytes",
        "spectral.validate_operator.s", "perturbation.make_pair.s",
        "indefinite.validate_space.s",
    ],
}

OPS = {"sweep-grid": 1, "windows-d96": 1, "witness-cli": None}


def _traced_ops(workload: str, directory: Path) -> tuple[Tracer, list]:
    inputs = harness.prepare_inputs(workload, harness.DEFAULT_SEED, directory)
    count = OPS[workload] or len(inputs.names)
    tracer, records = Tracer(), []
    for index in range(count):
        key, argv = harness.op_argv(workload, harness.DEFAULT_SEED, index, inputs)
        with tracer.tracing(index):
            records.append(harness.run_op(workload, key, argv, inputs))
    return tracer, records


def _bindings() -> dict[str, object]:
    """Every attribute of every pontgap module and of numpy.linalg, by name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pontgap" or name.startswith("pontgap.")):
            for attr, value in vars(module).items():
                found[f"{name}.{attr}"] = value
    found.update({f"numpy.linalg.{a}": v for a, v in vars(numpy.linalg).items()})
    rng = pontgap.prng.Xoshiro256StarStar
    found.update({f"rng.{a}": v for a, v in vars(rng).items()})
    return found


def test_table_names_every_per_layer_metric():
    assigned = [name for names in ASSIGNED.values() for name in names]
    assert sorted(assigned) == sorted(name for name, _ in PER_LAYER)


@pytest.mark.parametrize("workload", list(ASSIGNED))
def test_per_layer_metrics_nonzero_on_their_workload(workload, tmp_path):
    tracer, records = _traced_ops(workload, tmp_path)
    assert all(r.mismatch is None for r in records)
    values = layer_metrics(tracer, ops=range(len(records)))
    zero = [name for name in ASSIGNED[workload] if not values[name] > 0]
    assert zero == []


def test_wrap_then_unwrap_leaves_witness_output_identical(tmp_path):
    path = tmp_path / "example3.json"
    assert harness.call_cli(["examples", "example3", "--out", str(path)]).code == 0
    argv = ["verify", str(path), "--witness"]
    before = harness.call_cli(argv)
    originals = _bindings()
    tracer = Tracer()
    with tracer.tracing(0):
        assert pontgap.theorem.gap_subspace is pontgap.spectral.gap_subspace
        assert pontgap.cli.spectrum is not originals["pontgap.cli.spectrum"]
        traced = harness.call_cli(argv)
    after = harness.call_cli(argv)
    assert before.code == traced.code == after.code == 0
    assert before.stdout == traced.stdout == after.stdout
    restored = _bindings()
    assert [k for k, v in originals.items() if restored.get(k) is not v] == []
    assert "theorem.proof_witness" in tracer.names


def test_counts_repeat_exactly(tmp_path):
    first, _ = _traced_ops("sweep-grid", tmp_path / "a")
    second, _ = _traced_ops("sweep-grid", tmp_path / "b")
    a, b = layer_metrics(first), layer_metrics(second)
    assert {k: a[k] for k in COUNT_METRICS} == {k: b[k] for k in COUNT_METRICS}


def test_csv_check_catches_a_broken_partition():
    header = ",".join(harness.CSV_FIELDS)
    good = [
        "4,3,1,1,-inf,+inf,3,4,1,1,2",
        "4,3,1,1,-inf,0.5,1,2,1,0,2",
        "4,3,1,1,0.5,+inf,2,2,0,1,3",
    ]
    rows = harness.parse_sweep_csv("\n".join([header, *good]))
    assert harness.csv_problems(rows) == []
    broken = good[:2] + ["4,3,1,1,0.5,+inf,1,2,0,1,2"]
    rows = harness.parse_sweep_csv("\n".join([header, *broken]))
    assert any("eig1" in p for p in harness.csv_problems(rows))


def test_witness_refusals_are_checked_not_failed(tmp_path):
    inputs = harness.prepare_inputs("witness-cli", harness.DEFAULT_SEED, tmp_path)
    reference = harness.load_reference()
    keys = sorted(reference["failures"]["witness-cli"])[:2]

    def ops():
        return [harness.run_op("witness-cli", key, ["verify", str(tmp_path / key), "--witness"], inputs)
                for key in keys]

    records = ops()
    harness.finish_checks("witness-cli", harness.DEFAULT_SEED, records, reference)
    assert [(r.failure, r.refused, r.mismatch) for r in records] == \
        [("DeltaPrimeSearchError", True, None)] * len(keys)
    # a workload that accepts no refusal counts the same exit as a failure
    records = ops()
    harness.finish_checks("sweep-grid", harness.DEFAULT_SEED, records, reference)
    assert [(r.failed, r.refused) for r in records] == [(True, False)] * len(keys)
