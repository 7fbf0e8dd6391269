import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
import pontgap.cli
import pontgap.spectral
import pontgap.sweep
from pontgap.cli import _parse_cli_interval, main
from pontgap.errors import (
    IllPosedIntervalError,
    InstanceFormatError,
    NumericalDefectError,
    ResampleBudgetError,
)
from pontgap.gen import GenConfig, random_operator, random_pair, random_space
from pontgap.instancefile import InstanceRecord, dumps_instance, parse_instance
from pontgap.linalg import DEFAULT_TOL
from pontgap.spectral import Interval
from pontgap.sweep import CSV_HEADER
from pontgap.theorem import sweep_windows
from test_sweep import _batches, _count_table_batches

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EXAMPLE1 = FIXTURES / "example1.json"
EXAMPLE3 = FIXTURES / "example3.json"
DATA = Path(__file__).resolve().parent / "data"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# examples


def test_examples_table_all_ok(capsys):
    code, out, _ = _run(capsys, "examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14  # 7 expected keys x 2 fixtures
    assert all(line.endswith(" ok") for line in lines)
    assert "example1 eig2: expected 2 computed 2 ok" in lines
    assert "example3 slack: expected 0 computed 0 ok" in lines


def test_examples_emits_committed_fixture_files(capsys, tmp_path):
    for name, committed in (("example1", EXAMPLE1), ("example3", EXAMPLE3)):
        out_path = tmp_path / f"{name}.json"
        code, _, _ = _run(capsys, "examples", name, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == committed.read_text()


def test_examples_unknown_name(capsys):
    assert _run(capsys, "examples", "example2") == (
        2, "", "error: unknown fixture 'example2'; valid: example1, example3\n")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_document_shape(capsys):
    code, out, _ = _run(capsys, "analyze", str(EXAMPLE1))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["name"] == "example1"
    assert doc["space"] == {"dim": 2, "kappa_plus": 1, "kappa_minus": 1}
    assert set(doc["spectra"]) == {"a1", "a2"}
    section = doc["intervals"][0]
    assert section["interval"] == {"lower": 0.25, "upper": 2.0}
    assert section["eig"] == {"a1": 0, "a2": 2}
    assert section["sig"] == {"a1": 0, "a2": 0}
    assert section["inertia"]["a2"] == {"plus": 1, "minus": 1, "zero": 0}


def test_analyze_document_is_pinned(capsys):
    # recorded when analyze still took eigvals for its spectra; its one
    # inexact number, a1's double eigenvalue -1.1102230246251565e-16, is
    # the mean of geev's two values, which eig and eigvals give alike
    code, out, _ = _run(capsys, "analyze", str(EXAMPLE1))
    assert code == 0
    assert out == (DATA / "example1.analyze.json").read_text()


def test_example3_analyze_document_is_pinned(capsys):
    # its spectra carry geev's last bits (a1's 1.7763568394002505e-15),
    # which eig and eigvals give alike up to SHARED_EIG_MAX_DIM
    code, out, _ = _run(capsys, "analyze", str(EXAMPLE3))
    assert code == 0
    assert out == (DATA / "example3.analyze.json").read_text()


def test_analyze_single_operator_instance(capsys, tmp_path):
    record = parse_instance(EXAMPLE1.read_text())
    doc = json.loads(EXAMPLE1.read_text())
    del doc["a2"], doc["expected"], doc["name"]
    path = tmp_path / "a1only.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    parsed = json.loads(out)
    assert set(parsed["spectra"]) == {"a1"}
    assert parsed["intervals"][0]["eig"] == {"a1": 0}
    assert "name" not in parsed
    assert record.a2 is not None  # the original fixture does carry a2


def test_analyze_interval_override(capsys):
    code, out, _ = _run(capsys, "analyze", str(EXAMPLE1),
                        "--interval", "1.25,1.5", "--interval=-inf,inf")
    assert code == 0
    sections = json.loads(out)["intervals"]
    assert len(sections) == 2
    assert sections[0]["interval"] == {"lower": 1.25, "upper": 1.5}
    assert sections[0]["eig"] == {"a1": 0, "a2": 0}
    assert sections[1]["interval"] == {"lower": "-inf", "upper": "+inf"}
    assert sections[1]["eig"] == {"a1": 2, "a2": 2}


def test_analyze_writes_to_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "analyze", str(EXAMPLE1), "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["space"]["dim"] == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_example3_with_witness(capsys):
    code, out, _ = _run(capsys, "verify", str(EXAMPLE3), "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_bounds_hold"] is True
    assert doc["n"] == 1 and doc["kappa"] == 1
    assert doc["expectation"]["matches"] is True
    report = doc["reports"][0]
    assert report["eig"] == {"a1": 0, "a2": 3}
    assert report["eig_bound_holds"] is True
    assert report["slack"] == 0
    witness = report["witness"]
    assert witness["dim_k"] == 1
    assert witness["q1_injective_on_k"] is True
    assert witness["chain_holds"] is True


def test_verify_witness_document_is_pinned(capsys):
    # every number in it is exact: counts, the dyadic delta', the
    # interval and the tolerances, so no LAPACK build can move a byte
    code, out, _ = _run(capsys, "verify", str(EXAMPLE1), "--witness")
    assert code == 0
    assert out == (DATA / "example1.verify-witness.json").read_text()


def test_example3_verify_witness_document_is_pinned(capsys):
    # delta' is read off a2's eigenvalues (half the least, the largest
    # plus one), so the witness carries geev's last bits too
    code, out, _ = _run(capsys, "verify", str(EXAMPLE3), "--witness")
    assert code == 0
    assert out == (DATA / "example3.verify-witness.json").read_text()


def _generated_window_file(tmp_path, d, window):
    """A generated d x d, kappa = 2, n = 2 seed-0 pair on one of its sweep windows."""
    cfg = GenConfig(dim=d, kappa_minus=2, pert_rank=2, seed=0)
    space = random_space(cfg)
    pair = random_pair(space, cfg)
    record = InstanceRecord(
        gram=space.gram, a1=pair.op1.matrix, a2=pair.op2.matrix,
        intervals=(sweep_windows(pair)[window],), name=f"d{d}-seed0-w{window}",
    )
    path = tmp_path / f"d{d}.json"
    path.write_text(dumps_instance(record))
    return path


@pytest.mark.parametrize(
    "d, window, command, digest",
    [
        (32, 6, "verify", "156d0e1590929568a380c95086638e827369c57849c2726ac39cbe799e720c8c"),
        (32, 6, "analyze", "05602a76304997dec194072d5bfd868764e4708cf08a578b14f6605b220b2547"),
        # above d = 75 an operator read from a file takes eigvals and eig apart
        (80, 0, "verify", "b6b69b048c262deb42d8ad2cbab12f87ff931b9ce9d912819f1a5727d16fc892"),
        (80, 0, "analyze", "1b98ba0ef50c1850d63c3eeae6a3e6dfa0387554abce1f0bc2e2d8f8a798ff93"),
    ],
)
def test_generated_documents_are_pinned(capsys, tmp_path, d, window, command, digest):
    # SHA-256 of the whole stdout, recorded when every operator still took
    # one eigvals call for its spectrum and one eig call for its table
    path = _generated_window_file(tmp_path, d, window)
    argv = [command, str(path)] + (["--witness"] if command == "verify" else [])
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d, window, eigvals", [(32, 6, 0), (80, 0, 2)])
def test_analyze_shares_each_operators_eig_up_to_the_bound(
    monkeypatch, capsys, tmp_path, d, window, eigvals
):
    # up to SHARED_EIG_MAX_DIM one eig call per operator gives its spectrum
    # and its table; above it each spectrum takes its own eigvals call
    path = _generated_window_file(tmp_path, d, window)
    calls = {
        name: helpers.count_calls(monkeypatch, np.linalg, name)
        for name in ("eig", "eigvals")
    }
    code, _, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    assert (len(calls["eig"]), len(calls["eigvals"])) == (2, eigvals)


def test_verify_mislabeled_expectation(capsys, tmp_path):
    doc = json.loads(EXAMPLE1.read_text())
    doc["expected"]["eig2"] = 3
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 1
    parsed = json.loads(out)
    assert parsed["all_bounds_hold"] is True
    assert parsed["expectation"]["matches"] is False
    assert parsed["expectation"]["mismatches"]["eig2"] == {
        "expected": 3, "computed": 2,
    }


def test_verify_interval_override_skips_expectation(capsys):
    # example1's expected counts belong to (1/4, 2); on (-1, 1) eig1 is 2
    code, out, _ = _run(capsys, "verify", str(EXAMPLE1), "--interval=-1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_bounds_hold"] is True
    assert doc["reports"][0]["eig"] == {"a1": 2, "a2": 1}
    assert "expectation" not in doc


def test_verify_requires_second_operator(capsys, tmp_path):
    doc = json.loads(EXAMPLE1.read_text())
    del doc["a2"]
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, "verify", str(path)) == (
        2, "", "error: verify needs an instance with both a1 and a2\n")
    proc = _run_demo(str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "both a1 and a2" in proc.stderr


def test_verify_requires_an_interval(capsys, tmp_path):
    # analyze still reports the spectra of an instance without intervals
    doc = json.loads(EXAMPLE1.read_text())
    doc["intervals"] = []
    path = tmp_path / "no_intervals.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, "verify", str(path)) == (
        2, "", "error: verify needs at least one interval\n")
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["intervals"] == []
    proc = _run_demo(str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "at least one interval" in proc.stderr


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = _run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 1" in err


def test_number_past_the_double_range_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    huge = '"lower": 1' + "0" * 400
    path.write_text(EXAMPLE1.read_text().replace('"lower": 0.25', huge))
    code, out, err = _run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert "$.intervals[0].lower: number does not fit in a double" in err


def test_deeply_nested_file_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    deep = '"name": ' + "[" * 2000 + "]" * 2000
    path.write_text(EXAMPLE1.read_text().replace('"name": "example1"', deep))
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: arrays or objects nested too deeply\n"


def test_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + EXAMPLE1.read_text().encode("utf-16-le"))
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not UTF-8 at byte 0\n"
    path.write_bytes(b'{"name": "\xe9"}')
    code, out, err = _run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not UTF-8 at byte 10\n"


def test_duplicate_key_exits_2(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(EXAMPLE1.read_text().replace("{", '{"a1": [[[1, 0]]], ', 1))
    code, out, err = _run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == 'error: duplicate key "a1"\n'


def test_gram_whose_norm_overflows_exits_2(capsys, tmp_path):
    # ||J||_F overflows, so every band in its unit would be inf
    doc = json.loads(EXAMPLE1.read_text())
    doc["gram"] = [[[1.5e308, 0], [0, 0]], [[0, 0], [-1.5e308, 0]]]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore"):
        code, out, err = _run(capsys, "verify", str(path), "--witness")
    assert (code, out) == (2, "")
    assert err == "error: matrix norm overflows: ||h||_F = inf\n"


@pytest.mark.parametrize(
    "gram, a1_00, message",
    [
        (1.5e308, 1.0, "matrix norm overflows: ||h||_F = inf"),
        # ||A||_F is finite, and J A overflows
        (1e150, 1e200, "J-selfadjointness defect overflows: ||JA - (JA)^*||_F = nan"),
    ],
    ids=["gram", "operator"],
)
def test_overflow_is_one_error_line_without_numpy_warnings(tmp_path, gram, a1_00, message):
    doc = json.loads(EXAMPLE1.read_text())
    doc["gram"] = [[[gram, 0], [0, 0]], [[0, 0], [-gram, 0]]]
    doc["a1"][0][0] = [a1_00, 0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = _run_module("verify", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


def test_gap_form_whose_norm_overflows_is_one_error_line(tmp_path):
    # a pair gets a delta', then its gap form's norm overflows (see
    # test_gapform._overflowing_gap_pair)
    doc = json.loads(EXAMPLE3.read_text())
    del doc["expected"]
    eye = np.eye(25)
    doc["gram"] = [[[x, 0] for x in row] for row in eye.tolist()]
    for key, last in (("a1", 9.5e154), ("a2", 0.0)):
        a = 9.5e154 * eye
        a[-1, -1] = last
        doc[key] = [[[x, 0] for x in row] for row in a.tolist()]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = _run_module("verify", "--witness", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: gap form norm overflows: ||G||_F = inf\n"


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_ill_posed_interval_exits_3(capsys, tmp_path):
    doc = json.loads(EXAMPLE1.read_text())
    doc["intervals"] = [{"lower": 2.0, "upper": 1.0}]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "verify", str(path))
    assert code == 3
    assert "intervals[0]" in err


def test_ambiguous_endpoint_exits_3(capsys):
    # 0.50000001 sits inside the guard band around A2's eigenvalue 1/2
    code, _, err = _run(capsys, "analyze", str(EXAMPLE1),
                        "--interval", "0.50000001,2")
    assert code == 3
    assert "error:" in err


def test_bad_tolerance_exits_2(capsys):
    code, _, err = _run(capsys, "analyze", str(EXAMPLE1), "--tol-rel", "2.0")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_is_deterministic(capsys, tmp_path):
    texts = []
    for run in range(2):
        out_path = tmp_path / f"run{run}.csv"
        code, out, _ = _run(capsys, "sweep", "--dims", "2,3", "--kappas", "1",
                            "--ranks", "0,1", "--seeds", "2",
                            "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        assert summary["rows"] >= summary["instances"] > 0
        texts.append(out_path.read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + summary["rows"]
    for line in lines[1:]:
        assert len(line.split(",")) == 11


def test_sweep_summary_cells(capsys, tmp_path):
    code, out, _ = _run(capsys, "sweep", "--dims", "3", "--kappas", "0,1",
                        "--ranks", "1", "--seeds", "3",
                        "--out", str(tmp_path / "s.csv"))
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [(c["kappa"], c["n"]) for c in cells] == [(0, 1), (1, 1)]
    rows = [
        line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()[1:]
    ]
    for cell in cells:
        assert cell["min_slack"] >= 0
        assert cell["rows"] > 0
        # the first CSV row of the cell reaching min_slack; each instance's
        # rows open with the full line, and seeds count up from 0
        seed = -1
        for row in rows:
            if (row[2], row[3]) != (str(cell["kappa"]), str(cell["n"])):
                continue
            if (row[4], row[5]) == ("-inf", "+inf"):
                seed += 1
            if int(row[10]) == cell["min_slack"]:
                break
        assert cell["attained_at"] == {
            "d": 3,
            "seed": seed,
            "lower": row[4] if "inf" in row[4] else float(row[4]),
            "upper": row[5] if "inf" in row[5] else float(row[5]),
        }


def test_sweep_skips_cells_outside_the_grid(capsys, tmp_path):
    # kappa 3 and n 4 fit no d = 2 instance, n 4 no d = 3 one
    out_path = tmp_path / "skip.csv"
    code, out, _ = _run(capsys, "sweep", "--dims", "2,3", "--kappas", "0,3",
                        "--ranks", "0,4", "--seeds", "1", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert (summary["instances"], summary["rows"]) == (3, 11)
    assert [(c["kappa"], c["n"], c["rows"]) for c in summary["cells"]] == [
        (0, 0, 7), (3, 0, 4),
    ]
    assert len(out_path.read_text().splitlines()) == 1 + 11


def _count_runs(monkeypatch):
    """A list that grows by one each time this process runs the grid: its
    shares (``_run_shares``), then, after a failure, the rerun (the one
    ``_sweep_share`` that ``sweep_grid`` calls itself, with no CPUs)."""
    runs = helpers.count_calls(monkeypatch, pontgap.sweep, "_run_shares")
    share = pontgap.sweep._sweep_share

    def counted(cells, tol, *cpus):
        if not cpus:
            runs.append("rerun")
        return share(cells, tol, *cpus)

    monkeypatch.setattr(pontgap.sweep, "_sweep_share", counted)
    return runs


def _count_processes(monkeypatch, path):
    """Log each ``_sweep_share`` call by process, and count this process's
    runs of the grid (see ``_count_runs``)."""
    runs = _count_runs(monkeypatch)
    share = pontgap.sweep._sweep_share

    def logged(cells, *args, **kwargs):
        helpers.log(path, len(cells))
        return share(cells, *args, **kwargs)

    monkeypatch.setattr(pontgap.sweep, "_sweep_share", logged)
    return runs


_GRIDS = {
    "default": (),
    # repeated and unsorted values, as in
    # tests/test_sweep.py::test_sweep_equals_its_cell_by_cell_build
    "mixed": ("--dims", "3,12,2,7,3", "--kappas", "1,3,0,1", "--ranks", "2,0,3",
              "--seeds", "3", "--seed", "7"),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_sweep_writes_the_same_bytes_on_any_number_of_cpus(capsys, tmp_path, monkeypatch, grid):
    out_path = tmp_path / "grid.csv"
    log = tmp_path / "shares.log"
    runs = _count_processes(monkeypatch, log)
    outputs = []
    for cpus in (1, 2, 4):
        helpers.pin_cpus(monkeypatch, cpus)
        log.unlink(missing_ok=True)
        code, out, err = _run(capsys, "sweep", *_GRIDS[grid], "--out", str(out_path))
        assert (code, err) == (0, "")
        outputs.append((out_path.read_bytes(), out))
        # one process per CPU, each with its share, and no rerun
        assert len(helpers.logged(log)) == cpus
        assert len(runs) == 1
        runs.clear()
        helpers.assert_no_children()
    assert outputs[0] == outputs[1] == outputs[2]


def _reference_cells(csv_text, dims, kappas, ranks, seeds, base):
    """The summary's cells, folded row by row over the CSV in grid order:
    each cell's row count, least slack and first row with it."""
    cells = [
        (d, kappa, rank, base + offset)
        for d, kappa, rank, offset in itertools.product(dims, kappas, ranks, range(seeds))
        if kappa <= d and rank <= d
    ]
    summary, at = {}, -1
    for line in csv_text.splitlines()[1:]:
        row = line.split(",")
        # each pair's rows open with the whole line
        if (row[4], row[5]) == ("-inf", "+inf"):
            at += 1
        d, kappa, rank, seed = cells[at]
        cell = summary.setdefault(
            (kappa, rank), {"kappa": kappa, "n": rank, "min_slack": None, "rows": 0})
        cell["rows"] += 1
        slack = int(row[10])
        if cell["min_slack"] is None or slack < cell["min_slack"]:
            cell["min_slack"] = slack
            cell["attained_at"] = {
                "d": d,
                "seed": seed,
                "lower": row[4] if "inf" in row[4] else float(row[4]),
                "upper": row[5] if "inf" in row[5] else float(row[5]),
            }
    assert at == len(cells) - 1
    return [summary[key] for key in sorted(summary)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_summary_names_each_cells_first_row_with_its_least_slack(
    capsys, tmp_path, monkeypatch, cpus
):
    helpers.pin_cpus(monkeypatch, cpus)
    out_path = tmp_path / "default.csv"
    code, out, _ = _run(capsys, "sweep", "--out", str(out_path))
    assert code == 0
    expected = _reference_cells(out_path.read_text(), (2, 3, 4), (0, 1), (0, 1, 2), 10, 0)
    assert json.loads(out)["cells"] == expected
    helpers.assert_no_children()


def test_sweep_summary_breaks_a_tie_across_workers_in_grid_order(
    capsys, tmp_path, monkeypatch
):
    # one cell of six groups, which alternate between two workers: its least
    # slack comes first in the child's share and again in the parent's
    helpers.pin_cpus(monkeypatch, 2)
    out_path = tmp_path / "tie.csv"
    code, out, _ = _run(capsys, "sweep", "--dims", "2", "--kappas", "1", "--ranks", "1",
                        "--seeds", "6", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    least_by_pair = []
    for line in text.splitlines()[1:]:
        row = line.split(",")
        if (row[4], row[5]) == ("-inf", "+inf"):
            least_by_pair.append(int(row[10]))
        least_by_pair[-1] = min(least_by_pair[-1], int(row[10]))
    least = min(least_by_pair)
    workers = [pair % 2 for pair, slack in enumerate(least_by_pair) if slack == least]
    assert workers[0] == 1 and 0 in workers
    assert json.loads(out)["cells"] == _reference_cells(text, (2,), (1,), (1,), 6, 0)
    helpers.assert_no_children()


def test_sweep_of_one_group_never_forks(capsys, tmp_path, monkeypatch):
    forks = []

    def fork():
        forks.append(True)
        raise OSError("fork called")

    monkeypatch.setattr(os, "fork", fork)
    helpers.pin_cpus(monkeypatch, 4)
    code, out, _ = _run(capsys, "sweep", "--dims", "2", "--kappas", "1",
                        "--ranks", "0,1,2", "--seeds", "1",
                        "--out", str(tmp_path / "one.csv"))
    assert code == 0
    assert json.loads(out)["instances"] == 3
    assert forks == []


@pytest.mark.parametrize("reason", ["no-fork", "threads"])
def test_sweep_runs_in_process_without_fork_or_beside_other_threads(
    capsys, tmp_path, monkeypatch, reason
):
    log = tmp_path / "shares.log"
    runs = _count_processes(monkeypatch, log)
    real_gate = pontgap.sweep._one_thread
    helpers.pin_cpus(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if reason == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        # the gate itself, which sees the waiter (and any BLAS threads)
        monkeypatch.setattr(pontgap.sweep, "_one_thread", real_gate)
        waiter.start()
    try:
        code, out, _ = _run(capsys, "sweep", "--out", str(tmp_path / "default.csv"))
    finally:
        release.set()
    if reason == "threads":
        waiter.join(timeout=10)
        assert not waiter.is_alive()
    assert code == 0
    assert json.loads(out)["instances"] == 180
    assert (helpers.logged(log), len(runs)) == ({os.getpid(): ["180"]}, 1)


@pytest.mark.parametrize("fault", ["fork-fails", "worker-exits-non-zero"])
def test_sweep_reruns_in_process_when_a_worker_fails(capsys, tmp_path, monkeypatch, fault):
    out_path = tmp_path / "default.csv"
    helpers.pin_cpus(monkeypatch, 1)
    _, summary, _ = _run(capsys, "sweep", "--out", str(out_path))
    expected = out_path.read_bytes(), summary
    helpers.pin_cpus(monkeypatch, 2)
    if fault == "fork-fails":
        def fork():
            raise BlockingIOError("no process left")
        monkeypatch.setattr(os, "fork", fork)
    else:
        # only a forked worker calls os._exit; this one sends its whole
        # result, then exits 3
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    log = tmp_path / "shares.log"
    runs = _count_processes(monkeypatch, log)
    code, out, err = _run(capsys, "sweep", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert (out_path.read_bytes(), out) == expected
    # the shares, then the whole grid in this process
    assert len(runs) == 2
    assert helpers.logged(log)[os.getpid()][-1] == "180"
    helpers.assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_recounts_pair_by_pair_when_a_batch_build_fails(
    capsys, tmp_path, monkeypatch, cpus
):
    """A batch's build is only a head start: where it fails, each count
    builds its operator's table and verdict alone, to the same bytes."""
    out_path = tmp_path / "default.csv"
    helpers.pin_cpus(monkeypatch, 1)
    _, summary, _ = _run(capsys, "sweep", "--out", str(out_path))
    expected = out_path.read_bytes(), summary
    helpers.pin_cpus(monkeypatch, cpus)
    log = tmp_path / "builds.log"

    def failing(ops, tol):
        helpers.log(log, len(ops))
        raise MemoryError("injected batch build failure")

    monkeypatch.setattr(pontgap.sweep, "prepare", failing)
    runs = _count_processes(monkeypatch, tmp_path / "shares.log")
    code, out, err = _run(capsys, "sweep", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert (out_path.read_bytes(), out) == expected
    # each share's one batch failed to build, and the grid ran once
    assert len(runs) == 1
    assert sorted(map(len, helpers.logged(log).values())) == [1] * cpus
    helpers.assert_no_children()


def _inject_table_failure(monkeypatch, d, kappa, rank, seed):
    """Every root basis of the A2 of that generated pair fails."""
    cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=rank, seed=seed)
    target = random_pair(random_space(cfg), cfg).op2.matrix
    build = pontgap.spectral._root_basis

    def failing(op, entry, start, tol):
        if np.array_equal(op.matrix, target):
            raise NumericalDefectError("injected table failure")
        return build(op, entry, start, tol)

    monkeypatch.setattr(pontgap.spectral, "_root_basis", failing)


def _inject_generation_failure(monkeypatch, d, kappa, rank, seed):
    """Drawing that pair fails, alone or with others in one call."""
    real = pontgap.sweep.random_pair

    def failing(first, cfg, tol):
        for each in [cfg] if isinstance(cfg, GenConfig) else cfg:
            if (each.dim, each.kappa_minus, each.pert_rank, each.seed) == (d, kappa, rank, seed):
                raise ResampleBudgetError("injected generation failure")
        return real(first, cfg, tol)

    monkeypatch.setattr(pontgap.sweep, "random_pair", failing)


_FAILURES = {
    "table": (True, False, "injected table failure"),
    # the table of seed 4 fails before seed 7 is drawn, in grid order
    "table-then-generation": (True, True, "injected table failure"),
    "generation": (False, True, "injected generation failure"),
}


@pytest.mark.parametrize(
    "table, generation, message, cpus",
    [
        # on two CPUs seed 4's group is this process's, seed 7's the child's
        pytest.param(*failure, cpus, id=name if cpus == 1 else f"{name}-{cpus}cpus")
        for cpus in (1, 2)
        for name, failure in _FAILURES.items()
    ],
)
def test_sweep_reports_the_first_failure_in_grid_order(
    capsys, tmp_path, monkeypatch, table, generation, message, cpus
):
    helpers.pin_cpus(monkeypatch, cpus)
    if table:
        _inject_table_failure(monkeypatch, 3, 1, 2, 4)
    if generation:
        _inject_generation_failure(monkeypatch, 3, 1, 2, 7)
    out_path = tmp_path / "grid.csv"
    code, out, err = _run(capsys, "sweep", "--out", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()
    helpers.assert_no_children()


# ---------------------------------------------------------------------------
# sweep: spectral tables built in threads


def _count_table_threads(monkeypatch, log):
    """Log, from each table thread, its thread's identifier."""
    build = pontgap.sweep._build_table_on

    def logged(cpu, op, tol):
        helpers.log(log, threading.get_ident())
        return build(cpu, op, tol)

    monkeypatch.setattr(pontgap.sweep, "_build_table_on", logged)


def _sweep_output(capsys, out_path, *argv):
    """Exit code, stdout, stderr and CSV bytes (None if unwritten) of a sweep."""
    out_path.unlink(missing_ok=True)
    code, out, err = _run(capsys, "sweep", *argv, "--out", str(out_path))
    return code, out, err, out_path.read_bytes() if out_path.exists() else None


@pytest.mark.parametrize("d", [64, 76, 96])
def test_table_built_in_a_thread_equals_the_one_built_in_place(d):
    cfg = GenConfig(dim=d, kappa_minus=2, seed=d)
    space = random_space(cfg)
    # twins, each with the raw eigenvalues its margin check memoized
    here, there = random_operator(space, cfg), random_operator(space, cfg)
    assert here is not there and np.array_equal(here.matrix, there.matrix)
    built = pontgap.spectral._table(here, DEFAULT_TOL)
    thread = threading.Thread(target=pontgap.sweep._build_table_on,
                              args=(max(os.sched_getaffinity(0)), there, DEFAULT_TOL))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    sent = there._memo[("table", DEFAULT_TOL.rel, DEFAULT_TOL.abs)]
    assert len(sent.bases) == len(built.bases) == len(pontgap.spectral.spectrum(there).entries)
    for mine, theirs in zip(built.bases, sent.bases):
        assert (theirs.dtype, theirs.shape) == (mine.dtype, mine.shape)
        assert theirs.tobytes() == mine.tobytes()
        assert not mine.flags.writeable and not theirs.flags.writeable
    assert sent.inertias == built.inertias
    # the thread settled the verdict too, the one its twin computes in place
    key = ("additive", DEFAULT_TOL.rel, DEFAULT_TOL.abs)
    assert key not in here._memo
    assert there._memo[key] is True
    assert pontgap.spectral._additive(here, DEFAULT_TOL) is True


def _blas_threads(threads: int) -> dict:
    return {var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}


#: runs ``sweep`` in a fresh interpreter, which sees the first CPUS CPUs
#: and appends ``pid fork`` to LOG before each fork and ``pid table
#: thread`` from each table thread
_SWEEP_ON_CPUS = """
import os, sys, threading
cpus, log, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
os.sched_getaffinity = lambda pid: set(range(cpus))
import pontgap.cli
import pontgap.sweep

def logged(event, work):
    def call(*args):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, f"{os.getpid()} {event} {threading.get_ident()}\\n".encode())
        os.close(fd)
        return work(*args)
    return call

os.fork = logged("fork", os.fork)
pontgap.sweep._build_table_on = logged("table", pontgap.sweep._build_table_on)
sys.exit(pontgap.cli.main(argv))
"""


def _sweep_on_cpus(tmp_path, cpus, *argv, blas_threads=1):
    """A sweep in a fresh interpreter with ``blas_threads`` BLAS threads
    (one leaves the CPUs it does not use idle): its exit code, stdout,
    stderr and CSV bytes, the number of workers it forked and the number
    of table threads it started."""
    log, out_path = tmp_path / "events.log", tmp_path / "grid.csv"
    log.unlink(missing_ok=True)
    out_path.unlink(missing_ok=True)
    done = _run_python("-c", _SWEEP_ON_CPUS, str(cpus), str(log), "sweep", *argv,
                       "--out", str(out_path), env=_blas_threads(blas_threads))
    events = [value.split()[0] for values in helpers.logged(log).values() for value in values]
    output = (done.returncode, done.stdout, done.stderr,
              out_path.read_bytes() if out_path.exists() else None)
    return output, events.count("fork"), events.count("table")


def test_one_thread_sees_python_threads_beside_one_blas_thread():
    done = _run_python("-c", (
        "import threading, pontgap.cli\n"
        "alone = pontgap.sweep._one_thread()\n"
        "release = threading.Event()\n"
        "waiter = threading.Thread(target=release.wait)\n"
        "waiter.start()\n"
        "print(alone, pontgap.sweep._one_thread())\n"
        "release.set()\n"
        "waiter.join()\n"), env=_blas_threads(1))
    assert (done.returncode, done.stdout, done.stderr) == (0, "True False\n", "")


_LARGE_GRID = ("--dims", "64,96", "--kappas", "2", "--ranks", "0,1,2")


@pytest.mark.parametrize("seeds, threads", [
    # four (d, kappa, seed) groups: shares fill the CPUs up to four, and on
    # eight each of the four shares builds two of its tables in a thread
    ("2", {1: 0, 2: 0, 4: 0, 8: 8}),
    # two groups: on four CPUs each of the two shares has one CPU to spare
    ("1", {1: 0, 2: 0, 4: 4}),
])
def test_sweep_with_table_threads_writes_the_same_bytes(tmp_path, seeds, threads):
    # ``threads`` counts the table threads each number of CPUs starts
    outputs = []
    for cpus, expected in threads.items():
        output, _, started = _sweep_on_cpus(tmp_path, cpus, *_LARGE_GRID,
                                            "--seeds", seeds, "--seed", "5")
        assert (output[0], output[2], started) == (0, "", expected)
        outputs.append(output)
    assert all(output == outputs[0] for output in outputs)


_D96 = ("--dims", "96", "--kappas", "2", "--ranks", "2", "--seeds", "1", "--seed", "3")


@pytest.mark.parametrize("cpus, grid, started", [
    # two shares fill both CPUs, and every order is below 64
    (2, (), 0),
    # a CPU to spare, but orders below 64
    (2, ("--dims", "63", "--kappas", "2", "--ranks", "0,1", "--seeds", "1"), 0),
    (4, ("--dims", "48,63", "--kappas", "2", "--ranks", "0,1", "--seeds", "1"), 0),
    # A1 goes to the thread; A2 is drawn while it runs and is built in place
    (2, _D96, 1),
], ids=["default", "d63", "d48-63-4cpus", "windows-d96"])
def test_sweep_builds_tables_in_threads_only_for_large_operators_on_idle_cpus(
    tmp_path, cpus, grid, started
):
    output, _, threads = _sweep_on_cpus(tmp_path, cpus, *grid)
    assert (output[0], output[2], threads) == (0, "", started)
    # the bytes of the same sweep on one CPU
    assert output == _sweep_on_cpus(tmp_path, 1, *grid)[0]


def _blas_starts_threads() -> bool:
    """Whether a fresh interpreter told to use two BLAS threads runs more
    than one thread once numpy has loaded."""
    done = _run_python("-c", "import os, numpy; print(len(os.listdir('/proc/self/task')))",
                       env=_blas_threads(2))
    return done.returncode == 0 and done.stdout.strip() != "1"


@pytest.mark.parametrize("grid", [(), _D96], ids=["default", "windows-d96"])
def test_sweep_beside_blas_threads_forks_no_worker_and_starts_no_table_thread(
    tmp_path, grid
):
    if not _blas_starts_threads():
        pytest.skip("numpy's BLAS starts no thread of its own here")
    # with one BLAS thread, two CPUs give the default grid a forked worker
    # and windows-d96 a table thread
    output, forks, threads = _sweep_on_cpus(tmp_path, 2, *grid, blas_threads=2)
    assert (output[0], output[2], forks, threads) == (0, "", 0, 0)
    assert output == _sweep_on_cpus(tmp_path, 1, *grid)[0]


def test_sweep_beside_blas_threads_builds_every_table_in_place(
    capsys, tmp_path, monkeypatch
):
    log = tmp_path / "threads.log"
    _count_table_threads(monkeypatch, log)
    helpers.pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(pontgap.sweep, "_one_thread", lambda: False)
    assert _sweep_output(capsys, tmp_path / "d96.csv", *_D96)[0] == 0
    assert helpers.logged(log) == {}


def _watch_shares(monkeypatch):
    """A list that grows, each time this process's ``_sweep_share``
    returns or raises, by the number of threads then running."""
    share, me, running = pontgap.sweep._sweep_share, os.getpid(), []

    def watched(*args, **kwargs):
        try:
            return share(*args, **kwargs)
        finally:
            if os.getpid() == me:
                running.append(threading.active_count())

    monkeypatch.setattr(pontgap.sweep, "_sweep_share", watched)
    return running


def test_sweep_forks_every_worker_before_any_table_thread_starts(
    capsys, tmp_path, monkeypatch
):
    log = tmp_path / "threads.log"
    _count_table_threads(monkeypatch, log)
    fork, running = os.fork, []

    def watched():
        running.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", watched)
    # four shares, each with a CPU to spare
    helpers.pin_cpus(monkeypatch, 8)
    before = threading.active_count()
    code, _, err = _run(capsys, "sweep", *_LARGE_GRID, "--seeds", "2", "--seed", "5",
                        "--out", str(tmp_path / "large.csv"))
    assert (code, err) == (0, "")
    assert running == [before] * 3
    # this process's share and each forked one built two tables in threads
    assert sorted(map(len, helpers.logged(log).values())) == [2] * 4
    helpers.assert_no_children()


def test_sweep_joins_every_table_thread_before_it_returns(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "d96.csv"
    helpers.pin_cpus(monkeypatch, 1)
    expected = _sweep_output(capsys, out_path, *_D96)
    helpers.pin_cpus(monkeypatch, 2)
    log = tmp_path / "threads.log"
    _count_table_threads(monkeypatch, log)
    running = _watch_shares(monkeypatch)
    before = threading.active_count()
    assert _sweep_output(capsys, out_path, *_D96) == expected
    assert threading.active_count() == before
    assert running == [before]
    # one table, built off this thread
    [thread] = helpers.logged(log)[os.getpid()]
    assert int(thread) != threading.get_ident()


# rank 0: A2 is A1, whose table the thread builds
_D96_RANK0 = ("--dims", "96", "--kappas", "2", "--ranks", "0", "--seeds", "1", "--seed", "3")


@pytest.mark.parametrize("fault", ["raises", "typed"])
def test_sweep_reruns_in_process_when_a_table_thread_fails(
    capsys, tmp_path, monkeypatch, fault
):
    """A table thread fails, and so does the share's batch build: where
    only ``prepare`` failed, the counts build the table, to the usual
    output, and the grid runs once; where the table cannot be built, the
    count raises and the grid reruns in this process, to the 1-CPU run's
    error line."""
    if fault == "typed":
        _inject_table_failure(monkeypatch, 96, 2, 0, 3)
    out_path = tmp_path / "d96.csv"
    helpers.pin_cpus(monkeypatch, 1)
    expected = _sweep_output(capsys, out_path, *_D96_RANK0)
    assert expected[:3] == ((2, "", "error: injected table failure\n") if fault == "typed"
                            else (0, expected[1], ""))
    helpers.pin_cpus(monkeypatch, 2)
    log = tmp_path / "threads.log"
    _count_table_threads(monkeypatch, log)
    if fault == "raises":
        def failing(ops, tol):
            # in the thread, and in place: the batch's only operator is
            # the thread's
            if ops:
                raise MemoryError("injected prepare failure")

        monkeypatch.setattr(pontgap.sweep, "prepare", failing)
    runs = _count_runs(monkeypatch)
    assert _sweep_output(capsys, out_path, *_D96_RANK0) == expected
    # one table thread, then, after a count failed, the whole grid again
    assert len(helpers.logged(log)) == 1
    assert len(runs) == {"raises": 1, "typed": 2}[fault]
    helpers.assert_no_children()


@pytest.mark.parametrize("step", ["table", "verdict"])
def test_sweep_counts_build_what_its_thread_failed_to_prepare(
    capsys, tmp_path, monkeypatch, step
):
    """A1's table thread fails to build its table, or to settle its verdict
    after the table: A1's counts build that step in this thread, with no
    traceback and no rerun."""
    out_path = tmp_path / "d96.csv"
    helpers.pin_cpus(monkeypatch, 1)
    expected = _sweep_output(capsys, out_path, *_D96)
    helpers.pin_cpus(monkeypatch, 2)
    threads, batches = tmp_path / "threads.log", tmp_path / "batches.log"
    _count_table_threads(monkeypatch, threads)
    _count_table_batches(monkeypatch, batches)
    name = {"table": "_build_tables", "verdict": "_additive"}[step]
    real, on_main = getattr(pontgap.spectral, name), []

    def failing(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        if not on_main[-1]:
            raise MemoryError(f"injected {step} failure")
        return real(*args)

    monkeypatch.setattr(pontgap.spectral, name, failing)
    # a thread that raised would print its traceback through this hook
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    runs = _count_runs(monkeypatch)
    assert _sweep_output(capsys, out_path, *_D96) == expected
    assert unhandled == []
    assert len(helpers.logged(threads)[os.getpid()]) == 1
    # the thread failed once, and this thread did that step last, for A1
    assert on_main.count(False) == 1 and on_main[-1]
    # the batch's A2, which no thread prepares, and no rerun
    assert (_batches(batches), len(runs)) == ([[1]], 1)


def test_sweep_joins_every_table_thread_when_a_share_fails(capsys, tmp_path, monkeypatch):
    """This process's share fails to draw a pair while its table thread
    runs: it joins the thread before the error propagates, and the forked
    share, whose table thread runs too, is killed with it."""
    grid = ("--dims", "96", "--kappas", "2", "--ranks", "2", "--seeds", "2", "--seed", "3")
    out_path = tmp_path / "grid.csv"
    helpers.pin_cpus(monkeypatch, 1)
    expected = _sweep_output(capsys, out_path, *grid)
    # two shares, each with a CPU to spare for a table thread
    helpers.pin_cpus(monkeypatch, 4)
    log = tmp_path / "threads.log"
    me = os.getpid()
    started, release = threading.Event(), threading.Event()
    build = pontgap.sweep._build_table_on

    def held(cpu, op, tol):
        helpers.log(log, threading.get_ident())
        if os.getpid() == me:
            started.set()
            release.wait(timeout=30)
        return build(cpu, op, tol)

    def worker_thread_started():
        return any(pid != me for pid in helpers.logged(log))

    draw, failed = pontgap.sweep.random_pair, []

    def failing(first, cfg, tol):
        # this process's share fails once, when both shares' table threads
        # run; its own prepares a d = 96 operator on after the failure
        if os.getpid() == me and not failed:
            deadline = time.monotonic() + 30
            while not (started.is_set() and worker_thread_started()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            release.set()
            failed.append(True)
            raise MemoryError("injected draw failure")
        return draw(first, cfg, tol)

    monkeypatch.setattr(pontgap.sweep, "_build_table_on", held)
    monkeypatch.setattr(pontgap.sweep, "random_pair", failing)
    running = _watch_shares(monkeypatch)
    before = threading.active_count()
    began = time.monotonic()
    assert _sweep_output(capsys, out_path, *grid) == expected
    assert time.monotonic() - began < 30
    # the failed share and the rerun each left only the threads found before
    assert threading.active_count() == before
    assert running == [before, before]
    assert sorted(pid == me for pid in helpers.logged(log)) == [False, True]
    helpers.assert_no_children()


def test_verify_exits_4_on_a_failed_bound(capsys, monkeypatch):
    real = pontgap.cli.verify_main_theorem

    def sabotaged(pair, interval, tol):
        return dataclasses.replace(
            real(pair, interval, tol), eig_bound_holds=False
        )

    monkeypatch.setattr(pontgap.cli, "verify_main_theorem", sabotaged)
    code, out, _ = _run(capsys, "verify", str(EXAMPLE1), "--witness")
    assert code == 4
    doc = json.loads(out)
    assert doc["all_bounds_hold"] is False
    assert doc["reports"][0]["eig_bound_holds"] is False


def test_sweep_rejects_bad_grid(capsys, tmp_path):
    out = tmp_path / "x.csv"
    for grid, flag in [
        (("--dims", "two"), "--dims"),
        (("--dims", "-2"), "--dims"),
        (("--dims", "3", "--kappas", "7"), "--kappas"),
        (("--dims", "3", "--ranks", "9"), "--ranks"),
        (("--dims", ""), "--dims expects comma-separated integers"),
        (("--seeds", "0"), "--seeds must be at least 1"),
        # seeds are taken modulo 2**64, so these would alias other seeds
        (("--seed", "-1"), "--seed"),
        (("--seed", str(2**64 - 2), "--seeds", "3"), "--seed"),
    ]:
        code, _, err = _run(capsys, "sweep", *grid, "--out", str(out))
        assert code == 2, grid
        assert flag in err, grid
        assert not out.exists(), grid


@pytest.mark.parametrize("where", ["missing-directory", "directory", "under-a-file"])
def test_sweep_rejects_an_out_path_before_it_draws_a_pair(capsys, tmp_path, monkeypatch, where):
    out = {
        "missing-directory": tmp_path / "nodir" / "x.csv",
        "directory": tmp_path,
        "under-a-file": tmp_path / "file" / "x.csv",
    }[where]
    if where == "under-a-file":
        (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    drawn = helpers.count_calls(monkeypatch, pontgap.sweep, "random_pair")
    code, out_text, err = _run(capsys, "sweep", "--out", str(out))
    assert (code, out_text, drawn) == (2, "", [])
    assert err.startswith(f"error: --out {out}") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# flag parsing and module entry point


def test_parse_cli_interval_values():
    assert _parse_cli_interval("0,1") == Interval(0.0, 1.0)
    assert _parse_cli_interval(" -1 , 2.5 ") == Interval(-1.0, 2.5)
    assert _parse_cli_interval("-inf,inf") == Interval(float("-inf"), float("inf"))
    with pytest.raises(InstanceFormatError):
        _parse_cli_interval("1")
    with pytest.raises(InstanceFormatError):
        _parse_cli_interval("a,b")
    with pytest.raises(IllPosedIntervalError):
        _parse_cli_interval("2,1")


@pytest.mark.parametrize("endpoints", ["-1e400,0", "0,1e400", "nan,1"])
def test_interval_flag_rejects_non_finite_literals(capsys, endpoints):
    # as in an instance file, only an inf spelling may stand for infinity
    code, out, err = _run(capsys, "analyze", str(EXAMPLE1), f"--interval={endpoints}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --interval endpoint")
    assert "-inf or +inf" in err


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("endpoints", ["-1,1", "-inf,0"])
def test_interval_with_a_negative_lower_endpoint_takes_either_spelling(
    capsys, command, endpoints
):
    attached = _run(capsys, command, str(EXAMPLE1), f"--interval={endpoints}")
    assert attached[0] == 0
    assert _run(capsys, command, str(EXAMPLE1), "--interval", endpoints) == attached
    # repeated, and mixed with the attached form
    both = _run(capsys, command, str(EXAMPLE1), f"--interval={endpoints}",
                "--interval=0.25,2")
    assert _run(capsys, command, str(EXAMPLE1), "--interval", endpoints,
                "--interval", "0.25,2") == both


def test_abbreviated_interval_flag_names_the_attached_spelling(capsys):
    # argparse reads "-1,1" after an abbreviated flag as an option
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", str(EXAMPLE1), "--interv", "-1,1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --interval: expected one argument" in err
    assert "--interval=A,B" in err


def test_interval_spelling_is_left_alone_after_the_end_of_options():
    argv = ["verify", "--interval", "-1,1", "--", "--interval", "-1,1"]
    assert pontgap.cli._attach_intervals(argv) == [
        "verify", "--interval=-1,1", "--", "--interval", "-1,1"]


def test_parser_is_built_once():
    assert pontgap.cli.build_parser() is pontgap.cli.build_parser()


def test_main_calls_share_no_interval_list(capsys):
    # the parser is shared, so a list left in its defaults would carry
    # one call's --interval values into the next
    runs = [
        (["--interval=-inf,0", "--interval=0,inf"],
         [{"lower": "-inf", "upper": 0}, {"lower": 0, "upper": "+inf"}]),
        (["--interval=1.25,1.5"], [{"lower": 1.25, "upper": 1.5}]),
        ([], [{"lower": 0.25, "upper": 2}]),  # the file's own interval
    ]
    for flags, intervals in runs:
        code, out, _ = _run(capsys, "analyze", str(EXAMPLE1), *flags)
        assert code == 0
        assert [s["interval"] for s in json.loads(out)["intervals"]] == intervals
    assert pontgap.cli.build_parser().get_default("interval") is None


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pontgap", "examples"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "example1" in proc.stdout


def _run_python(*argv, env=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's pontgap, with the
    environment variables ``env`` set too."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else []))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env)


def _run_module(*argv) -> subprocess.CompletedProcess:
    return _run_python("-m", "pontgap", *argv)


def _run_demo(arg: str) -> subprocess.CompletedProcess:
    return _run_python(str(ROOT / "scripts" / "witness_demo.py"), arg)


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_witness_demo_script_runs(name):
    # the whole narration, byte for byte, for each fixture
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / f"{name}.witness-demo.txt").read_text()


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}", None],
                         ids=["truncated", "not-utf8", "missing"])
def test_witness_demo_script_reports_bad_input(tmp_path, content):
    path = tmp_path / "instance.json"
    if content is not None:
        path.write_bytes(content)
    proc = _run_demo(str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_witness_demo_script_reports_ill_posed_interval(tmp_path):
    doc = json.loads(EXAMPLE1.read_text())
    doc["intervals"] = [{"lower": 2.0, "upper": 1.0}]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    proc = _run_demo(str(path))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
