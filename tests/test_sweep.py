"""The sweep engine as a library: ``pontgap.sweep.sweep_grid`` and its shares."""

import dataclasses
import itertools
import json
import random

import pytest

import helpers
import pontgap.sweep
from pontgap.cli import main
from pontgap.instancefile import parse_instance
from pontgap.linalg import DEFAULT_TOL
from pontgap.sweep import CSV_HEADER, sweep_grid


@pytest.mark.parametrize("sabotage", [False, True], ids=["holds", "violated"])
def test_sweep_grid_returns_what_the_cli_writes_and_prints(capsys, tmp_path, monkeypatch,
                                                           sabotage):
    if sabotage:
        real = pontgap.sweep.verify_main_theorem

        def sabotaged(pair, interval, tol):
            return dataclasses.replace(real(pair, interval, tol), eig_bound_holds=False)

        monkeypatch.setattr(pontgap.sweep, "verify_main_theorem", sabotaged)
    monkeypatch.chdir(tmp_path)
    cells = [(d, 1, rank, seed) for d in (2, 3) for rank in (0, 1) for seed in (0, 1)]
    csv, summary, dumps = sweep_grid(cells)
    # no file written, nothing printed
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "")
    assert csv.startswith(CSV_HEADER + "\n")
    assert (len(dumps) > 4) == sabotage
    assert all(parse_instance(dump).name.startswith("violation-d") for dump in dumps)

    code = main(["sweep", "--dims", "2,3", "--kappas", "1", "--ranks", "0,1",
                 "--seeds", "2", "--out", "grid.csv"])
    printed = capsys.readouterr().out
    assert code == (4 if sabotage else 0)
    assert (tmp_path / "grid.csv").read_text() == csv
    assert [(tmp_path / f"grid.violation{i}.json").read_text()
            for i in range(len(dumps))] == dumps
    assert not (tmp_path / f"grid.violation{len(dumps)}.json").exists()
    document = json.loads(printed)
    assert (document["rows"], document["cells"]) == (csv.count("\n") - 1, summary)
    helpers.assert_no_children()


def test_unbatched_share_equals_the_batched_share(monkeypatch):
    # the grid of test_sweep_equals_its_cell_by_cell_build, as one share
    dims, kappas, ranks, seeds, base = (3, 12, 2, 7, 3), (1, 3, 0, 1), (2, 0, 3), 3, 7
    cells = [
        (d, kappa, rank, base + offset)
        for d, kappa, rank, offset in itertools.product(dims, kappas, ranks, range(seeds))
        if kappa <= d and rank <= d
    ]
    batched = pontgap.sweep._sweep_share(cells, DEFAULT_TOL)
    builds = helpers.count_calls(monkeypatch, pontgap.sweep, "prepare")
    assert pontgap.sweep._sweep_share(cells, DEFAULT_TOL, batched=False) == batched
    assert builds == []
    helpers.assert_no_children()


def _rows_by_cell(cells, csv):
    """Each of ``cells``' CSV rows, by cell; each pair's rows open with the
    whole line."""
    pairs = []
    for line in csv.splitlines()[1:]:
        if line.split(",")[4:6] == ["-inf", "+inf"]:
            pairs.append([])
        pairs[-1].append(line)
    assert len(pairs) == len(cells)
    return dict(zip(cells, pairs))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("order", ["seeds-outermost", "shuffled"])
def test_sweep_grid_gives_each_cell_its_rows_in_any_order(monkeypatch, order, cpus):
    # the default grid in grid order, then permuted: a share's cells may
    # then keep too few A1s to draw each once, never other bytes
    cells = list(itertools.product((2, 3, 4), (0, 1), (0, 1, 2), range(10)))
    helpers.pin_cpus(monkeypatch, 1)
    csv, summary, _ = sweep_grid(cells)
    if order == "seeds-outermost":
        permuted = sorted(cells, key=lambda cell: cell[3])
    else:
        permuted = random.Random(5).sample(cells, len(cells))
    helpers.pin_cpus(monkeypatch, cpus)
    permuted_csv, permuted_summary, dumps = sweep_grid(permuted)
    assert _rows_by_cell(permuted, permuted_csv) == _rows_by_cell(cells, csv)
    # the same cells; only where a least slack is first attained may move
    assert [{**cell, "attained_at": None} for cell in permuted_summary] == [
        {**cell, "attained_at": None} for cell in summary
    ]
    assert dumps == []
    helpers.assert_no_children()
