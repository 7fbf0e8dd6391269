"""The sweep engine as a library: ``pontgap.sweep.sweep_grid`` and its shares."""

import collections
import itertools
import json
import math
import os
import random
import threading

import pytest

import helpers
import pontgap.gen
import pontgap.spectral
import pontgap.sweep
import pontgap.theorem
from pontgap.cli import main
from pontgap.gen import GenConfig, random_pair, random_space
from pontgap.instancefile import format_float, parse_instance
from pontgap.linalg import DEFAULT_TOL
from pontgap.sweep import CSV_HEADER, sweep_grid
from pontgap.theorem import sweep_windows, verify_main_theorem


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("sabotage", [False, True], ids=["holds", "violated"])
def test_sweep_grid_returns_what_the_cli_writes_and_prints(capsys, tmp_path, monkeypatch,
                                                           sabotage):
    if sabotage:
        helpers.break_count_bound(monkeypatch)
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


#: the grid of test_sweep_equals_its_cell_by_cell_build,
#: with repeated and unsorted values and pairs of mixed orders in one batch
_MIXED_CELLS = [
    (d, kappa, rank, 7 + offset)
    for d, kappa, rank, offset in itertools.product((3, 12, 2, 7, 3), (1, 3, 0, 1),
                                                    (2, 0, 3), range(3))
    if kappa <= d and rank <= d
]


@pytest.mark.parametrize("grid", ["mixed", "d96-thread"])
def test_a_share_whose_every_prepare_fails_counts_the_same(monkeypatch, tmp_path, grid):
    # batches and table threads are only a head start: where every prepare
    # raises, each count builds its operator's table and verdict alone
    if grid == "mixed":
        cells, cpus = _MIXED_CELLS, ()
    else:
        # one spare CPU: A1 goes to a table thread, A2 to the batch
        cells, cpus = [(96, 2, 2, 3)], (max(os.sched_getaffinity(0)),)
    expected = pontgap.sweep._sweep_share(cells, DEFAULT_TOL, cpus)
    log = tmp_path / "prepares.log"

    def failing(ops, tol):
        helpers.log(log, threading.current_thread() is threading.main_thread())
        raise MemoryError("injected prepare failure")

    monkeypatch.setattr(pontgap.sweep, "prepare", failing)
    # a thread that raised would print its traceback through this hook
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    assert pontgap.sweep._sweep_share(cells, DEFAULT_TOL, cpus) == expected
    assert unhandled == []
    # every batch's prepare failed, and on d = 96 the thread's too
    calls = helpers.logged(log)[os.getpid()]
    assert calls.count("False") == (0 if grid == "mixed" else 1) and "True" in calls
    helpers.assert_no_children()


def _built_outside_prepare(monkeypatch, log):
    """Log, by process, each table build and each additivity verdict that
    runs outside a ``prepare`` call of ``pontgap.sweep``, in any thread."""
    inside, prepare = threading.local(), pontgap.sweep.prepare

    def flagged(ops, tol):
        inside.now = True
        try:
            return prepare(ops, tol)
        finally:
            inside.now = False

    monkeypatch.setattr(pontgap.sweep, "prepare", flagged)
    for name in ("_build_tables", "_rows_add_up"):
        def watched(*args, _real=getattr(pontgap.spectral, name), _name=name):
            if not getattr(inside, "now", False):
                helpers.log(log, _name)
            return _real(*args)
        monkeypatch.setattr(pontgap.spectral, name, watched)


@pytest.mark.parametrize("grid, cpus", [
    ((), 1),
    ((), 2),
    # four groups on eight CPUs: each share builds two tables in threads
    (("--dims", "64,96", "--kappas", "2", "--ranks", "0,1,2", "--seeds", "2",
      "--seed", "5"), 8),
], ids=["default", "default-2cpus", "d64-96-8cpus"])
def test_sweep_builds_every_table_and_verdict_in_its_head_start(
    capsys, tmp_path, monkeypatch, grid, cpus
):
    # a head start that silently stopped working would leave the work to
    # the counts, with the same bytes
    log = tmp_path / "outside.log"
    _built_outside_prepare(monkeypatch, log)
    helpers.pin_cpus(monkeypatch, cpus)
    threads = helpers.count_calls(monkeypatch, pontgap.sweep, "_build_table_on")
    code = main(["sweep", *grid, "--out", str(tmp_path / "grid.csv")])
    assert (code, capsys.readouterr().err) == (0, "")
    assert helpers.logged(log) == {}
    # this process's table threads, where the grid has them
    assert len(threads) == (2 if grid else 0)
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


def _count_draws(monkeypatch, log):
    """Log each config that ``random_space``, ``random_operator`` and
    ``random_pair`` draw, one line per config of a call that draws several,
    by process; ``_draws`` reads them back."""
    for module in (pontgap.sweep, pontgap.gen):
        for name in ("random_space", "random_operator", "random_pair"):
            def counted(*args, _real=getattr(pontgap.gen, name), _name=name, **kwargs):
                cfg = args[0] if _name == "random_space" else args[1]
                for _ in [cfg] if isinstance(cfg, GenConfig) else cfg:
                    helpers.log(log, _name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)


def _draws(log):
    """The calls ``_count_draws`` logged, by name, over every process."""
    return collections.Counter(name for names in helpers.logged(log).values()
                               for name in names)


def test_sweep_builds_each_space_and_a1_once(capsys, tmp_path, monkeypatch):
    log = tmp_path / "calls.log"
    _count_draws(monkeypatch, log)
    # two workers, each drawing its own groups' spaces and A1s
    helpers.pin_cpus(monkeypatch, 2)
    # the default grid: 3 dims x 2 kappas x 10 seeds, each with 3 ranks
    code = main(["sweep", "--out", str(tmp_path / "default.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["instances"] == 180
    by_process = helpers.logged(log)
    assert len(by_process) == 2
    calls = _draws(log)
    assert calls == {"random_space": 60, "random_operator": 60, "random_pair": 180}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("order", ["seeds-outermost", "shuffled"])
def test_sweep_grid_gives_each_cell_its_rows_in_any_order(monkeypatch, tmp_path, order, cpus):
    # the default grid in grid order, then permuted: each (d, kappa, seed)
    # group's space and A1 are still drawn once, to the same bytes
    cells = list(itertools.product((2, 3, 4), (0, 1), (0, 1, 2), range(10)))
    helpers.pin_cpus(monkeypatch, 1)
    csv, summary, _ = sweep_grid(cells)
    if order == "seeds-outermost":
        permuted = sorted(cells, key=lambda cell: cell[3])
    else:
        permuted = random.Random(5).sample(cells, len(cells))
    helpers.pin_cpus(monkeypatch, cpus)
    log = tmp_path / "calls.log"
    _count_draws(monkeypatch, log)
    permuted_csv, permuted_summary, dumps = sweep_grid(permuted)
    assert _draws(log) == {"random_space": 60, "random_operator": 60, "random_pair": 180}
    assert len(helpers.logged(log)) == cpus
    assert _rows_by_cell(permuted, permuted_csv) == _rows_by_cell(cells, csv)
    # the same cells; only where a least slack is first attained may move
    assert [{**cell, "attained_at": None} for cell in permuted_summary] == [
        {**cell, "attained_at": None} for cell in summary
    ]
    assert dumps == []
    helpers.assert_no_children()


def test_sweep_dumps_violations(capsys, tmp_path, monkeypatch):
    helpers.break_count_bound(monkeypatch)
    out_path = tmp_path / "bad.csv"
    code, out, err = _run(capsys, "sweep", "--dims", "2", "--kappas", "1",
                          "--ranks", "1", "--seeds", "1",
                          "--out", str(out_path))
    assert code == 4
    assert json.loads(out)["violations"] > 0
    assert "bound violation dumped" in err
    dump = tmp_path / "bad.violation0.json"
    assert dump.exists()
    record = parse_instance(dump.read_text())
    assert record.name.startswith("violation-d2-k1-n1")


def test_sweep_dumps_the_same_violations_on_any_number_of_cpus(capsys, tmp_path, monkeypatch):
    helpers.break_count_bound(monkeypatch)
    out_path = tmp_path / "bad.csv"
    dumps = []
    for cpus in (1, 2, 4):
        helpers.pin_cpus(monkeypatch, cpus)
        code, out, err = _run(capsys, "sweep", "--dims", "2,3", "--kappas", "1",
                              "--ranks", "0,1", "--seeds", "2", "--out", str(out_path))
        assert code == 4
        written = sorted(tmp_path.glob("bad.violation*.json"))
        assert len(written) == json.loads(out)["violations"] > 4
        dumps.append((out, err, [(p.name, p.read_bytes()) for p in written]))
        for path in written:
            path.unlink()
        helpers.assert_no_children()
    assert dumps[0] == dumps[1] == dumps[2]


def _csv_endpoint(x: float) -> str:
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return format_float(x)


def test_sweep_equals_its_cell_by_cell_build(capsys, tmp_path):
    # repeated and unsorted grid values; every cell draws its own J and A1,
    # and the sweep builds the tables of many pairs of mixed orders together
    dims, kappas, ranks, seeds, base = (3, 12, 2, 7, 3), (1, 3, 0, 1), (2, 0, 3), 3, 7
    out_path = tmp_path / "grid.csv"
    code, _, _ = _run(capsys, "sweep", "--dims", "3,12,2,7,3", "--kappas", "1,3,0,1",
                      "--ranks", "2,0,3", "--seeds", str(seeds),
                      "--seed", str(base), "--out", str(out_path))
    assert code == 0
    expected = [CSV_HEADER]
    for d, kappa, rank, offset in itertools.product(dims, kappas, ranks, range(seeds)):
        if kappa > d or rank > d:
            continue
        cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=rank, seed=base + offset)
        space = random_space(cfg)
        pair = random_pair(space, cfg)
        for interval in sweep_windows(pair):
            r = verify_main_theorem(pair, interval)
            expected.append(",".join(map(str, (
                d, space.kappa_plus, space.kappa_minus, pair.n,
                _csv_endpoint(interval.lower), _csv_endpoint(interval.upper),
                r.eig1, r.eig2, r.sig1, r.sig2, r.slack,
            ))))
    assert out_path.read_text().splitlines() == expected


def test_one_cpu_default_sweep_verifies_each_pair_once(capsys, tmp_path, monkeypatch):
    # the whole line; every other window is a difference of running sums
    helpers.pin_cpus(monkeypatch, 1)
    calls = helpers.count_calls(monkeypatch, pontgap.theorem, "verify_main_theorem")
    code = main(["sweep", "--out", str(tmp_path / "default.csv")])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(calls) == summary["instances"] == 180
    assert summary["rows"] > 2 * 180


def _count_table_batches(monkeypatch, log):
    """Log the distinct operators of each ``prepare`` call that ``sweep``
    makes off its table threads, by process; ``_batches`` reads them back."""
    prepare = pontgap.sweep.prepare

    def counted(ops, tol):
        if threading.current_thread() is threading.main_thread():
            helpers.log(log, len(set(ops)))
        return prepare(ops, tol)

    monkeypatch.setattr(pontgap.sweep, "prepare", counted)


def _batches(log):
    """This process's batch sizes, then each worker's."""
    by_process = {pid: [int(n) for n in sizes] for pid, sizes in helpers.logged(log).items()}
    return [by_process.pop(os.getpid(), [])] + sorted(by_process.values())


def test_sweep_builds_the_default_grid_in_one_batch(capsys, tmp_path, monkeypatch):
    helpers.pin_cpus(monkeypatch, 1)
    _count_table_batches(monkeypatch, tmp_path / "batches.log")
    code, _, _ = _run(capsys, "sweep", "--out", str(tmp_path / "default.csv"))
    assert code == 0
    # 60 A1s, and an A2 for each of the 120 pairs of rank 1 or 2
    assert _batches(tmp_path / "batches.log") == [[180]]


def test_sweep_on_two_cpus_builds_one_batch_per_worker(capsys, tmp_path, monkeypatch):
    helpers.pin_cpus(monkeypatch, 2)
    _count_table_batches(monkeypatch, tmp_path / "batches.log")
    code, _, _ = _run(capsys, "sweep", "--out", str(tmp_path / "default.csv"))
    assert code == 0
    # each worker has every other seed: 30 A1s and 60 A2s
    assert _batches(tmp_path / "batches.log") == [[90], [90]]


def test_sweep_batches_at_most_its_budget_of_entries(capsys, tmp_path, monkeypatch):
    # a d = 64 pair holds 2 * 64**2 = 8192 entries, more than the budget
    assert 2 * 64**2 > pontgap.sweep.SWEEP_BATCH_ENTRIES >= 2 * 45**2
    helpers.pin_cpus(monkeypatch, 1)
    _count_table_batches(monkeypatch, tmp_path / "batches.log")
    code, out, _ = _run(capsys, "sweep", "--dims", "64", "--seeds", "3",
                        "--out", str(tmp_path / "d64.csv"))
    assert code == 0
    [batches] = _batches(tmp_path / "batches.log")
    assert json.loads(out)["instances"] == len(batches) == 18
    # one operator for each rank-0 pair, whose A2 is its A1
    assert batches == [1, 1, 1, 2, 2, 2, 2, 2, 2] * 2


def test_sweep_on_two_cpus_batches_each_workers_pairs_alone(capsys, tmp_path, monkeypatch):
    helpers.pin_cpus(monkeypatch, 2)
    _count_table_batches(monkeypatch, tmp_path / "batches.log")
    code, out, _ = _run(capsys, "sweep", "--dims", "64", "--seeds", "3",
                        "--out", str(tmp_path / "d64.csv"))
    assert code == 0
    assert json.loads(out)["instances"] == 18
    # the (kappa, seed) groups 0-5 alternate between the workers: this
    # process has (0, 0), (0, 2) and (1, 1), the child (0, 1), (1, 0), (1, 2)
    assert _batches(tmp_path / "batches.log") == [
        [1, 1, 2, 2, 2, 2, 1, 2, 2],
        [1, 2, 2, 1, 1, 2, 2, 2, 2],
    ]
