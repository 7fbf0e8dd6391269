"""Command-line interface: analyze, verify, sweep, examples.

Consumers are scripts and CI.  All documents go to stdout (or ``--out``)
in the deterministic format of :mod:`pontgap.instancefile`; diagnostics
go to stderr.  Exit codes: 0 ok, 1 expectation mismatch, 2 input error,
3 ill-posed interval (including an endpoint ambiguously close to an
eigenvalue), 4 bound violation.

``sweep`` spreads its grid over the CPUs of the affinity mask: W shares
of (d, kappa, seed) groups, one per CPU up to the number of groups, each
other than this process's in a forked child.  Where a share has CPUs to
spare (CPUs // W > 1), it also builds the spectral tables of the
operators it draws of order ``TABLE_THREAD_MIN_DIM`` = 64 or more in
threads, one per spare CPU, while it draws on, and each thread then
settles its operator's additivity verdict, which every count reads;
LAPACK releases the interpreter lock, and the operator's memo takes
tables and verdicts from any thread.
The sweep forks and starts threads only where this process runs one
thread (see :func:`_one_thread`), so that no BLAS thread holds the CPUs
and a fork copies no thread's half-done work; it forks every worker
before any table thread starts, and joins every table thread before a
share ends.  A thread builds a table and a verdict with the same code as
the share, so the output bytes never depend on the number of CPUs.  What
a thread fails to build, the share builds again in place, and any failure
there or of a share reruns the whole grid in this process, one pair at a
time.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import pickle
import signal
import sys
import threading
from pathlib import Path

from . import instancefile
from .errors import (
    EndpointInSpectrumError,
    IllPosedIntervalError,
    InstanceFormatError,
    PontgapError,
)
from .gen import GenConfig, builtin_fixtures, random_operator, random_pair, random_space
from .indefinite import IndefiniteSpace, validate_space
from .instancefile import (
    SCHEMA_VERSION,
    InstanceRecord,
    dumps_instance,
    format_float,
    gap_report_node,
    interval_node,
    parse_instance,
    spectrum_node,
    stable_dumps,
    tolerance_node,
    witness_report_node,
)
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import OperatorPair, make_pair
from .spectral import (
    Interval,
    _additive,
    _build_missing,
    _table,
    gap_inertia,
    spectrum,
    validate_operator,
)
from .theorem import GapReport, proof_witness, sweep_windows, verify_main_theorem

__all__ = ["main"]

EXIT_OK = 0
EXIT_EXPECTATION_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_ILL_POSED_INTERVAL = 3
EXIT_BOUND_VIOLATION = 4

CSV_HEADER = "d,kplus,kminus,n,lower,upper,eig1,eig2,sig1,sig2,slack"

#: Most matrix entries, 2 d**2 per pair, that ``sweep`` collects before it
#: builds the collected pairs' spectral tables in one batch and writes their
#: rows.  Stacked LAPACK calls save per-call overhead on small matrices, and
#: the bound keeps the stacked copies small: the default grid, 3,480
#: entries, is one batch, and a pair of order 46 or more is a batch alone.
SWEEP_BATCH_ENTRIES = 4096

#: Least order of an operator whose spectral table ``sweep`` builds in a
#: thread while a CPU is idle.  On a 2-vCPU Xeon with one BLAS thread
#: (medians of 7 operators), a table took 5.2 ms at d = 48, 9 ms at d = 64
#: and 22 ms at d = 96, and starting a thread that moves to its CPU and
#: joining it took 0.10 ms.  So 64 no longer marks the break-even: a
#: one-group sweep of three ranks with this bound lowered ran slower at
#: d = 16 and 24, as fast at d = 32, and 7-17% faster from d = 40 to 64
#: (medians of 14 alternated runs each); 64 still never loses.
TABLE_THREAD_MIN_DIM = 64


def _tolerance(args) -> Tolerance:
    return Tolerance(rel=args.tol_rel, abs=args.tol_abs)


def _parse_cli_interval(text: str) -> Interval:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise InstanceFormatError(
            f"--interval expects 'lower,upper', got {text!r}"
        )
    values = []
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise InstanceFormatError(
                f"--interval endpoint {part!r} is not a number"
            ) from None
        # like a file's number literals: only the inf spellings may be infinite
        spelled_inf = part.lstrip("+-").lower() in ("inf", "infinity")
        if not (math.isfinite(value) or spelled_inf):
            raise InstanceFormatError(
                f"--interval endpoint {part!r} is not a finite double; "
                "write -inf or +inf for an infinite endpoint"
            )
        values.append(value)
    return Interval(values[0], values[1])


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _document(tol: Tolerance, space: IndefiniteSpace, record: InstanceRecord, body):
    """The analyze and verify documents: one header around ``body``."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tolerance": tolerance_node(tol),
        "space": {"dim": space.dim, "kappa_plus": space.kappa_plus,
                  "kappa_minus": space.kappa_minus},
        **body,
    }
    if record.name is not None:
        doc["name"] = record.name
    return doc


def _pair_record(pair: OperatorPair, interval: Interval, name: str, expected=None):
    return InstanceRecord(gram=pair.space.gram, a1=pair.op1.matrix, a2=pair.op2.matrix,
                          intervals=(interval,), name=name, expected=expected)


def _instance(args):
    """Tolerance, record, space and ``{"a1": op1[, "a2": op2]}`` of ``args.path``."""
    tol = _tolerance(args)
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{args.path}: not UTF-8 at byte {exc.start}") from None
    record = parse_instance(text)
    space = validate_space(record.gram, tol)
    ops = {"a1": validate_operator(space, record.a1, tol)}
    if record.a2 is not None:
        ops["a2"] = validate_operator(space, record.a2, tol)
    return tol, record, space, ops


def _effective_intervals(record: InstanceRecord, args) -> tuple[Interval, ...]:
    if args.interval:
        return tuple(_parse_cli_interval(text) for text in args.interval)
    return record.intervals


# ---------------------------------------------------------------------------
# analyze


def _interval_section(ops: dict, interval: Interval, tol: Tolerance) -> dict:
    found = {label: gap_inertia(op, interval, tol) for label, op in ops.items()}
    return {
        "interval": interval_node(interval),
        "eig": {label: x.dim for label, x in found.items()},
        "sig": {label: x.sig for label, x in found.items()},
        "inertia": {label: instancefile.inertia_node(x) for label, x in found.items()},
    }


def cmd_analyze(args) -> int:
    tol, record, space, ops = _instance(args)
    # the counts come before the spectra, so that up to its
    # SHARED_EIG_MAX_DIM an operator takes one eig call for its spectrum
    # and its table, as in verify; stable_dumps sorts the keys
    intervals = [
        _interval_section(ops, interval, tol)
        for interval in _effective_intervals(record, args)
    ]
    doc = _document(tol, space, record, {
        "spectra": {label: spectrum_node(spectrum(op)) for label, op in ops.items()},
        "intervals": intervals,
    })
    _emit(stable_dumps(doc), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _report_expectations(expected: dict, report: GapReport) -> dict:
    """Mismatches of ``expected`` (keys are ``GapReport`` attributes)."""
    return {
        key: {"expected": expected[key], "computed": getattr(report, key)}
        for key in sorted(expected)
        if getattr(report, key) != expected[key]
    }


def cmd_verify(args) -> int:
    tol, record, space, ops = _instance(args)
    if "a2" not in ops:
        print("error: verify needs an instance with both a1 and a2", file=sys.stderr)
        return EXIT_INPUT_ERROR
    intervals = _effective_intervals(record, args)
    if not intervals:
        print("error: verify needs at least one interval", file=sys.stderr)
        return EXIT_INPUT_ERROR
    pair = make_pair(ops["a1"], ops["a2"], tol)
    reports, nodes, all_ok = [], [], True
    for interval in intervals:
        report = verify_main_theorem(pair, interval, tol)
        reports.append(report)
        node = gap_report_node(report)
        all_ok = all_ok and report.all_hold
        if args.witness:
            witness = proof_witness(pair, interval, tol)
            node["witness"] = witness_report_node(witness)
            all_ok = all_ok and witness.all_hold
        nodes.append(node)
    doc = _document(tol, space, record, {
        "n": pair.n,
        "kappa": space.kappa_minus,
        "reports": nodes,
        "all_bounds_hold": all_ok,
    })
    mismatches = {}
    # ``expected`` pins the instance's own first interval, not an override
    if record.expected is not None and not args.interval:
        mismatches = _report_expectations(record.expected, reports[0])
        doc["expectation"] = {
            "matches": not mismatches,
            "mismatches": mismatches,
        }
    _emit(stable_dumps(doc), args.out)
    if not all_ok:
        return EXIT_BOUND_VIOLATION
    if mismatches:
        return EXIT_EXPECTATION_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InstanceFormatError(f"{flag} expects comma-separated integers") from None


def _csv_endpoint(x: float) -> str:
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return format_float(x)


def _sweep_share(cells, seeds: int, tol: Tolerance, batched: bool = True,
                 cpus=()) -> list:
    """What the merge needs of each of ``cells``' pairs, in their order.

    Batched, the pairs go in batches of at most ``SWEEP_BATCH_ENTRIES``
    matrix entries, whose tables are built together before any is counted,
    and the next pair is drawn before the last batch is counted.  Each
    drawn operator of order ``TABLE_THREAD_MIN_DIM`` or more goes to a
    thread on a free CPU of ``cpus``, which builds its table and then its
    additivity verdict while this thread draws on or builds other tables
    (see :func:`_build_table_on`); where no CPU is free, the table is
    built with its batch's, and the verdict by the batch's first count.
    Unbatched, the reference for errors, each pair is drawn and counted
    before the next, and every table is built in this thread.
    No table thread outlives the call, whether it returns or raises.

    Each pair gives ``(text, rows, min_slack, (lower, upper), dumps)``:
    its CSV rows, rendered and each ending in a newline, and their number;
    the least slack of its rows, and the window of the first row with it;
    and the instance files of its windows that break a bound.  This is
    plain data, which a forked worker pickles.
    """
    free = list(cpus)  # the CPUs without a table thread
    pending = {}  # operator -> (the thread building its table, its CPU)

    def send(op):
        if batched and free and op.dim >= TABLE_THREAD_MIN_DIM:
            cpu = free.pop()
            thread = threading.Thread(target=_build_table_on, args=(cpu, op, tol))
            thread.start()
            pending[op] = thread, cpu
        return op

    # J and A1 depend on (d, kappa, seed), not on the rank.  The grid
    # runs a (d, kappa)'s ranks over the same --seeds seeds, so keeping
    # the last --seeds A1s (each holds its J) builds each once for all ranks
    @functools.lru_cache(maxsize=seeds)
    def first(d, kappa, seed):
        cfg = GenConfig(dim=d, kappa_minus=kappa, seed=seed)
        return send(random_operator(random_space(cfg, tol), cfg, tol))

    results, batch, entries = [], [], 0

    def flush():
        """If batched, build the batch's tables: those no thread builds
        together here, then, once the batch's threads are joined, any
        table a thread failed to build; then verify its windows."""
        nonlocal batch, entries
        if batched:
            ops = [op for _, pair in batch for op in (pair.op1, pair.op2)]
            _build_missing([op for op in ops if op not in pending], tol)
            threaded = [op for op in dict.fromkeys(ops) if op in pending]
            for op in threaded:
                thread, cpu = pending.pop(op)
                thread.join()
                free.append(cpu)
            if threaded:
                # where the thread's failure is real, the build raises here
                _build_missing(threaded, tol)
        for cfg, pair in batch:
            d, space, n = cfg.dim, pair.space, pair.n
            rows, dumps, least, attained = [], [], None, None
            # sweep_windows opens with the whole line, so every cell gets a row
            for interval in sweep_windows(pair):
                report = verify_main_theorem(pair, interval, tol)
                lower, upper, slack = interval.lower, interval.upper, report.slack
                rows.append(",".join(map(str, (
                    d, space.kappa_plus, space.kappa_minus, n,
                    _csv_endpoint(lower), _csv_endpoint(upper),
                    report.eig1, report.eig2, report.sig1, report.sig2, slack,
                ))))
                if least is None or slack < least:
                    least, attained = slack, (lower, upper)
                if not report.all_hold:
                    dumps.append(dumps_instance(_pair_record(
                        pair, interval, f"violation-d{d}-k{cfg.kappa_minus}"
                                        f"-n{cfg.pert_rank}-seed{cfg.seed}")))
            results.append(("\n".join(rows) + "\n", len(rows), least, attained, dumps))
        batch, entries = [], 0

    try:
        for d, kappa, rank, seed in cells:
            if batch and not batched:
                flush()
            cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=rank, seed=seed)
            pair = random_pair(first(d, kappa, seed), cfg, tol)
            if pair.op2 is not pair.op1:
                send(pair.op2)
            # batched, the pair is drawn before the last batch is counted,
            # so that table threads run meanwhile
            if batch and entries + 2 * d * d > SWEEP_BATCH_ENTRIES:
                flush()
            batch.append((cfg, pair))
            entries += 2 * d * d
        flush()
        return results
    finally:
        for thread, _ in pending.values():
            thread.join()


def _build_table_on(cpu: int, op, tol: Tolerance) -> None:
    """Build and memoize, on ``cpu``, ``op``'s table for ``tol`` and then the
    verdict of its additivity check: the work of a table thread.  A failure
    is left to the share, which builds the table again once it has joined
    the thread, and whose first count computes the verdict again: a real
    failure raises there, and no thread prints a traceback."""
    _move_to(cpu)
    try:
        _table(op, tol)
        _additive(op, tol)
    except Exception:
        pass


def _move_to(cpu: int) -> None:
    """Move the calling thread to ``cpu``, then let the kernel move it on
    where it balances load: where the kernel does not balance load across
    the affinity mask (a cpuset with load balancing off), a new thread or
    forked child would stay on its parent's CPU, and confined to ``cpu``
    it would crowd any BLAS threads it starts there."""
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)
    except OSError:
        pass  # a CPU outside the mask; the thread stays where it is


class _Forked:
    """This process's forked sweep workers, each pickling its share's
    results down its own pipe.

    A fork shares the loaded modules, where a spawned worker would import
    numpy again at a cost larger than the default grid's whole sweep.  Each
    worker starts on the CPU it is given (see :func:`_move_to`), and forks
    nothing in turn.  On leaving the ``with`` block, every worker whose
    result was not read is killed, and every worker is reaped, so none
    outlives the block; if the block succeeded but a worker exited
    non-zero, it raises :class:`ChildProcessError`.
    """

    def __init__(self):
        self._pipes = {}  # pid -> read end of its pipe, for each worker not read
        self._read = []  # pids of the workers read

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        for pid, read_end in self._pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
        self._pipes.clear()
        failed = None
        for pid in self._read:
            status = os.waitpid(pid, 0)[1]
            if status != 0 and failed is None:
                failed = ChildProcessError(
                    f"forked worker exited with {os.waitstatus_to_exitcode(status)}")
        self._read.clear()
        if failed and exc_type is None:
            raise failed

    def start(self, cpu: int, work, *args) -> int:
        """Fork a child on ``cpu`` that pickles ``work(*args)`` down a pipe;
        its pid."""
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            # the child never returns into its caller's stack, and leaves
            # atexit handlers and stream buffers to the parent
            code = 1
            try:
                os.close(read_end)
                for fd in self._pipes.values():
                    os.close(fd)
                _move_to(cpu)
                result = work(*args)
                with open(write_end, "wb") as pipe:
                    pickle.dump(result, pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self._pipes[pid] = read_end
        return pid

    def result(self, pid: int):
        """Child ``pid``'s result, read to the end of its pipe."""
        with open(self._pipes[pid], "rb", closefd=False) as pipe:
            data = pipe.read()
        os.close(self._pipes.pop(pid))
        self._read.append(pid)
        return pickle.loads(data)


def _run_shares(shares, seeds: int, tol: Tolerance, cpus: list,
                batched: bool = True) -> list:
    """Each share's :func:`_sweep_share` results, in share order.

    ``cpus``, from :func:`_cpus`, go in blocks of CPUs // W to the W
    shares.  This process runs the first share, on the first CPU, and each
    other share runs in a forked child on the first CPU of its block; a
    share's table threads run on the rest of its block.  Every child is
    forked before this process's share starts a thread.  If anything
    fails, every child is killed and reaped before the error propagates.
    """
    per = len(cpus) // len(shares)
    blocks = [cpus[w * per:(w + 1) * per] for w in range(len(shares))]
    with _Forked() as children:
        pids = [children.start(block[0], _sweep_share, share, seeds, tol, batched, block[1:])
                for share, block in zip(shares[1:], blocks[1:])]
        results = [_sweep_share(shares[0], seeds, tol, batched, blocks[0][1:])]
        return results + [children.result(pid) for pid in pids]


def _cpus() -> list:
    """The CPUs of the affinity mask, the one this process runs on first;
    none where the sweep may neither fork nor start threads: where the
    platform has no ``fork`` or affinity mask, or this process runs more
    than one thread (see :func:`_one_thread`)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and _one_thread()):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with open("/proc/self/stat", "rb") as stat:
            # field 39: the CPU this process last ran on
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return cpus
    return sorted(cpus, key=lambda cpu: cpu != here)


def _one_thread() -> bool:
    """Whether this process runs one thread of the operating system, the
    gate of the sweep's workers and table threads.  A forked child holds
    only the forking thread, and a BLAS built with threads starts its
    workers as it loads, unless told to use one (``OPENBLAS_NUM_THREADS=1``,
    ``OMP_NUM_THREADS=1``, ...): they take the CPUs that a worker or a
    table thread would need, and each worker forked beside them starts as
    many again."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def cmd_sweep(args) -> int:
    tol = _tolerance(args)
    dims = _parse_int_list(args.dims, "--dims")
    kappas = _parse_int_list(args.kappas, "--kappas")
    ranks = _parse_int_list(args.ranks, "--ranks")
    if args.seeds < 1:
        raise InstanceFormatError("--seeds must be at least 1")
    # instance seeds run from --seed to --seed + --seeds - 1
    if args.seed < 0 or args.seed + args.seeds > 2**64:
        raise InstanceFormatError(
            "--seed and --seed + --seeds - 1 must lie in [0, 2**64)"
        )
    for flag, values, least in (
        ("--dims", dims, 1), ("--kappas", kappas, 0), ("--ranks", ranks, 0)
    ):
        if min(values) < least:
            raise InstanceFormatError(f"{flag} values must be at least {least}")
    # the grid's cells (d, kappa, rank, seed), in grid order
    cells = [
        (d, kappa, rank, args.seed + offset)
        for d, kappa, rank, offset in itertools.product(dims, kappas, ranks, range(args.seeds))
        if kappa <= d and rank <= d
    ]
    if not cells:
        raise InstanceFormatError(
            "--dims, --kappas and --ranks leave no cell with kappa <= d and n <= d"
        )
    # a (d, kappa, seed) group's ranks share one J and A1, so a group never
    # splits; group g, counted in order of first appearance, goes to share
    # g mod W, which balances the shares over each (d, kappa)'s seeds
    numbering: dict[tuple[int, int, int], int] = {}
    groups = [numbering.setdefault((d, kappa, seed), len(numbering))
              for d, kappa, _, seed in cells]
    # the gate and the mask are read once: the CPUs that set the number of
    # shares are the ones the shares are dealt
    cpus = _cpus()
    workers = max(1, min(len(cpus), len(numbering)))
    shares = [[cell for cell, g in zip(cells, groups) if g % workers == w]
              for w in range(workers)]
    try:
        results = _run_shares(shares, args.seeds, tol, cpus)
    except Exception:
        # the reference: the whole grid again in this process, unbatched,
        # which raises its first error in grid order, whichever share
        # failed and however
        workers, results = 1, _run_shares([cells], args.seeds, tol, cpus, batched=False)
    # merge: each share's results are in grid order, so the grid's next
    # pair is the next of its share's.  A cell's first pair with its least
    # slack, in grid order, holds its first row with it
    shared = [iter(share) for share in results]
    texts, rows = [CSV_HEADER + "\n"], 0
    summary: dict[tuple[int, int], dict] = {}
    dumps = []
    for (d, kappa, rank, seed), g in zip(cells, groups):
        text, count, least, (lower, upper), pair_dumps = next(shared[g % workers])
        texts.append(text)
        rows += count
        cell = summary.setdefault((kappa, rank), {"min_slack": None, "rows": 0})
        cell["rows"] += count
        if cell["min_slack"] is None or least < cell["min_slack"]:
            cell["min_slack"] = least
            cell["attained_at"] = {"d": d, "seed": seed,
                                   **interval_node(Interval(lower, upper))}
        dumps += pair_dumps
    Path(args.out).write_text("".join(texts))
    for index, dump in enumerate(dumps):
        path = Path(args.out).with_suffix(f".violation{index}.json")
        path.write_text(dump)
        print(f"bound violation dumped to {path}", file=sys.stderr)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tolerance": tolerance_node(tol),
        "csv": args.out,
        "instances": len(cells),
        "rows": rows,
        "violations": len(dumps),
        "cells": [
            {"kappa": kappa, "n": rank, **cell}
            for (kappa, rank), cell in sorted(summary.items())
        ],
    }
    sys.stdout.write(stable_dumps(doc))
    return EXIT_BOUND_VIOLATION if dumps else EXIT_OK


# ---------------------------------------------------------------------------
# examples


def cmd_examples(args) -> int:
    fixtures = {f.name: f for f in builtin_fixtures()}
    if args.name is not None:
        if args.name not in fixtures:
            names = ", ".join(sorted(fixtures))
            print(f"error: unknown fixture {args.name!r}; valid: {names}",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR
        fix = fixtures[args.name]
        record = _pair_record(fix.pair, fix.interval, fix.name, fix.expected)
        _emit(dumps_instance(record), args.out)
        return EXIT_OK
    all_match = True
    for name in sorted(fixtures):
        fixture = fixtures[name]
        report = verify_main_theorem(fixture.pair, fixture.interval)
        mismatches = _report_expectations(fixture.expected, report)
        for key, want in sorted(fixture.expected.items()):
            got = getattr(report, key)
            status = "MISMATCH" if key in mismatches else "ok"
            print(f"{name} {key}: expected {want} computed {got} {status}")
        all_match = all_match and not mismatches
    return EXIT_OK if all_match else EXIT_EXPECTATION_MISMATCH


# ---------------------------------------------------------------------------
# entry point


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    reach = "rank cuts and Hermiticity checks, not the counting bands"
    parser.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.rel,
                        help=f"relative tolerance of {reach} (default %(default)g)")
    parser.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.abs,
                        help=f"absolute floor of {reach} (default %(default)g)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # an abbreviated --interval before -1,1 is still read as an option
        if message.startswith("argument --interval"):
            message += "; write an interval as --interval=A,B"
        super().error(message)


def _attach_intervals(argv: list[str]) -> list[str]:
    """``argv`` with each ``--interval A,B`` whose A starts with ``-``
    written ``--interval=A,B``.  argparse reads a word that starts with
    ``-`` as an option unless it is a plain negative number, so it would
    take ``-1,1`` or ``-inf,0`` for one; no option holds a comma."""
    words, i = list(argv), 0
    while i < len(words) - 1 and words[i] != "--":
        if words[i] == "--interval" and words[i + 1].startswith("-") and "," in words[i + 1]:
            words[i:i + 2] = [f"--interval={words[i + 1]}"]
        i += 1
    return words


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built once per process.

    Parsing leaves it unchanged: ``--interval`` appends to a fresh list,
    and each ``func`` looks its ``cmd_*`` up when called, so a rebinding
    of that name after the first build still takes effect.
    """
    parser = _Parser(
        prog="pontgap",
        description="Eigenvalue counting in spectral gaps on indefinite "
                    "inner-product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("path", help="instance file")
    instance.add_argument("--interval", action="append", default=None,
                          metavar="A,B",
                          help="override instance intervals (repeatable; "
                               "inf literals allowed, as in --interval -inf,0)")
    instance.add_argument("--out", default=None, help="write report here "
                          "instead of stdout")
    _add_tolerance_flags(instance)

    p_analyze = sub.add_parser(
        "analyze", parents=[instance],
        help="spectra and per-interval counts for one instance")
    p_analyze.set_defaults(func=lambda args: cmd_analyze(args))

    p_verify = sub.add_parser(
        "verify", parents=[instance],
        help="check the counting bounds on a two-operator instance")
    p_verify.add_argument("--witness", action="store_true",
                          help="reconstruct and check the proof objects")
    p_verify.set_defaults(func=lambda args: cmd_verify(args))

    p_sweep = sub.add_parser(
        "sweep", help="seeded random ensemble; CSV rows plus summary")
    p_sweep.add_argument("--dims", default="2,3,4",
                         help="comma list of dimensions (default %(default)s)")
    p_sweep.add_argument("--kappas", default="0,1",
                         help="comma list of negative-square counts "
                              "(default %(default)s)")
    p_sweep.add_argument("--ranks", default="0,1,2",
                         help="comma list of perturbation ranks "
                              "(default %(default)s)")
    p_sweep.add_argument("--seeds", type=int, default=10,
                         help="seeds per cell (default %(default)s)")
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="base seed (default %(default)s)")
    p_sweep.add_argument("--out", default="sweep.csv",
                         help="CSV output path (default %(default)s)")
    _add_tolerance_flags(p_sweep)
    p_sweep.set_defaults(func=lambda args: cmd_sweep(args))

    p_examples = sub.add_parser(
        "examples", help="verify the bundled fixtures, or emit one by name")
    p_examples.add_argument("name", nargs="?", default=None,
                            help="fixture to emit as an instance file")
    p_examples.add_argument("--out", default=None,
                            help="write the instance file here")
    p_examples.set_defaults(func=lambda args: cmd_examples(args))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_intervals(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (IllPosedIntervalError, EndpointInSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED_INTERVAL
    except (PontgapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
