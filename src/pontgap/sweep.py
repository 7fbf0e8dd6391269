"""The sweep: the paper's tightness ensemble over a grid of random pairs.

:func:`sweep_grid` draws the pair of each (d, kappa, rank, seed) cell,
checks both bounds on each of its windows (see
:func:`~pontgap.theorem.sweep_windows`) and returns the CSV rows, the
summary's cells and the instance files of the windows that break a bound.
It writes no file and prints nothing; ``pontgap sweep`` is its printer.
A pair's windows are counted in one pass
(:func:`~pontgap.theorem.sweep_counts`): the whole line is verified as
such, and each window between adjacent cuts is a difference of running
sums, of the spectral table's rows, or, where the space has no negative
squares, of the certified multiplicities of the real eigenvalues.

The sweep spreads its grid over the CPUs of the affinity mask: W shares
of (d, kappa, seed) groups, one per CPU up to the number of groups, each
other than this process's in a forked child.  Where a share has CPUs to
spare (CPUs // W > 1), it also prepares the operators it draws of order
``TABLE_THREAD_MIN_DIM`` = 64 or more for counting in threads, one per
spare CPU, while it draws on; LAPACK releases the interpreter lock, and
the operator's memo takes what :func:`~pontgap.spectral.prepare` builds
from any thread: the spectral table, then the additivity verdict, or,
where the space has no negative squares, only the eigenvalues of a
Hermitian matrix similar to the operator, which its counts are
certified against, and no table or verdict.
The sweep forks and starts threads only where this process runs one
thread (see :func:`_one_thread`), so that no BLAS thread holds the CPUs
and a fork copies no thread's half-done work; it forks every worker
before any table thread starts, and joins every table thread before a
share ends.  One spectral call, :func:`~pontgap.spectral.prepare`,
prepares an operator wherever it runs, so the output bytes never depend
on the number of CPUs.  Batches and table threads are only a head start:
what they fail to prepare, a count builds alone, to the same bits, so a
share raises only while it draws or counts, in its cells' order; a failed
share or worker reruns the whole grid in this process.
"""

from __future__ import annotations

import collections
import math
import os
import pickle
import signal
import threading

from .gen import GenConfig, random_operator, random_pair, random_space
from .instancefile import InstanceRecord, dumps_instance, format_float, interval_node
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import OperatorPair
from .spectral import Interval, prepare
from .theorem import sweep_counts

__all__ = ["CSV_HEADER", "pair_record", "sweep_grid"]

CSV_HEADER = "d,kplus,kminus,n,lower,upper,eig1,eig2,sig1,sig2,slack"

#: Most matrix entries, 2 d**2 per pair, that a share collects before it
#: builds the collected pairs' spectral tables in one batch and writes their
#: rows.  Stacked LAPACK calls save per-call overhead on small matrices, and
#: the bound keeps the stacked copies small: the default grid, 3,480
#: entries, is one batch, and a pair of order 46 or more is a batch alone.
SWEEP_BATCH_ENTRIES = 4096

#: Least order of an operator whose spectral table a share builds in a
#: thread while a CPU is idle.  On a 2-vCPU Xeon with one BLAS thread
#: (medians of 7 operators), a table took 5.2 ms at d = 48, 9 ms at d = 64
#: and 22 ms at d = 96, and starting a thread that moves to its CPU and
#: joining it took 0.10 ms.  So 64 no longer marks the break-even: a
#: one-group sweep of three ranks with this bound lowered ran slower at
#: d = 16 and 24, as fast at d = 32, and 7-17% faster from d = 40 to 64
#: (medians of 14 alternated runs each); 64 still never loses.
TABLE_THREAD_MIN_DIM = 64


def pair_record(pair: OperatorPair, interval: Interval, name: str, expected=None):
    """The instance file's record of ``pair`` on ``interval``."""
    return InstanceRecord(gram=pair.space.gram, a1=pair.op1.matrix, a2=pair.op2.matrix,
                          intervals=(interval,), name=name, expected=expected)


def sweep_grid(cells, tol: Tolerance = DEFAULT_TOL) -> tuple[str, list, list]:
    """The sweep of ``cells``, each ``(d, kappa, rank, seed)``, in their order.

    Returns ``(csv, summary, dumps)``: the CSV text, header first, with
    one row per window of each cell's pair; the summary's cells, one per
    (kappa, rank) in sorted order, each with its ``rows``, its least slack
    ``min_slack`` and ``attained_at``, the d, seed and window of its first
    row with it; and the instance files of the windows that break a bound.
    Any error raised is the first in the order of ``cells``, such as a
    cell that :class:`~pontgap.gen.GenConfig` rejects.
    """
    cells = list(cells)
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
        results = _run_shares(shares, tol, cpus)
    except Exception:
        # the whole grid again as one share in this process, which raises
        # its first error in grid order, whichever share failed and however
        workers, results = 1, [_sweep_share(cells, tol)]
    # merge: each share's results are in grid order, so the grid's next
    # pair is the next of its share's.  A cell's first pair with its least
    # slack, in grid order, holds its first row with it
    shared = [iter(share) for share in results]
    texts = [CSV_HEADER + "\n"]
    summary: dict[tuple[int, int], dict] = {}
    dumps = []
    for (d, kappa, rank, seed), g in zip(cells, groups):
        text, count, least, (lower, upper), pair_dumps = next(shared[g % workers])
        texts.append(text)
        cell = summary.setdefault((kappa, rank), {"min_slack": None, "rows": 0})
        cell["rows"] += count
        if cell["min_slack"] is None or least < cell["min_slack"]:
            cell["min_slack"] = least
            cell["attained_at"] = {"d": d, "seed": seed,
                                   **interval_node(Interval(lower, upper))}
        dumps += pair_dumps
    return "".join(texts), [
        {"kappa": kappa, "n": rank, **cell} for (kappa, rank), cell in sorted(summary.items())
    ], dumps


def _pair_result(cfg: GenConfig, pair: OperatorPair, tol: Tolerance) -> tuple:
    """``(text, rows, min_slack, (lower, upper), dumps)`` of ``pair``, drawn
    for ``cfg``: its CSV rows, rendered and each ending in a newline, and
    their number; the least slack of its rows, and the window of the first
    row with it; and the instance files of its windows that break a bound.
    This is plain data, which a forked worker pickles.

    The rows render the integers of :func:`~pontgap.theorem.sweep_counts`
    behind the pair's ``d,kplus,kminus,n,`` head, built once, and the
    window's ends, each cut formatted once.
    """
    space = pair.space
    cuts, counts = sweep_counts(pair, tol)
    head = f"{cfg.dim},{space.kappa_plus},{space.kappa_minus},{pair.n},"
    ends = [-math.inf, *cuts, math.inf]
    labels = ["-inf", *map(format_float, cuts), "+inf"]
    # the whole line, then each window between adjacent ends; without a cut
    # the whole line is the only window
    spans = [(0, len(ends) - 1), *((k, k + 1) for k in range(len(ends) - 1))]
    rows, dumps, least, attained = [], [], None, None
    for (lo, hi), (eig1, eig2, sig1, sig2, slack, all_hold) in zip(spans, counts):
        rows.append(f"{head}{labels[lo]},{labels[hi]},{eig1},{eig2},{sig1},{sig2},{slack}")
        if least is None or slack < least:
            least, attained = slack, (ends[lo], ends[hi])
        if not all_hold:
            name = f"violation-d{cfg.dim}-k{cfg.kappa_minus}-n{cfg.pert_rank}-seed{cfg.seed}"
            dumps.append(dumps_instance(pair_record(pair, Interval(ends[lo], ends[hi]), name)))
    return "\n".join(rows) + "\n", len(rows), least, attained, dumps


class _TableThreads:
    """A share's table threads, one per CPU of ``cpus`` at a time: each
    gives an operator its head start (see :func:`_build_table_on`) while
    the share draws on or prepares other operators."""

    def __init__(self, cpus, tol: Tolerance):
        self.free = list(cpus)  # the CPUs without a table thread
        self.pending = {}  # operator -> (the thread building its table, its CPU)
        self.tol = tol

    def send(self, op):
        """``op``, its table sent to a thread if it is large and a CPU is free."""
        if self.free and op.dim >= TABLE_THREAD_MIN_DIM:
            cpu = self.free.pop()
            thread = threading.Thread(target=_build_table_on, args=(cpu, op, self.tol))
            thread.start()
            self.pending[op] = thread, cpu
        return op

    def build(self, ops) -> None:
        """Give ``ops`` their head start: those no thread prepares,
        together here, then join the threads of the rest."""
        _head_start([op for op in ops if op not in self.pending], self.tol)
        for op in dict.fromkeys(ops):
            if op in self.pending:
                thread, cpu = self.pending.pop(op)
                thread.join()
                self.free.append(cpu)

    def join(self) -> None:
        for thread, _ in self.pending.values():
            thread.join()


def _sweep_share(cells, tol: Tolerance, cpus=()) -> list:
    """Each of ``cells``' :func:`_pair_result`, in their order.

    The pairs go in batches of at most ``SWEEP_BATCH_ENTRIES`` matrix
    entries, whose operators get their head start together (see
    :func:`_head_start`) before any is counted, and the next pair is drawn
    before the last batch is counted.  Each drawn operator of order
    ``TABLE_THREAD_MIN_DIM`` or more goes to a thread on a free CPU of
    ``cpus`` (see :class:`_TableThreads`); where no CPU is free, it is
    prepared with its batch.  An error raises while a pair is drawn or
    counted, after those of the pairs drawn before it, and no table thread
    outlives the call.
    """
    tables = _TableThreads(cpus, tol)

    # J and A1 depend on (d, kappa, seed), not on the rank: a group's A1
    # (which holds its J) is drawn at its first cell and kept until its
    # last, so each is drawn once in any order, and in grid order, which
    # runs a (d, kappa)'s ranks over the same seeds, at most as many are
    # kept as there are seeds
    remaining = collections.Counter((d, kappa, seed) for d, kappa, _, seed in cells)
    drawn = {}

    def first(d, kappa, seed):
        group = (d, kappa, seed)
        if group not in drawn:
            cfg = GenConfig(dim=d, kappa_minus=kappa, seed=seed)
            drawn[group] = tables.send(random_operator(random_space(cfg, tol), cfg, tol))
        remaining[group] -= 1
        return drawn[group] if remaining[group] else drawn.pop(group)

    results, batch, entries = [], [], 0
    try:
        for d, kappa, rank, seed in cells:
            try:
                cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=rank, seed=seed)
                pair = random_pair(first(d, kappa, seed), cfg, tol)
            except Exception:
                # the pairs drawn before this one raise their errors first
                _counted(batch, tables, tol)
                raise
            if pair.op2 is not pair.op1:
                tables.send(pair.op2)
            # the pair is drawn before the last batch is counted, so that
            # table threads run meanwhile
            if batch and entries + 2 * d * d > SWEEP_BATCH_ENTRIES:
                results += _counted(batch, tables, tol)
                batch, entries = [], 0
            batch.append((cfg, pair))
            entries += 2 * d * d
        if batch:
            results += _counted(batch, tables, tol)
        return results
    finally:
        tables.join()


def _counted(batch, tables: _TableThreads, tol: Tolerance) -> list:
    """Each of ``batch``'s pairs' :func:`_pair_result`, once its operators
    have their head start."""
    tables.build([op for _, pair in batch for op in (pair.op1, pair.op2)])
    return [_pair_result(cfg, pair, tol) for cfg, pair in batch]


def _head_start(ops, tol: Tolerance) -> None:
    """Prepare ``ops`` for counting with ``tol`` (see
    :func:`~pontgap.spectral.prepare`), the one spectral call of a share's
    batches and table threads, as a head start only: what it fails to
    prepare, the count that first reads it builds alone, to the same bits,
    and a real failure raises there, in the share's cells' order."""
    try:
        prepare(ops, tol)
    except Exception:
        pass


def _build_table_on(cpu: int, op, tol: Tolerance) -> None:
    """Give ``op`` its head start with ``tol`` on ``cpu``: the work of a
    table thread, which raises nothing and so prints no traceback."""
    _move_to(cpu)
    _head_start([op], tol)


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


def _run_shares(shares, tol: Tolerance, cpus: list) -> list:
    """Each share's :func:`_sweep_share` results, in share order.

    ``cpus``, from :func:`_cpus`, go in blocks of CPUs // W to the W
    shares.  This process runs the first share, on the first CPU, and each
    other share runs in a forked child on the first CPU of its block,
    which pickles its results down its own pipe; a share's table threads
    run on the rest of its block.  A fork shares the loaded modules, where
    a spawned worker would import numpy again at a cost larger than the
    default grid's whole sweep.  Every child is forked before this
    process's share starts a thread, and forks nothing in turn.  Every
    child is reaped before this returns or raises, and any whose result
    was not read is killed first; a child that exited non-zero raises
    :class:`ChildProcessError`.
    """
    per = len(cpus) // len(shares)
    blocks = [cpus[w * per:(w + 1) * per] for w in range(len(shares))]
    pipes, pids = {}, []  # pid -> read end of its pipe, for each child not read
    try:
        for share, block in zip(shares[1:], blocks[1:]):
            pid, read_end = _fork(block[0], list(pipes.values()),
                                  _sweep_share, share, tol, block[1:])
            pipes[pid] = read_end
            pids.append(pid)
        results = [_sweep_share(shares[0], tol, blocks[0][1:])]
        for pid in pids:
            with open(pipes[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(pipes.pop(pid))
            results.append(pickle.loads(data))
    finally:
        for pid, read_end in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.close(read_end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code in codes:
        if code != 0:
            raise ChildProcessError(f"forked worker exited with {code}")
    return results


def _fork(cpu: int, inherited: list, work, *args) -> tuple[int, int]:
    """The pid of a child forked on ``cpu`` (see :func:`_move_to`) that
    pickles ``work(*args)`` down a pipe, and the pipe's read end.  The
    child closes ``inherited``, its elder siblings' read ends."""
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
            for fd in inherited:
                os.close(fd)
            _move_to(cpu)
            result = work(*args)
            with open(write_end, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


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
