"""Workloads, set-up and output checks of the pontgap benchmark.

Each workload is a closed loop with one client: an op calls
``pontgap.cli.main`` in this process, and the next op starts when the
previous one returns.  BLAS is pinned to one thread before numpy loads,
so this module must be imported before anything imports numpy.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE_PATH = BENCH_DIR / "reference_digests.json"
MANIFEST = "manifest.json"

if not (SRC / "pontgap" / "__init__.py").is_file():
    raise ImportError(f"pontgap sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import pontgap  # noqa: E402
from pontgap import cli  # noqa: E402
from pontgap.errors import PontgapError  # noqa: E402

if Path(pontgap.__file__).resolve().parent != SRC / "pontgap":
    raise ImportError(f"imported pontgap from {pontgap.__file__}, not from {SRC}")

from tracer import PER_LAYER, PROBE_OP, SETUP_OP, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("sweep-grid", "windows-d96", "witness-cli")
DEFAULT_SEED = 0

#: seed stride between consecutive sweep-grid ops
GRID_SEED_STRIDE = 1000
#: shape of the generated witness-cli pairs; seeds S and S+1
WITNESS_DIM, WITNESS_KAPPA, WITNESS_RANK, WITNESS_PAIRS = 32, 2, 2, 2
FIXTURES = ("example1", "example3")
#: the witness self-test instance of every traced run
PROBE_FIXTURE = "example3"

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_REPEATS = 5
#: ops of one traced run: sweep ops, or whole passes over the witness files
TRACED_OPS = {"sweep-grid": 3, "windows-d96": 2, "witness-cli": 1}
#: the highest percentile reported needs this many ops for 10 beyond it
P90_MIN_OPS = 100

#: non-zero exits of ``cli.main`` that stand for a typed pontgap error
TYPED_ERROR_EXITS = (cli.EXIT_INPUT_ERROR, cli.EXIT_ILL_POSED_INTERVAL)
#: typed errors that are a checked answer of the workload's ops, not a
#: failure of the run.  The delta-prime search behind ``--witness`` gives
#: up on some windows; such an op is a refusal.  It stays in the workload
#: and in ``fail_share``, and its output is checked like any other.
ACCEPTED_REFUSALS = {"witness-cli": ("DeltaPrimeSearchError",)}

CSV_FIELDS = ("d", "kplus", "kminus", "n", "lower", "upper",
              "eig1", "eig2", "sig1", "sig2", "slack")
#: the sweep row fields a verify report of the same window must repeat
COUNT_FIELDS = ("n", "kminus", "eig1", "eig2", "sig1", "sig2", "slack")


# ---------------------------------------------------------------------------
# running one CLI call


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    exception: str | None = None


def call_cli(argv: list[str]) -> CliResult:
    """Run ``pontgap.cli.main`` in this process, capturing both streams.

    ``cli.main`` is looked up on every call, so a traced run reaches the
    wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (SystemExit, Exception) as exc:  # argparse refusal or an escaped error
            code, exception = None, type(exc).__name__
    return CliResult(code, out.getvalue(), err.getvalue(), exception)


def classify_failure(argv: list[str]) -> tuple[str, bool]:
    """Exception class behind a failed op, and whether it is a pontgap error.

    ``cli.main`` turns pontgap errors into exit codes, so the class is
    recovered by rerunning the subcommand without that handler.
    """
    args = cli.build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = args.func(args)
        except Exception as exc:  # the class name is the answer
            return type(exc).__name__, isinstance(exc, PontgapError)
    return f"exit {code}", False


# ---------------------------------------------------------------------------
# sweep CSV checks


def parse_sweep_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_FIELDS):
        raise ValueError("sweep CSV header differs from the documented one")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_FIELDS):
            raise ValueError(f"sweep CSV row has {len(cells)} cells: {line!r}")
        row = dict(zip(CSV_FIELDS, cells))
        for key in CSV_FIELDS:
            row[key] = float(row[key]) if key in ("lower", "upper") else int(row[key])
        rows.append(row)
    return rows


def split_instances(rows: list[dict]) -> list[list[dict]]:
    """Group rows by instance; each instance starts with its full-line row."""
    groups: list[list[dict]] = []
    for row in rows:
        if row["lower"] == -math.inf and row["upper"] == math.inf:
            groups.append([row])
        elif not groups:
            raise ValueError("sweep CSV starts with a row that is not the full line")
        else:
            groups[-1].append(row)
    return groups


def csv_problems(rows: list[dict]) -> list[str]:
    """Bound and partition-invariant violations in a sweep CSV.

    The cut windows of an instance partition the line away from both
    spectra, and gap subspaces of disjoint windows form a J-orthogonal
    direct sum of real root subspaces, so the cut windows' ``eig`` and
    ``sig`` values must add up to the full-line row.
    """
    problems = []
    for row in rows:
        diff = abs(row["eig1"] - row["eig2"])
        if diff > row["n"] + 2 * row["kminus"] or row["slack"] < 0:
            problems.append(f"eig bound broken on {row}")
        if abs(row["sig1"] - row["sig2"]) > row["n"]:
            problems.append(f"sig bound broken on {row}")
        if row["slack"] != row["n"] + 2 * row["kminus"] - diff:
            problems.append(f"slack inconsistent on {row}")
    for group in split_instances(rows):
        full, cuts = group[0], group[1:]
        if not cuts:
            continue
        for key in ("eig1", "eig2", "sig1", "sig2"):
            if sum(row[key] for row in cuts) != full[key]:
                problems.append(
                    f"{key} over the cut windows does not add up to the full line "
                    f"(d={full['d']}, kminus={full['kminus']}, n={full['n']})"
                )
    return problems


# ---------------------------------------------------------------------------
# workloads and their inputs


@dataclass
class Inputs:
    """What set-up leaves for a workload: a directory and instance files."""

    directory: Path
    names: list[str] = field(default_factory=list)
    #: the sweep row each generated window file must reproduce
    expected: dict[str, dict] = field(default_factory=dict)
    digest: str = ""


def _checked(argv: list[str]) -> CliResult:
    result = call_cli(argv)
    if result.code != 0:
        raise RuntimeError(f"set-up call {argv} exited {result.code}: {result.stderr}")
    return result


def prepare_inputs(workload: str, seed: int, directory: Path) -> Inputs:
    """Build the workload's inputs from public API only.

    For ``witness-cli``: the bundled fixtures through ``pontgap examples``,
    and one instance file per window of a ``pontgap sweep`` over the
    generated d=32 pairs of seeds S and S+1.
    """
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory)
    digest = hashlib.sha256()
    if workload != "witness-cli":
        inputs.digest = digest.hexdigest()
        (directory / MANIFEST).write_text(json.dumps({"names": [], "expected": {}, "digest": inputs.digest}))
        return inputs
    for name in FIXTURES:
        path = directory / f"{name}.json"
        _checked(["examples", name, "--out", str(path)])
        inputs.names.append(path.name)
        digest.update(path.read_bytes())
    csv_path = directory / "windows.csv"
    _checked([
        "sweep", "--dims", str(WITNESS_DIM), "--kappas", str(WITNESS_KAPPA),
        "--ranks", str(WITNESS_RANK), "--seeds", str(WITNESS_PAIRS),
        "--seed", str(seed), "--out", str(csv_path),
    ])
    groups = split_instances(parse_sweep_csv(csv_path.read_text()))
    if len(groups) != WITNESS_PAIRS:
        raise RuntimeError(f"sweep produced {len(groups)} instances, expected {WITNESS_PAIRS}")
    for offset, rows in enumerate(groups):
        cfg = pontgap.GenConfig(
            dim=WITNESS_DIM, kappa_minus=WITNESS_KAPPA,
            pert_rank=WITNESS_RANK, seed=seed + offset,
        )
        space = pontgap.random_space(cfg)
        pair = pontgap.random_pair(space, cfg)
        for index, row in enumerate(rows):
            name = f"d{WITNESS_DIM}-k{WITNESS_KAPPA}-n{WITNESS_RANK}-seed{cfg.seed}-w{index:03d}"
            record = pontgap.InstanceRecord(
                gram=space.gram,
                a1=pair.op1.matrix,
                a2=pair.op2.matrix,
                intervals=(pontgap.Interval(row["lower"], row["upper"]),),
                name=name,
            )
            path = directory / f"{name}.json"
            text = pontgap.dumps_instance(record)
            path.write_text(text)
            inputs.names.append(path.name)
            inputs.expected[path.name] = {key: row[key] for key in COUNT_FIELDS}
            digest.update(text.encode())
    inputs.digest = digest.hexdigest()
    (directory / MANIFEST).write_text(json.dumps(
        {"names": inputs.names, "expected": inputs.expected, "digest": inputs.digest}
    ))
    return inputs


def load_inputs(directory: Path) -> Inputs:
    """Inputs left in ``directory`` by :func:`prepare_inputs`."""
    manifest = json.loads((directory / MANIFEST).read_text())
    return Inputs(directory, manifest["names"], manifest["expected"], manifest["digest"])


def op_argv(workload: str, seed: int, index: int, inputs: Inputs) -> tuple[str, list[str]]:
    """Key and argv of op ``index``; the key names the op's input."""
    csv = str(inputs.directory / "sweep.csv")
    if workload == "sweep-grid":
        return str(index), ["sweep", "--seed", str(seed + GRID_SEED_STRIDE * index), "--out", csv]
    if workload == "windows-d96":
        return str(index), [
            "sweep", "--dims", "96", "--kappas", "2", "--ranks", "2",
            "--seeds", "1", "--seed", str(seed + index), "--out", csv,
        ]
    name = inputs.names[index % len(inputs.names)]
    return name, ["verify", str(inputs.directory / name), "--witness"]


# ---------------------------------------------------------------------------
# checking one op


@dataclass
class OpRecord:
    key: str
    argv: list[str]
    seconds: float
    code: int | None
    exception: str | None
    digest: str
    windows: int = 0
    #: why the output is wrong, or None
    mismatch: str | None = None
    #: exception class of a failed op, filled in after the timed loop
    failure: str | None = None
    #: the failure is one of the workload's accepted refusals
    refused: bool = False

    @property
    def failed(self) -> bool:
        """The op exited non-zero: an error or an accepted refusal."""
        return self.code != 0


def _digest(code, *parts: str) -> str:
    h = hashlib.sha256(f"exit={code}\n".encode())
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _sweep_check(result: CliResult, csv_path: Path) -> tuple[str, int, str | None]:
    if result.code != 0:
        return _digest(result.code, result.stderr), 0, None
    text = csv_path.read_text()
    rows = parse_sweep_csv(text)
    summary = json.loads(result.stdout)
    problems = csv_problems(rows)
    if summary["rows"] != len(rows) or summary["violations"] != 0:
        problems.append(f"summary disagrees with the CSV: {summary['rows']} rows, "
                        f"{summary['violations']} violations")
    return _digest(result.code, text), len(rows), (problems[0] if problems else None)


def _report_check(result: CliResult, expected: dict | None) -> tuple[str, int, str | None]:
    digest = _digest(result.code, result.stdout, result.stderr)
    if result.code != 0:
        return digest, 0, None
    doc = json.loads(result.stdout)
    if doc.get("all_bounds_hold") is not True:
        return digest, 0, "all_bounds_hold is not true"
    if len(doc["reports"]) != 1 or "witness" not in doc["reports"][0]:
        return digest, 0, "report lacks its single window or its witness"
    report = doc["reports"][0]
    if "expectation" in doc and not doc["expectation"]["matches"]:
        return digest, 0, "fixture expectation mismatch"
    if expected is not None:
        got = {
            "eig1": report["eig"]["a1"], "eig2": report["eig"]["a2"],
            "sig1": report["sig"]["a1"], "sig2": report["sig"]["a2"],
            "n": report["n"], "kminus": report["kappa"], "slack": report["slack"],
        }
        for key, value in got.items():
            if expected[key] != value:
                return digest, 0, f"{key}={value} differs from the sweep row's {expected[key]}"
    return digest, 1, None


def run_op(workload: str, key: str, argv: list[str], inputs: Inputs) -> OpRecord:
    """Time one op, then check its output outside the timed region."""
    start = time.perf_counter()
    result = call_cli(argv)
    seconds = time.perf_counter() - start
    try:
        if workload == "witness-cli":
            digest, windows, mismatch = _report_check(result, inputs.expected.get(key))
        else:
            digest, windows, mismatch = _sweep_check(result, inputs.directory / "sweep.csv")
    except (ValueError, KeyError, TypeError, OSError) as exc:  # malformed or missing output
        digest, windows = _digest(result.code, result.stdout, result.stderr), 0
        mismatch = f"unreadable output: {type(exc).__name__}: {exc}"
    record = OpRecord(key, argv, seconds, result.code, result.exception, digest, windows)
    if result.exception is not None:
        record.mismatch = f"escaped exception {result.exception}"
    elif result.code not in (0, *TYPED_ERROR_EXITS):
        record.mismatch = f"exit {result.code}: {result.stderr.strip()[:200]}"
    else:
        record.mismatch = mismatch
    return record


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def finish_checks(workload: str, seed: int, records: list[OpRecord], reference: dict) -> None:
    """Checks that need the whole run: failure classes and digests.

    A failed op must come from a typed pontgap error, and is a refusal
    when its class is accepted for the workload; every op on an input
    seen before must repeat its output; at the default seed every op
    with a recorded digest must reproduce it.
    """
    classes: dict[tuple, tuple[str, bool]] = {}
    first: dict[str, str] = {}
    recorded = reference.get(workload, {}) if seed == reference.get("seed") else {}
    for record in records:
        if record.failed:
            argv = tuple(record.argv)
            if argv not in classes:
                classes[argv] = (
                    (record.exception, False) if record.exception
                    else classify_failure(record.argv)
                )
            record.failure, typed = classes[argv]
            record.refused = typed and record.failure in ACCEPTED_REFUSALS.get(workload, ())
            if record.mismatch is None and not typed:
                record.mismatch = f"failure is not a typed pontgap error: {record.failure}"
        seen = first.setdefault(record.key, record.digest)
        if record.mismatch is None and seen != record.digest:
            record.mismatch = "output differs from an earlier op on the same input"
        want = recorded.get(record.key)
        if record.mismatch is None and want is not None and want != record.digest:
            record.mismatch = "output digest differs from the recorded reference"


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed reference kernel, timed between ops to track machine speed.

    On a shared machine the speed of the workloads drifts by tens of
    percent over minutes, in CPU time as much as in wall time.  Op times
    divided by the run's median kernel time hold still where raw wall
    times do not, as long as the kernel does the same kind of work as
    the ops.  So each workload gets its own mix of kernel parts, with
    shares close to those its trace shows: tiny-matrix LAPACK calls and
    interpreted code for ``sweep-grid``, 96 x 96 SVDs for
    ``windows-d96``, 32 x 32 SVDs, JSON parsing and float formatting for
    ``witness-cli``.  The kernel never calls pontgap, so a change to
    pontgap cannot move it.
    """

    #: repetitions of each part in one kernel run: about 20 ms, or 8 ms
    #: for the short witness-cli ops
    MIX = {
        "sweep-grid": {"tiny": 90, "arrays": 400, "python": 18},
        "windows-d96": {"svd96": 5, "python": 10},
        "witness-cli": {"svd32": 12, "python": 6, "json": 1, "format": 2},
    }

    def __init__(self, workload: str):
        rng = numpy.random.default_rng(0)

        def matrix(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        self._tiny, self._m32, self._m96 = matrix(4), matrix(32), matrix(96)
        self._herm = self._tiny + self._tiny.conj().T
        self._json = json.dumps([[[z.real, z.imag] for z in row] for row in matrix(64)])
        self._parts = [(getattr(self, f"_part_{name}"), reps)
                       for name, reps in self.MIX[workload].items()]
        self.times: list[float] = []

    def _part_tiny(self):
        numpy.linalg.svd(self._tiny)
        numpy.linalg.eigvals(self._tiny)
        numpy.linalg.eigh(self._herm)
        numpy.linalg.solve(self._tiny, self._tiny)
        numpy.linalg.norm(self._tiny)

    def _part_arrays(self):
        a = self._tiny
        b = a @ a.conj().T
        c = numpy.hstack([a, numpy.eye(4, dtype=complex)])
        numpy.asarray(c, dtype=complex)
        bool(numpy.all(numpy.isfinite(b)))
        float(numpy.abs(b).sum())

    def _part_svd32(self):
        numpy.linalg.svd(self._m32)

    def _part_svd96(self):
        numpy.linalg.svd(self._m96)

    def _part_python(self):
        counts, total = {}, 0.0
        for i in range(1000):
            counts[i % 31] = counts.get(i % 31, 0) + i
            total += abs(complex(i, 1)) * 0.5
        return total

    def _part_json(self):
        json.loads(self._json)

    def _part_format(self):
        ",".join("%.17g" % (i / 7.0) for i in range(1000))

    def measure(self) -> float:
        start = time.perf_counter()
        for part, reps in self._parts:
            for _ in range(reps):
                part()
        seconds = time.perf_counter() - start
        self.times.append(seconds)
        return seconds


# ---------------------------------------------------------------------------
# set-up timing


def time_setup(workload: str, seed: int, directory: Path) -> tuple[list[float], Inputs]:
    """Time fresh interpreters that import pontgap and build the inputs.

    Each child runs ``run.py --setup-only`` into ``directory``; all must
    report the same input digest as the manifest the last one left.
    """
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--dir", str(directory)],
            capture_output=True, text=True, timeout=150, check=False,
        )
        times.append(time.perf_counter() - start)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()[-500:]}")
        digests.add(child.stdout.strip().splitlines()[-1])
    inputs = load_inputs(directory)
    digests.add(inputs.digest)
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: input digests differ")
    return times, inputs


# ---------------------------------------------------------------------------
# the two kinds of run


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: list[Metric]
    notes: list[str]


def _summary_notes(records: list[OpRecord]) -> list[str]:
    notes = []
    failures: dict[str, int] = {}
    for record in records:
        if record.failed:
            failures[record.failure] = failures.get(record.failure, 0) + 1
    refusals = {r.failure for r in records if r.refused}
    for name, count in sorted(failures.items()):
        kind = "refusals" if name in refusals else "failures"
        notes.append(f"{kind} {name}: {count} of {len(records)} ops")
    for record in records:
        if record.mismatch is not None:
            notes.append(f"mismatch on {record.key}: {record.mismatch}")
            break
    return notes


def run_untraced(workload: str, seed: int, seconds: float, scratch: Path) -> RunResult:
    """Closed loop for ``seconds``; reports the end-to-end metrics."""
    setup_times, inputs = time_setup(workload, seed, scratch / "inputs")
    reference = load_reference()
    calibration = Calibration(workload)
    run_op(workload, *op_argv(workload, seed, 0, inputs), inputs)  # warm-up
    calibration.measure()
    calibration.times.clear()
    records: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not records:
        calibration.measure()
        key, argv = op_argv(workload, seed, len(records), inputs)
        records.append(run_op(workload, key, argv, inputs))
    calibration.measure()
    finish_checks(workload, seed, records, reference)

    # each op in units of the mean of the kernel timings just before and after it
    cal = calibration.times
    ok = [(r, r.seconds / (0.5 * (before + after)))
          for r, before, after in zip(records, cal, cal[1:]) if not r.failed]
    exited = len(records) - len(ok)
    failed = sum(r.failed and not r.refused for r in records)
    mismatched = sum(r.mismatch is not None for r in records)
    attempted = len(records)
    ok_s = [r.seconds for r, _ in ok]
    op_s = statistics.median(ok_s) if ok else 0.0
    cal_s = statistics.median(cal)
    metrics = [
        Metric("windows_per_cal",
               statistics.median(r.windows / c for r, c in ok) if ok else 0.0, "1/cal", len(ok)),
        Metric("op_cal_p50", statistics.median(c for _, c in ok) if ok else 0.0, "cal", len(ok)),
        Metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        Metric("setup_s", statistics.median(setup_times), "s", len(setup_times)),
    ]
    raw = [
        Metric("windows_per_s", sum(r.windows for r in records) / sum(r.seconds for r in records),
               "1/s", attempted),
        Metric("op_ms_p50", 1000.0 * op_s, "ms", len(ok_s)),
        Metric("cal_ms_p50", 1000.0 * cal_s, "ms", len(calibration.times)),
        Metric("fail_share", exited / attempted, "share", attempted),
        Metric("mismatch_share", mismatched / attempted, "share", attempted),
    ]
    if len(ok_s) >= P90_MIN_OPS:
        p90 = statistics.quantiles(ok_s, n=10)[-1]
        raw.append(Metric("op_ms_p90", 1000.0 * p90, "ms", len(ok_s)))
    notes = [f"{m.name} = {m.value!r} {m.unit} (n={m.samples})" for m in raw]
    notes += _summary_notes(records)
    return RunResult(mismatched == 0, attempted, failed, metrics, notes)


def run_traced(workload: str, seed: int, scratch: Path, span_path: Path) -> RunResult:
    """Fixed op list, each op run untraced and traced; per-layer metrics.

    The spans cover the workload's set-up (op id -2), one ``verify
    --witness`` on the example3 fixture (op id -1, the trace self-test)
    and every op of the list.  The self-test's output must be
    byte-identical before wrapping, wrapped and after unwrapping, and
    every traced op must reproduce its untraced output.  The untraced
    and traced runs of an op alternate in which goes first.
    """
    inputs = prepare_inputs(workload, seed, scratch / "inputs")
    probe_file = scratch / f"{PROBE_FIXTURE}.json"
    _checked(["examples", PROBE_FIXTURE, "--out", str(probe_file)])
    probe_argv = ["verify", str(probe_file), "--witness"]
    reference = load_reference()
    count = TRACED_OPS[workload] * (len(inputs.names) if workload == "witness-cli" else 1)
    op_list = [op_argv(workload, seed, i, inputs) for i in range(count)]

    run_op(workload, *op_list[0], inputs)  # warm-up
    probe_before = call_cli(probe_argv)
    tracer = Tracer()
    with tracer.tracing(SETUP_OP):
        traced_inputs = prepare_inputs(workload, seed, scratch / "traced-inputs")
    with tracer.tracing(PROBE_OP):
        probe_traced = call_cli(probe_argv)
    probe_after = call_cli(probe_argv)
    plain, traced = [], []
    for index, (key, argv) in enumerate(op_list):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.tracing(index):
                    traced.append(run_op(workload, key, argv, inputs))
            else:
                plain.append(run_op(workload, key, argv, inputs))
    plain_wall = sum(r.seconds for r in plain)
    traced_wall = sum(r.seconds for r in traced)

    records = plain + traced
    finish_checks(workload, seed, records, reference)
    problems = [r for r in records if r.mismatch is not None]
    self_test_ok = (
        probe_before.code == 0
        and probe_before.stdout == probe_traced.stdout == probe_after.stdout
        and traced_inputs.digest == inputs.digest
    )
    tracer.write(span_path)

    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    units = dict(PER_LAYER, **{"trace.overhead_ratio": "x"})
    metrics = [Metric(name, values[name], unit, len(op_list)) for name, unit in units.items()]
    notes = [f"traced ops: {len(op_list)}; spans: {len(tracer.names)}",
             f"trace self-test on {PROBE_FIXTURE}: {'identical' if self_test_ok else 'DIFFERS'}"]
    notes += _summary_notes(traced)
    return RunResult(
        correct=not problems and self_test_ok,
        attempted=len(traced),
        failed=sum(r.failed and not r.refused for r in traced),
        metrics=metrics,
        notes=notes,
    )
