"""Command-line interface: analyze, verify, sweep, examples.

Consumers are scripts and CI.  All documents go to stdout (or ``--out``)
in the deterministic format of :mod:`pontgap.instancefile`; diagnostics
go to stderr.  Exit codes: 0 ok, 1 expectation mismatch, 2 input error,
3 ill-posed interval (including an endpoint ambiguously close to an
eigenvalue), 4 bound violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path

from . import instancefile
from .errors import (
    EndpointInSpectrumError,
    IllPosedIntervalError,
    InstanceFormatError,
    PontgapError,
)
from .gen import builtin_fixtures
from .indefinite import IndefiniteSpace, validate_space
from .instancefile import (
    SCHEMA_VERSION,
    InstanceRecord,
    dumps_instance,
    gap_report_node,
    interval_node,
    parse_instance,
    spectrum_node,
    stable_dumps,
    tolerance_node,
    witness_report_node,
)
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import make_pair
from .spectral import Interval, gap_inertia, spectrum, validate_operator
from .sweep import pair_record, sweep_grid
from .theorem import GapReport, proof_witness, verify_main_theorem

__all__ = ["main"]

EXIT_OK = 0
EXIT_EXPECTATION_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_ILL_POSED_INTERVAL = 3
EXIT_BOUND_VIOLATION = 4


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
    # the CSV and the dumps go next to --out: a path that cannot take them
    # fails here, before the first draw
    out = Path(args.out)
    if out.is_dir():
        raise InstanceFormatError(f"--out {args.out} is a directory")
    if not out.parent.is_dir():
        raise InstanceFormatError(f"--out {args.out}: {out.parent} is not a directory")
    csv, summary, dumps = sweep_grid(cells, tol)
    out.write_text(csv)
    for index, dump in enumerate(dumps):
        path = out.with_suffix(f".violation{index}.json")
        path.write_text(dump)
        print(f"bound violation dumped to {path}", file=sys.stderr)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tolerance": tolerance_node(tol),
        "csv": args.out,
        "instances": len(cells),
        "rows": sum(cell["rows"] for cell in summary),
        "violations": len(dumps),
        "cells": summary,
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
        record = pair_record(fix.pair, fix.interval, fix.name, fix.expected)
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
