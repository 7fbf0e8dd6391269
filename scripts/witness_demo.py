#!/usr/bin/env python3
"""Walk through the counting argument on one concrete instance.

Prints every object the bound is made of: the spectra, the inner
interval, the sign-split dimensions inside and outside it, and the
pinched subspace K whose dimension ties the two counts together.

Usage:
    python3 scripts/witness_demo.py                  # bundled example3
    python3 scripts/witness_demo.py example1
    python3 scripts/witness_demo.py path/to/instance.json

Exit codes follow ``pontgap``: 0 ok, 2 input error (unreadable or
malformed file, an instance without A2 or without an interval, or no
inner interval found), 3 ill-posed interval.
"""

import sys
from pathlib import Path

from pontgap.cli import EXIT_ILL_POSED_INTERVAL, EXIT_INPUT_ERROR, EXIT_OK
from pontgap.errors import (
    EndpointInSpectrumError,
    IllPosedIntervalError,
    InstanceFormatError,
    PontgapError,
)
from pontgap.gen import builtin_fixtures
from pontgap.instancefile import parse_instance
from pontgap.perturbation import make_pair
from pontgap.spectral import spectrum, validate_operator
from pontgap.indefinite import validate_space
from pontgap.theorem import proof_witness, verify_main_theorem


def load(arg):
    fixtures = {f.name: f for f in builtin_fixtures()}
    if arg in fixtures:
        f = fixtures[arg]
        return f.name, f.pair, f.interval
    record = parse_instance(Path(arg).read_text(encoding="utf-8"))
    if record.a2 is None:
        raise InstanceFormatError("need an instance with both a1 and a2")
    if not record.intervals:
        raise InstanceFormatError("need an instance with at least one interval")
    space = validate_space(record.gram)
    pair = make_pair(validate_operator(space, record.a1),
                     validate_operator(space, record.a2))
    return record.name or arg, pair, record.intervals[0]


def fmt(z):
    scale = max(1.0, abs(z))
    re = 0.0 if abs(z.real) < 1e-9 * scale else z.real
    im = 0.0 if abs(z.imag) < 1e-9 * scale else z.imag
    if im == 0.0:
        return f"{re:g}"
    return f"{re:g}{im:+g}i"


def show(name, pair, interval):
    n, kappa = pair.n, pair.space.kappa_minus
    print(f"instance {name}: d={pair.dim}, kappa={kappa}, rank(A1-A2)={n}")
    for label, op in (("A1", pair.op1), ("A2", pair.op2)):
        entries = ", ".join(
            f"{fmt(e.value)} (x{e.multiplicity})" for e in spectrum(op).entries
        )
        print(f"  sigma({label}) = {{{entries}}}")

    report = verify_main_theorem(pair, interval)
    print(f"\nwindow {interval}:")
    print(f"  eig(A1) = {report.eig1}, eig(A2) = {report.eig2}, "
          f"sig(A1) = {report.sig1}, sig(A2) = {report.sig2}")
    print(f"  |eig diff| = {abs(report.eig2 - report.eig1)} "
          f"<= n + 2 kappa = {n + 2 * kappa}   (slack {report.slack})")

    w = proof_witness(pair, interval)
    print(f"\ninner window delta' = {w.delta_prime}")
    print("  split by the sign of the gap form of delta':")
    print(f"    A1: dim(minus part outside) = {w.dim_minus_out1}, "
          f"dim(plus part inside) = {w.dim_plus_in1}")
    print(f"    A2: dim(minus part outside) = {w.dim_minus_out2}, "
          f"dim(plus part inside) = {w.dim_plus_in2}")
    print(f"  K = (A2 minus-out + plus-in) meet agreement space: dim K = {w.dim_k}")
    print(f"    lower pinch: dim K >= {w.dim_minus_out2} + {w.dim_plus_in2} - {n} "
          f"= {w.dim_minus_out2 + w.dim_plus_in2 - n}  "
          f"({'ok' if w.lower_bound_ok else 'VIOLATED'})")
    print(f"    upper pinch: dim K <= {w.dim_minus_out1} + {w.dim_plus_in1} "
          f"= {w.dim_minus_out1 + w.dim_plus_in1}  "
          f"({'ok' if w.upper_bound_ok else 'VIOLATED'})")
    print(f"    Q1 injective on K: {'yes' if w.q1_injective_on_k else 'NO'}")
    print(f"\nchain: eig(A2, delta') = {w.eig2_delta_prime} <= n + 2 kappa + "
          f"eig(A1, delta) = {n + 2 * kappa + w.eig1_delta}  "
          f"({'ok' if w.chain_holds else 'VIOLATED'})")
    print(f"signature chain: sig difference <= n  "
          f"({'ok' if w.sig_chain_holds else 'VIOLATED'})")


def main():
    try:
        show(*load(sys.argv[1] if len(sys.argv) > 1 else "example3"))
    except (IllPosedIntervalError, EndpointInSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED_INTERVAL
    except (PontgapError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
