"""Interval eigenvalue-count bounds for finite-rank pairs.

For a pair with ``rank(A1 - A2) = n`` on a space with ``kappa``
negative squares, and any open real interval avoiding the spectra's
endpoints ambiguity:

* the gap-subspace signatures differ by at most n, and
* the eigenvalue counts differ by at most ``n + 2 * kappa``.

:func:`verify_main_theorem` evaluates both inequalities and the two
refinements on a concrete pair, and :func:`sweep_counts` on every window
of :func:`sweep_windows` at once; both count through
:func:`~pontgap.spectral.window_counts` and decide through ``_bounds``.
:func:`proof_witness` re-enacts the argument behind them: it picks an
inner interval, splits each operator's space by the sign of the gap form
inside and outside, and exhibits the subspace whose dimension is pinched
between the two counts.  Every object in the witness is a concrete
matrix, so each inequality is checked, not inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .errors import DeltaPrimeSearchError
from .gapform import decompose_resolvent_gap, decompose_spectrum_inside
from .indefinite import (
    Inertia,
    Subspace,
    intersect_subspaces,
    oblique_projection,
    sum_subspaces,
)
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import OperatorPair
from .spectral import (
    Interval,
    clear_of,
    complement_subspace,
    gap_inertia,
    gap_subspace,
    restrict_operator,
    selection,
    spectrum,
    window_counts,
)

__all__ = [
    "GapReport",
    "WitnessReport",
    "verify_main_theorem",
    "choose_delta_prime",
    "sweep_windows",
    "proof_witness",
]


@dataclass(frozen=True)
class GapReport:
    """Everything the counting bounds say about one pair and one interval.

    ``equal_kappa_*`` concerns the refinement available when both gap
    subspaces carry the same number of negative squares (the count
    difference then drops to n); ``min_kappa_bound`` is the symmetric
    variant n + 2 min(kappa_plus, kappa_minus) obtained by flipping the
    sign of the inner product.
    """

    interval: Interval
    n: int
    kappa: int
    eig1: int
    eig2: int
    sig1: int
    sig2: int
    inertia1: Inertia
    inertia2: Inertia
    sig_bound_holds: bool
    eig_bound_holds: bool
    equal_kappa_applicable: bool
    equal_kappa_bound_holds: bool
    positive_type: bool
    min_kappa_bound: int
    min_kappa_bound_holds: bool
    slack: int

    @classmethod
    def _of_fields(cls, **fields) -> "GapReport":
        """A report of every field, made without the generated
        ``__init__``, which only sets each field through
        ``object.__setattr__``."""
        report = object.__new__(cls)
        report.__dict__.update(fields)
        return report

    @property
    def all_hold(self) -> bool:
        """The signature, count, equal-kappa and min-kappa bounds all hold."""
        return (
            self.sig_bound_holds
            and self.eig_bound_holds
            and self.equal_kappa_bound_holds
            and self.min_kappa_bound_holds
        )


@dataclass(frozen=True)
class WitnessReport:
    """Dimensions and checks of the reconstructed proof objects.

    ``dim_minus_outJ`` / ``dim_plus_inJ`` are the negative-form part
    outside and the positive-inertia part inside the inner interval
    for operator J; ``dim_k`` is the pinched subspace's dimension.
    """

    delta_prime: Interval
    dim_minus_out1: int
    dim_plus_in1: int
    dim_minus_out2: int
    dim_plus_in2: int
    dim_k: int
    q1_injective_on_k: bool
    lower_bound_ok: bool
    upper_bound_ok: bool
    eig1_delta_prime: int
    eig2_delta_prime: int
    eig1_delta: int
    eig2_delta: int
    chain_holds: bool
    sig_chain_holds: bool

    @property
    def all_hold(self) -> bool:
        """Every check of the witness passes."""
        return (
            self.q1_injective_on_k
            and self.lower_bound_ok
            and self.upper_bound_ok
            and self.chain_holds
            and self.sig_chain_holds
        )


def _bounds(n, kappa_plus, kappa_minus, eig1, eig2, sig1, sig2, equal_kappa):
    """``(slack, min_kappa_bound, sig, eig, equal_kappa, min_kappa)`` of one
    window: the slack ``n + 2 kappa - |eig1 - eig2|``, the bound
    ``n + 2 min(kappa_plus, kappa_minus)``, and whether the signature,
    count, equal-kappa and min-kappa bounds hold, ``equal_kappa`` telling
    whether both gap subspaces carry the same number of negative squares.
    The one place the bounds are written."""
    diff = abs(eig1 - eig2)
    min_kappa_bound = n + 2 * min(kappa_plus, kappa_minus)
    return (
        n + 2 * kappa_minus - diff,
        min_kappa_bound,
        abs(sig2 - sig1) <= n,
        diff <= n + 2 * kappa_minus,
        not equal_kappa or diff <= n,
        diff <= min_kappa_bound,
    )


def verify_main_theorem(
    pair: OperatorPair, interval: Interval, tol: Tolerance = DEFAULT_TOL
) -> GapReport:
    """Evaluate the signature and counting bounds on one interval."""
    space = pair.space
    in1 = gap_inertia(pair.op1, interval, tol)
    in2 = gap_inertia(pair.op2, interval, tol)
    n, eig1, eig2, sig1, sig2 = pair.n, in1.dim, in2.dim, in1.sig, in2.sig
    equal_kappa = in1.minus == in2.minus
    slack, min_kappa_bound, sig_holds, eig_holds, equal_kappa_holds, min_kappa_holds = (
        _bounds(n, space.kappa_plus, space.kappa_minus, eig1, eig2, sig1, sig2, equal_kappa)
    )
    return GapReport._of_fields(
        interval=interval,
        n=n,
        kappa=space.kappa_minus,
        eig1=eig1,
        eig2=eig2,
        sig1=sig1,
        sig2=sig2,
        inertia1=in1,
        inertia2=in2,
        sig_bound_holds=sig_holds,
        eig_bound_holds=eig_holds,
        equal_kappa_applicable=equal_kappa,
        equal_kappa_bound_holds=equal_kappa_holds,
        positive_type=(
            in1.minus == 0 and in1.zero == 0 and in2.minus == 0 and in2.zero == 0
        ),
        min_kappa_bound=min_kappa_bound,
        min_kappa_bound_holds=min_kappa_holds,
        slack=slack,
    )


def _dyadic(lo: float, hi: float):
    """Deterministic interior sweep of a finite window, coarse first: the
    odd multiples of 2**-depth for depth 1 to 7."""
    for depth in range(1, 8):
        steps = 1 << depth
        for num in range(1, steps, 2):
            yield lo + (hi - lo) * (num / steps)


def _doubling(origin: float, direction: float):
    """origin + direction * (1, 2, 4, ..., 2**1023), the steps in double
    range, into an unbounded side; a sum that overflows fails ``contains``."""
    return (origin + direction * 2.0**k for k in range(1024))


def _window_candidates(lo: float, hi: float):
    if math.isfinite(lo) and math.isfinite(hi):
        yield from _dyadic(lo, hi)
    elif math.isfinite(hi):
        yield from _doubling(hi, -1.0)
    elif math.isfinite(lo):
        yield from _doubling(lo, 1.0)
    else:
        yield 0.0
        for x in _doubling(0.0, 1.0):
            yield -x
            yield x


def choose_delta_prime(pair: OperatorPair, interval: Interval) -> Interval:
    """Pick an inner interval (a, b) with [a, b] inside ``interval``.

    The result contains every eigenvalue of A1 counted in the outer
    interval (and, when the sweep allows, A2's as well, which makes
    the witness informative), with both endpoints keeping
    ``Tolerance.DELTA_PRIME_MARGIN_FACTOR`` clustering bands from both
    spectra.
    """
    ops = (pair.op1, pair.op2)
    margins = [
        Tolerance.DELTA_PRIME_MARGIN_FACTOR * (Tolerance.CLUSTERING_SCALE * op.scale)
        for op in ops
    ]

    def counted_reals(op):
        spec, included = selection(op, interval)
        return [spec.re[i] for i in included]

    tried = 0

    def walk(lo: float, hi: float, above: float):
        """The first candidate of (lo, hi) above ``above`` clear of both spectra."""
        nonlocal tried
        for x in _window_candidates(lo, hi):
            tried += 1
            if x > above and interval.contains(x) and all(
                clear_of(op, x, margin) for op, margin in zip(ops, margins)
            ):
                return x
        return None

    reals1, reals2 = counted_reals(pair.op1), counted_reals(pair.op2)
    for targets in ((reals1 + reals2), reals1):
        a = walk(interval.lower, min(targets) if targets else interval.upper, -math.inf)
        if a is None:
            continue
        b = walk(max(targets) if targets else a, interval.upper, a)
        if b is not None:
            return Interval(a, b)
    raise DeltaPrimeSearchError(
        f"no admissible inner endpoints inside {interval} "
        f"after {tried} deterministic candidates"
    )


def _sweep_cuts(pair: OperatorPair) -> list[float]:
    """The cuts between well-separated joint eigenvalues, ascending: each
    keeps ``SWEEP_MARGIN_FACTOR`` times the larger endpoint guard from both
    spectra."""
    ops = (pair.op1, pair.op2)
    guard = max(Tolerance.ENDPOINT_GUARD_SCALE * op.scale for op in ops)
    margin = Tolerance.SWEEP_MARGIN_FACTOR * guard
    reals = sorted(spectrum(pair.op1).real_re + spectrum(pair.op2).real_re)
    cuts = []
    for left, right in zip(reals, reals[1:]):
        cut = 0.5 * (left + right)
        if all(clear_of(op, cut, margin) for op in ops):
            if not cuts or cut - cuts[-1] > Tolerance.SWEEP_CUT_SCALE * max(1.0, abs(cut)):
                cuts.append(cut)
    return cuts


def sweep_windows(pair: OperatorPair) -> list[Interval]:
    """Full line plus the cuts between well-separated joint eigenvalues."""
    intervals = [Interval(-math.inf, math.inf)]
    ends = [-math.inf, *_sweep_cuts(pair), math.inf]
    if len(ends) > 2:
        intervals.extend(Interval(a, b) for a, b in zip(ends, ends[1:]))
    return intervals


def sweep_counts(pair: OperatorPair, tol: Tolerance = DEFAULT_TOL) -> tuple[list, list]:
    """``(cuts, counts)``: the cuts of :func:`sweep_windows`, ascending, and
    per window in its order ``(eig1, eig2, sig1, sig2, slack, all_hold)``,
    as :func:`verify_main_theorem` reports them.

    The whole line, the first window, is verified as such.  Each other
    window is counted by :func:`~pontgap.spectral.window_counts`, one call
    per operator over all the cuts.
    """
    cuts = _sweep_cuts(pair)
    counts = [_counts(verify_main_theorem(pair, Interval(-math.inf, math.inf), tol))]
    if not cuts:
        return cuts, counts
    ends = [-math.inf, *cuts, math.inf]
    n, kappa_plus, kappa_minus = pair.n, pair.space.kappa_plus, pair.space.kappa_minus
    for (plus1, minus1, zero1), (plus2, minus2, zero2) in zip(
        window_counts(pair.op1, ends, tol), window_counts(pair.op2, ends, tol)
    ):
        eig1, eig2 = plus1 + minus1 + zero1, plus2 + minus2 + zero2
        sig1, sig2 = plus1 - minus1, plus2 - minus2
        slack, _, *holds = _bounds(n, kappa_plus, kappa_minus, eig1, eig2, sig1, sig2,
                                   minus1 == minus2)
        counts.append((eig1, eig2, sig1, sig2, slack, all(holds)))
    return cuts, counts


def _counts(report: GapReport) -> tuple[int, int, int, int, int, bool]:
    return (report.eig1, report.eig2, report.sig1, report.sig2, report.slack,
            report.all_hold)


def _sign_split(op, sub: Subspace, a: float, b: float, decompose, tol):
    """Decompose an invariant subspace by the gap-form sign.

    ``decompose`` splits the compressed operator: the spectrum-interior
    splitting inside, the resolvent-gap one outside.  Returns
    ``(m_minus, m_plus)`` in ambient coordinates; a zero subspace splits
    trivially.
    """
    if sub.dim == 0:
        return Subspace.zero(op.dim), Subspace.zero(op.dim)
    _, compressed = restrict_operator(op, sub, tol)
    dec = decompose(compressed, a, b)
    return (
        Subspace(sub.basis @ dec.m_minus.basis),
        Subspace(sub.basis @ dec.m_plus.basis),
    )


def proof_witness(
    pair: OperatorPair, interval: Interval, tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """Reconstruct the bounding argument on concrete subspaces.

    For each operator the space splits into the gap subspace of the
    inner interval and its complement; each half splits again by the
    sign of the gap form.  The subspace K (agreement vectors inside
    A2's negative-outside/positive-inside part) is then pinched:

    * ``dim K >= dim_minus_out2 + dim_plus_in2 - n`` (lower bound),
    * ``dim K <= dim_minus_out1 + dim_plus_in1`` (upper bound),

    the latter because the projection Q1 onto A1's corresponding part
    stays injective on K.  Combining both yields the count chain
    ``eig2(delta') <= n + 2 kappa + eig1(delta)``.
    """
    dp = choose_delta_prime(pair, interval)
    a, b = dp.lower, dp.upper

    def halves(op):
        """Gap subspace of the inner interval, then (minus, plus) inside
        and (minus, plus) outside it."""
        inside = gap_subspace(op, dp, tol)
        outside = complement_subspace(op, dp, tol)
        return (
            inside,
            *_sign_split(op, inside, a, b, decompose_spectrum_inside, tol),
            *_sign_split(op, outside, a, b, decompose_resolvent_gap, tol),
        )

    in1, minus_in1, plus_in1, minus_out1, plus_out1 = halves(pair.op1)
    in2, minus_in2, plus_in2, minus_out2, plus_out2 = halves(pair.op2)
    q1 = oblique_projection(
        onto=sum_subspaces(minus_out1, plus_in1, tol),
        along=sum_subspaces(plus_out1, minus_in1, tol),
        tol=tol,
    )
    target2 = sum_subspaces(minus_out2, plus_in2, tol)
    k_sub = intersect_subspaces(target2, pair.agreement, tol)
    q1_injective = (
        k_sub.dim == 0
        or linalg.rank_tol(q1 @ k_sub.basis, tol) == k_sub.dim
    )

    eig1_delta = gap_inertia(pair.op1, interval, tol).dim
    eig2_delta = gap_inertia(pair.op2, interval, tol).dim
    n, kappa = pair.n, pair.space.kappa_minus
    sig1_dp = gap_inertia(pair.op1, dp, tol).sig
    sig2_dp = gap_inertia(pair.op2, dp, tol).sig

    return WitnessReport(
        delta_prime=dp,
        dim_minus_out1=minus_out1.dim,
        dim_plus_in1=plus_in1.dim,
        dim_minus_out2=minus_out2.dim,
        dim_plus_in2=plus_in2.dim,
        dim_k=k_sub.dim,
        q1_injective_on_k=q1_injective,
        lower_bound_ok=k_sub.dim >= minus_out2.dim + plus_in2.dim - n,
        upper_bound_ok=k_sub.dim <= minus_out1.dim + plus_in1.dim,
        eig1_delta_prime=in1.dim,
        eig2_delta_prime=in2.dim,
        eig1_delta=eig1_delta,
        eig2_delta=eig2_delta,
        chain_holds=in2.dim <= n + 2 * kappa + eig1_delta,
        sig_chain_holds=sig2_dp - sig1_dp <= n,
    )
