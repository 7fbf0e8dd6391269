"""The quadratic form certifying spectral location in an interval.

For real a < b the Hermitian matrix ``G = J (A - a)(A - b)`` represents
the form ``[(A - a)x, (A - b)x]``.  Its inertia flips between two dual
situations:

* ``[a, b]`` inside the resolvent set: inertia ``(d - kappa, kappa, 0)``,
  with a kappa-dimensional subspace of strictly negative form values;
* all of the (real) spectrum inside ``(a, b)``: inertia
  ``(kappa, d - kappa, 0)``, the signs reversed.

With a definite Gram (``J = I``, kappa = 0) this degenerates to the
classical semidefiniteness test on ``(T - a)(T - b)``, exposed here as
:func:`hilbert_gap_check`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InertiaMismatchError, PreconditionError, ValidationError
from .indefinite import Inertia, Subspace
from .linalg import DEFAULT_TOL, Tolerance
from .spectral import JSelfadjointOperator, spectrum

__all__ = [
    "GapForm",
    "GapCase",
    "GapDecomposition",
    "GapLocation",
    "build_gap_form",
    "decompose_resolvent_gap",
    "decompose_spectrum_inside",
    "hilbert_gap_check",
]


@dataclass(frozen=True, eq=False)
class GapForm:
    """Interval data (a, b) and the Hermitian matrix of the form.  Forms
    compare and hash by identity."""

    a: float
    b: float
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def evaluate(self, x) -> float:
        """Form value x^* G x (real up to roundoff)."""
        x = np.asarray(x, dtype=complex)
        return float((x.conj() @ (self.matrix @ x)).real)


class GapCase(enum.Enum):
    RESOLVENT_GAP = "resolvent_gap"
    SPECTRUM_INSIDE = "spectrum_inside"


@dataclass(frozen=True, eq=False)
class GapDecomposition:
    """Direct splitting of the space by the sign of the gap form.
    Decompositions compare and hash by identity."""

    case: GapCase
    form: GapForm
    inertia: Inertia
    m_minus: Subspace
    m_plus: Subspace


class GapLocation(enum.Enum):
    GAP_IN_RESOLVENT = "gap_in_resolvent"
    SPECTRUM_IN_CLOSURE = "spectrum_in_closure"
    NEITHER = "neither"


def _endpoints(a: float, b: float, what: str) -> tuple[float, float]:
    """``a`` and ``b`` as floats, which must be finite with ``a < b``."""
    a, b = float(a), float(b)
    if not a < b:
        raise PreconditionError(f"{what} requires a < b, got a={a}, b={b}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise PreconditionError(f"{what} endpoints must be finite")
    return a, b


def build_gap_form(op: JSelfadjointOperator, a: float, b: float) -> GapForm:
    """Assemble ``G = J (A - a)(A - b)``, symmetrized."""
    a, b = _endpoints(a, b, "gap form")
    d = op.dim
    eye = np.eye(d, dtype=complex)
    # G can overflow from finite A and J; where the form is read, an
    # overflow is reported by a typed error, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g = op.space.gram @ ((op.matrix - a * eye) @ (op.matrix - b * eye))
        return GapForm(a=a, b=b, matrix=0.5 * (g + g.conj().T))


def _signed_eigenspaces(form: GapForm, expected, reason: str):
    """Inertia of the form, which must be ``expected``, and its negative
    and positive eigenspaces."""
    # G is exactly Hermitian (build_gap_form symmetrizes it), but it or
    # its norm can overflow from finite A and J; an overflowing norm is
    # reported by the typed error below, not by numpy warnings
    g = linalg.as_complex_matrix(form.matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = linalg.frob(g)
    if not np.isfinite(norm):
        raise ValidationError(f"gap form norm overflows: ||G||_F = {norm}")
    w, v = linalg.hermitian_eigen(g)
    band = Tolerance.INERTIA_ZERO_SCALE * max(1.0, norm)
    inertia = Inertia.of_eigenvalues(w, band)
    if (inertia.plus, inertia.minus, inertia.zero) != expected:
        raise InertiaMismatchError(
            f"gap form inertia {(inertia.plus, inertia.minus, inertia.zero)} "
            f"differs from {expected} forced by {reason}",
            inertia=inertia,
        )
    # eigenvalues ascend: negative columns first, positive ones last
    negative = Subspace(v[:, : inertia.minus])
    positive = Subspace(v[:, inertia.minus + inertia.zero :])
    return inertia, negative, positive


def decompose_resolvent_gap(
    op: JSelfadjointOperator, a: float, b: float
) -> GapDecomposition:
    """Sign splitting when ``[a, b]`` lies in the resolvent set.

    Requires every eigenvalue to keep a guard distance from the
    segment [a, b].  The inertia of G must come out as
    ``(d - kappa, kappa, 0)``; ``m_minus`` (negative form values) then
    has dimension kappa and ``m_plus`` fills the rest.
    """
    form = build_gap_form(op, a, b)
    for entry in spectrum(op).entries:
        # distance from the eigenvalue to the real segment [a, b]
        dist = abs(entry.value - min(max(entry.value.real, form.a), form.b))
        if dist <= Tolerance.ENDPOINT_GUARD_SCALE * op.scale:
            raise PreconditionError(
                f"eigenvalue {entry.value} is within {dist:.3e} of "
                f"[{form.a}, {form.b}]; the segment must lie in the resolvent set"
            )
    kappa = op.space.kappa_minus
    inertia, negative, positive = _signed_eigenspaces(
        form, (op.dim - kappa, kappa, 0), "a resolvent gap"
    )
    return GapDecomposition(GapCase.RESOLVENT_GAP, form, inertia, negative, positive)


def decompose_spectrum_inside(
    op: JSelfadjointOperator, a: float, b: float
) -> GapDecomposition:
    """Sign splitting when the whole spectrum is real inside ``(a, b)``.

    The inertia of G must come out as ``(kappa, d - kappa, 0)``; here
    ``m_minus`` carries *positive* form values (dimension kappa) and
    ``m_plus`` negative ones, mirroring the resolvent-gap case.
    """
    form = build_gap_form(op, a, b)
    margin = Tolerance.ENDPOINT_GUARD_SCALE * op.scale
    for entry in spectrum(op).entries:
        if not entry.is_real:
            raise PreconditionError(
                f"spectrum must be real, found eigenvalue {entry.value}"
            )
        if not (form.a + margin < entry.value.real < form.b - margin):
            raise PreconditionError(
                f"eigenvalue {entry.value.real} is not inside "
                f"({form.a}, {form.b}) with margin"
            )
    kappa = op.space.kappa_minus
    inertia, negative, positive = _signed_eigenspaces(
        form, (kappa, op.dim - kappa, 0), "an interior spectrum"
    )
    return GapDecomposition(GapCase.SPECTRUM_INSIDE, form, inertia, positive, negative)


def hilbert_gap_check(t, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> GapLocation:
    """Classical semidefiniteness test for a Hermitian matrix.

    ``(T - a)(T - b) >= 0`` iff the open interval (a, b) misses the
    spectrum; ``<= 0`` iff the spectrum lies in the closure [a, b].
    Eigenvalues inside the zero band count as zero, so both criteria
    may hold simultaneously (spectrum exactly {a, b}); the resolvent
    verdict wins.  The endpoints must be finite, with ``a < b``.
    """
    a, b = _endpoints(a, b, "check")
    # (T - a)(T - b) has eigenvalues (w - a)(w - b), whose 2-norm is its
    # Frobenius norm
    wt = linalg.hermitian_eigenvalues(linalg.as_hermitian(t, tol)[0])
    # an overflow is reported by the typed error below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mu = (wt - a) * (wt - b)
    if not np.isfinite(mu).all():
        raise ValidationError("(T - a)(T - b) overflows")
    band = tol.INERTIA_ZERO_SCALE * max(1.0, linalg.frob(mu))
    inertia = Inertia.of_eigenvalues(mu, band)
    if inertia.minus == 0:
        return GapLocation.GAP_IN_RESOLVENT
    if inertia.plus == 0:
        return GapLocation.SPECTRUM_IN_CLOSURE
    return GapLocation.NEITHER
