"""Dense complex linear-algebra kernels with explicit tolerances.

Everything downstream (inertia, spectra, gap subspaces) reduces to the
handful of primitives here.  Hermitian eigenvalue and singular-value
work is delegated to LAPACK through numpy; the general eigenproblem of
an operator is solved where its result is memoized, in
:mod:`pontgap.spectral`.  A matrix from outside is checked for
Hermiticity once, by :func:`as_hermitian`, at the boundary that takes
it in; every matrix handed to :func:`hermitian_eigen`, the one ``eigh``
call, or to :func:`hermitian_eigenvalues`, the one ``eigvalsh`` call, is
exactly Hermitian by construction.  A caller that reads only eigenvalues
(every inertia count) takes the values-only call, so that no
eigenvectors are computed and thrown away.  :class:`Tolerance` is the whole
tolerance policy: when a singular value counts as zero, when two
eigenvalues count as one, when an imaginary part counts as noise, and
every other numeric band of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    NonHermitianError,
    SingularMatrixError,
    ValidationError,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "frob",
    "as_hermitian",
    "hermitian_eigen",
    "hermitian_eigenvalues",
    "complex_eigen",
    "rank_tol",
    "null_space",
    "solve",
    "orthonormal_columns",
]

@dataclass(frozen=True)
class Tolerance:
    """The tolerance policy: a relative/absolute pair and the fixed bands.

    ``rel`` scales with the data (``rel * sigma_max`` for rank cuts),
    ``abs`` is the floor; both lie in (0, 1) and reach only rank cuts and
    Hermiticity checks (root growth floors at ``ROOT_NULLITY_SCALE``).
    The bands below are class constants, not fields, and a function that
    reads only bands takes no ``Tolerance``: it reads them here, as
    ``Tolerance.X``.  ``||A||_F`` in their comments stands for the unit
    ``max(1, ||A||_F)``.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    #: eigenvalues closer than this times ||A||_F merge into one cluster
    CLUSTERING_SCALE: ClassVar[float] = 1e-6
    #: a non-real cluster's conjugate lies within this many clustering bands
    PAIRING_FACTOR: ClassVar[float] = 10.0
    #: |Im(lambda)| <= this times max(1, |lambda|) snaps to the real axis
    REALNESS_SCALE: ClassVar[float] = 1e-6
    #: generated |Im(lambda)| above this share of the realness band clears GEN_MIN_GAP
    GEN_REALNESS_FACTOR: ClassVar[float] = 0.1
    #: generated eigenvalues stay this far apart and, if non-real, off the real axis
    GEN_MIN_GAP: ClassVar[float] = 1e-3
    #: ambiguity band around interval endpoints, times ||A||_F
    ENDPOINT_GUARD_SCALE: ClassVar[float] = 1e-6
    #: closer to an endpoint than this times ||A||_F is on it (so outside)
    ENDPOINT_EXACT_SCALE: ClassVar[float] = 1e-12
    #: kernel cut while growing root subspaces at defects, times ||A||_F
    ROOT_NULLITY_SCALE: ClassVar[float] = 1e-7
    #: tolerated invariance residual of a subspace, times ||A||_F
    INVARIANCE_SLACK: ClassVar[float] = 1e-5
    #: inertia zero band, times ||J||_F (or ||G||_F for a gap form G)
    INERTIA_ZERO_SCALE: ClassVar[float] = 1e-8
    #: orthonormality defect ||B^* B - I||_F accepted for a subspace basis
    ORTHO_SLACK: ClassVar[float] = 1e-8
    #: subspace membership: residual within this many singular cutoffs of |v|
    MEMBERSHIP_FACTOR: ClassVar[float] = 1e3
    #: inner-interval endpoints clear both spectra by this many clustering bands
    DELTA_PRIME_MARGIN_FACTOR: ClassVar[float] = 1e3
    #: sweep cuts clear both spectra by this many endpoint guard bands
    SWEEP_MARGIN_FACTOR: ClassVar[float] = 100.0
    #: sweep cuts closer than this times max(1, |cut|) are one cut
    SWEEP_CUT_SCALE: ClassVar[float] = 1e-9

    def __post_init__(self):
        for name, value in (("rel", self.rel), ("abs", self.abs)):
            if not (0.0 < value < 1.0):
                raise ValidationError(
                    f"tolerance.{name} must lie in (0, 1), got {value!r}"
                )

    def singular_cutoff(self, sigma_max: float) -> float:
        return max(self.abs, self.rel * sigma_max)


DEFAULT_TOL = Tolerance()


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, validating finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D array, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def frob(a) -> float:
    """``||a||_F``, ``inf`` where it overflows, with no numpy warning.  The
    squares are summed as ``np.linalg.norm`` sums them, unscaled, so every
    norm keeps its bits where that sum does not overflow; where it does and
    every entry is finite, the norm is taken again of ``a`` divided by its
    largest real or imaginary part."""
    a = np.asarray(a, dtype=complex).ravel(order="K")
    re, im = a.real, a.imag
    with np.errstate(over="ignore", invalid="ignore"):
        squares = re.dot(re) + im.dot(im)
    if squares == math.inf and np.isfinite(a).all():
        peak = max(float(np.max(np.abs(re))), float(np.max(np.abs(im))))
        # a product of Python floats overflows to inf without a warning
        return peak * frob(a / peak)
    return math.sqrt(squares)


def as_hermitian(h, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """The Hermitian part ``0.5 (h + h^*)`` of an outside matrix, and ``||h||_F``.

    The package's one Hermiticity check, run once where a matrix comes in:
    ``||h - h^*||_F`` must lie within ``tol.singular_cutoff(||h||_F)``
    (else :class:`NonHermitianError`), and ``||h||_F`` must not overflow
    (else :class:`ValidationError`; every band in its unit would be inf).
    """
    # an overflow is reported by the typed error below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        h = as_complex_matrix(h, square=True)
        norm = frob(h)
        if not math.isfinite(norm):
            raise ValidationError(f"matrix norm overflows: ||h||_F = {norm}")
        defect = frob(h - h.conj().T)
        # written so that a NaN defect fails
        if not defect <= tol.singular_cutoff(norm):
            raise NonHermitianError(
                f"matrix is not Hermitian: ||h - h^*||_F = {defect:.3e}"
            )
        # halved before the sum, which then cannot overflow; elsewhere the
        # bits are those of 0.5 (h + h^*)
        return 0.5 * h + 0.5 * h.conj().T, norm


def hermitian_eigen(h):
    """Ascending real eigenvalues and unitary eigenvectors (as columns) of
    an exactly Hermitian matrix, or of a stack of them: the package's one
    ``eigh`` call.  A LAPACK failure raises :class:`EigensolverError`."""
    if h.shape[-1] == 0:
        return np.zeros(h.shape[:-1]), np.zeros(h.shape, dtype=complex)
    return _hermitian_solved(np.linalg.eigh, h)


def hermitian_eigenvalues(h):
    """Ascending real eigenvalues alone of an exactly Hermitian matrix, or
    of a stack of them: the package's one ``eigvalsh`` call, for callers
    that read no eigenvector.  A LAPACK failure raises the
    :class:`EigensolverError` of :func:`hermitian_eigen`."""
    if h.shape[-1] == 0:
        return np.zeros(h.shape[:-1])
    return _hermitian_solved(np.linalg.eigvalsh, h)


def _hermitian_solved(solve, h):
    """``solve(h)`` for ``np.linalg.eigh`` or ``eigvalsh``, with a LAPACK
    failure raised as :class:`EigensolverError`."""
    try:
        return solve(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"hermitian eigensolver failed: {exc}") from exc


def complex_eigen(values, threshold: float) -> list[tuple[complex, int]]:
    """Cluster computed eigenvalues.

    Values closer than ``threshold`` are merged (transitively) into a
    single value with summed multiplicity; the reported value is the
    mean of the cluster.  Returned sorted by ``(real, imag)``;
    multiplicities always sum to ``len(values)``.
    """
    ordered = sorted(values, key=lambda v: (v.real, v.imag))
    # |lambda - mu| >= |Re lambda - Re mu|, so each value is tested only
    # against the following ones whose real part lies within the threshold;
    # with no pair within it, the loop below would merge nothing
    if not _has_near_pair(ordered, threshold):
        return [(complex(v), 1) for v in ordered]
    # transitive merge of raw values, then of cluster means, so that
    # distinct reported values always differ by more than the threshold
    clusters = [(value, 1) for value in ordered]
    merged = True
    while merged:
        merged = False
        out: list[tuple[complex, int]] = []
        for value, count in sorted(clusters, key=lambda vc: (vc[0].real, vc[0].imag)):
            for i, (ov, oc) in enumerate(out):
                if abs(value - ov) <= threshold:
                    total = oc + count
                    out[i] = ((ov * oc + value * count) / total, total)
                    merged = True
                    break
            else:
                out.append((value, count))
        clusters = out
    clusters.sort(key=lambda vc: (vc[0].real, vc[0].imag))
    return [(complex(v), int(c)) for v, c in clusters]


def _has_near_pair(ordered, threshold: float) -> bool:
    """Whether two of the values, sorted by real part, lie within
    ``threshold`` of each other by ``complex_eigen``'s own test."""
    for i, value in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            other = ordered[j]
            if other.real - value.real > threshold:
                break
            if abs(other - value) <= threshold:
                return True
    return False


def _singular_values(m) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def _rank(s: np.ndarray, tol: Tolerance) -> int:
    """How many descending singular values ``s`` exceed the cutoff."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol.singular_cutoff(float(s[0]))))


def rank_tol(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``max(abs, rel*sigma_max)``."""
    return _rank(_singular_values(as_complex_matrix(m)), tol)


def null_space(m, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal basis of the kernel, as columns; of a stack of matrices
    (a 3-D array), the list of each one's basis, from one stacked SVD.

    The same singular-value cutoff as :func:`rank_tol` decides which
    directions belong to the kernel, so ``rank + nullity == cols``
    holds by construction.
    """
    if np.ndim(m) != 3:
        m = as_complex_matrix(m)
    else:
        m = np.asarray(m, dtype=complex)
        if m.size and not np.all(np.isfinite(m)):
            raise ValidationError("matrix entries must be finite")
    rows, cols = m.shape[-2:]
    if cols == 0 or rows == 0:
        basis = np.eye(cols, dtype=complex) if cols else np.zeros((0, 0), dtype=complex)
        return basis if m.ndim == 2 else [basis.copy() for _ in m]
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    if m.ndim == 2:
        return vh[_rank(s, tol):].conj().T
    return [v[_rank(row, tol):].conj().T for row, v in zip(s, vh)]


def solve(m, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve ``m x = b`` for invertible ``m``.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value of ``m`` is below the cutoff;
        the error carries that value.
    """
    m = as_complex_matrix(m, square=True)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != m.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has {b.shape[0]} rows, matrix has {m.shape[0]}"
        )
    _check_invertible(_singular_values(m), tol)
    if m.shape[0] == 0:
        return np.zeros_like(b)
    return np.linalg.solve(m, b)


def _check_invertible(s: np.ndarray, tol: Tolerance) -> None:
    """The cutoff test of a solve with a square matrix whose descending
    singular values are ``s``: :class:`SingularMatrixError`, carrying the
    smallest, where one lies at or below ``tol``'s cutoff.  A caller that
    solves with one matrix many times takes ``s`` once."""
    if _rank(s, tol) < len(s):
        smallest = float(s[-1])
        raise SingularMatrixError(
            f"matrix is singular to tolerance (sigma_min = {smallest:.3e})",
            smallest_singular_value=smallest,
        )


def orthonormal_columns(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the column span of ``m`` (SVD range)."""
    m = as_complex_matrix(m)
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank(s, tol)]


def _grouped(keys) -> list[tuple]:
    """Each distinct key, ascending, with the indices that have it."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.items())


def _stacked(solve, *columns) -> list:
    """``solve`` of each row of ``columns``, equal-length lists of arrays,
    in row order: the rows whose arrays have the same shapes in one call on
    their stacks, a lone row on its arrays as they are.  A ``solve`` that
    returns a tuple gives a tuple per row.  numpy's LAPACK gufuncs and
    ``matmul`` run matrix by matrix, and elementwise operations value by
    value, so a row of a stack gets the bits of its unstacked call (the
    differential test ``test_batched_draws_equal_one_config_draws`` in
    ``tests/test_gen.py`` checks this for every call of the generator)."""
    rows = list(zip(*columns))
    results = [None] * len(rows)
    for _, members in _grouped([tuple(a.shape for a in row) for row in rows]):
        if len(members) == 1:
            results[members[0]] = solve(*rows[members[0]])
            continue
        out = solve(*(np.stack(column) for column in zip(*(rows[i] for i in members))))
        for i, result in zip(members, zip(*out) if isinstance(out, tuple) else out):
            results[i] = result
    return results
