"""Indefinite inner-product spaces and subspace geometry.

A space is C^d equipped with ``[x, y] = y^* J x`` for an invertible
Hermitian Gram matrix ``J``.  Its inertia ``(kappa_plus, kappa_minus)``
counts positive and negative eigenvalues of ``J``; ``kappa_minus`` is
the number of negative squares, the quantity every bound in
:mod:`pontgap.theorem` is expressed in.  Every inertia is counted by one
rule, ``_counted``, from eigenvalues and a zero band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NumericalDefectError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "Inertia",
    "IndefiniteSpace",
    "Subspace",
    "validate_space",
    "subspace_inertia",
    "sum_subspaces",
    "intersect_subspaces",
    "oblique_projection",
]


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / zero eigenvalues of a Hermitian form."""

    plus: int
    minus: int
    zero: int

    def __post_init__(self):
        if min(self.plus, self.minus, self.zero) < 0:
            raise ValidationError("inertia components must be non-negative")

    @classmethod
    def _of_counts(cls, plus: int, minus: int, zero: int) -> "Inertia":
        """An inertia of counts that are non-negative by construction, made
        without the check of ``__post_init__``."""
        inertia = object.__new__(cls)
        fields = inertia.__dict__
        fields["plus"], fields["minus"], fields["zero"] = plus, minus, zero
        return inertia

    @classmethod
    def of_eigenvalues(cls, w, zero_band: float) -> "Inertia":
        """Counts of ``w`` above ``zero_band``, below ``-zero_band`` and between."""
        return _counted(np.asarray(w)[None], zero_band)[0]

    @property
    def dim(self) -> int:
        return self.plus + self.minus + self.zero

    @property
    def sig(self) -> int:
        return self.plus - self.minus


@dataclass(frozen=True, eq=False)
class IndefiniteSpace:
    """C^dim with Gram matrix ``gram`` (Hermitian, invertible).

    Construct through :func:`validate_space`; the constructor assumes
    ``gram`` is already symmetrized.  Spaces compare and hash by
    identity; :meth:`same_space` compares their Gram matrices.  A space
    keeps its Gram's one ``eigh``: :func:`validate_space` hands over the
    one it counted the inertia with, and a space built directly takes it
    on first use.  The generator reads its eigenbasis, and its solves
    with ``gram`` read the singular values, which are the eigenvalues'
    moduli, so no SVD of the Gram is taken.
    """

    gram: np.ndarray = field(repr=False)
    kappa_plus: int
    kappa_minus: int
    #: ``||gram||_F``, taken once at construction
    norm: float = field(init=False, repr=False)
    #: ``max(1, norm)``, the unit of the inertia zero band
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.gram.setflags(write=False)
        object.__setattr__(self, "norm", linalg.frob(self.gram))
        object.__setattr__(self, "scale", max(1.0, self.norm))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gram's ascending eigenvalues and eigenvectors, read-only.
        Threads that take them together take the same bits, so either copy
        may stay."""
        return _read_only(linalg.hermitian_eigen(self.gram))

    @cached_property
    def _singular_values(self) -> np.ndarray:
        """The Gram's descending singular values, read-only: for Hermitian
        ``gram`` they are the moduli of its eigenvalues."""
        s = np.sort(np.abs(self._eigen[0]))[::-1]
        s.setflags(write=False)
        return s

    @property
    def kappa(self) -> int:
        """Number of negative squares (the kappa of all bounds)."""
        return self.kappa_minus

    def inner(self, x, y) -> complex:
        """Indefinite inner product [x, y] = y^* J x."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return complex(y.conj() @ (self.gram @ x))

    def same_space(self, other: "IndefiniteSpace") -> bool:
        return self.dim == other.dim and np.array_equal(self.gram, other.gram)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim given by an orthonormal column basis.
    Subspaces compare and hash by identity."""

    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = self.basis
        if b.shape[1] > 0:
            defect = float(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])))
            # written so that a NaN defect (a basis with NaNs) fails
            if not defect <= Tolerance.ORTHO_SLACK:
                raise ValidationError(
                    f"basis columns are not orthonormal (defect {defect:.3e})"
                )
        b.setflags(write=False)

    @classmethod
    def from_columns(cls, ambient_dim: int, columns, tol: Tolerance = DEFAULT_TOL):
        """Span of arbitrary columns, orthonormalized by SVD."""
        cols = np.asarray(columns, dtype=complex).reshape(ambient_dim, -1)
        return cls(linalg.orthonormal_columns(cols, tol))

    @classmethod
    def zero(cls, ambient_dim: int):
        return cls(np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim: int):
        return cls(np.eye(ambient_dim, dtype=complex))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Euclidean orthogonal projector onto the subspace."""
        return self.basis @ self.basis.conj().T

    def contains(self, vector, tol: Tolerance = DEFAULT_TOL) -> bool:
        v = np.asarray(vector, dtype=complex).reshape(self.ambient_dim)
        scale = float(np.linalg.norm(v))
        if scale == 0.0:
            return True
        cutoff = tol.singular_cutoff(scale) * tol.MEMBERSHIP_FACTOR
        return float(np.linalg.norm(v - self.projector() @ v)) <= cutoff


def validate_space(gram, tol: Tolerance = DEFAULT_TOL) -> IndefiniteSpace:
    """Check Hermiticity and invertibility of a Gram matrix.

    Returns the space with its inertia, counted from one ``eigh`` of the
    symmetrized Gram, which the space keeps.  A Gram eigenvalue inside the
    zero band ``tol.INERTIA_ZERO_SCALE * max(1, ||J||_F)`` makes the form
    degenerate and is rejected, and so is a Gram whose ``||J||_F``
    overflows.
    """
    j, norm = linalg.as_hermitian(gram, tol)
    eigen = _read_only(linalg.hermitian_eigen(j))
    w = eigen[0]
    band = tol.INERTIA_ZERO_SCALE * max(1.0, norm)
    inertia = Inertia.of_eigenvalues(w, band)
    if inertia.zero:
        smallest = float(np.min(np.abs(w)))
        raise SingularMatrixError(
            f"gram matrix is singular to tolerance (|eig|_min = {smallest:.3e})",
            smallest_singular_value=smallest,
        )
    space = IndefiniteSpace(
        gram=j,
        kappa_plus=inertia.plus,
        kappa_minus=inertia.minus,
    )
    object.__setattr__(space, "_eigen", eigen)
    return space


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _grouped(keys) -> list[tuple]:
    """Each distinct key, ascending, with the indices that have it."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.items())


def _inertias(items) -> list[Inertia]:
    """Inertia of the Gram form of each ``(space, basis)`` item compressed
    to its basis (each basis with a column or more).  The items may lie in
    different spaces: per order and basis width, one stacked ``B^* J B`` per
    space and one stacked ``eigvalsh`` over all spaces.  Each item's zero band
    scales with its ambient ``space.scale``, not the compressed norm, so
    neutral subspaces report their zeros.

    Each basis is checked for orthonormality and each compressed Gram for
    finiteness; the first item, in order, that fails raises.
    """
    groups, faults = {}, {}
    for ((_, w), _), members in _grouped((b.shape, id(space)) for space, b in items):
        space = items[members[0]][0]
        # a lone basis is viewed, not copied, so its products keep the bits
        # of the unstacked ones
        b = items[members[0]][1][None] if len(members) == 1 else np.stack(
            [items[i][1] for i in members]
        )
        gap = b.conj().swapaxes(1, 2) @ b - np.eye(w)
        # np.linalg.norm's own formula over the last two axes, without its checks
        defects = np.sqrt(np.add.reduce((gap.conj() * gap).real, axis=(1, 2)))
        g, finite = _compressed(space, b)
        # a NaN defect passes this test, and the finiteness test fails it
        skew = defects > Tolerance.ORTHO_SLACK
        bad = skew | ~finite
        if bad.any():
            for j in np.flatnonzero(bad):
                faults[members[j]] = ValidationError(
                    f"basis columns are not orthonormal (defect {defects[j]:.3e})"
                    if skew[j] else "matrix entries must be finite"
                )
        # the keys sort by shape first, so the shapes come in ascending order
        order, grams, bands = groups.setdefault(b.shape[1:], ([], [], []))
        order += members
        grams.append(g)
        bands.append(np.full(len(members), Tolerance.INERTIA_ZERO_SCALE * space.scale))
    if faults:
        raise faults[min(faults)]
    inertias = [None] * len(items)
    for order, grams, bands in groups.values():
        g = grams[0] if len(grams) == 1 else np.concatenate(grams)
        band = (bands[0] if len(bands) == 1 else np.concatenate(bands))[:, None]
        for i, inertia in zip(order, _counted(linalg.hermitian_eigenvalues(g), band)):
            inertias[i] = inertia
    return inertias


def _compressed(space: IndefiniteSpace, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram form compressed to each basis of the stack ``b``, as the
    stack of ``0.5 (G + G^*)`` for ``G = B^* (J B)``, and which are finite."""
    # an overflow is reported through the finiteness flags, not by numpy
    # warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g = b.conj().swapaxes(1, 2) @ (space.gram @ b)
        # 0.5 (g + g^*) is exactly Hermitian, so it needs no Hermiticity
        # check, and symmetrizing it again would change no bit
        g = 0.5 * (g + g.conj().swapaxes(1, 2))
    return g, np.isfinite(g).all(axis=(1, 2))


def _counted(values: np.ndarray, band) -> list[Inertia]:
    """The one counting rule: the inertia of each row of eigenvalues
    ``values`` against its zero ``band`` (a scalar, or one per row as a
    column).  What is neither above ``band`` nor below ``-band`` is zero:
    a value on ``±band``, and a NaN, which an overflowed form can give."""
    w = values.shape[-1]
    plus = (values > band).sum(axis=-1).tolist()
    minus = (values < -band).sum(axis=-1).tolist()
    return [Inertia._of_counts(p, m, w - p - m) for p, m in zip(plus, minus)]


def subspace_inertia(space: IndefiniteSpace, sub: Subspace) -> Inertia:
    """Inertia of the Gram form compressed to ``sub``.  The basis is not
    checked again: ``Subspace`` checked that it is orthonormal."""
    if sub.ambient_dim != space.dim:
        raise DimensionMismatchError(
            f"subspace lives in C^{sub.ambient_dim}, space is C^{space.dim}"
        )
    if sub.dim == 0:
        return Inertia(0, 0, 0)
    # the view _inertias takes of a lone basis, so the products keep its bits
    g, finite = _compressed(space, sub.basis[None])
    if not finite[0]:
        raise ValidationError("matrix entries must be finite")
    band = Tolerance.INERTIA_ZERO_SCALE * space.scale
    return _counted(linalg.hermitian_eigenvalues(g), band)[0]


def sum_subspaces(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of the union of two subspaces."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("subspaces live in different ambient spaces")
    stacked = np.hstack([s1.basis, s2.basis])
    return Subspace(linalg.orthonormal_columns(stacked, tol))


def intersect_subspaces(
    s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL
) -> Subspace:
    """Intersection via the joint kernel of both complement projectors.

    A vector lies in both subspaces iff it is annihilated by
    ``I - P1`` and ``I - P2``; stacking the two constraints and taking
    the null space keeps the computation rank-revealing.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("subspaces live in different ambient spaces")
    d = s1.ambient_dim
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(d)
    eye = np.eye(d, dtype=complex)
    stacked = np.vstack([eye - s1.projector(), eye - s2.projector()])
    return Subspace(linalg.null_space(stacked, tol))


def oblique_projection(
    onto: Subspace, along: Subspace, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Projection matrix onto ``onto`` along ``along``.

    The two subspaces must decompose the ambient space directly
    (dimensions summing to d and joint basis invertible).
    """
    if onto.ambient_dim != along.ambient_dim:
        raise DimensionMismatchError("subspaces live in different ambient spaces")
    d = onto.ambient_dim
    if onto.dim + along.dim != d:
        raise NumericalDefectError(
            f"direct sum must fill C^{d}: got {onto.dim} + {along.dim}"
        )
    t = np.hstack([onto.basis, along.basis])
    try:
        t_inv = linalg.solve(t, np.eye(d, dtype=complex), tol)
    except SingularMatrixError as exc:
        raise NumericalDefectError(
            f"subspaces are not complementary (sigma_min = "
            f"{exc.smallest_singular_value:.3e})"
        ) from exc
    return t[:, : onto.dim] @ t_inv[: onto.dim, :]
