"""Spectra, root subspaces and interval counts for J-selfadjoint matrices.

An operator A on an indefinite space is J-selfadjoint when ``J A`` is
Hermitian.  Its spectrum is closed under conjugation; eigenvalue counts
over an open real interval are taken with algebraic multiplicity, via
the dimension of the corresponding sum of root subspaces.

Each operator memoizes, with lock-free reads, its eigendecomposition
(the raw eigenvalues, which the generator's margin check reads too, with
the eigenvectors where one ``eig`` call gave both) and its clustered
spectrum, both whatever the tolerance; per tolerance, a spectral table
and the verdict of :func:`_additive`; and, on a space with no negative
squares, the spectrum of a Hermitian matrix similar to it with the
running sums certified against it (:func:`_hilbert_sums`).  The
spectrum clusters the raw values within a band of ``CLUSTERING_SCALE``
times the operator's ``scale``, so it takes no norm of its own.  It, the
window searches and the gap-form splits read only bands, the class
constants of :class:`~pontgap.linalg.Tolerance`, and take no tolerance:
``rel`` and ``abs`` reach the table's rank cuts and the checks that take
a ``tol``.  The memo never changes any result.

One rule decides what every window counts: :func:`positions` places
each end among the real entries, treating an entry within the exact band
of an end as on it and raising for one within the guard band.
:func:`selection`, behind every gap and complement subspace, and
:func:`window_counts`, behind every count, read it.  The spectrum
carries its own sorted keys, so both bisect instead of scanning.

The table holds a root basis per eigenvalue and, per real eigenvalue,
the inertia of the Gram form on it, with the running sums of those rows
in ``real_re`` order.  A window's inertia is the difference of two
running sums where the rows add up, checked once per operator against
their stacked union (:func:`_additive`); otherwise the window's union
is stacked and counted.  Where the space has no negative squares, the
Gram is positive definite and the space a Hilbert space: every
eigenvalue is real and semisimple, every row would be (multiplicity, 0,
0), and a count builds no table and settles no verdict.  Its running
sums are the cumulative multiplicities of the real entries, certified
once against the ``eigvalsh`` of a Hermitian matrix similar to the
operator.  Elsewhere a count reads its operator's table through
:func:`_table`, which builds it alone where none is memoized.
:func:`prepare`, all that :mod:`pontgap.sweep` asks of this module,
memoizes what counting several operators needs: for those on a space
with no negative squares, the Hermitian spectra, one stacked
``eigvalsh`` per order; for the others, their tables, the missing ones
built together, then their verdicts.  The sweep prepares each batch, and
each table thread one operator on a CPU the sweep leaves idle, as a head
start only: what it fails to build, a count builds alone.  A table,
verdict or Hermitian spectrum is bitwise the same wherever it is built.
The witness and every gap subspace still read the table, built where
they first need a basis.  All tables go through
:func:`_build_tables`: one stacked ``eig`` per order, one stacked SVD
per order and number of owned eigenvectors, kernel SVDs where an
eigenvalue is defective, and one call of the package's inertia routine,
which stacks one values-only ``eigvalsh`` per order and basis width.

A count that reads the table, and every selection of root bases, first
asks the operator for one shared ``eig`` call
(:meth:`JSelfadjointOperator.share_eig`): up to order
``SHARED_EIG_MAX_DIM`` it gives both the raw eigenvalues and the table's
eigenvectors.  Otherwise, and where the raw eigenvalues were memoized
first (by a margin check or a printed spectrum), they come from one
``eigvals`` call, and the eigenvectors from the table's stacked ``eig``.
All go through one wrapper, so a failed iteration raises the same error
at every order.  An operator whose spectrum is all its callers read
never builds the table.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EigensolverError,
    EndpointInSpectrumError,
    IllPosedIntervalError,
    NonHermitianError,
    NumericalDefectError,
    SpectrumSymmetryError,
    ValidationError,
)
from .indefinite import (
    IndefiniteSpace,
    Inertia,
    Subspace,
    _inertias,
    subspace_inertia,
    validate_space,
)
from .linalg import DEFAULT_TOL, Tolerance, _grouped

__all__ = [
    "Interval",
    "Eigenvalue",
    "Spectrum",
    "JSelfadjointOperator",
    "validate_operator",
    "spectrum",
    "clear_of",
    "selection",
    "gap_subspace",
    "complement_subspace",
    "gap_inertia",
    "restrict_operator",
]


#: Largest order at which one ``eig`` call gives an operator's raw
#: eigenvalues as well as its eigenvectors.  LAPACK's xHSEQR hands a matrix
#: of order N <= NMIN = 75 to xLAHQR, where asking for the Schur form and
#: vectors only widens which rows and columns outside the active block are
#: updated, so ``eig`` and ``eigvals`` return the same bits.  Above it,
#: xLAQR0's aggressive early deflation (Braman, Byers & Mathias, SIAM J.
#: Matrix Anal. Appl. 23(4), 2002) lets their last bits differ, so above it
#: the spectrum keeps its own ``eigvals`` call and the table makes its own
#: ``eig`` call.
SHARED_EIG_MAX_DIM = 75

#: what a memo read returns for a key never stored
_MISSING = object()


@dataclass(frozen=True)
class Interval:
    """Open real interval; endpoints may be ``-inf`` / ``+inf``."""

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise IllPosedIntervalError("interval endpoints must not be NaN")
        if not lo < hi:
            raise IllPosedIntervalError(
                f"interval requires lower < upper, got ({lo}, {hi})"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper

    def finite_endpoints(self) -> tuple[float, ...]:
        lower, upper = self.lower, self.upper
        if math.isfinite(lower):
            return (lower, upper) if math.isfinite(upper) else (lower,)
        return (upper,) if math.isfinite(upper) else ()

    def __str__(self):
        return f"({self.lower}, {self.upper})"


@dataclass(frozen=True)
class Eigenvalue:
    """A clustered eigenvalue with its algebraic multiplicity."""

    value: complex
    multiplicity: int

    @property
    def is_real(self) -> bool:
        return self.value.imag == 0.0


@dataclass(frozen=True)
class Spectrum:
    """Clustered, conjugation-closed spectrum, sorted by (real, imag).

    Derived from the entries, and kept out of ``repr`` and equality, are
    two sorted keys: ``re``, the real parts of all entries, and
    ``real_indices`` with ``real_re``, the indices and real parts of the
    real entries.  Entries are sorted by (real, imag), so both real-part
    tuples are non-decreasing.
    """

    entries: tuple[Eigenvalue, ...]
    re: tuple[float, ...] = field(init=False, repr=False, compare=False)
    real_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    real_re: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        re = tuple(e.value.real for e in self.entries)
        real_indices = tuple(i for i, e in enumerate(self.entries) if e.is_real)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "real_indices", real_indices)
        object.__setattr__(self, "real_re", tuple(re[i] for i in real_indices))

    def values(self) -> list[complex]:
        return [e.value for e in self.entries]

    def near(self, x: float, radius: float) -> range:
        """Indices of every entry within ``radius`` of the real point ``x``.

        |lambda - x| >= |Re lambda - x|, so an entry within ``radius`` of x,
        real or not, has its real part within ``radius`` of x and is found
        by a bisect over all entries' real parts.  The bisect reaches out
        to twice the radius, so that rounding ``x -/+ 2 radius`` cannot
        drop such an entry: rounding moves it by half an ulp of x, and
        where an entry can be near x, |x| is at most about
        |lambda| <= ||A||_F <= the operator's ``scale``, whose ulp is far
        below the bands (1e-6 ``scale`` and up).  Callers test each candidate
        with the exact distance.
        """
        return range(
            bisect_left(self.re, x - 2.0 * radius),
            bisect_right(self.re, x + 2.0 * radius),
        )


@dataclass(frozen=True, eq=False)
class JSelfadjointOperator:
    """A J-selfadjoint matrix on an indefinite space.

    Construct through :func:`validate_operator`.  Instances memoize
    spectral computations; the memo is internal and thread-safe.  A read
    takes no lock: a memo hit is one dictionary read.  Each value, the
    eigenvalues with their eigenvectors too, is one entry, and the one
    store, :meth:`_store`, takes the lock and keeps the first value stored
    under its key.  A build runs outside the lock, since builds nest (the
    spectrum's reads the raw eigenvalues), so threads that miss together
    may each build, and all of them get the value stored first.
    """

    space: IndefiniteSpace
    matrix: np.ndarray = field(repr=False)
    #: ``||A||_F``, taken once at construction
    norm: float = field(init=False, repr=False)
    #: ``max(1, norm)``, the unit of the spectral bands
    scale: float = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)
        object.__setattr__(self, "norm", linalg.frob(self.matrix))
        object.__setattr__(self, "scale", max(1.0, self.norm))

    @property
    def dim(self) -> int:
        return self.space.dim

    def _cached(self, key, build, *args):
        """The value memoized under ``key``, else ``build(*args)``, stored
        unless another thread stored first (see the class docstring)."""
        value = self._memo.get(key, _MISSING)
        if value is not _MISSING:
            return value
        return self._store(key, build(*args))

    def _store(self, key, value):
        """Memoize ``value`` under ``key`` unless a value is stored there
        already, and return the stored one."""
        with self._lock:
            return self._memo.setdefault(key, value)

    def raw_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``matrix``, unclustered: those of the shared ``eig``
        call if :meth:`share_eig` made it first, else of one ``eigvals`` call."""
        eigen = self._memo.get(("eigen",))
        return _take_eigenvalues([self])[0] if eigen is None else eigen[0]

    def share_eig(self) -> None:
        """Memoize the eigendecomposition of one ``eig`` call, the raw
        eigenvalues with the table's eigenvectors, if the order is at most
        ``SHARED_EIG_MAX_DIM`` and none is memoized yet.  The eigenvectors
        are checked only where the table reads them."""
        if ("eigen",) in self._memo or self.dim > SHARED_EIG_MAX_DIM:
            return
        values, vectors = _geev(np.linalg.eig, self.matrix)
        values.setflags(write=False)
        vectors.setflags(write=False)
        self._store(("eigen",), (values, vectors))


def _take_eigenvalues(ops) -> list[np.ndarray]:
    """The raw eigenvalues of each of ``ops``, distinct operators with none
    memoized, read-only and without eigenvectors, which each memoizes (or
    the values another thread stored first): one ``eigvals`` call per
    order, stacked (see :func:`linalg._stacked`), so each operator gets
    the bits of its unstacked call."""
    solved = linalg._stacked(
        lambda a: _geev(np.linalg.eigvals, a), [op.matrix for op in ops]
    )
    for values in solved:
        values.setflags(write=False)
    return [op._store(("eigen",), (values, None))[0] for op, values in zip(ops, solved)]


def _geev(solve, a):
    """``solve(a)`` for ``np.linalg.eig`` or ``eigvals``, on a matrix or a
    stack of them: the package's one geev wrapper.  A failed iteration
    raises :class:`EigensolverError`."""
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc


def validate_operator(
    space: IndefiniteSpace, a, tol: Tolerance = DEFAULT_TOL
) -> JSelfadjointOperator:
    """Check shape and J-selfadjointness (``J A`` Hermitian to tolerance).

    An operator whose ``||A||_F`` or defect overflows cannot be checked
    and is rejected with a :class:`ValidationError`.
    """
    # an overflow is reported by the typed errors below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        m = linalg.as_complex_matrix(a, square=True)
        if m.shape[0] != space.dim:
            raise DimensionMismatchError(
                f"operator is {m.shape[0]}x{m.shape[1]}, space has dimension {space.dim}"
            )
        op = JSelfadjointOperator(space=space, matrix=m.copy())
        if not math.isfinite(op.norm):
            raise ValidationError(f"operator norm overflows: ||A||_F = {op.norm}")
        ja = space.gram @ op.matrix
        defect = linalg.frob(ja - ja.conj().T)
        if not math.isfinite(defect):
            raise ValidationError(
                f"J-selfadjointness defect overflows: ||JA - (JA)^*||_F = {defect}"
            )
        if not defect <= tol.singular_cutoff(space.norm * op.norm):
            raise NonHermitianError(
                f"operator is not J-selfadjoint: ||JA - (JA)^*||_F = {defect:.3e}"
            )
        return op


def _pair_conjugates(values, matrix_norm_scale):
    """Symmetrize non-real clusters into exact conjugate pairs."""
    pair_tol = Tolerance.PAIRING_FACTOR * Tolerance.CLUSTERING_SCALE * matrix_norm_scale
    reals, positive, negative = [], [], []
    for value, mult in values:
        if abs(value.imag) <= Tolerance.REALNESS_SCALE * max(1.0, abs(value)):
            reals.append((complex(value.real, 0.0), mult))
        elif value.imag > 0:
            positive.append((value, mult))
        else:
            negative.append((value, mult))
    paired = []
    remaining = list(negative)
    for value, mult in sorted(positive, key=lambda vm: (vm[0].real, vm[0].imag)):
        target = value.conjugate()
        best, best_dist = None, math.inf
        for i, (nv, _) in enumerate(remaining):
            dist = abs(nv - target)
            if dist < best_dist:
                best, best_dist = i, dist
        if best is None or best_dist > pair_tol:
            raise SpectrumSymmetryError(
                f"eigenvalue {value} has no conjugate partner within {pair_tol:.3e}"
            )
        nv, nm = remaining.pop(best)
        if nm != mult:
            raise SpectrumSymmetryError(
                f"conjugate pair {value} / {nv} has multiplicities {mult} != {nm}"
            )
        center = 0.5 * (value + nv.conjugate())
        paired.append((center, mult))
        paired.append((center.conjugate(), mult))
    if remaining:
        raise SpectrumSymmetryError(
            f"unpaired eigenvalues below the real axis: {[v for v, _ in remaining]}"
        )
    return reals + paired


def spectrum(op: JSelfadjointOperator) -> Spectrum:
    """Clustered spectrum with realness snapping and conjugate pairing."""
    return op._cached(("spectrum",), _clustered, op)


def _clustered(op: JSelfadjointOperator) -> Spectrum:
    # eigenvalues near the overflow threshold can overflow their distances
    # and cluster means; an overflow is reported by a typed error, not by
    # numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        clusters = linalg.complex_eigen(
            op.raw_eigenvalues(), Tolerance.CLUSTERING_SCALE * op.scale
        )
    _check_finite(clusters)
    symmetrized = _pair_conjugates(clusters, op.scale)
    _check_finite(symmetrized)
    entries = tuple(
        Eigenvalue(value=v, multiplicity=m)
        for v, m in sorted(symmetrized, key=lambda vm: (vm[0].real, vm[0].imag))
    )
    return Spectrum(entries=entries)


def _check_finite(values) -> None:
    """Raise :class:`ValidationError`, an input error, where a clustered or
    paired eigenvalue of ``values``, a list of (value, multiplicity),
    overflowed."""
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v, _ in values):
        raise ValidationError("a cluster of eigenvalues overflows")


def clear_of(op: JSelfadjointOperator, x: float, margin: float) -> bool:
    """Whether no spectrum entry lies within ``margin`` of the real point ``x``
    (every entry at distance ``>= margin``)."""
    spec = spectrum(op)
    return all(abs(spec.entries[i].value - x) >= margin for i in spec.near(x, margin))


@dataclass(frozen=True, eq=False)
class _SpectralTable:
    """Per spectrum entry: orthonormal root basis and, if the entry is real,
    its compressed-Gram inertia; and the running sums of the real rows.  All
    bases are built at once, so a defective root basis at any entry fails
    every count of the operator.  Tables compare by identity."""

    bases: tuple[np.ndarray, ...]
    inertias: tuple[Inertia | None, ...]
    #: entry k: the (plus, minus, zero) of the first k real rows in
    #: ``Spectrum.real_re`` order, summed
    sums: tuple[tuple[int, int, int], ...]


def _root_basis(op, entry: Eigenvalue, start: np.ndarray, tol):
    """The orthonormal ``start`` (the eigenvectors' span); at a defective
    eigenvalue, grown one power of ``A - lambda I`` at a time through
    re-orthonormalized kernels."""
    basis = start
    if basis.shape[1] < entry.multiplicity:
        eye = np.eye(op.dim, dtype=complex)
        m_shift = op.matrix - entry.value * eye
        kernel_tol = replace(tol, abs=min(tol.ROOT_NULLITY_SCALE * op.scale, 0.1))
        while basis.shape[1] < entry.multiplicity:
            lifted = (eye - basis @ basis.conj().T) @ m_shift
            grown = linalg.null_space(lifted, kernel_tol)
            if grown.shape[1] <= basis.shape[1]:
                break
            basis = grown
    if basis.shape[1] != entry.multiplicity:
        raise NumericalDefectError(
            f"root subspace of {entry.value} has dimension {basis.shape[1]}, "
            f"algebraic multiplicity is {entry.multiplicity}"
        )
    return basis


def _table(op, tol: Tolerance) -> _SpectralTable:
    """The operator's spectral table for ``tol``, memoized; built alone
    where none is."""
    return op._cached(("table", tol.rel, tol.abs), lambda: _build_tables([op], tol)[0])


def prepare(ops, tol: Tolerance) -> None:
    """Memoize what counting ``ops`` needs for ``tol``.  An operator on a
    space with no negative squares needs only its Hermitian spectrum
    (see :func:`_hermitian_spectra`); those missing are taken together.
    Every other needs its table, the missing ones built together (see
    :func:`_build_tables`), then its verdict (see :func:`_additive`).  A
    failed build raises and memoizes no table."""
    theta = ("theta",)
    hilbert = [op for op in dict.fromkeys(ops) if not op.space.kappa_minus]
    missing = [op for op in hilbert if theta not in op._memo]
    for op, values in zip(missing, _hermitian_spectra(missing)):
        op._store(theta, values)
    ops = [op for op in ops if op.space.kappa_minus]
    key = ("table", tol.rel, tol.abs)
    missing = list(dict.fromkeys(op for op in ops if key not in op._memo))
    for op, table in zip(missing, _build_tables(missing, tol)):
        op._store(key, table)
    for op in ops:
        _additive(op, tol)


def _build_tables(ops, tol: Tolerance) -> list[_SpectralTable]:
    """The tables of distinct operators, built together: one stacked ``eig``
    per order, for the operators without shared eigenvectors; one stacked
    SVD per order and number of eigenvectors an entry owns, for the
    orthonormal span of each entry's eigenvectors; kernel SVDs where an
    eigenvalue is defective; and one call of the inertia routine over every
    real root basis, which stacks one ``eigvalsh`` per order and basis width.
    Each LAPACK routine runs matrix by matrix, and each rank is cut per
    matrix as in :func:`linalg.orthonormal_columns`, so a table that
    :func:`prepare` builds with others is bitwise the one
    :func:`_table` builds alone.

    A failure raises: a stacked call's before any entry grows, then the
    first entry's in order.
    """
    entries = [spectrum(op).entries for op in ops]
    # the spectrum memoized each operator's eigendecomposition
    eigen = [op._memo[("eigen",)] for op in ops]
    unshared = [j for j, (_, vectors) in enumerate(eigen) if vectors is None]
    for _, members in _grouped([ops[j].dim for j in unshared]):
        members = [unshared[i] for i in members]
        stack = np.stack([ops[j].matrix for j in members])
        for j, values, vectors in zip(members, *_geev(np.linalg.eig, stack)):
            eigen[j] = values, vectors

    # each eigenvector joins the entry nearest its own eigenvalue; a
    # distance that overflows is inf, and so not the nearest
    with np.errstate(over="ignore", invalid="ignore"):
        distances = [np.abs(raw[:, None] - np.array([e.value for e in op_entries]))
                     for op_entries, (raw, _) in zip(entries, eigen)]
    # per (order, owned width): each operator's entries and their owned columns
    owned, starts = {}, []
    for op_entries, (_, vectors), distance in zip(entries, eigen, distances):
        d = len(vectors)
        owner = distance.argmin(axis=1).tolist() if op_entries else []
        columns = [[] for _ in op_entries]
        for c, i in enumerate(owner):
            columns[i].append(c)
        finite_columns = np.isfinite(vectors).all(axis=0)
        start = [np.zeros((d, 0), dtype=complex) for _ in columns]
        for k, members in _grouped([len(c) for c in columns]):
            if k == 0:
                continue
            index = [columns[i] for i in members]
            finite = finite_columns[index].all(axis=1)
            members = np.array(members)
            for i in members[~finite]:
                start[i] = None
            # stack[m] is vectors[:, owner == members[m]]
            stack = np.moveaxis(vectors[:, index], 0, 1)[finite]
            owned.setdefault((d, k), []).append((start, members[finite], stack))
        starts.append(start)
    for _, parts in sorted(owned.items()):
        stack = parts[0][2] if len(parts) == 1 else np.concatenate(
            [stack for _, _, stack in parts]
        )
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        ranks = (s > np.maximum(tol.abs, tol.rel * s[:, :1])).sum(axis=1)
        at = 0
        for start, members, _ in parts:
            for i, basis, rank in zip(members, u[at:], ranks[at:]):
                start[i] = basis[:, :rank]
            at += len(members)

    bases = []
    for op, op_entries, op_starts in zip(ops, entries, starts):
        bases.append([])
        for entry, start in zip(op_entries, op_starts):
            if start is None:
                raise ValidationError("matrix entries must be finite")
            bases[-1].append(_root_basis(op, entry, start, tol))
    reals = [(j, i) for j in range(len(ops)) for i, e in enumerate(entries[j]) if e.is_real]
    rows = [[None] * len(e) for e in entries]
    items = [(ops[j].space, bases[j][i]) for j, i in reals]
    for (j, i), inertia in zip(reals, _inertias(items)):
        rows[j][i] = inertia
    for op_bases in bases:
        for basis in op_bases:
            basis.setflags(write=False)
    return [
        _SpectralTable(tuple(b), tuple(r), _running_sums(r)) for b, r in zip(bases, rows)
    ]


def _hermitian_spectra(ops) -> list[np.ndarray]:
    """theta, the ascending eigenvalues of the Hermitian M = D^{1/2} Q^* A Q
    D^{-1/2}, of each operator ``A`` on a space whose Gram ``J = Q D Q^*``
    is positive definite: M is similar to A, and Hermitian because ``J A``
    is.  The space keeps (D, Q) (``IndefiniteSpace._eigen``), so no
    Cholesky is taken.  Each M is formed alone, then one stacked
    ``eigvalsh`` per order solves them, matrix by matrix, so each theta is
    bitwise the one solved alone.  An M that overflows is an input error,
    :class:`ValidationError`."""
    forms = [_hermitian_form(op) for op in ops]
    spectra = [None] * len(ops)
    for _, members in _grouped([op.dim for op in ops]):
        stack = np.stack([forms[i] for i in members])
        for i, values in zip(members, linalg.hermitian_eigenvalues(stack)):
            values.setflags(write=False)
            spectra[i] = values
    return spectra


def _hermitian_form(op) -> np.ndarray:
    """The exactly Hermitian ``0.5 M + 0.5 M^*`` of :func:`_hermitian_spectra`."""
    w, q = op.space._eigen
    # an overflow is reported by the typed error below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(w)
        m = (root[:, None] * q.conj().T) @ op.matrix @ (q / root)
        # halved before the sum, which then cannot overflow
        m = 0.5 * m
        m = m + m.conj().T
    if not np.isfinite(m).all():
        raise ValidationError("the Hermitian form of the operator overflows")
    return m


def _hilbert_sums(op) -> tuple[int, ...]:
    """Entry k: how many eigenvalues, with multiplicity, the first k real
    entries of an operator on a space with no negative squares hold,
    memoized once certified.  There every eigenvalue is real and
    semisimple, so each table row would be (multiplicity, 0, 0).  The
    certificate: no entry is non-real, and theta (see
    :func:`_hermitian_spectra`) matches the real entries, each repeated by
    its multiplicity, pairwise in sorted order within the clustering band;
    else :class:`NumericalDefectError`.  Weyl's inequality bounds how far
    rounding moves each theta."""
    return op._cached(("hilbert",), _certified_sums, op)


def _certified_sums(op) -> tuple[int, ...]:
    entries = spectrum(op).entries
    for entry in entries:
        if not entry.is_real:
            raise NumericalDefectError(
                f"eigenvalue {entry.value} is not real, but the space has no "
                "negative squares"
            )
    multiplicities = [entry.multiplicity for entry in entries]
    theta = op._cached(("theta",), lambda: _hermitian_spectra([op])[0])
    reals = np.repeat([entry.value.real for entry in entries], multiplicities)
    gap = float(np.max(np.abs(theta - reals), initial=0.0))
    # written so that a NaN gap fails
    if not gap <= Tolerance.CLUSTERING_SCALE * op.scale:
        raise NumericalDefectError(
            f"the spectrum differs from that of its Hermitian form by {gap:.3e}"
        )
    return tuple(itertools.accumulate(multiplicities, initial=0))


def _running_sums(rows) -> tuple[tuple[int, int, int], ...]:
    """Entry k: the (plus, minus, zero) of the first k real ``rows``."""
    plus = minus = zero = 0
    sums = [(0, 0, 0)]
    for row in rows:
        if row is not None:
            plus, minus, zero = plus + row.plus, minus + row.minus, zero + row.zero
            sums.append((plus, minus, zero))
    return tuple(sums)


def positions(op: JSelfadjointOperator, points) -> list[tuple[int, int]]:
    """``(below, through)`` for each of the ascending ``points``: how many
    real entries, in ``Spectrum.real_re`` order, lie left of the point and
    not on it, and how many lie left of it or on it.

    The one rule of what a window counts: (a, b) counts the real entries
    from position ``through(a)`` up to ``below(b)``, none where the window
    is narrower than the entries on its ends.  An entry within the exact
    band of a finite point is on it, as if indistinguishable at machine
    resolution.  One within the guard band but not on it makes counting
    over the points' span ill-posed: the ambiguous entry of lowest index
    raises, at the lowest such point.
    """
    spec = spectrum(op)
    entries, real_re, real_indices = spec.entries, spec.real_re, spec.real_indices
    guard = Tolerance.ENDPOINT_GUARD_SCALE * op.scale
    exact = Tolerance.ENDPOINT_EXACT_SCALE * op.scale
    found = []
    ambiguous = None  # (entry index, point, distance), lowest index first
    for x in points:
        below, through = bisect_left(real_re, x), bisect_right(real_re, x)
        for idx in spec.near(x, guard):
            dist = abs(entries[idx].value - x)
            if dist <= exact:
                if entries[idx].is_real:
                    # the entries on x are adjacent in real_re order
                    k = bisect_left(real_indices, idx)
                    below, through = min(below, k), max(through, k + 1)
            elif dist <= guard and (ambiguous is None or idx < ambiguous[0]):
                ambiguous = (idx, x, dist)
        found.append((below, through))
    if ambiguous is not None:
        idx, x, dist = ambiguous
        raise EndpointInSpectrumError(
            f"eigenvalue {entries[idx].value} lies within {dist:.3e} of "
            f"endpoint {x}; counting over ({points[0]}, {points[-1]}) is ill-posed",
            endpoint=x,
            eigenvalue=entries[idx].value,
            distance=dist,
        )
    return found


def selection(
    op: JSelfadjointOperator, interval: Interval
) -> tuple[Spectrum, tuple[int, ...]]:
    """The spectrum and the indices of its entries counted in the interval,
    by the rule of :func:`positions`.  The root bases of those entries are
    read next, so the spectrum comes from the shared ``eig`` call where the
    operator allows one."""
    op.share_eig()
    (_, start), (stop, _) = positions(op, (interval.lower, interval.upper))
    spec = spectrum(op)
    return spec, spec.real_indices[start : max(start, stop)]


def _union_basis(op, indices, tol) -> np.ndarray:
    """Orthonormal basis of the sum of the listed entries' root subspaces."""
    if not indices:
        return np.zeros((op.dim, 0), dtype=complex)
    bases = _table(op, tol).bases
    blocks = [bases[i] for i in indices]
    basis = linalg.orthonormal_columns(np.hstack(blocks), tol)
    want = sum(block.shape[1] for block in blocks)
    if basis.shape[1] != want:
        raise NumericalDefectError(
            f"root-subspace union has rank {basis.shape[1]}, expected {want}"
        )
    return basis


def gap_subspace(
    op: JSelfadjointOperator, interval: Interval, tol: Tolerance = DEFAULT_TOL
) -> Subspace:
    """Sum of root subspaces over real eigenvalues inside the interval."""
    _, included = selection(op, interval)
    return Subspace(_union_basis(op, included, tol))


def complement_subspace(
    op: JSelfadjointOperator, interval: Interval, tol: Tolerance = DEFAULT_TOL
) -> Subspace:
    """Sum of root subspaces over all eigenvalues *not* counted inside."""
    spec, included = selection(op, interval)
    excluded = tuple(i for i in range(len(spec.entries)) if i not in included)
    return Subspace(_union_basis(op, excluded, tol))


def _rows_add_up(op, tol) -> bool:
    """Whether the real rows sum to the inertia of their stacked union.  If
    that union has full rank, so has every window's: a subset of its
    columns cannot have a smaller least singular value."""
    rows = _table(op, tol).sums[-1]
    whole = Interval(-math.inf, math.inf)
    try:
        union = subspace_inertia(op.space, gap_subspace(op, whole, tol))
    except NumericalDefectError:
        return False
    return rows == (union.plus, union.minus, union.zero)


def _additive(op, tol) -> bool:
    """The verdict of :func:`_rows_add_up` for ``op`` and ``tol``, memoized."""
    return op._cached(("additive", tol.rel, tol.abs), _rows_add_up, op, tol)


def window_counts(
    op: JSelfadjointOperator, ends, tol: Tolerance
) -> list[tuple[int, int, int]]:
    """The (plus, minus, zero) inertia of the Gram form on the gap subspace
    of each window between adjacent ``ends``, which ascend.

    Root subspaces of distinct real eigenvalues are J-orthogonal, so by
    Sylvester's law a window's inertia is a sum of table rows, and the
    difference of two running sums at the positions of its ends.  That is
    checked once per operator on the whole real line; where the check
    fails, each window's union is stacked and counted instead.  On a space
    with no negative squares the running sums are the certified ones of
    :func:`_hilbert_sums`, and no table is read, so no eigenvector is
    asked for.  Elsewhere the table is read next, so the spectrum comes
    from the shared ``eig`` call where the operator allows one.
    """
    hilbert = not op.space.kappa_minus
    if not hilbert:
        op.share_eig()
    marks = positions(op, ends)
    spans = [(start, max(start, stop)) for (_, start), (stop, _) in zip(marks, marks[1:])]
    if hilbert:
        sums = _hilbert_sums(op)
        return [(sums[stop] - sums[start], 0, 0) for start, stop in spans]
    if not _additive(op, tol):
        real_indices = spectrum(op).real_indices
        counts = []
        for start, stop in spans:
            basis = _union_basis(op, real_indices[start:stop], tol)
            inertia = subspace_inertia(op.space, Subspace(basis))
            counts.append((inertia.plus, inertia.minus, inertia.zero))
        return counts
    sums = _table(op, tol).sums
    counts = []
    for start, stop in spans:
        (plus0, minus0, zero0), (plus, minus, zero) = sums[start], sums[stop]
        counts.append((plus - plus0, minus - minus0, zero - zero0))
    return counts


def gap_inertia(
    op: JSelfadjointOperator, interval: Interval, tol: Tolerance = DEFAULT_TOL
) -> Inertia:
    """Inertia of the Gram form on the gap subspace: the one window of
    :func:`window_counts`."""
    (counts,) = window_counts(op, (interval.lower, interval.upper), tol)
    return Inertia._of_counts(*counts)


def restrict_operator(
    op: JSelfadjointOperator, sub: Subspace, tol: Tolerance = DEFAULT_TOL
) -> tuple[IndefiniteSpace, JSelfadjointOperator]:
    """Compress operator and Gram form to an invariant subspace.

    ``sub`` must be A-invariant and J-nondegenerate; returns the
    compressed space (Gram ``B^* J B``) and operator (``B^* A B``)
    in the coordinates of the orthonormal basis B.
    """
    if sub.ambient_dim != op.dim:
        raise DimensionMismatchError("subspace does not live in the operator's space")
    b = sub.basis
    ab = op.matrix @ b
    compressed = b.conj().T @ ab
    residual = linalg.frob(ab - b @ compressed)
    if residual > tol.INVARIANCE_SLACK * op.scale:
        raise NumericalDefectError(
            f"subspace is not invariant (residual {residual:.3e})"
        )
    small_space = validate_space(b.conj().T @ (op.space.gram @ b), tol)
    return small_space, validate_operator(small_space, compressed, tol)
