"""Spectra, root subspaces and interval counts for J-selfadjoint matrices.

An operator A on an indefinite space is J-selfadjoint when ``J A`` is
Hermitian.  Its spectrum is closed under conjugation; eigenvalue counts
over an open real interval are taken with algebraic multiplicity, via
the dimension of the corresponding sum of root subspaces.

Each operator memoizes, with lock-free reads, its eigendecomposition
(the raw eigenvalues, which the generator's margin check reads too, with
the eigenvectors where one ``eig`` call gave both) and its clustered
spectrum, both whatever the tolerance, and, per tolerance, a spectral
table: a root basis per eigenvalue and, per real eigenvalue, the
inertia of the Gram form on it.  The spectrum clusters the raw values
within a band of ``CLUSTERING_SCALE`` times the operator's ``scale``,
so it takes no norm of its own.  It, the window searches and the
gap-form splits read only bands, the class constants of
:class:`~pontgap.linalg.Tolerance`, and take no tolerance: ``rel`` and
``abs`` reach the table's rank cuts and the checks that take a ``tol``.
The table needs the eigenvectors, then the span of the eigenvectors
each entry owns, kernel SVDs where an eigenvalue is
defective, and the inertias of its real root bases from the package's
one inertia routine.  A count reads its operator's table through
:func:`_table`, which builds it alone where none is memoized, and its
verdict through :func:`_additive`; :func:`prepare`, all that
:mod:`pontgap.sweep` asks of this module, memoizes both for several
operators, building their missing tables together.  The sweep prepares
each batch, each table thread one operator on a CPU the sweep leaves idle,
and the sweep again in place what a thread failed to; all store through
the operator's thread-safe memo, and a table or verdict is bitwise the
same wherever it is built, so the output does not depend on where.  All
tables go through :func:`_build_tables`: one stacked ``eig`` per order,
one stacked SVD per order and number of owned eigenvectors, and one call
of the inertia routine, whose bases may lie in different spaces and which
stacks one ``eigh`` per order and basis width (for one generic operator,
one ``eig``, one SVD and one ``eigh``;
:func:`~pontgap.indefinite.subspace_inertia` runs the same routine on one
basis).  Window counts are sums of table rows, checked once per operator (see :func:`gap_inertia`); an operator whose spectrum
is all its callers read never builds the table.

:func:`selection`, behind every count and every gap and complement
subspace, first asks the operator for one shared ``eig`` call
(:meth:`JSelfadjointOperator.share_eig`): up to order
``SHARED_EIG_MAX_DIM`` it gives both the raw eigenvalues and the table's
eigenvectors.  Otherwise the raw eigenvalues come from one ``eigvals``
call, and the table's eigenvectors from the stacked ``eig`` call of its
build: above that order, and where the raw eigenvalues were memoized
first (by a margin check or a printed spectrum).  All go through one
wrapper, so a failed iteration raises the same error at every order.
The memo thus holds four things: the eigendecomposition, one entry of
the raw eigenvalues with the shared eigenvectors or ``None``; the
spectrum, which carries its own sorted keys; and, one of each per
tolerance, the table and the verdict of that check, which
:func:`_additive` reads or builds.  With the keys,
:func:`selection` and :func:`clear_of` bisect instead of scanning: a
window costs O(log m + k) for m entries, k of them near an endpoint or
counted.  The memo never changes any result.
"""

from __future__ import annotations

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
    _grouped,
    _inertias,
    subspace_inertia,
    validate_space,
)
from .linalg import DEFAULT_TOL, Tolerance

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
        return self._cached(("eigen",), _eigenvalues, self.matrix)[0]

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


def _eigenvalues(matrix) -> tuple[np.ndarray, None]:
    """The read-only values of one ``eigvals`` call, and no eigenvectors."""
    values = _geev(np.linalg.eigvals, matrix)
    values.setflags(write=False)
    return values, None


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
    clusters = linalg.complex_eigen(
        op.raw_eigenvalues(), Tolerance.CLUSTERING_SCALE * op.scale
    )
    symmetrized = _pair_conjugates(clusters, op.scale)
    entries = tuple(
        Eigenvalue(value=v, multiplicity=m)
        for v, m in sorted(symmetrized, key=lambda vm: (vm[0].real, vm[0].imag))
    )
    return Spectrum(entries=entries)


def clear_of(op: JSelfadjointOperator, x: float, margin: float) -> bool:
    """Whether no spectrum entry lies within ``margin`` of the real point ``x``
    (every entry at distance ``>= margin``)."""
    spec = spectrum(op)
    return all(abs(spec.entries[i].value - x) >= margin for i in spec.near(x, margin))


@dataclass(frozen=True, eq=False)
class _SpectralTable:
    """Per spectrum entry: orthonormal root basis and, if the entry is real,
    its compressed-Gram inertia.  All bases are built at once, so a defective
    root basis at any entry fails every count of the operator.  Tables
    compare by identity."""

    bases: tuple[np.ndarray, ...]
    inertias: tuple[Inertia | None, ...]


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
    """Memoize what counting ``ops`` needs for ``tol``: their missing tables,
    built together (see :func:`_build_tables`), then each one's verdict
    (see :func:`_additive`).  A failed build raises and memoizes no table."""
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
    real root basis, which stacks one ``eigh`` per order and basis width.
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

    # per (order, owned width): each operator's entries and their owned columns
    owned, starts = {}, []
    for op_entries, (raw, vectors) in zip(entries, eigen):
        d = len(vectors)
        # each eigenvector joins the entry nearest its own eigenvalue
        distances = np.abs(raw[:, None] - np.array([e.value for e in op_entries]))
        owner = distances.argmin(axis=1).tolist() if op_entries else []
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
    return [_SpectralTable(tuple(b), tuple(r)) for b, r in zip(bases, rows)]


def selection(
    op: JSelfadjointOperator, interval: Interval
) -> tuple[Spectrum, tuple[int, ...]]:
    """The spectrum and the indices of its entries counted in the interval.

    Raises when a finite endpoint falls ambiguously close to an
    eigenvalue; an eigenvalue indistinguishable from the endpoint at
    machine resolution is treated as sitting on it (hence outside).
    A count reads the table next, so the spectrum comes from the shared
    ``eig`` call where the operator allows one.
    """
    op.share_eig()
    spec = spectrum(op)
    inside = spec.real_indices[
        bisect_right(spec.real_re, interval.lower) : bisect_left(
            spec.real_re, interval.upper
        )
    ]
    endpoints = interval.finite_endpoints()
    if not endpoints:
        return spec, inside
    guard = Tolerance.ENDPOINT_GUARD_SCALE * op.scale
    exact = Tolerance.ENDPOINT_EXACT_SCALE * op.scale
    on_endpoint = set()
    ambiguous = None  # (entry index, endpoint, distance), lowest index first
    for endpoint in endpoints:
        for idx in spec.near(endpoint, guard):
            dist = abs(spec.entries[idx].value - endpoint)
            if dist <= exact:
                on_endpoint.add(idx)
            elif dist <= guard and (ambiguous is None or idx < ambiguous[0]):
                ambiguous = (idx, endpoint, dist)
    if ambiguous is not None:
        idx, endpoint, dist = ambiguous
        raise EndpointInSpectrumError(
            f"eigenvalue {spec.entries[idx].value} lies within {dist:.3e} of "
            f"endpoint {endpoint}; counting over {interval} is ill-posed",
            endpoint=endpoint,
            eigenvalue=spec.entries[idx].value,
            distance=dist,
        )
    if not on_endpoint:
        return spec, inside
    return spec, tuple(i for i in inside if i not in on_endpoint)


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


def _row_sum(op, included, tol) -> Inertia:
    inertias = _table(op, tol).inertias
    plus = minus = zero = 0
    for i in included:
        row = inertias[i]
        plus, minus, zero = plus + row.plus, minus + row.minus, zero + row.zero
    return Inertia._of_counts(plus, minus, zero)


def _rows_add_up(op, tol) -> bool:
    """Whether the real rows sum to the inertia of their stacked union.  If
    that union has full rank, so has every window's: a subset of its
    columns cannot have a smaller least singular value."""
    whole = Interval(-math.inf, math.inf)
    rows = _row_sum(op, selection(op, whole)[1], tol)
    try:
        return rows == subspace_inertia(op.space, gap_subspace(op, whole, tol))
    except NumericalDefectError:
        return False


def _additive(op, tol) -> bool:
    """The verdict of :func:`_rows_add_up` for ``op`` and ``tol``, memoized."""
    return op._cached(("additive", tol.rel, tol.abs), _rows_add_up, op, tol)


def gap_inertia(
    op: JSelfadjointOperator, interval: Interval, tol: Tolerance = DEFAULT_TOL
) -> Inertia:
    """Inertia of the Gram form on the gap subspace.

    Root subspaces of distinct real eigenvalues are J-orthogonal, so by
    Sylvester's law it is a sum of table rows.  That is checked once per
    operator on the whole real line; where the check fails, each
    window's union is stacked and counted instead.
    """
    _, included = selection(op, interval)
    if _additive(op, tol):
        return _row_sum(op, included, tol)
    return subspace_inertia(op.space, gap_subspace(op, interval, tol))


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
