import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from pontgap.errors import (
    DimensionMismatchError,
    EigensolverError,
    EndpointInSpectrumError,
    IllPosedIntervalError,
    NonHermitianError,
    NumericalDefectError,
    SpectrumSymmetryError,
    ValidationError,
)
from pontgap import indefinite, linalg
from pontgap.gen import (
    GenConfig,
    builtin_fixtures,
    random_operator,
    random_pair,
    random_space,
)
from pontgap.indefinite import (
    IndefiniteSpace,
    Inertia,
    Subspace,
    oblique_projection,
    subspace_inertia,
    validate_space,
)
from pontgap.linalg import DEFAULT_TOL, Tolerance, null_space
from pontgap.theorem import sweep_windows
from pontgap import spectral
from pontgap.spectral import (
    Eigenvalue,
    Interval,
    JSelfadjointOperator,
    Spectrum,
    complement_subspace,
    gap_inertia,
    gap_subspace,
    restrict_operator,
    spectrum,
    validate_operator,
)

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

FULL_LINE = Interval(-math.inf, math.inf)


def _example1_pair():
    space = validate_space(np.diag([1.0, -1.0]).astype(complex))
    a1 = validate_operator(space, np.array([[1, 1j], [1j, -1]], dtype=complex))
    a2 = validate_operator(space, np.diag([0.5, 1.0]).astype(complex))
    return space, a1, a2


def _example3_op1():
    space = validate_space(np.diag([-1.0, 1.0, 1.0]).astype(complex))
    a1 = validate_operator(
        space, np.array([[0, 100j, 0], [100j, 0, 0], [0, 0, 0]], dtype=complex)
    )
    return space, a1


# ---------------------------------------------------------------------------
# Interval


def test_interval_contains_is_open():
    iv = Interval(0.0, 1.0)
    assert iv.contains(0.5)
    assert not iv.contains(0.0)
    assert not iv.contains(1.0)


def test_interval_infinite_endpoints():
    iv = Interval(-math.inf, math.inf)
    assert iv.contains(1e300)
    assert iv.finite_endpoints() == ()
    assert Interval(0.0, math.inf).finite_endpoints() == (0.0,)


@pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (1.0, 1.0), (math.inf, math.inf)])
def test_interval_rejects_empty(lo, hi):
    with pytest.raises(IllPosedIntervalError):
        Interval(lo, hi)


def test_interval_rejects_nan():
    with pytest.raises(IllPosedIntervalError):
        Interval(math.nan, 1.0)


# ---------------------------------------------------------------------------
# validation


def test_validate_operator_accepts_j_selfadjoint():
    _, a1, _ = _example1_pair()
    assert a1.matrix[0, 1] == 1j


def test_validate_operator_rejects_non_j_selfadjoint():
    space = validate_space(np.diag([1.0, -1.0]))
    with pytest.raises(NonHermitianError):
        validate_operator(space, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_operator_checks_dimension():
    space = validate_space(np.diag([1.0, -1.0]))
    with pytest.raises(DimensionMismatchError):
        validate_operator(space, np.eye(3))


@pytest.mark.parametrize(
    "gram, matrix, message",
    [
        # JA overflows, and so does ||J||_F ||A||_F, so an inf defect would
        # pass an inf cutoff; here ||A||_F overflows first
        ([1e150, -1e150], [[0, 1e200], [0, 0]], r"operator norm overflows: \|\|A\|\|_F = inf"),
        # J-selfadjoint, but with ||A||_F = inf every spectral band would be inf
        ([1.0, -1.0], [[1e200, 0], [0, 1e200]], r"operator norm overflows: \|\|A\|\|_F = inf"),
        # both norms are finite, but the defect overflows, so it says nothing
        ([1e150, -1e150], [[0, 1e100], [0, 0]],
         r"J-selfadjointness defect overflows: \|\|JA - \(JA\)\^\*\|\|_F = inf"),
    ],
    ids=["ja-overflows", "norm-overflows", "defect-overflows"],
)
def test_validate_operator_rejects_what_overflows(gram, matrix, message):
    space = validate_space(np.diag(gram))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValidationError, match=f"^{message}$"
    ):
        validate_operator(space, matrix)


def test_validate_operator_takes_two_norms(monkeypatch):
    # ||A||_F, which the operator stores, and the defect; ||J||_F is the
    # space's stored norm
    space = validate_space(np.diag([0.25, -0.5]))
    calls = helpers.count_calls(monkeypatch, linalg, "frob")
    # J^-1 H for H = [[0.1, 0.05], [0.05, 0.2]], with ||A||_F below 1
    op = validate_operator(space, np.array([[0.4, 0.2], [-0.1, -0.4]]))
    assert len(calls) == 2
    assert op.norm == linalg.frob(op.matrix)
    assert op.scale == 1.0


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_defective_real_eigenvalue():
    # A1 is a Jordan block in disguise: one eigenvalue 0 of multiplicity 2
    _, a1, _ = _example1_pair()
    entries = spectrum(a1).entries
    assert len(entries) == 1
    assert entries[0].multiplicity == 2
    assert abs(entries[0].value) < 1e-9
    assert entries[0].is_real


def test_spectrum_simple_real_eigenvalues():
    _, _, a2 = _example1_pair()
    entries = spectrum(a2).entries
    assert [e.multiplicity for e in entries] == [1, 1]
    assert entries[0].value == pytest.approx(0.5, abs=1e-12)
    assert entries[1].value == pytest.approx(1.0, abs=1e-12)


def test_spectrum_conjugate_pair_snaps_symmetrically():
    _, a1 = _example3_op1()
    values = spectrum(a1).values()
    by_target = {
        target: min(values, key=lambda v: abs(v - target))
        for target in (-100j, 0.0, 100j)
    }
    assert by_target[0.0] == pytest.approx(0.0, abs=1e-9)
    assert by_target[100j] == pytest.approx(100j, abs=1e-9)
    # exact symmetry after pairing, not merely approximate
    assert by_target[-100j] == np.conj(by_target[100j])


@given(dims, st.integers(min_value=0, max_value=2), seeds)
def test_spectrum_is_conjugation_closed(d, kminus, seed):
    kminus = min(kminus, d)
    space = helpers.make_space(d, kminus, seed)
    op = helpers.make_operator(space, seed + 1)
    entries = spectrum(op).entries
    assert sum(e.multiplicity for e in entries) == d
    bag = {(e.value, e.multiplicity) for e in entries}
    assert {(np.conj(v), m) for v, m in bag} == bag


def test_spectrum_is_cached_per_operator():
    _, a1, _ = _example1_pair()
    assert spectrum(a1) is spectrum(a1)


def test_spectrum_carries_its_sorted_keys():
    entries = (
        Eigenvalue(-1 - 2j, 1), Eigenvalue(-1 + 2j, 1),
        Eigenvalue(0.5 + 0j, 2), Eigenvalue(3 + 0j, 1),
    )
    spec = Spectrum(entries=entries)
    assert spec.re == (-1.0, -1.0, 0.5, 3.0)
    assert spec.real_indices == (2, 3)
    assert spec.real_re == (0.5, 3.0)
    # the bisect reaches out to twice the radius; callers test distances
    assert spec.near(-1.0, 0.1) == range(0, 2)
    assert spec.near(1.0, 0.3) == range(2, 3)
    assert spec.near(10.0, 1.0) == range(4, 4)
    # equality, hashing and repr see the entries alone
    twin = Spectrum(entries=entries)
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(spec) == f"Spectrum(entries={entries!r})"
    assert spec != Spectrum(entries=entries[:3])


def test_operator_memoizes_raw_values_spectrum_table_and_verdict_only():
    space = helpers.make_space(5, 1, 3)
    pair = helpers.make_rank_perturbed_pair(space, 4, rank=1)
    windows = sweep_windows(pair)
    assert len(windows) > 1
    # spectra first, the raw values come from eigvals and the table's eig is
    # its own; counted cold, one shared eig call also leaves its eigenvectors
    cold = [validate_operator(space, op.matrix) for op in (pair.op1, pair.op2)]
    for op, shared in [(pair.op1, False), (pair.op2, False), *((t, True) for t in cold)]:
        for window in windows:
            gap_inertia(op, window)
        assert {key[0] for key in op._memo} == {"eigen", "spectrum", "table", "additive"}
        assert len(op._memo) == 4
        values, vectors = op._memo[("eigen",)]
        assert values is op.raw_eigenvalues()
        if shared:
            assert isinstance(vectors, np.ndarray) and vectors.shape == (5, 5)
        else:
            assert vectors is None


def test_failed_eigenvalue_iteration_is_a_typed_error(monkeypatch):
    # spectrum() fails in eigvals; a count fails in the shared eig call,
    # with the same class and message
    space = validate_space(np.diag([1.0, -1.0]).astype(complex))

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for solver, count in (
        ("eigvals", spectrum), ("eig", lambda op: gap_inertia(op, FULL_LINE))
    ):
        op = validate_operator(space, np.diag([1.0, 2.0]).astype(complex))
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, solver, failing)
            with pytest.raises(EigensolverError) as caught:
                count(op)
        assert str(caught.value) == (
            "eigenvalue iteration failed: Eigenvalues did not converge"
        )
        assert op._memo == {}
    # above SHARED_EIG_MAX_DIM the spectrum takes eigvals and the table its
    # own eig call, whose failure reads the same
    op = helpers.make_operator(helpers.make_space(80, 2, 1), 2)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eig", failing)
        with pytest.raises(EigensolverError) as caught:
            gap_inertia(op, FULL_LINE)
    assert str(caught.value) == (
        "eigenvalue iteration failed: Eigenvalues did not converge"
    )


@pytest.mark.parametrize(
    "diagonal, message",
    [
        ([1 + 1j, 2], "no conjugate partner"),
        ([1 + 1j, 1 + 1j, 1 - 1j], "multiplicities 2 != 1"),
        ([1 - 1j, 2], "unpaired eigenvalues below the real axis"),
    ],
)
def test_spectrum_rejects_unpaired_nonreal_eigenvalues(diagonal, message):
    # built directly: validate_operator would reject these before spectrum()
    space = validate_space(np.eye(len(diagonal), dtype=complex))
    op = JSelfadjointOperator(space=space, matrix=np.diag(diagonal).astype(complex))
    with pytest.raises(SpectrumSymmetryError, match=message):
        spectrum(op)


# ---------------------------------------------------------------------------
# root subspaces


def _root_subspace(op, value):
    """The table's root basis at the spectrum entry nearest ``value``."""
    values = spectrum(op).values()
    idx = min(range(len(values)), key=lambda i: abs(values[i] - value))
    assert abs(values[idx] - value) < 1e-9
    return Subspace(spectral._table(op, DEFAULT_TOL).bases[idx])


def test_root_subspace_of_defective_eigenvalue_fills_the_plane():
    _, a1, _ = _example1_pair()
    sub = _root_subspace(a1, 0.0)
    assert sub.dim == 2
    # the kernel itself is only one-dimensional
    kernel_dim = 2 - np.linalg.matrix_rank(a1.matrix)
    assert kernel_dim == 1


def test_root_subspace_simple_eigenvalue():
    _, _, a2 = _example1_pair()
    sub = _root_subspace(a2, 0.5)
    assert sub.dim == 1
    assert sub.contains(np.array([1.0, 0.0]))


@given(dims, seeds)
def test_root_subspaces_partition_dimension(d, seed):
    space = helpers.make_space(d, d // 3, seed)
    op = helpers.make_operator(space, seed + 2)
    bases = spectral._table(op, DEFAULT_TOL).bases
    assert len(bases) == len(spectrum(op).entries)
    assert sum(basis.shape[1] for basis in bases) == d


def test_root_subspace_of_length_three_jordan_chain():
    # A = N + 0.5 I is one Jordan block, J-selfadjoint for the flip J;
    # eig returns three parallel eigenvectors, so the kernel must grow
    space = validate_space(np.fliplr(np.eye(3)).astype(complex))
    op = validate_operator(space, np.eye(3, k=1) + 0.5 * np.eye(3))
    assert _root_subspace(op, 0.5).dim == 3
    assert gap_inertia(op, Interval(0.0, 1.0)) == Inertia(2, 1, 0)


def test_root_subspace_is_invariant():
    _, a1 = _example3_op1()
    sub = _root_subspace(a1, 100j)
    image = a1.matrix @ sub.basis
    coeff = sub.basis.conj().T @ image
    assert np.allclose(image, sub.basis @ coeff, atol=1e-8)


# ---------------------------------------------------------------------------
# interval counting


def test_eig_count_example1_hand_values():
    _, a1, a2 = _example1_pair()
    delta = Interval(0.25, 2.0)
    assert gap_inertia(a1, delta).dim == 0
    assert gap_inertia(a2, delta).dim == 2
    assert gap_inertia(a1, delta).sig == 0
    assert gap_inertia(a2, delta).sig == 0


def test_eig_count_ignores_nonreal_eigenvalues():
    _, a1 = _example3_op1()
    assert gap_inertia(a1, FULL_LINE).dim == 1  # only the real eigenvalue 0
    assert gap_inertia(a1, Interval(0.0, math.inf)).dim == 0  # 0 sits on the endpoint


def test_endpoint_guard_raises_in_ambiguous_band():
    _, _, a2 = _example1_pair()
    with pytest.raises(EndpointInSpectrumError) as info:
        gap_inertia(a2, Interval(0.50000001, 2.0))
    assert info.value.distance == pytest.approx(1e-8, rel=1e-3)


def test_exact_endpoint_hit_is_excluded_not_an_error():
    _, _, a2 = _example1_pair()
    assert gap_inertia(a2, Interval(0.5, 2.0)).dim == 1


def _unsafe_pair_op():
    """A non-real pair 0.5 +/- 8e-5i inside the endpoint guard (1e-4, since
    ||A||_F ~ 100) and outside the realness band (1e-6)."""
    gram = np.zeros((3, 3), dtype=complex)
    gram[0, 1] = gram[1, 0] = gram[2, 2] = 1.0
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = [[0.5, 1.0], [-(8e-5) ** 2, 0.5]]
    a[2, 2] = 100.0
    return validate_operator(validate_space(gram), a)


def test_nonreal_entry_inside_the_endpoint_guard_is_ambiguous():
    op = _unsafe_pair_op()
    assert [e.is_real for e in spectrum(op).entries] == [False, False, True]
    with pytest.raises(EndpointInSpectrumError) as info:
        gap_inertia(op, Interval(0.5, 200.0))
    assert info.value.endpoint == 0.5
    assert info.value.eigenvalue == pytest.approx(0.5 - 8e-5j, abs=1e-9)
    assert info.value.eigenvalue.imag < 0
    assert info.value.distance == pytest.approx(8e-5, rel=1e-4)
    assert gap_inertia(op, Interval(0.5003, 200.0)).dim == 1
    _assert_matches_full_scan(op, _probe_windows(op))


def _reference_selection(op, interval):
    """The per-entry loop that ``selection`` replaced, kept as its reference."""
    spec = spectrum(op)
    guard = Tolerance.ENDPOINT_GUARD_SCALE * op.scale
    exact = Tolerance.ENDPOINT_EXACT_SCALE * op.scale
    included = []
    for idx, entry in enumerate(spec.entries):
        on_endpoint = False
        for endpoint in interval.finite_endpoints():
            dist = abs(entry.value - endpoint)
            if dist <= exact:
                on_endpoint = True
            elif dist <= guard:
                raise EndpointInSpectrumError(
                    f"eigenvalue {entry.value} lies within {dist:.3e} of "
                    f"endpoint {endpoint}; counting over {interval} is ill-posed",
                    endpoint=endpoint,
                    eigenvalue=entry.value,
                    distance=dist,
                )
        if on_endpoint or not entry.is_real:
            continue
        if interval.contains(entry.value.real):
            included.append(idx)
    return spec, tuple(included)


def _reference_clear_of(op, x, margin):
    """The full distance scan that ``clear_of`` replaced."""
    dists = [abs(e.value - x) for e in spectrum(op).entries]
    return min(dists, default=math.inf) >= margin


def _reference_count(op, interval):
    """The table rows of the reference selection, summed one by one."""
    inertias = spectral._table(op, DEFAULT_TOL).inertias
    rows = [inertias[i] for i in _reference_selection(op, interval)[1]]
    return Inertia(
        sum(row.plus for row in rows),
        sum(row.minus for row in rows),
        sum(row.zero for row in rows),
    )


def _count_outcome(call, op, interval):
    """What ``call(op, interval)`` returns, or the details of the endpoint
    error it raises."""
    try:
        return call(op, interval)
    except EndpointInSpectrumError as exc:
        return type(exc), exc.endpoint, exc.eigenvalue, exc.distance, str(exc)


def _selection_outcome(select, op, interval):
    return _count_outcome(lambda op, interval: select(op, interval)[1], op, interval)


def _probe_windows(op):
    """Windows with an endpoint at each entry's real part, offset into and
    across the exact band and the guard band, and windows about each entry
    narrower than two exact bands and than two guard bands."""
    guard = DEFAULT_TOL.ENDPOINT_GUARD_SCALE * op.scale
    exact = DEFAULT_TOL.ENDPOINT_EXACT_SCALE * op.scale
    offsets = [0.0] + [
        sign * step
        for step in (exact / 2, guard / 2, guard, 1.5 * guard, 2.5 * guard)
        for sign in (-1.0, 1.0)
    ]
    for entry in spectrum(op).entries:
        centre = entry.value.real
        yield Interval(centre - guard / 2, centre + guard / 2)
        # on both ends, so counted by neither: a count of 0, never negative
        yield Interval(centre - exact / 2, centre + exact / 2)
        # ambiguous to both ends, nearer the upper: the lower is reported
        yield Interval(centre - 0.75 * guard, centre + 0.25 * guard)
        for x in (centre + offset for offset in offsets):
            yield from (
                Interval(x, math.inf), Interval(x, x + guard),
                Interval(-math.inf, x), Interval(x - guard, x),
            )


def _assert_matches_full_scan(op, windows):
    guard = DEFAULT_TOL.ENDPOINT_GUARD_SCALE * op.scale
    margins = (
        guard,
        DEFAULT_TOL.SWEEP_MARGIN_FACTOR * guard,
        DEFAULT_TOL.DELTA_PRIME_MARGIN_FACTOR * DEFAULT_TOL.CLUSTERING_SCALE * op.scale,
    )
    for window in windows:
        assert _selection_outcome(spectral.selection, op, window) == (
            _selection_outcome(_reference_selection, op, window)
        ), window
        assert _count_outcome(gap_inertia, op, window) == (
            _count_outcome(_reference_count, op, window)
        ), window
        for x in window.finite_endpoints():
            for margin in margins:
                assert spectral.clear_of(op, x, margin) == (
                    _reference_clear_of(op, x, margin)
                ), (x, margin)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("kminus", [0, 1, 2])
def test_selection_and_clear_of_match_the_full_scan(d, kminus):
    for _, pair in _ensemble(d, kminus):
        windows = sweep_windows(pair)
        for op in (pair.op1, pair.op2):
            _assert_matches_full_scan(op, windows + list(_probe_windows(op)))


def _kernel_growth_root_basis(op, value):
    """Reference root basis without eigenvectors: ker (A - value)^k by growth."""
    d = op.dim
    shift = op.matrix - value * np.eye(d)
    tol = Tolerance(abs=min(1e-7 * max(1.0, np.linalg.norm(op.matrix)), 0.1))
    basis = null_space(shift, tol)
    while True:
        grown = null_space((np.eye(d) - basis @ basis.conj().T) @ shift, tol)
        if grown.shape[1] <= basis.shape[1]:
            return basis
        basis = grown


def _ensemble(d, kminus):
    """Three seeded pairs on one shape, with ranks 0, 1 and 2."""
    for seed in range(3):
        space = helpers.make_space(d, kminus, 100 * d + seed)
        yield space, helpers.make_rank_perturbed_pair(space, 7 * d + seed, rank=seed % 3)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("kminus", [0, 1, 2])
def test_gap_inertia_sums_match_union_inertia(d, kminus):
    # per-eigenvalue rows summed, against the inertia of the stacked union
    # and of a union of root bases grown from kernels alone
    for space, pair in _ensemble(d, kminus):
        windows = sweep_windows(pair)
        assert windows[0] == FULL_LINE
        for op in (pair.op1, pair.op2):
            assert spectral._rows_add_up(op, DEFAULT_TOL)
            reals = [e.value for e in spectrum(op).entries if e.is_real]
            reference = {v: _kernel_growth_root_basis(op, v) for v in reals}
            for window in windows:
                union = subspace_inertia(space, gap_subspace(op, window))
                blocks = [reference[v] for v in reals if window.contains(v.real)]
                grown = Subspace.from_columns(d, np.hstack([np.zeros((d, 0))] + blocks))
                assert gap_inertia(op, window) == union
                assert gap_inertia(op, window) == subspace_inertia(space, grown)


class _Unreadable:
    """Running sums that fail any read, by index or by iteration."""

    def __getitem__(self, key):
        raise AssertionError("the fallback read a running sum")


def test_gap_inertia_falls_back_to_each_windows_union(monkeypatch):
    # an operator whose rows fail the whole-line check never sums them
    space = helpers.make_space(6, 1, 11)
    pair = helpers.make_rank_perturbed_pair(space, 12, rank=2)
    expected = {
        (op, window): subspace_inertia(space, gap_subspace(op, window))
        for op in (pair.op1, pair.op2)
        for window in sweep_windows(pair)
    }
    fresh = helpers.make_rank_perturbed_pair(space, 12, rank=2)
    monkeypatch.setattr(spectral, "_rows_add_up", lambda op, tol: False)
    build = spectral._build_tables
    monkeypatch.setattr(spectral, "_build_tables", lambda ops, tol: [
        replace(table, sums=_Unreadable()) for table in build(ops, tol)
    ])
    for (op, window), inertia in expected.items():
        twin = fresh.op1 if op is pair.op1 else fresh.op2
        assert gap_inertia(twin, window) == inertia


def test_rows_add_up_on_every_generated_and_hand_built_operator():
    # the traffic behind the verdict: on these operators no count takes
    # the per-window fallback
    ops = [
        validate_operator(validate_space(gram.astype(complex)), matrix)
        for gram, matrix in HAND_BUILT.values()
    ]
    for d in [*range(1, 13), 32]:
        for kappa, rank, seed in itertools.product(range(4), range(4), range(2)):
            if kappa <= d and rank <= d:
                cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=rank, seed=seed)
                pair = random_pair(random_space(cfg), cfg)
                ops += [pair.op1, pair.op2]
    verdict = ("additive", DEFAULT_TOL.rel, DEFAULT_TOL.abs)
    for op in ops:
        gap_inertia(op, FULL_LINE)
        assert op._memo[verdict] is True


def test_root_basis_defect_at_any_entry_fails_every_count(monkeypatch):
    # the table builds every root basis, non-real ones included
    _, a1 = _example3_op1()
    build = spectral._root_basis

    def failing(op, entry, vectors, tol):
        if not entry.is_real:
            raise NumericalDefectError("injected")
        return build(op, entry, vectors, tol)

    monkeypatch.setattr(spectral, "_root_basis", failing)
    with pytest.raises(NumericalDefectError, match="injected"):
        gap_inertia(a1, Interval(-1.0, 1.0))


def _reference_inertia(space, basis, tol=DEFAULT_TOL):
    """The inertia routine unstacked, as its reference, per basis: the
    orthonormality check (a NaN defect passes it, as in the routine, and
    the finiteness check that follows catches it), one ``B^* J B``, one
    finiteness check, one ``np.linalg.eigh`` and the zero-band count
    written out, so that the reference shares no code with the values-only
    ``eigvalsh`` wrapper or the counting rule under test."""
    defect = float(np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])))
    if defect > tol.ORTHO_SLACK:
        raise ValidationError(
            f"basis columns are not orthonormal (defect {defect:.3e})"
        )
    g = basis.conj().T @ (space.gram @ basis)
    g = linalg.as_complex_matrix(0.5 * (g + g.conj().T))
    w = np.linalg.eigh(g)[0]
    band = tol.INERTIA_ZERO_SCALE * space.scale
    return Inertia(
        plus=int(np.sum(w > band)),
        minus=int(np.sum(w < -band)),
        zero=int(np.sum(np.abs(w) <= band)),
    )


def _per_entry_table(op, tol=DEFAULT_TOL):
    """The table as built before its factorizations were stacked: one
    unstacked ``eig``, one SVD and one reference inertia per entry.
    ``_root_basis`` then took the owned eigenvectors and orthonormalized
    them itself."""
    entries = spectrum(op).entries
    # each eigenvector joins the entry nearest its own eigenvalue
    raw, vectors = np.linalg.eig(op.matrix)
    distances = np.abs(raw[:, None] - np.array([e.value for e in entries]))
    owner = distances.argmin(axis=1) if entries else []
    bases = tuple(
        spectral._root_basis(
            op, entry, linalg.orthonormal_columns(vectors[:, owner == i], tol), tol
        )
        for i, entry in enumerate(entries)
    )
    inertias = tuple(
        _reference_inertia(op.space, basis, tol)
        if entry.is_real else None
        for entry, basis in zip(entries, bases)
    )
    return bases, inertias


def _outcome(build):
    """Shapes and bytes of the bases with the inertias, or the error."""
    try:
        bases, inertias = build()
    except Exception as exc:
        return type(exc), str(exc)
    return [(b.shape, b.tobytes()) for b in bases], inertias


def _parts(table):
    return table.bases, table.inertias


def _assert_stacked_table_is_per_entry(op):
    # a twin, so that neither build reads the other's memo
    twin = validate_operator(op.space, op.matrix)
    outcome = _outcome(lambda: _parts(spectral._table(twin, DEFAULT_TOL)))
    assert outcome == _outcome(lambda: _per_entry_table(op))
    return outcome


def _flip(k):
    return np.eye(k)[::-1]


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    out = np.zeros((d, d), dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def _jordan(value, k):
    return value * np.eye(k) + np.eye(k, k=1)


#: (J, A) by hand: A is J-selfadjoint, since J A is real and symmetric
HAND_BUILT = {
    # 2 is semisimple of multiplicity 2, and its root space is indefinite
    "semisimple-double": (np.diag([1.0, -1.0, 1.0]), np.diag([2.0, 2.0, 3.0])),
    # Jordan chains at 0.5: the root basis grows past the eigenvectors' span
    "jordan-2": (
        _block_diag(_flip(2), np.diag([1.0, -1.0])),
        _block_diag(_jordan(0.5, 2), np.diag([2.0, -3.0])),
    ),
    "jordan-3": (
        _block_diag(_flip(3), np.eye(1)),
        _block_diag(_jordan(0.5, 3), 2.0 * np.eye(1)),
    ),
}


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("kminus", [0, 1, 2])
def test_stacked_table_equals_the_per_entry_build(d, kminus):
    for _, pair in _ensemble(d, kminus):
        for op in (pair.op1, pair.op2):
            _assert_stacked_table_is_per_entry(op)


def test_stacked_table_equals_the_per_entry_build_at_d96():
    cfg = GenConfig(dim=96, kappa_minus=2, pert_rank=2, seed=3)
    pair = random_pair(random_space(cfg), cfg)
    for op in (pair.op1, pair.op2):
        _assert_stacked_table_is_per_entry(op)


@pytest.mark.parametrize("case", list(HAND_BUILT))
def test_stacked_table_equals_the_per_entry_build_by_hand(case):
    gram, matrix = HAND_BUILT[case]
    op = validate_operator(validate_space(gram.astype(complex)), matrix)
    _assert_stacked_table_is_per_entry(op)
    widths = sorted(b.shape[1] for b in spectral._table(op, DEFAULT_TOL).bases)
    assert widths == {"semisimple-double": [1, 2], "jordan-2": [1, 1, 2],
                      "jordan-3": [1, 3]}[case]


def _eye_with_nan(row, col):
    vectors = np.eye(3, dtype=complex)
    vectors[row, col] = np.nan
    return vectors


@pytest.mark.parametrize(
    "raw, vectors, error",
    [
        # 1 owns no eigenvector and grows from a kernel; 2 owns two parallel ones
        ([2.0, 2.0, 3.0], np.eye(3, dtype=complex)[:, [1, 1, 2]], None),
        # 1 owns two independent eigenvectors but has multiplicity 1
        ([1.0, 1.0, 3.0], np.eye(3, dtype=complex), NumericalDefectError),
        # 1 owns none and grows; then 2 owns two independent ones
        ([2.0, 2.0, 3.0], np.eye(3, dtype=complex), NumericalDefectError),
        # 1 owns two eigenvectors, one of them not finite
        ([1.0, 1.0, 3.0], _eye_with_nan(0, 1), ValidationError),
    ],
    ids=["own-0-and-2", "own-2-too-many", "own-0-then-too-many", "non-finite"],
)
def test_stacked_table_equals_the_per_entry_build_on_odd_owners(
    monkeypatch, raw, vectors, error
):
    # eig is replaced, so that entries own no eigenvector or two of them; a
    # stack of matrices gets them once per matrix
    space = validate_space(np.diag([1.0, -1.0, 1.0]).astype(complex))
    op = validate_operator(space, np.diag([1.0, 2.0, 3.0]))
    monkeypatch.setattr(np.linalg, "eig", lambda a: (
        np.broadcast_to(np.array(raw, dtype=complex), a.shape[:-1]),
        np.broadcast_to(vectors, a.shape),
    ))
    outcome = _assert_stacked_table_is_per_entry(op)
    assert outcome[0] is error if error else len(outcome[0]) == 3


SPOIL = {"skew": lambda b: 2.0 * b, "nan": lambda b: np.full_like(b, np.nan)}


@pytest.mark.parametrize(
    "spoiled, message",
    [
        ({2.0: "skew"}, "basis columns are not orthonormal"),
        ({3.0: "nan"}, "matrix entries must be finite"),
        # the first entry in order fails first, though its width comes later
        ({2.0: "nan", 3.0: "skew"}, "matrix entries must be finite"),
    ],
    ids=["skew", "nan", "nan-then-skew"],
)
def test_stacked_inertias_check_each_basis_in_order(monkeypatch, spoiled, message):
    # root bases that fail the orthonormality or the finiteness check
    gram, matrix = HAND_BUILT["semisimple-double"]
    op = validate_operator(validate_space(gram.astype(complex)), matrix)
    build = spectral._root_basis

    def spoiling(op, entry, start, tol):
        basis = build(op, entry, start, tol)
        how = spoiled.get(entry.value.real)
        return basis if how is None else SPOIL[how](basis)

    monkeypatch.setattr(spectral, "_root_basis", spoiling)
    error, text = _assert_stacked_table_is_per_entry(op)
    assert error is ValidationError and text.startswith(message)
    # built with another operator, the spoiled one fails the build as it
    # fails alone, and neither memoizes a table; counted, it fails again
    other = helpers.make_operator(helpers.make_space(4, 1, 5), 6)
    twin = validate_operator(op.space, op.matrix)
    with pytest.raises(ValidationError) as caught:
        spectral.prepare([other, twin], DEFAULT_TOL)
    assert (type(caught.value), str(caught.value)) == (error, text)
    assert not any(key[0] == "table" for key in (*other._memo, *twin._memo))
    with pytest.raises(ValidationError) as caught:
        gap_inertia(twin, FULL_LINE)
    assert (type(caught.value), str(caught.value)) == (error, text)
    assert _outcome(lambda: _parts(spectral._table(other, DEFAULT_TOL))) == (
        _outcome(lambda: _per_entry_table(other))
    )


def test_stacked_inertias_of_several_spaces_keep_each_band_and_order():
    # e1 spans a positive form of 1e-7 in both spaces: above the zero band
    # of the first (scale 1), inside that of the second (scale about 707)
    small = IndefiniteSpace(np.diag([1e-7, 0.5, -0.5]).astype(complex), 1, 1)
    large = IndefiniteSpace(np.diag([1e-7, 500.0, -500.0]).astype(complex), 1, 1)
    e1, plane = np.eye(3, 1, dtype=complex), np.eye(3, 2, dtype=complex)
    items = [(small, e1), (large, plane), (large, e1), (small, plane)]
    assert indefinite._inertias(items) == [
        Inertia(1, 0, 0), Inertia(1, 0, 1), Inertia(0, 0, 1), Inertia(2, 0, 0)
    ]
    assert [_reference_inertia(space, b) for space, b in items] == (
        indefinite._inertias(items)
    )
    # the first item in order that fails raises, though its width comes later
    spoiled = [(small, 2.0 * plane), (large, np.full_like(e1, np.nan))]
    with pytest.raises(ValidationError, match="^basis columns are not orthonormal"):
        indefinite._inertias(items + spoiled)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 250.0])
def test_one_pass_subspace_inertia_equals_the_stacked_routine_and_the_reference(scale):
    # subspace_inertia skips the stacked routine's grouping and its second
    # orthonormality check; its counts must stay those of the routine
    rng = np.random.default_rng(11)
    for d in range(1, 13):
        for kappa in sorted({0, d // 2, d}):
            u = helpers.haar_unitary(rng, d)
            j = scale * (u * np.array([1.0] * (d - kappa) + [-1.0] * kappa)) @ u.conj().T
            space = validate_space(0.5 * (j + j.conj().T))
            bases = [helpers.random_orthonormal(rng, d, k) for k in range(1, d + 1)]
            # neutral: each column pairs a positive and a negative eigenvector of J
            pairs = min(d - kappa, kappa)
            if pairs:
                neutral = (u[:, :pairs] + u[:, d - kappa:d - kappa + pairs]) / np.sqrt(2.0)
                bases.append(neutral)
            if 0 < pairs < d - kappa:
                # and a positive eigenvector of J that no pair uses
                bases.append(np.hstack([neutral, u[:, pairs:pairs + 1]]))
            for b in bases:
                one_pass = subspace_inertia(space, Subspace(b))
                assert one_pass == indefinite._inertias([(space, b)])[0]
                assert one_pass == _reference_inertia(space, b)
            if pairs:
                assert subspace_inertia(space, Subspace(neutral)) == Inertia(0, 0, pairs)


def _real_root_bases(op):
    """Each real entry's root basis in the table of ``op``, with its space."""
    table = spectral._table(op, DEFAULT_TOL)
    return [
        (op.space, basis)
        for entry, basis in zip(spectrum(op).entries, table.bases)
        if entry.is_real
    ]


def _generated_real_root_bases():
    """Every real root basis of the A1 and A2s of generated pairs at
    d = 1-12, 32 and 96, kappa = 0-3, ranks 0-3 and seeds 0-1; the ranks
    of one (d, kappa, seed) share its A1, and rank 0's A2 is that A1."""
    items = []
    for d in [*range(1, 13), 32, 96]:
        for kappa in range(min(d, 3) + 1):
            for seed in range(2):
                cfg = GenConfig(dim=d, kappa_minus=kappa, seed=seed)
                op1 = random_operator(random_space(cfg), cfg)
                ops = [op1] + [
                    random_pair(op1, replace(cfg, pert_rank=rank)).op2
                    for rank in range(1, min(d, 3) + 1)
                ]
                for op in ops:
                    items += _real_root_bases(op)
    return items


def _zero_band_item(value=Tolerance.INERTIA_ZERO_SCALE):
    """A space with ||J||_F < 1, so the scale is 1 and the band is
    INERTIA_ZERO_SCALE itself, and e1, on which the compressed Gram is
    ``value`` (by default that band), exactly."""
    gram = np.diag([value, 0.5, -0.5]).astype(complex)
    return IndefiniteSpace(gram, kappa_plus=1, kappa_minus=1), np.eye(3, 1, dtype=complex)


@pytest.mark.parametrize("case", ["generated", *HAND_BUILT, "zero-band"])
def test_values_only_inertias_equal_the_eigh_reference(case):
    # the routine counts from eigvalsh's eigenvalues alone; the reference
    # counts from eigh's, through no shared code.  Stacked over all bases,
    # one basis at a time and through subspace_inertia, the counts agree
    if case == "generated":
        items = _generated_real_root_bases()
    elif case == "zero-band":
        items = [_zero_band_item()]
    else:
        gram, matrix = HAND_BUILT[case]
        items = _real_root_bases(validate_operator(validate_space(gram.astype(complex)), matrix))
    reference = [_reference_inertia(space, b) for space, b in items]
    assert indefinite._inertias(items) == reference
    for (space, b), expected in zip(items, reference):
        assert indefinite._inertias([(space, b)]) == [expected]
        assert subspace_inertia(space, Subspace(b)) == expected
    if case == "generated":
        # simple real eigenvalues of both types: one-column bases of each sign
        assert len(items) > 3000
        assert {(i.plus, i.minus) for i in reference} == {(1, 0), (0, 1)}
    if case == "zero-band":
        assert reference == [Inertia(0, 0, 1)]


def test_stacked_inertias_count_a_value_on_the_zero_band_as_zero():
    space, e1 = _zero_band_item()
    assert space.scale == 1.0
    assert indefinite._inertias([(space, e1)]) == [Inertia(0, 0, 1)]
    assert subspace_inertia(space, Subspace(e1)) == Inertia(0, 0, 1)
    assert _reference_inertia(space, e1) == Inertia(0, 0, 1)
    # the one counting rule from both of its entry points, the stacked
    # compressed forms and one row of eigenvalues: a value on +-band or at
    # 0 is zero, and one ulp outside the band is not
    band = Tolerance.INERTIA_ZERO_SCALE
    cases = [
        (band, Inertia(0, 0, 1)),
        (-band, Inertia(0, 0, 1)),
        (0.0, Inertia(0, 0, 1)),
        (np.nextafter(band, np.inf), Inertia(1, 0, 0)),
        (np.nextafter(-band, -np.inf), Inertia(0, 1, 0)),
    ]
    items = [_zero_band_item(value) for value, _ in cases]
    expected = [inertia for _, inertia in cases]
    assert indefinite._inertias(items) == expected
    assert [_reference_inertia(space, b) for space, b in items] == expected
    for (value, inertia), (space, b) in zip(cases, items):
        assert space.scale == 1.0
        assert indefinite._inertias([(space, b)]) == [inertia]
        assert subspace_inertia(space, Subspace(b)) == inertia
        assert Inertia.of_eigenvalues(np.array([value]), band) == inertia
    values = np.array([value for value, _ in cases])
    assert Inertia.of_eigenvalues(values, band) == Inertia(1, 1, 3)


@pytest.mark.parametrize(
    "gram, matrix, svds, eigvalshs",
    [
        # generic: every entry owns one eigenvector and has a one-column basis
        (helpers.make_space(32, 2, 5).gram, None, 1, 1),
        # the double eigenvalue owns two eigenvectors, and its basis has two columns
        (*HAND_BUILT["semisimple-double"], 2, 2),
    ],
    ids=["generic-d32", "semisimple-double"],
)
def test_table_factors_once_per_width(monkeypatch, gram, matrix, svds, eigvalshs):
    # the inertias read eigenvalues alone: one values-only eigvalsh per
    # basis width, and no eigh
    space = validate_space(gram.astype(complex))
    op = (
        helpers.make_operator(space, 6) if matrix is None
        else validate_operator(space, matrix)
    )
    spectrum(op)
    calls = {
        name: helpers.count_calls(monkeypatch, np.linalg, name)
        for name in ("eig", "svd", "eigh", "eigvalsh")
    }
    table = spectral._table(op, DEFAULT_TOL)
    assert len(calls["eig"]) == 1
    assert len(calls["svd"]) == svds
    assert len(calls["eigvalsh"]) == eigvalshs
    assert len(calls["eigh"]) == 0
    assert any(inertia is not None for inertia in table.inertias)


# ---------------------------------------------------------------------------
# tables built together


def _twin(op, shared):
    """A cold copy of ``op``; with ``shared``, its shared eig call made."""
    twin = validate_operator(op.space, op.matrix)
    if shared:
        twin.share_eig()
    return twin


def _shared(op):
    """Whether the memoized eigendecomposition holds eigenvectors."""
    return ("eigen",) in op._memo and op._memo[("eigen",)][1] is not None


def _generated_ops():
    """A1 and A2 of generated pairs of d = 1-12 and kappa = 0-3, two seeds
    each, and of one d = 96 pair; a rank-0 pair's A2 is its A1."""
    cfgs = [
        GenConfig(dim=d, kappa_minus=kappa, pert_rank=(d + kappa + seed) % min(d + 1, 3),
                  seed=seed)
        for d in range(1, 13) for kappa in range(min(d, 3) + 1) for seed in range(2)
    ] + [GenConfig(dim=96, kappa_minus=2, pert_rank=2, seed=3)]
    for cfg in cfgs:
        pair = random_pair(random_space(cfg), cfg)
        yield from (pair.op1, pair.op2)


def test_tables_built_together_equal_each_built_alone(monkeypatch):
    ops = list(_generated_ops())
    assert any(op1 is op2 for op1, op2 in zip(ops[::2], ops[1::2]))
    # half the operators read the vectors of their shared eig call, and the
    # rest take one stacked eig per order
    twins = {}
    for i, op in enumerate(ops):
        twins.setdefault(op, _twin(op, shared=i % 4 < 2))
    batch = [twins[op] for op in ops]
    assert any(_shared(t) for t in batch)
    assert not all(_shared(t) for t in batch)
    spectral.prepare(batch, DEFAULT_TOL)
    tables = [twin._memo[("table", DEFAULT_TOL.rel, DEFAULT_TOL.abs)] for twin in batch]
    # a second call finds every table memoized and builds none
    calls = [helpers.count_calls(monkeypatch, np.linalg, f)
             for f in ("eig", "svd", "eigh", "eigvalsh")]
    spectral.prepare(batch, DEFAULT_TOL)
    assert calls == [[], [], [], []]
    for op, twin, table in zip(ops, batch, tables):
        alone = spectral._table(_twin(op, _shared(twin)), DEFAULT_TOL)
        assert _outcome(lambda: _parts(table)) == _outcome(lambda: _parts(alone))
        assert spectral._table(twin, DEFAULT_TOL) is table


@pytest.mark.parametrize("d", [*range(2, 13), 75, 76, 96])
def test_stacked_eig_across_operators_gives_each_its_unstacked_bits(d):
    # the assumption behind one eig call per order across operators: geev
    # runs matrix by matrix, so its neighbours in the stack change no bit
    matrices = []
    for seed in range(2):
        cfg = GenConfig(dim=d, kappa_minus=2, pert_rank=2, seed=seed)
        pair = random_pair(random_space(cfg), cfg)
        matrices += [pair.op1.matrix, pair.op2.matrix]
    values, vectors = np.linalg.eig(np.stack(matrices))
    for m, w, v in zip(matrices, values, vectors):
        alone = np.linalg.eig(m)
        assert (w.tobytes(), v.tobytes()) == (alone[0].tobytes(), alone[1].tobytes())


def test_tables_built_together_raise_and_memoize_nothing_where_one_fails(monkeypatch):
    # one operator's spectrum fails, and so does the stacked eig of order 4:
    # built together, the first error raises and no table is memoized, and
    # built alone, each operator raises its own error or builds its table
    memoized = helpers.make_operator(helpers.make_space(2, 1, 8), 9)
    table = spectral._table(memoized, DEFAULT_TOL)
    fine = helpers.make_operator(helpers.make_space(3, 1, 3), 4)
    fours = [helpers.make_operator(helpers.make_space(4, 1, 5), seed) for seed in (6, 7)]
    unpaired = JSelfadjointOperator(
        space=validate_space(np.eye(2, dtype=complex)),
        matrix=np.diag([1 + 1j, 2]).astype(complex),
    )
    eig = np.linalg.eig

    def failing(a):
        if a.shape[-1] == 4:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", failing)
    with pytest.raises(SpectrumSymmetryError, match="no conjugate partner"):
        spectral.prepare([unpaired, *fours, fine, memoized], DEFAULT_TOL)
    for op in (unpaired, *fours, fine):
        assert not any(key[0] == "table" for key in op._memo)
    assert spectral._table(memoized, DEFAULT_TOL) is table
    with pytest.raises(SpectrumSymmetryError, match="no conjugate partner"):
        spectral._table(unpaired, DEFAULT_TOL)
    with pytest.raises(EigensolverError, match="Eigenvalues did not converge"):
        spectral._table(fours[0], DEFAULT_TOL)
    # an operator named twice is built once, and fails as it does alone
    with pytest.raises(EigensolverError, match="Eigenvalues did not converge"):
        spectral.prepare([fours[1], fours[1]], DEFAULT_TOL)
    _assert_stacked_table_is_per_entry(fine)
    assert spectral._table(fine, DEFAULT_TOL) is not None


def test_gap_and_complement_subspaces_partition():
    _, a1, a2 = _example1_pair()
    for op in (a1, a2):
        inside = gap_subspace(op, Interval(0.25, 2.0))
        outside = complement_subspace(op, Interval(0.25, 2.0))
        assert inside.dim + outside.dim == 2


# ---------------------------------------------------------------------------
# spectral projection


def _spectral_projection(op, interval):
    """The J-selfadjoint projection onto the gap subspace along the sum of
    all other root subspaces."""
    return oblique_projection(
        spectral.gap_subspace(op, interval, DEFAULT_TOL),
        spectral.complement_subspace(op, interval, DEFAULT_TOL),
    )


def test_spectral_projection_properties_example3():
    _, a1 = _example3_op1()
    delta = Interval(-1.0, 1.0)
    e = _spectral_projection(a1, delta)
    assert np.allclose(e @ e, e, atol=1e-10)
    assert np.allclose(e @ a1.matrix, a1.matrix @ e, atol=1e-8)
    assert np.linalg.matrix_rank(e) == gap_inertia(a1, delta).dim == 1
    # J-selfadjointness of the projection: J E = E^* J
    j = a1.space.gram
    assert np.allclose(j @ e, e.conj().T @ j, atol=1e-8)


def test_spectral_projection_full_line_is_identity():
    _, _, a2 = _example1_pair()
    assert np.allclose(_spectral_projection(a2, FULL_LINE), np.eye(2), atol=1e-10)


def test_spectral_projection_rejects_subspaces_short_of_the_space(monkeypatch):
    _, a1 = _example3_op1()
    monkeypatch.setattr(
        spectral, "complement_subspace", lambda op, interval, tol: Subspace.zero(op.dim)
    )
    with pytest.raises(NumericalDefectError):
        _spectral_projection(a1, Interval(-1.0, 1.0))


@given(dims, seeds)
def test_spectral_projection_random_invariants(d, seed):
    space = helpers.make_space(d, d // 3, seed)
    op = helpers.make_operator(space, seed + 5)
    reals = sorted(
        e.value.real for e in spectrum(op).entries if e.is_real
    )
    if not reals:
        return
    cut = reals[0] + 1.0 if len(reals) == 1 else 0.5 * (reals[0] + reals[1])
    if any(abs(v - cut) < 1e-4 for v in spectrum(op).values()):
        return
    # the gap and complement subspaces fill C^d and are J-orthogonal, so
    # the projection onto one along the other is J-selfadjoint
    interval = Interval(-math.inf, cut)
    inside = gap_subspace(op, interval)
    outside = complement_subspace(op, interval)
    assert inside.dim + outside.dim == d
    assert np.linalg.matrix_rank(np.hstack([inside.basis, outside.basis])) == d
    cross = inside.basis.conj().T @ space.gram @ outside.basis
    assert np.allclose(cross, 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_operator_to_gap_subspace():
    _, a1 = _example3_op1()
    sub = gap_subspace(a1, FULL_LINE)  # root subspace of the eigenvalue 0
    small_space, small_op = restrict_operator(a1, sub)
    assert small_space.dim == 1
    values = spectrum(small_op).values()
    assert values[0] == pytest.approx(0.0, abs=1e-9)


def test_restrict_operator_rejects_non_invariant_subspace():
    _, a1, _ = _example1_pair()
    skew = Subspace.from_columns(2, np.array([[1.0], [0.5]], dtype=complex))
    with pytest.raises(NumericalDefectError):
        restrict_operator(a1, skew)


def test_restrict_operator_checks_the_ambient_dim():
    _, a1, _ = _example1_pair()
    with pytest.raises(DimensionMismatchError) as caught:
        restrict_operator(a1, Subspace.full(3))
    assert str(caught.value) == "subspace does not live in the operator's space"


# ---------------------------------------------------------------------------
# one eig call per operator up to order SHARED_EIG_MAX_DIM


def _similar(rng, blocks):
    """S B S^-1 for the block diagonal B and S = I + 0.3 * complex Gaussian."""
    b = _block_diag(*blocks)
    g = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
    s = np.eye(len(b)) + 0.3 * g
    return s @ b @ np.linalg.inv(s)


STRESS_FAMILIES = ("jordan", "scaled", "triangular", "sparse", "huge", "tiny")


def _stress_matrices(family):
    """Matrices of one family, at orders from 2 up to SHARED_EIG_MAX_DIM."""
    rng = np.random.default_rng(STRESS_FAMILIES.index(family))
    orders = (2, 3, 8, 17, 40, spectral.SHARED_EIG_MAX_DIM)

    def gaussian(d):
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    if family == "jordan":
        # chains of length 2-4 at 0.5, alone or beside random diagonal entries
        return [
            _similar(rng, [_jordan(0.5, k), np.diag(rng.normal(size=extra))])
            for k in (2, 3, 4) for extra in (0, 3, 12, spectral.SHARED_EIG_MAX_DIM - k)
        ]
    if family == "scaled":
        # row and column scales over 16 decades, which balancing undoes
        out = []
        for d in orders:
            scales = 10.0 ** rng.uniform(-8, 8, size=d)
            out.append(scales[:, None] * gaussian(d) / scales[None, :])
        return out
    if family == "triangular":
        return [np.triu(gaussian(d)) for d in orders] + [np.tril(gaussian(d)) for d in orders]
    if family == "sparse":
        return [gaussian(d) * (rng.random((d, d)) < 0.15) for d in orders]
    factor = {"huge": 1e150, "tiny": 1e-150}[family]
    return [factor * gaussian(d) for d in orders]


def _eig_matches_eigvals(m):
    m = np.asarray(m, dtype=complex)
    return np.linalg.eig(m)[0].tobytes() == np.linalg.eigvals(m).tobytes()


def test_eig_and_eigvals_agree_bitwise_on_generated_pairs_up_to_the_bound():
    # the assumption behind one shared eig call: if a LAPACK build breaks
    # it, this fails rather than letting counts or documents move
    for d in range(1, spectral.SHARED_EIG_MAX_DIM + 1):
        k = min(2, d)
        cfg = GenConfig(dim=d, kappa_minus=k, pert_rank=k, seed=0)
        pair = random_pair(random_space(cfg), cfg)
        assert _eig_matches_eigvals(pair.op1.matrix), d
        assert _eig_matches_eigvals(pair.op2.matrix), d


def test_eig_and_eigvals_agree_bitwise_on_the_fixtures():
    for fixture in builtin_fixtures():
        assert _eig_matches_eigvals(fixture.pair.op1.matrix), fixture.name
        assert _eig_matches_eigvals(fixture.pair.op2.matrix), fixture.name


@pytest.mark.parametrize("family", STRESS_FAMILIES)
def test_eig_and_eigvals_agree_bitwise_on_stress_matrices(family):
    matrices = _stress_matrices(family)
    assert max(len(m) for m in matrices) == spectral.SHARED_EIG_MAX_DIM
    for m in matrices:
        assert _eig_matches_eigvals(m), (family, len(m))


def _count_geev(monkeypatch):
    return {
        name: helpers.count_calls(monkeypatch, np.linalg, name)
        for name in ("eig", "eigvals")
    }


@pytest.mark.parametrize("d, eigvals", [(32, 0), (80, 1)])
def test_validated_operator_counts_with_one_shared_eig_up_to_the_bound(
    monkeypatch, d, eigvals
):
    space = helpers.make_space(d, 2, d)
    pair = helpers.make_rank_perturbed_pair(space, d + 1, rank=2)
    windows = sweep_windows(pair)
    # a cold twin, so that the windows' spectra are not in its memo
    op = validate_operator(space, pair.op1.matrix)
    calls = _count_geev(monkeypatch)
    counts = [gap_inertia(op, window) for window in windows]
    assert len(calls["eig"]) == 1
    assert len(calls["eigvals"]) == eigvals
    assert counts == [gap_inertia(pair.op1, window) for window in windows]


def test_generated_operator_keeps_its_margin_check_and_one_table_eig(monkeypatch):
    cfg = GenConfig(dim=32, kappa_minus=2, seed=4)
    space = random_space(cfg)
    calls = _count_geev(monkeypatch)
    op = random_operator(space, cfg)
    assert (len(calls["eigvals"]), len(calls["eig"])) == (1, 0)
    gap_inertia(op, FULL_LINE)
    gap_subspace(op, FULL_LINE)
    assert (len(calls["eigvals"]), len(calls["eig"])) == (1, 1)


def test_spectrum_alone_takes_eigvals_only(monkeypatch):
    op = helpers.make_operator(helpers.make_space(12, 1, 3), 4)
    calls = _count_geev(monkeypatch)
    spectrum(op)
    assert (len(calls["eigvals"]), len(calls["eig"])) == (1, 0)
    assert op._memo[("eigen",)][1] is None


@pytest.mark.parametrize("build", [gap_subspace, complement_subspace])
def test_subspace_builders_share_the_eig_call(monkeypatch, build):
    op = helpers.make_operator(helpers.make_space(6, 1, 8), 9)
    calls = _count_geev(monkeypatch)
    build(op, FULL_LINE)
    gap_inertia(op, Interval(-1.0, 1.0))
    assert (len(calls["eigvals"]), len(calls["eig"])) == (0, 1)


def test_shared_eig_vectors_are_checked_after_the_endpoints(monkeypatch):
    # non-finite eigenvectors from the shared call fail only the table,
    # after selection has checked the endpoints
    space = validate_space(np.diag([1.0, -1.0, 1.0]).astype(complex))
    op = validate_operator(space, np.diag([1.0, 2.0, 3.0]))
    eig = np.linalg.eig

    def spoiled(a):
        values, vectors = eig(a)
        return values, np.full_like(vectors, np.nan)

    monkeypatch.setattr(np.linalg, "eig", spoiled)
    with pytest.raises(EndpointInSpectrumError):
        gap_inertia(op, Interval(2.0 + 1e-7, 5.0))
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        gap_inertia(op, Interval(0.0, 5.0))


@pytest.mark.parametrize("d, kappa", [(4, 1), (12, 3), (32, 2)])
def test_threads_counting_one_fresh_operator_agree_with_a_serial_run(d, kappa):
    # memo reads take no lock: threads that miss together may each build,
    # and each must still get the value stored first
    cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=2, seed=5)
    pair = random_pair(random_space(cfg), cfg)
    windows = sweep_windows(pair)
    serial = [gap_inertia(pair.op1, w) for w in windows]
    verdict = ("additive", DEFAULT_TOL.rel, DEFAULT_TOL.abs)

    def seen(op):
        return spectrum(op), spectral._table(op, DEFAULT_TOL)

    def count(op, k, start, results, errors):
        try:
            start.wait()
            # a quarter of the threads first read the table, a quarter the
            # spectrum, and half first count through both
            first = None
            if k % 4 == 1:
                table = spectral._table(op, DEFAULT_TOL)
                first = spectrum(op), table
            elif k % 4 == 3:
                first = seen(op)
            counts = [gap_inertia(op, w) for w in windows]
            results[k] = counts, first or seen(op)
        except BaseException as exc:
            errors.append(exc)

    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            fresh = validate_operator(pair.space, pair.op1.matrix)
            start = threading.Barrier(threads, timeout=60)
            results, errors = [None] * threads, []
            workers = [
                threading.Thread(target=count, args=(fresh, k, start, results, errors))
                for k in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
            assert errors == []
            spec, table = seen(fresh)
            assert spec == spectrum(pair.op1)
            assert fresh._memo[verdict] == pair.op1._memo[verdict]
            for counts, (seen_spec, seen_table) in results:
                assert counts == serial
                assert seen_spec is spec
                assert seen_table is table
    finally:
        sys.setswitchinterval(interval)


def test_selection_returns_the_bisected_indices_unless_an_entry_is_on_an_endpoint():
    space = validate_space(np.eye(3, dtype=complex))
    op = validate_operator(space, np.diag([1.0, 2.0, 3.0]).astype(complex))
    spec, inside = spectral.selection(op, Interval(0.5, 2.5))
    assert inside == (0, 1)
    assert type(inside) is tuple
    # an entry on an endpoint, to machine resolution, is outside, also where
    # the bisect counts it
    assert spectral.selection(op, Interval(1.0 - 1e-13, 2.5))[1] == (1,)
    assert spectral.selection(op, Interval(0.5, 3.0 + 1e-13))[1] == (0, 1)
    assert spectral.selection(op, Interval(1.0, 3.0))[1] == (1,)
    assert spectral.selection(op, FULL_LINE)[1] == spec.real_indices == (0, 1, 2)
