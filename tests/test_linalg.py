import ast
import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pontgap
from pontgap.errors import (
    DimensionMismatchError,
    EigensolverError,
    NonHermitianError,
    SingularMatrixError,
    ValidationError,
)
from pontgap.gapform import decompose_resolvent_gap, hilbert_gap_check
from pontgap.indefinite import Subspace, subspace_inertia, validate_space
from pontgap.linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_complex_matrix,
    as_hermitian,
    complex_eigen,
    frob,
    hermitian_eigen,
    hermitian_eigenvalues,
    null_space,
    orthonormal_columns,
    rank_tol,
    solve,
)
from pontgap.spectral import spectrum, validate_operator

dims = st.integers(min_value=1, max_value=7)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


# ---------------------------------------------------------------------------
# Tolerance


@pytest.mark.parametrize("bad", [0.0, 1.0, -1e-9, 2.0])
def test_tolerance_rejects_out_of_range(bad):
    with pytest.raises(ValidationError):
        Tolerance(rel=bad)
    with pytest.raises(ValidationError):
        Tolerance(abs=bad)


def test_singular_cutoff_takes_max_of_floor_and_relative():
    tol = Tolerance(rel=1e-9, abs=1e-12)
    assert tol.singular_cutoff(1e6) == 1e6 * 1e-9
    assert tol.singular_cutoff(0.0) == 1e-12


def _pontgap_modules():
    return [pontgap] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(pontgap.__path__, "pontgap.")
    ]


def test_every_band_lives_on_tolerance():
    # a module-level *_SCALE/*_FACTOR/*_SLACK would be a band outside the policy
    scattered = [
        f"{module.__name__}.{name}"
        for module in _pontgap_modules()
        for name in vars(module)
        if name.endswith(("_SCALE", "_FACTOR", "_SLACK"))
    ]
    assert scattered == []


def test_no_settable_value_the_data_already_fixes():
    # generator knobs are the instance's shape and seed; bands live on Tolerance
    assert [f.name for f in fields(pontgap.GenConfig)] == [
        "dim", "kappa_minus", "pert_rank", "seed",
    ]
    # dimensions and ranks are read off the arrays, so they cannot disagree
    derived = {"ambient_dim", "dim", "n"}
    for cls in (pontgap.Subspace, pontgap.IndefiniteSpace, pontgap.OperatorPair):
        assert derived.isdisjoint(f.name for f in fields(cls) if f.init), cls.__name__


def test_no_module_imports_a_name_it_never_uses():
    # stands in for a linter: an import neither read nor listed in __all__ is dead
    unused = []
    for module in _pontgap_modules():
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(getattr(module, "__all__", ()))
        unused += [f"{module.__name__}.{name}" for name in sorted(imported - used)]
    assert unused == []


# ---------------------------------------------------------------------------
# coercion


def test_as_complex_matrix_shape_checks():
    with pytest.raises(ValidationError):
        as_complex_matrix(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        as_complex_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(ValidationError):
        as_complex_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        as_complex_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_as_complex_matrix_accepts_noncontiguous_views():
    big = np.arange(36, dtype=float).reshape(6, 6) + 0j
    view = big[::2, ::2].T
    out = as_complex_matrix(view)
    assert np.array_equal(out, view)


# ---------------------------------------------------------------------------
# as_hermitian, the boundary check, hermitian_eigen, the one eigh call, and
# hermitian_eigenvalues, the one eigvalsh call


@given(dims, seeds)
def test_hermitian_eigen_matches_eigvalsh(d, seed):
    rng = np.random.default_rng(seed)
    g = _random_complex(rng, d, d)
    h = 0.5 * (g + g.conj().T)
    w, v = hermitian_eigen(h)
    assert np.allclose(w, np.linalg.eigvalsh(h))
    assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-12)
    assert np.allclose(h @ v, v @ np.diag(w), atol=1e-10 * max(1.0, frob(h)))
    assert np.array_equal(hermitian_eigenvalues(h), np.linalg.eigvalsh(h))


def test_hermitian_eigenvalues_of_a_stack_and_of_no_rows():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    h = 0.5 * (g + g.conj().swapaxes(1, 2))
    stacked = hermitian_eigenvalues(h)
    assert stacked.shape == (3, 5)
    for m, w in zip(h, stacked):
        assert np.allclose(w, hermitian_eigen(m)[0], atol=1e-12 * frob(m))
    empty = hermitian_eigenvalues(np.zeros((2, 0, 0), dtype=complex))
    assert empty.shape == (2, 0)
    assert np.array_equal(empty, hermitian_eigen(np.zeros((2, 0, 0), dtype=complex))[0])


@pytest.mark.parametrize(
    "check",
    [as_hermitian, validate_space, lambda h: hilbert_gap_check(h, 0.0, 1.0)],
    ids=["as_hermitian", "validate_space", "hilbert_gap_check"],
)
def test_as_hermitian_rejects_non_hermitian(check):
    # each outside matrix meets the one boundary check, with its message
    with pytest.raises(
        NonHermitianError, match=r"^matrix is not Hermitian: \|\|h - h\^\*\|\|_F = 1\.414e\+00$"
    ):
        check(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _eigh_callers():
    """Each caller of the eigh wrapper or of its values-only sibling, on
    inputs built before the solver fails, with the solver it calls."""
    space = validate_space(np.diag([1.0, -1.0]))
    op = validate_operator(space, np.diag([0.5, 1.0]))
    spectrum(op)
    return {
        "validate_space": (lambda: validate_space(np.diag([1.0, -1.0])), "eigh"),
        "decompose_resolvent_gap": (lambda: decompose_resolvent_gap(op, 1.25, 1.5), "eigh"),
        "subspace_inertia": (lambda: subspace_inertia(space, Subspace.full(2)), "eigvalsh"),
        "hilbert_gap_check": (lambda: hilbert_gap_check(np.eye(2), 0.0, 2.0), "eigvalsh"),
    }


@pytest.mark.parametrize(
    "caller",
    ["validate_space", "decompose_resolvent_gap", "subspace_inertia", "hilbert_gap_check"],
)
def test_eigh_failure_reads_the_same_through_every_caller(monkeypatch, caller):
    run, solver = _eigh_callers()[caller]

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, failing)
    with pytest.raises(
        EigensolverError, match="^hermitian eigensolver failed: Eigenvalues did not converge$"
    ):
        run()


def test_as_hermitian_tolerates_roundoff_asymmetry():
    h = np.array([[2.0, 1.0 + 1e-14j], [1.0 - 0.9e-14j, 3.0]])
    sym, norm = as_hermitian(h)
    assert np.array_equal(sym, 0.5 * (h + h.conj().T))
    assert np.array_equal(sym, sym.conj().T)
    assert norm == frob(h)
    w, _ = hermitian_eigen(sym)
    assert np.array_equal(w, np.linalg.eigvalsh(sym))


def test_frob_scales_only_where_the_plain_sum_overflows():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert frob(m) == float(np.linalg.norm(m))
    # the sum of the squares overflows, the norm does not
    assert frob(np.diag([1e200, -1e200]).T) == pytest.approx(2**0.5 * 1e200)
    assert frob(np.array([[1.5e308j, 1e308]])) == pytest.approx(1.8028e308, rel=1e-4)
    # the norm overflows, or an entry is not finite
    assert frob(np.array([[1.5e308j, 1.5e308]])) == np.inf
    assert frob(np.array([[np.inf, 1e200]])) == np.inf
    assert np.isnan(frob(np.array([[np.nan, 1e200]])))


# ---------------------------------------------------------------------------
# complex_eigen


def _band(m) -> float:
    """The clustering band an operator with matrix ``m`` uses."""
    return Tolerance.CLUSTERING_SCALE * max(1.0, frob(m))


def _clusters(m):
    return complex_eigen(np.linalg.eigvals(m), _band(m))


def test_complex_eigen_exact_diagonal():
    got = _clusters(np.diag([2.0, -1.0, 2.0]).astype(complex))
    assert got == [(-1.0 + 0j, 1), (2.0 + 0j, 2)]


def test_complex_eigen_merges_defective_cluster():
    # Jordan block: the two computed eigenvalues split by ~sqrt(eps)
    # around 0 and must come back as one cluster of multiplicity 2
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    got = _clusters(m)
    assert len(got) == 1
    value, mult = got[0]
    assert mult == 2
    assert abs(value) <= _band(m)


def test_complex_eigen_merges_near_duplicates():
    m = np.diag([1.0, 1.0 + 1e-9, 5.0]).astype(complex)
    got = _clusters(m)
    assert [mult for _, mult in got] == [2, 1]


@given(dims, seeds)
def test_complex_eigen_multiplicities_sum_to_dimension(d, seed):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, d, d)
    got = _clusters(m)
    assert sum(mult for _, mult in got) == d
    values = [v for v, _ in got]
    assert values == sorted(values, key=lambda z: (z.real, z.imag))
    # reported values are pairwise separated
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert abs(values[i] - values[j]) > _band(m)


def _merge_loop(values, threshold):
    """``complex_eigen`` before its early exit: the merge loop alone, which
    tests every value against every cluster found so far, pass after pass."""
    clusters = [(value, 1) for value in values]
    merged = True
    while merged:
        merged = False
        out = []
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


def _bits(clusters):
    return [(v.real.hex(), v.imag.hex(), c) for v, c in clusters]


#: a power of two and the band, five of them: lattice points differ by
#: exact multiples of UNIT, so that a step of one band along an axis, or
#: of (3, 4) units, lies exactly on the band
UNIT = 2.0**-20
BAND = 5 * UNIT

#: points one band apart along each axis, some shifted by (3, 4) units
lattice_points = st.builds(
    lambda re, im, shift: complex(
        (5 * re + 3 * shift) * UNIT, (5 * im + 4 * shift) * UNIT
    ),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1),
)
#: real parts a unit apart, imaginary parts 0 or far apart: near pairs
#: that other values separate in (real, imag) order
column_points = st.builds(
    lambda re, im: complex(re * UNIT, im),
    st.integers(-3, 3), st.sampled_from([0.0, 1.0, -1.0]),
)
scattered_points = st.builds(
    complex, st.floats(-1e-4, 1e-4), st.floats(-1e-4, 1e-4)
)


@given(
    st.lists(
        st.tuples(
            st.one_of(lattice_points, column_points, scattered_points),
            st.sampled_from([1, 1, 1, 2]),  # duplicates
            st.booleans(),  # the conjugate too
        ),
        max_size=10,
    )
)
@settings(max_examples=300)
def test_complex_eigen_early_exit_is_the_merge_loop(draws):
    values = []
    for z, copies, conjugate in draws:
        values += [z] * copies + ([z.conjugate()] if conjugate else [])
    values = np.array(values, dtype=complex)
    assert _bits(complex_eigen(values, BAND)) == _bits(_merge_loop(values, BAND))


@pytest.mark.parametrize(
    "values, threshold, merged",
    [
        # a near pair that is not adjacent in (real, imag) order
        ([0.0, 1e-7 + 5j, 2e-7], 1e-6, True),
        # ties exactly on the band, along the axis and along a (3, 4) step
        ([0.0, BAND], BAND, True),
        ([0.0, complex(3 * UNIT, 4 * UNIT)], BAND, True),
        ([0.0, complex(BAND, 1e-3)], BAND, False),
        ([0.0, np.nextafter(BAND, 1.0)], BAND, False),
        ([1j, -1j, 2 + 3j, 2 - 3j], BAND, False),
        ([], BAND, False),
    ],
)
def test_complex_eigen_early_exit_on_hand_picked_values(values, threshold, merged):
    values = np.array(values, dtype=complex)
    got = complex_eigen(values, threshold)
    assert _bits(got) == _bits(_merge_loop(values, threshold))
    assert (len(got) < len(values)) == merged


# ---------------------------------------------------------------------------
# rank / null space / solve


@given(dims, dims, seeds)
def test_rank_and_null_space_are_consistent(rows, cols, seed):
    rng = np.random.default_rng(seed)
    r = rng.integers(0, min(rows, cols) + 1)
    m = _random_complex(rng, rows, r) @ _random_complex(rng, r, cols) if r else (
        np.zeros((rows, cols), dtype=complex)
    )
    rank = rank_tol(m)
    assert rank == r
    kernel = null_space(m)
    assert kernel.shape == (cols, cols - rank)
    if kernel.size:
        assert np.allclose(m @ kernel, 0.0, atol=1e-8 * max(1.0, frob(m)))
        assert np.allclose(
            kernel.conj().T @ kernel, np.eye(cols - rank), atol=1e-12
        )


def test_rank_of_zero_matrix():
    assert rank_tol(np.zeros((3, 3))) == 0
    assert null_space(np.zeros((3, 2))).shape == (2, 2)


@given(dims, seeds)
def test_solve_residual(d, seed):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, d, d) + 3.0 * np.eye(d)
    b = _random_complex(rng, d, 2)
    x = solve(m, b)
    assert np.allclose(m @ x, b, atol=1e-9 * max(1.0, frob(m)))


def test_solve_raises_on_singular_with_diagnostic():
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrixError) as info:
        solve(m, np.eye(2))
    assert info.value.smallest_singular_value < 1e-12


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve(np.eye(2), np.zeros((3, 1)))


@given(dims, dims, seeds)
def test_orthonormal_columns_spans_the_range(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, rows, cols)
    q = orthonormal_columns(m)
    assert q.shape[1] == rank_tol(m)
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)
    # original columns lie in the span of q
    assert np.allclose(q @ (q.conj().T @ m), m, atol=1e-9 * max(1.0, frob(m)))
