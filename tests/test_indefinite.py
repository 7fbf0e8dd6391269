import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from pontgap.errors import (
    DimensionMismatchError,
    EigensolverError,
    NonHermitianError,
    NumericalDefectError,
    SingularMatrixError,
    ValidationError,
)
from pontgap import linalg
from pontgap.indefinite import (
    IndefiniteSpace,
    Inertia,
    Subspace,
    intersect_subspaces,
    oblique_projection,
    subspace_inertia,
    sum_subspaces,
    validate_space,
)

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

J2 = np.diag([1.0, -1.0]).astype(complex)


def test_inertia_dim_and_sig():
    inertia = Inertia(plus=3, minus=1, zero=2)
    assert inertia.dim == 6
    assert inertia.sig == 2


def test_inertia_rejects_negative_counts():
    with pytest.raises(ValidationError):
        Inertia(plus=-1, minus=0, zero=0)


@pytest.mark.parametrize("counts", [(0, -1, 0), (0, 0, -1)])
def test_inertia_rejects_each_negative_count(counts):
    with pytest.raises(ValidationError, match="non-negative"):
        Inertia(*counts)


def test_unchecked_inertia_equals_the_checked_one():
    counted, checked = Inertia._of_counts(3, 1, 2), Inertia(3, 1, 2)
    assert type(counted) is Inertia
    assert counted == checked
    assert hash(counted) == hash(checked)
    assert repr(counted) == repr(checked)
    assert (counted.dim, counted.sig) == (6, 2)


def test_validate_space_counts_negative_squares():
    space = validate_space(J2)
    assert (space.kappa_plus, space.kappa_minus) == (1, 1)
    assert space.kappa == 1
    hilbert = validate_space(np.eye(3))
    assert (hilbert.kappa_plus, hilbert.kappa_minus) == (3, 0)


def test_validate_space_rejects_degenerate_gram():
    with pytest.raises(SingularMatrixError):
        validate_space(np.diag([1.0, 0.0]))


def test_validate_space_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        validate_space(np.array([[1.0, 1.0], [0.0, -1.0]]))


def test_validate_space_rejects_a_gram_whose_norm_overflows():
    # ||J||_F overflows, so its zero band would be inf
    with np.errstate(over="ignore"), pytest.raises(
        ValidationError, match=r"^matrix norm overflows: \|\|h\|\|_F = inf$"
    ):
        validate_space(np.diag([1.5e308, -1.5e308]))


@pytest.mark.parametrize("entry", [1e200, 1e308])
def test_validate_space_takes_a_gram_whose_squares_overflow(entry):
    # ||J||_F is finite, though the sum of its squares overflows, and the
    # symmetrization halves before it sums
    space = validate_space(np.diag([entry, -entry]))
    assert (space.kappa_plus, space.kappa_minus) == (1, 1)
    assert space.norm == pytest.approx(2**0.5 * entry)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_validate_space_rejects_entries_that_are_not_finite(bad):
    with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
        validate_space(np.diag([1e200, bad]))


def test_validate_space_takes_three_norms(monkeypatch):
    # ||J||_F and the Hermiticity defect in the boundary check, and the
    # norm the space stores with its symmetrized Gram; the zero band
    # reuses the boundary check's ||J||_F
    calls = helpers.count_calls(monkeypatch, linalg, "frob")
    space = validate_space(np.array([[2.0, 1.0 + 1e-14j], [1.0 - 0.9e-14j, -3.0]]))
    assert len(calls) == 3
    assert space.norm == linalg.frob(space.gram)
    assert space.scale == max(1.0, space.norm)


def test_inner_product_hand_value():
    # [x, x] = |2|^2 - |i|^2 = 3 for x = (2, i) against diag(1, -1)
    space = validate_space(J2)
    x = np.array([2.0, 1j])
    assert space.inner(x, x) == pytest.approx(3.0)


@given(dims, seeds)
def test_inner_product_is_hermitian_sesquilinear(d, seed):
    space = helpers.make_space(d, d // 2, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    y = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert space.inner(x, y) == pytest.approx(np.conj(space.inner(y, x)))
    assert space.inner(2j * x, y) == pytest.approx(2j * space.inner(x, y))


def test_same_space():
    space = validate_space(J2)
    assert space.same_space(validate_space(J2))
    assert not space.same_space(validate_space(np.eye(2)))
    assert not space.same_space(validate_space(np.eye(3)))


# ---------------------------------------------------------------------------
# Subspace


def test_subspace_requires_orthonormal_basis():
    with pytest.raises(ValidationError):
        Subspace(np.array([[1.0], [1.0]], dtype=complex))


def test_subspace_rejects_a_basis_of_nans():
    # its defect is NaN, which must fail the orthonormality test
    with pytest.raises(ValidationError, match=r"^basis columns are not orthonormal \(defect nan\)$"):
        Subspace(np.full((2, 1), np.nan, dtype=complex))


def test_from_columns_orthonormalizes():
    sub = Subspace.from_columns(2, np.array([[2.0, 2.0], [0.0, 0.0]], dtype=complex))
    assert sub.dim == 1
    assert sub.contains(np.array([1.0, 0.0]))
    assert not sub.contains(np.array([0.0, 1.0]))


def test_zero_and_full():
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3).dim == 3
    assert np.allclose(Subspace.full(3).projector(), np.eye(3))


@given(dims, seeds)
def test_projector_is_hermitian_idempotent(d, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, d + 1))
    sub = Subspace(helpers.random_orthonormal(rng, d, k))
    p = sub.projector()
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(np.trace(p).real, k)


# ---------------------------------------------------------------------------
# inertia of subspaces


def test_subspace_inertia_coordinate_spans():
    space = validate_space(J2)
    e1 = Subspace.from_columns(2, np.array([[1.0], [0.0]], dtype=complex))
    e2 = Subspace.from_columns(2, np.array([[0.0], [1.0]], dtype=complex))
    assert subspace_inertia(space, e1) == Inertia(1, 0, 0)
    assert subspace_inertia(space, e2) == Inertia(0, 1, 0)
    assert subspace_inertia(space, Subspace.full(2)) == Inertia(1, 1, 0)
    assert subspace_inertia(space, e1).sig == 1
    assert subspace_inertia(space, e2).sig == -1


def test_neutral_vector_counts_as_zero():
    space = validate_space(J2)
    neutral = Subspace.from_columns(
        2, np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    )
    assert subspace_inertia(space, neutral) == Inertia(0, 0, 1)


def test_neutral_subspace_of_a_large_gram_counts_as_zero():
    # B^*JB is Hermitian only up to rounding of order eps ||J||; on a
    # neutral subspace that rounding is all of B^*JB, so the compressed
    # Gram is symmetrized before the eigensolver's Hermiticity check
    q = helpers.haar_unitary(np.random.default_rng(0), 6)
    space = validate_space(1e6 * (q @ np.diag([1.0, 1, 1, -1, -1, -1]) @ q.conj().T))
    neutral = Subspace.from_columns(6, (q[:, :3] + q[:, 3:]) / np.sqrt(2))
    assert subspace_inertia(space, neutral) == Inertia(0, 0, 3)


@given(dims, seeds)
def test_subspace_inertia_dim_consistency(d, seed):
    space = helpers.make_space(d, min(1, d - 1) if d > 1 else 0, seed)
    rng = np.random.default_rng(seed + 3)
    k = int(rng.integers(0, d + 1))
    sub = Subspace(helpers.random_orthonormal(rng, d, k))
    assert subspace_inertia(space, sub).dim == k


def test_subspace_inertia_checks_ambient_dim():
    space = validate_space(J2)
    for sub in (Subspace.full(3), Subspace.zero(3)):
        with pytest.raises(DimensionMismatchError, match=r"lives in C\^3, space is C\^2"):
            subspace_inertia(space, sub)


def test_subspace_inertia_of_no_columns_solves_nothing(monkeypatch):
    space = validate_space(J2)
    calls = [helpers.count_calls(monkeypatch, np.linalg, f) for f in ("eigh", "eigvalsh")]
    assert subspace_inertia(space, Subspace.zero(2)) == Inertia(0, 0, 0)
    assert calls == [[], []]


def test_subspace_inertia_errors_keep_their_class_and_message(monkeypatch):
    # built directly, past validate_space: B^* J B is finite, and its
    # symmetrization overflows
    with np.errstate(over="ignore", invalid="ignore"):
        huge = IndefiniteSpace(np.diag([1e308, -1e308]).astype(complex), 1, 1)
        with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
            subspace_inertia(huge, Subspace.full(2))

    space = validate_space(J2)

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # an inertia reads eigenvalues alone, from the values-only eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(EigensolverError) as caught:
        subspace_inertia(space, Subspace.full(2))
    assert str(caught.value) == (
        "hermitian eigensolver failed: Eigenvalues did not converge"
    )


# ---------------------------------------------------------------------------
# lattice operations


@given(dims, seeds)
def test_sum_and_intersection_dimension_formula(d, seed):
    rng = np.random.default_rng(seed)
    shared = int(rng.integers(0, d + 1))
    extra1 = int(rng.integers(0, d - shared + 1))
    extra2 = int(rng.integers(0, d - shared - extra1 + 1))
    basis = helpers.random_orthonormal(rng, d, shared + extra1 + extra2)
    s1 = Subspace(basis[:, : shared + extra1])
    s2 = Subspace(np.hstack([basis[:, :shared], basis[:, shared + extra1 :]]))
    both = intersect_subspaces(s1, s2)
    union = sum_subspaces(s1, s2)
    assert both.dim == shared
    assert union.dim == shared + extra1 + extra2
    assert union.dim + both.dim == s1.dim + s2.dim


def test_intersection_is_contained_in_both():
    rng = np.random.default_rng(17)
    basis = helpers.random_orthonormal(rng, 4, 3)
    s1 = Subspace(basis[:, :2])
    s2 = Subspace(basis[:, 1:])
    got = intersect_subspaces(s1, s2)
    assert got.dim == 1
    for col in got.basis.T:
        assert s1.contains(col)
        assert s2.contains(col)


# ---------------------------------------------------------------------------
# oblique projection


def test_oblique_projection_splits_coordinates():
    onto = Subspace.from_columns(2, np.array([[1.0], [0.0]], dtype=complex))
    along = Subspace.from_columns(2, np.array([[1.0], [1.0]], dtype=complex))
    p = oblique_projection(onto, along)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p @ np.array([1.0, 0.0]), [1.0, 0.0])
    assert np.allclose(p @ np.array([1.0, 1.0]), [0.0, 0.0], atol=1e-12)


@given(dims, seeds)
def test_oblique_projection_range_and_kernel(d, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, d + 1))
    # columns of a well-conditioned invertible matrix give a direct sum
    t = helpers.random_orthonormal(rng, d, d) + 0.1 * (
        rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    )
    onto = Subspace.from_columns(d, t[:, :k])
    along = Subspace.from_columns(d, t[:, k:])
    p = oblique_projection(onto, along)
    assert np.allclose(p @ p, p, atol=1e-8)
    assert np.allclose(p @ t[:, :k], t[:, :k], atol=1e-8)
    assert np.allclose(p @ t[:, k:], 0.0, atol=1e-8)


def test_oblique_projection_requires_direct_sum():
    onto = Subspace.from_columns(3, np.eye(3, 1, dtype=complex))
    along = Subspace.from_columns(3, np.eye(3, 1, dtype=complex))
    with pytest.raises(NumericalDefectError):
        oblique_projection(onto, along)


@pytest.mark.parametrize("op", [sum_subspaces, intersect_subspaces, oblique_projection])
def test_lattice_operations_check_the_ambient_dims(op):
    with pytest.raises(DimensionMismatchError) as caught:
        op(Subspace.full(2), Subspace.full(3))
    assert str(caught.value) == "subspaces live in different ambient spaces"


def test_oblique_projection_rejects_subspaces_that_are_not_complementary():
    # dimensions 1 + 1 fill C^2, but the two lines meet at an angle of 1e-14
    onto = Subspace.from_columns(2, np.array([[1.0], [0.0]], dtype=complex))
    along = Subspace.from_columns(2, np.array([[1.0], [1e-14]], dtype=complex))
    sigma = np.linalg.svd(np.hstack([onto.basis, along.basis]), compute_uv=False)[-1]
    assert 0.0 < sigma < 1e-13
    with pytest.raises(NumericalDefectError) as caught:
        oblique_projection(onto, along)
    assert str(caught.value) == (
        f"subspaces are not complementary (sigma_min = {sigma:.3e})"
    )
