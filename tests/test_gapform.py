import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from pontgap import linalg
from pontgap.errors import (
    InertiaMismatchError,
    NonHermitianError,
    PreconditionError,
    ValidationError,
)
from pontgap.gapform import (
    GapCase,
    GapLocation,
    build_gap_form,
    decompose_resolvent_gap,
    decompose_spectrum_inside,
    hilbert_gap_check,
)
from pontgap.gen import GenConfig, builtin_fixtures, random_real_spectrum_operator, random_space
from pontgap.indefinite import Inertia, subspace_inertia, validate_space
from pontgap.perturbation import make_pair
from pontgap.spectral import Interval, JSelfadjointOperator, spectrum, validate_operator
from pontgap.theorem import proof_witness

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _example1_a2():
    space = validate_space(np.diag([1.0, -1.0]).astype(complex))
    return space, validate_operator(space, np.diag([0.5, 1.0]).astype(complex))


def _assert_sign_certificates(dec, seed=0):
    """Form values on the returned bases must have the advertised strict signs.

    Resolvent-gap case: negative on m_minus, positive on m_plus.
    Spectrum-inside case: the signs flip.
    """
    minus_sign = -1.0 if dec.case is GapCase.RESOLVENT_GAP else 1.0
    rng = np.random.default_rng(seed)
    for sub, sign in ((dec.m_minus, minus_sign), (dec.m_plus, -minus_sign)):
        for j in range(sub.dim):
            assert sign * dec.form.evaluate(sub.basis[:, j]) > 0
        for _ in range(10):
            c = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
            if np.linalg.norm(c) == 0:
                continue
            x = sub.basis @ (c / np.linalg.norm(c))
            assert sign * dec.form.evaluate(x) > 0


def test_build_gap_form_hand_matrix():
    # diag(1,-1) * (diag(.5,1) - 1/4)(diag(.5,1) - 2) = diag(-3/8, 3/4)
    _, a2 = _example1_a2()
    form = build_gap_form(a2, 0.25, 2.0)
    assert np.allclose(form.matrix, np.diag([-0.375, 0.75]))
    assert form.evaluate(np.array([1.0, 0.0])) == pytest.approx(-0.375)
    assert form.evaluate(np.array([1.0, 1.0])) == pytest.approx(0.375)


def test_build_gap_form_rejects_bad_endpoints():
    _, a2 = _example1_a2()
    with pytest.raises(PreconditionError):
        build_gap_form(a2, 2.0, 0.25)
    with pytest.raises(PreconditionError):
        build_gap_form(a2, 0.0, np.inf)


@given(dims, st.integers(min_value=0, max_value=2), seeds)
def test_gap_form_and_gram_are_exactly_hermitian(d, kminus, seed):
    # the precondition for handing both to the eigensolver unchecked:
    # each equals its conjugate transpose, so symmetrizing it changes no bit
    kminus = min(kminus, d)
    u = helpers.haar_unitary(np.random.default_rng(seed), d)
    # Hermitian up to rounding only, as outside input is
    space = validate_space(u @ np.diag([1.0] * (d - kminus) + [-1.0] * kminus) @ u.conj().T)
    op = helpers.make_operator(space, seed + 1)
    form = build_gap_form(op, -0.5, 0.75)
    for m in (space.gram, form.matrix):
        assert np.array_equal(m, m.conj().T)
        assert (0.5 * (m + m.conj().T)).tobytes() == m.tobytes()


def test_gap_split_takes_one_norm(monkeypatch):
    # ||G||_F, once, for the zero band; the operator's spectrum is memoized
    _, a2 = _example1_a2()
    spectrum(a2)
    calls = helpers.count_calls(monkeypatch, linalg, "frob")
    decompose_resolvent_gap(a2, 1.25, 1.5)
    assert len(calls) == 1


def test_gap_split_rejects_a_form_that_overflows():
    # A and J are finite and A is J-selfadjoint, but J A^2 overflows
    space = validate_space(np.diag([1e100, -1e100]).astype(complex))
    op = validate_operator(space, np.diag([1e150, 2e150]).astype(complex))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValidationError, match="^matrix entries must be finite$"
    ):
        decompose_resolvent_gap(op, 0.0, 1.0)


def _overflowing_gap_pair():
    """A1 = c I on C^25 and A2, A1 with its last entry 0, for c = 9.5e154:
    over (0, inf) and (-inf, inf), the gap form of A1 inside delta' has
    25 finite diagonal entries of about 4e307 to 8e307, and a norm 5 times
    that, which overflows."""
    space = validate_space(np.eye(25))
    a1 = 9.5e154 * np.eye(25)
    a2 = a1.copy()
    a2[-1, -1] = 0.0
    return make_pair(validate_operator(space, a1), validate_operator(space, a2))


@pytest.mark.parametrize("lower", [0.0, -np.inf])
def test_gap_split_refuses_a_form_whose_norm_overflows(lower):
    # G's entries stay finite, but ||G||_F overflows, so its zero band
    # would count every eigenvalue as zero
    pair = _overflowing_gap_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValidationError, match=r"^gap form norm overflows: \|\|G\|\|_F = inf$"
        ):
            proof_witness(pair, Interval(lower, np.inf))


@pytest.mark.parametrize("lower", [0.0, -np.inf])
def test_example3_times_1e150_gets_its_witness(lower):
    # G's entries are about 1e304: the sum of their squares overflows, but
    # ||G||_F does not, so every check of the witness runs
    fixture = {f.name: f for f in builtin_fixtures()}["example3"]
    space = fixture.pair.space
    pair = make_pair(validate_operator(space, 1e150 * fixture.pair.op1.matrix),
                     validate_operator(space, 1e150 * fixture.pair.op2.matrix))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert proof_witness(pair, Interval(lower, np.inf)).all_hold


# ---------------------------------------------------------------------------
# resolvent-gap case


def test_resolvent_gap_hand_decomposition():
    # [5/4, 3/2] misses sigma(A2) = {1/2, 1}; G = diag(3/4, -1/8)
    space, a2 = _example1_a2()
    dec = decompose_resolvent_gap(a2, 1.25, 1.5)
    assert dec.case is GapCase.RESOLVENT_GAP
    assert np.allclose(dec.form.matrix, np.diag([0.75, -0.125]))
    assert dec.inertia == Inertia(plus=1, minus=1, zero=0)
    assert dec.m_minus.contains(np.array([0.0, 1.0]))
    # here the spectrum is real, so the G-negative direction is J-negative
    assert subspace_inertia(space, dec.m_minus) == Inertia(0, 1, 0)
    _assert_sign_certificates(dec)


def test_resolvent_gap_rejects_interval_touching_spectrum():
    _, a2 = _example1_a2()
    with pytest.raises(PreconditionError):
        decompose_resolvent_gap(a2, 0.75, 1.5)  # eigenvalue 1 inside


def test_resolvent_gap_rejects_inertia_the_theory_does_not_force():
    # spectrum {3, 4} clears [0, 1], but A is not selfadjoint for J = I, so
    # the form's inertia is (1, 1, 0), not the forced (2, 0, 0); built
    # directly, since validate_operator would reject A first
    space = validate_space(np.eye(2, dtype=complex))
    op = JSelfadjointOperator(space=space, matrix=np.array([[3, 100], [0, 4]], dtype=complex))
    with pytest.raises(InertiaMismatchError) as info:
        decompose_resolvent_gap(op, 0.0, 1.0)
    assert info.value.inertia == Inertia(1, 1, 0)


def test_resolvent_gap_with_nonreal_spectrum():
    # +-100i clear (1,2) by a wide margin; the conjugate pair feeds one
    # positive and one negative square into G just as it does into J
    space = validate_space(np.diag([-1.0, 1.0, 1.0]).astype(complex))
    a1 = validate_operator(
        space, np.array([[0, 100j, 0], [100j, 0, 0], [0, 0, 0]], dtype=complex)
    )
    with pytest.raises(PreconditionError):
        decompose_resolvent_gap(a1, -1.0, 1.0)  # eigenvalue 0 inside
    dec = decompose_resolvent_gap(a1, 1.0, 2.0)
    assert dec.inertia == Inertia(plus=2, minus=1, zero=0)
    assert dec.m_minus.dim == 1
    _assert_sign_certificates(dec)


@given(dims, st.integers(min_value=0, max_value=2), seeds)
def test_resolvent_gap_inertia_is_forced(d, kminus, seed):
    kminus = min(kminus, d)
    space = helpers.make_space(d, kminus, seed)
    op = helpers.make_operator(space, seed + 11)
    radius = max(abs(v) for v in spectrum(op).values())
    dec = decompose_resolvent_gap(op, radius + 1.0, radius + 2.0)
    assert dec.inertia == Inertia(plus=d - kminus, minus=kminus, zero=0)
    assert dec.m_minus.dim == kminus
    assert dec.m_plus.dim == d - kminus
    _assert_sign_certificates(dec, seed=seed)


# ---------------------------------------------------------------------------
# spectrum-inside case


def test_spectrum_inside_hand_decomposition():
    # sigma(A2) = {1/2, 1} lies inside (1/4, 2); m_minus carries the
    # *positive* form directions and here coincides with the J-negative axis
    space, a2 = _example1_a2()
    dec = decompose_spectrum_inside(a2, 0.25, 2.0)
    assert dec.case is GapCase.SPECTRUM_INSIDE
    assert dec.inertia == Inertia(plus=1, minus=1, zero=0)
    assert dec.m_minus.dim == 1
    assert dec.m_minus.contains(np.array([0.0, 1.0]))
    assert subspace_inertia(space, dec.m_minus) == Inertia(0, 1, 0)
    _assert_sign_certificates(dec)


def test_spectrum_inside_rejects_outside_eigenvalue():
    _, a2 = _example1_a2()
    with pytest.raises(PreconditionError):
        decompose_spectrum_inside(a2, 0.75, 2.0)  # eigenvalue 1/2 outside


def test_spectrum_inside_rejects_nonreal_spectrum():
    space = validate_space(np.diag([-1.0, 1.0, 1.0]).astype(complex))
    a1 = validate_operator(
        space, np.array([[0, 100j, 0], [100j, 0, 0], [0, 0, 0]], dtype=complex)
    )
    with pytest.raises(PreconditionError):
        decompose_spectrum_inside(a1, -200.0, 200.0)


@given(dims, st.integers(min_value=0, max_value=2), seeds)
def test_spectrum_inside_inertia_is_forced(d, kminus, seed):
    kminus = min(kminus, d)
    cfg = GenConfig(dim=d, kappa_minus=kminus, seed=seed)
    space = random_space(cfg)
    op = random_real_spectrum_operator(space, cfg, bounds=(-1.0, 1.0))
    dec = decompose_spectrum_inside(op, -2.0, 2.0)
    assert dec.inertia == Inertia(plus=kminus, minus=d - kminus, zero=0)
    assert dec.m_minus.dim == kminus
    _assert_sign_certificates(dec, seed=seed)


@given(dims, st.integers(min_value=0, max_value=2), seeds)
def test_decomposition_subspaces_are_complementary(d, kminus, seed):
    kminus = min(kminus, d)
    cfg = GenConfig(dim=d, kappa_minus=kminus, seed=seed)
    space = random_space(cfg)
    op = random_real_spectrum_operator(space, cfg, bounds=(-1.0, 1.0))
    dec = decompose_spectrum_inside(op, -2.0, 2.0)
    assert dec.m_minus.dim + dec.m_plus.dim == d
    # eigenvector spans of the same Hermitian matrix: orthogonal, so disjoint
    overlap = dec.m_minus.basis.conj().T @ dec.m_plus.basis
    assert np.allclose(overlap, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Hilbert degeneration


def test_hilbert_resolvent_gap_has_empty_m_minus():
    space = validate_space(np.eye(3, dtype=complex))
    op = validate_operator(space, np.diag([0.0, 0.2, 3.0]).astype(complex))
    dec = decompose_resolvent_gap(op, 1.0, 2.0)
    assert dec.m_minus.dim == 0
    assert dec.inertia == Inertia(plus=3, minus=0, zero=0)
    assert hilbert_gap_check(np.diag([0.0, 0.2, 3.0]), 1.0, 2.0) is (
        GapLocation.GAP_IN_RESOLVENT
    )


def test_hilbert_gap_check_three_outcomes():
    assert hilbert_gap_check(np.diag([0.0, 3.0]), 1.0, 2.0) is (
        GapLocation.GAP_IN_RESOLVENT
    )
    assert hilbert_gap_check(np.diag([1.2, 1.8]), 1.0, 2.0) is (
        GapLocation.SPECTRUM_IN_CLOSURE
    )
    assert hilbert_gap_check(np.diag([0.0, 1.5, 3.0]), 1.0, 2.0) is (
        GapLocation.NEITHER
    )
    # spectrum exactly {a, b}: both criteria hold and the resolvent wins
    assert hilbert_gap_check(np.diag([1.0, 2.0]), 1.0, 2.0) is (
        GapLocation.GAP_IN_RESOLVENT
    )


def test_hilbert_gap_check_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hilbert_gap_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 1.0)


def test_hilbert_gap_check_rejects_bad_interval():
    # an empty interval, and endpoints that are infinite or NaN, whose zero
    # band would be inf or NaN and count every value as zero
    for t, a, b in [
        (np.eye(2), 1.0, 1.0),
        (np.diag([0.0, 0.5]), -np.inf, 1.0),
        (np.diag([0.0, 3.0]), -np.inf, 1.0),
        (np.eye(2), 0.0, np.inf),
        (np.eye(2), np.nan, 1.0),
    ]:
        with pytest.raises(PreconditionError):
            hilbert_gap_check(t, a, b)


@given(dims, seeds)
def test_hilbert_gap_check_agrees_with_spectrum(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    t = 0.5 * (g + g.conj().T)
    w = np.linalg.eigvalsh(t)
    a, b = -0.5, 0.5
    if np.min(np.abs(w - a)) < 1e-6 or np.min(np.abs(w - b)) < 1e-6:
        return
    got = hilbert_gap_check(t, a, b)
    inside = np.sum((w > a) & (w < b))
    if inside == 0:
        assert got is GapLocation.GAP_IN_RESOLVENT
    elif inside == d:
        assert got is GapLocation.SPECTRUM_IN_CLOSURE
    else:
        assert got is GapLocation.NEITHER
