import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from pontgap import linalg
from pontgap.errors import DimensionMismatchError, PreconditionError
from pontgap.gen import GenConfig, builtin_fixtures, random_pair, random_space
from pontgap.indefinite import validate_space
from pontgap.perturbation import (
    make_pair,
    resolvent_difference_rank,
    sample_admissible_points,
)
from pontgap.spectral import validate_operator

dims = st.integers(min_value=1, max_value=6)
ranks = st.integers(min_value=0, max_value=3)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def test_fixture_pairs_have_rank_one():
    for fix in builtin_fixtures():
        assert fix.pair.n == 1
        assert fix.pair.agreement.dim == fix.pair.dim - 1


def test_example1_agreement_direction():
    # A1 - A2 = [[1/2, i], [i, -2]] has determinant 0; kernel is (-2i, 1)
    pair = builtin_fixtures()[0].pair
    v = np.array([-2j, 1.0]) / np.sqrt(5.0)
    assert pair.agreement.contains(v)
    assert np.allclose(pair.op1.matrix @ v, pair.op2.matrix @ v)


def test_example3_agreement_plane():
    pair = builtin_fixtures()[1].pair
    assert pair.agreement.dim == 2
    assert pair.agreement.contains(np.array([1.0, 0.0, 0.0]))
    w = np.array([0.0, 1.0, -20.0])
    assert pair.agreement.contains(w / np.linalg.norm(w))


def test_make_pair_rejects_different_spaces():
    s1 = validate_space(np.diag([1.0, -1.0]).astype(complex))
    s2 = validate_space(np.diag([1.0, 1.0]).astype(complex))
    op1 = validate_operator(s1, np.eye(2, dtype=complex))
    op2 = validate_operator(s2, np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        make_pair(op1, op2)


def test_make_pair_identical_operators():
    space = helpers.make_space(4, 1, seed=3)
    op = helpers.make_operator(space, seed=4)
    pair = make_pair(op, op)
    assert pair.n == 0
    assert pair.agreement.dim == 4


def test_make_pair_factors_the_difference_once(monkeypatch):
    space = helpers.make_space(5, 2, seed=8)
    op1 = helpers.make_operator(space, seed=9)
    op2 = helpers.make_operator(space, seed=10)
    svd_calls = helpers.count_calls(monkeypatch, np.linalg, "svd")
    pair = make_pair(op1, op2)
    assert len(svd_calls) == 1
    assert pair.n + pair.agreement.dim == pair.dim


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_pair_reads_rank_off_the_agreement_kernel(monkeypatch, rank, seed):
    cfg = GenConfig(dim=4, kappa_minus=1, pert_rank=rank, seed=seed)
    space = random_space(cfg)
    rank_calls = helpers.count_calls(monkeypatch, linalg, "rank_tol")
    kernel_calls = helpers.count_calls(monkeypatch, linalg, "null_space")
    pair = random_pair(space, cfg)
    assert pair.n == rank
    assert rank_calls == []
    assert len(kernel_calls) == 1  # these seeds accept their first draw


def test_resolvent_rank_at_hand_point():
    for fix in builtin_fixtures():
        assert resolvent_difference_rank(fix.pair, 2j) == 1


def test_resolvent_rank_rejects_spectrum_point():
    pair1, pair3 = (fix.pair for fix in builtin_fixtures())
    with pytest.raises(PreconditionError):
        resolvent_difference_rank(pair1, 0.5)  # eigenvalue of A2
    with pytest.raises(PreconditionError):
        resolvent_difference_rank(pair1, 0.0)  # defective eigenvalue of A1
    with pytest.raises(PreconditionError):
        resolvent_difference_rank(pair3, 100j)  # eigenvalue of A1


@given(dims, ranks, seeds)
def test_rank_and_agreement_partition_dimension(d, n, seed):
    n = min(n, d)
    space = helpers.make_space(d, min(1, d), seed)
    pair = helpers.make_rank_perturbed_pair(space, seed + 7, n)
    assert pair.n == n
    assert pair.agreement.dim == d - n
    # both operators restrict identically to the agreement subspace
    b = pair.agreement.basis
    assert np.allclose(pair.op1.matrix @ b, pair.op2.matrix @ b, atol=1e-8)


@given(dims, ranks, seeds)
def test_resolvent_rank_is_constant_over_samples(d, n, seed):
    n = min(n, d)
    space = helpers.make_space(d, min(1, d), seed)
    pair = helpers.make_rank_perturbed_pair(space, seed + 13, n)
    points = sample_admissible_points(pair, count=6)
    assert points  # far circle: nothing should be skipped
    for z in points:
        assert resolvent_difference_rank(pair, z) == n


def test_sampled_points_avoid_spectra():
    pair = builtin_fixtures()[1].pair  # spectral radius ~ 400
    points = sample_admissible_points(pair, count=10)
    assert len(points) == 10
    radius = max(abs(z) for z in points)
    assert radius > 400.0
    for op in (pair.op1, pair.op2):
        for z in points:
            assert all(
                abs(z - ev) > 1.0 for ev in np.linalg.eigvals(op.matrix)
            )
