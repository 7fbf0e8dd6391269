import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pontgap import gen
from pontgap.errors import ResampleBudgetError, ValidationError
from pontgap.gen import (
    GenConfig,
    builtin_fixtures,
    random_operator,
    random_pair,
    random_real_spectrum_operator,
    random_space,
)
from pontgap.instancefile import InstanceRecord, dumps_instance
from pontgap.linalg import DEFAULT_TOL, Tolerance
from pontgap.spectral import Interval, gap_inertia, spectrum, validate_operator

DATA = Path(__file__).parent / "data"

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=0, kappa_minus=0),
        dict(dim=3, kappa_minus=4),
        dict(dim=3, kappa_minus=-1),
        dict(dim=3, kappa_minus=1, pert_rank=4),
        # the streams reduce seeds modulo 2**64, so -1 would alias 2**64 - 1
        dict(dim=3, kappa_minus=1, seed=-1),
        dict(dim=3, kappa_minus=1, seed=2**64),
    ],
)
def test_genconfig_rejects_bad_shapes(kwargs):
    with pytest.raises(ValidationError):
        GenConfig(**kwargs)


@given(dims, st.integers(min_value=0, max_value=6), seeds)
def test_random_space_hits_requested_inertia(d, kminus, seed):
    kminus = min(kminus, d)
    cfg = GenConfig(dim=d, kappa_minus=kminus, seed=seed)
    space = random_space(cfg)
    assert (space.kappa_plus, space.kappa_minus) == (d - kminus, kminus)
    again = random_space(cfg)
    assert np.array_equal(space.gram, again.gram)


@given(dims, seeds)
def test_random_operator_margins(d, seed):
    cfg = GenConfig(dim=d, kappa_minus=min(1, d), seed=seed)
    op = random_operator(random_space(cfg), cfg)
    values = np.array(list(spectrum(op).values()))
    real = values[np.abs(values.imag) < 1e-7]
    # accepted draws keep distinct eigenvalues separated by the generator gap
    for i in range(len(real)):
        for j in range(i + 1, len(real)):
            assert abs(real[i] - real[j]) > Tolerance.GEN_MIN_GAP * 0.999


@given(dims, st.integers(min_value=0, max_value=3), seeds)
def test_random_pair_rank_is_exact(d, n, seed):
    n = min(n, d)
    cfg = GenConfig(dim=d, kappa_minus=min(1, d), pert_rank=n, seed=seed)
    space = random_space(cfg)
    pair = random_pair(space, cfg)
    assert pair.n == n
    if n == 0:
        assert np.array_equal(pair.op1.matrix, pair.op2.matrix)
    assert np.linalg.matrix_rank(pair.op1.matrix - pair.op2.matrix, tol=1e-8) == n


def test_rank_zero_pair_is_a1_with_itself():
    # one operator, so its spectrum and table are built once, not twice
    cfg = GenConfig(dim=4, kappa_minus=1, pert_rank=0, seed=5)
    pair = random_pair(random_space(cfg), cfg)
    assert pair.op2 is pair.op1
    assert (pair.n, pair.agreement.dim) == (0, 4)


def test_random_pair_is_deterministic():
    cfg = GenConfig(dim=5, kappa_minus=2, pert_rank=2, seed=77)
    space = random_space(cfg)
    p1 = random_pair(space, cfg)
    p2 = random_pair(space, cfg)
    assert np.array_equal(p1.op1.matrix, p2.op1.matrix)
    assert np.array_equal(p1.op2.matrix, p2.op2.matrix)


@pytest.mark.parametrize(
    "d, kappa, n, seed", [(1, 0, 1, 0), (3, 1, 0, 5), (4, 1, 2, 3), (6, 2, 3, 11)]
)
def test_random_pair_from_a1_equals_pair_from_space(d, kappa, n, seed):
    cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=n, seed=seed)
    from_space = random_pair(random_space(cfg), cfg)
    op1 = random_operator(random_space(cfg), cfg)
    from_a1 = random_pair(op1, cfg)
    assert from_a1.op1 is op1
    assert from_a1.op2.matrix.tobytes() == from_space.op2.matrix.tobytes()
    assert from_a1.n == from_space.n == n


def test_random_pair_rejects_a1_of_another_dimension():
    cfg = GenConfig(dim=3, kappa_minus=1, seed=2)
    op1 = random_operator(random_space(cfg), cfg)
    with pytest.raises(ValidationError):
        random_pair(op1, GenConfig(dim=4, kappa_minus=1, pert_rank=1, seed=2))


@pytest.mark.parametrize(
    "other",
    [
        GenConfig(dim=4, kappa_minus=2, pert_rank=1, seed=2),  # both differ
        GenConfig(dim=4, kappa_minus=1, pert_rank=1, seed=2),  # dimension
        GenConfig(dim=3, kappa_minus=2, pert_rank=1, seed=2),  # kappa
    ],
)
def test_generators_reject_a_space_the_config_does_not_name(other):
    cfg = GenConfig(dim=3, kappa_minus=1, seed=2)
    space = random_space(cfg)
    op1 = random_operator(space, cfg)
    with pytest.raises(ValidationError):
        random_operator(space, other)
    with pytest.raises(ValidationError):
        random_pair(space, other)
    with pytest.raises(ValidationError):
        random_pair(op1, other)
    with pytest.raises(ValidationError):
        random_real_spectrum_operator(space, other, bounds=(-1.0, 1.0))


def _count_eigvals(monkeypatch) -> list:
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_operator_solves_its_eigenvalues_once(monkeypatch, seed):
    cfg = GenConfig(dim=5, kappa_minus=2, seed=seed)
    space = random_space(cfg)
    calls = _count_eigvals(monkeypatch)
    op = random_operator(space, cfg)
    spectrum(op)
    # the margin check's eigenvalues are the ones the spectrum clusters
    assert calls == [(5, 5)]


def test_validated_operator_solves_its_eigenvalues_on_first_spectrum(monkeypatch):
    space = random_space(GenConfig(dim=4, kappa_minus=1, seed=0))
    op = validate_operator(space, np.linalg.solve(space.gram, np.eye(4, dtype=complex)))
    calls = _count_eigvals(monkeypatch)
    assert calls == []
    spectrum(op)
    assert calls == [(4, 4)]
    # counted under two tolerances: one spectrum, whatever the tolerance,
    # beside a table per tolerance, whose rank cuts read rel and abs
    whole = Interval(-np.inf, np.inf)
    for tol in (DEFAULT_TOL, Tolerance(rel=1e-8)):
        assert gap_inertia(op, whole, tol).dim == 4
    assert calls == [(4, 4)]
    keys = sorted(key for key in op._memo if key[0] in ("spectrum", "table"))
    assert keys == [
        ("spectrum",), ("table", 1e-9, 1e-12), ("table", 1e-8, 1e-12)
    ]


def _margins_ok_by_triangle(values, tol):
    """The margin check as first written: the gaps of the upper triangle."""
    band = tol.GEN_REALNESS_FACTOR * tol.REALNESS_SCALE
    for v in values:
        im = abs(v.imag)
        if im > band * max(1.0, abs(v)) and im < tol.GEN_MIN_GAP:
            return False
    gaps = np.abs(values[:, None] - values[None, :])[np.triu_indices(len(values), 1)]
    return not np.any(gaps < tol.GEN_MIN_GAP)


def test_margin_check_matches_the_upper_triangle_formula():
    tol = Tolerance()
    gap = tol.GEN_MIN_GAP
    cases = [
        [0.5],  # d = 1: no gap at all
        [0.0, gap], [0.0, 1j * gap], [0.0, np.nextafter(gap, 0.0)],  # on the gap
        [2.0, 2.0], [1 + 2j, 1 - 2j, 1 + 2j],  # equal values
    ]
    rng = np.random.default_rng(7)
    for d in range(1, 7):
        for scale in (1e-4, 1e-3, 1e-2, 1.0):
            cases.append(scale * (rng.normal(size=d) + 1j * rng.normal(size=d)))
            cases.append(scale * rng.normal(size=d))
    verdicts = [gen._margins_ok(np.asarray(c, dtype=complex)) for c in cases]
    assert verdicts == [
        _margins_ok_by_triangle(np.asarray(c, dtype=complex), tol) for c in cases
    ]
    assert verdicts[:6] == [True, True, True, False, False, False]


def test_resample_budget_exhausts_on_impossible_gap(monkeypatch):
    monkeypatch.setattr(Tolerance, "GEN_MIN_GAP", 50.0)
    cfg = GenConfig(dim=6, kappa_minus=1, seed=0)
    space = random_space(cfg)
    with pytest.raises(ResampleBudgetError):
        random_operator(space, cfg)


def test_random_pair_resample_budget_exhausts_when_no_a2_passes(monkeypatch):
    cfg = GenConfig(dim=4, kappa_minus=1, pert_rank=2, seed=0)
    op1 = random_operator(random_space(cfg), cfg)
    monkeypatch.setattr(gen, "_margins_ok", lambda values: False)
    with pytest.raises(ResampleBudgetError) as caught:
        random_pair(op1, cfg)
    assert str(caught.value) == (
        f"no rank-2 perturbation with margins {Tolerance.GEN_MIN_GAP} "
        f"in {gen.RESAMPLE_BUDGET} draws"
    )


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (1.0, -1.0)])
def test_real_spectrum_operator_rejects_empty_bounds(bounds):
    cfg = GenConfig(dim=3, kappa_minus=1, seed=0)
    space = random_space(cfg)
    with pytest.raises(ValidationError) as caught:
        random_real_spectrum_operator(space, cfg, bounds=bounds)
    assert str(caught.value) == f"bounds must satisfy lo < hi, got {bounds}"


def test_real_spectrum_operator_respects_bounds():
    cfg = GenConfig(dim=5, kappa_minus=2, seed=21)
    space = random_space(cfg)
    op = random_real_spectrum_operator(space, cfg, bounds=(-1.0, 1.0))
    values = sorted(spectrum(op).values(), key=lambda z: z.real)
    assert all(abs(v.imag) < 1e-7 for v in values)
    assert all(-1.0 < v.real < 1.0 for v in values)
    for lo, hi in zip(values, values[1:]):
        assert hi.real - lo.real > Tolerance.GEN_MIN_GAP * 0.999


def test_real_spectrum_operator_impossible_packing(monkeypatch):
    # five eigenvalues pairwise 0.5 apart cannot fit in a unit interval
    monkeypatch.setattr(Tolerance, "GEN_MIN_GAP", 0.5)
    cfg = GenConfig(dim=5, kappa_minus=1, seed=0)
    space = random_space(cfg)
    with pytest.raises(ResampleBudgetError):
        random_real_spectrum_operator(space, cfg, bounds=(0.0, 1.0))


def test_golden_instance_bytes():
    """Generated instances are frozen: seed 42, d=4, kappa=1, rank 1."""
    cfg = GenConfig(dim=4, kappa_minus=1, pert_rank=1, seed=42)
    space = random_space(cfg)
    pair = random_pair(space, cfg)
    record = InstanceRecord(
        gram=space.gram,
        a1=pair.op1.matrix,
        a2=pair.op2.matrix,
        intervals=[Interval(-np.inf, np.inf)],
        name="gen-seed42-d4-k1-n1",
    )
    assert dumps_instance(record) == (DATA / "gen_seed42.json").read_text()


def _sha256(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "d, kappa, n, seed, min_gap, verdicts, golden",
    [
        # a d = 96 pair: every matrix draw is 9,216 complex normals
        (96, 2, 2, 3, None, [True, True], (
            "9aad584a1af4608e94eaa7635f16039c559f0c4abcc5e366cbd7ffd41a72632c",
            "a0f09adf77b9e4181e1916bb6e217c91cbf127f38053deed03f31d5ff05ee740",
            "60114a0baa6f950ef4830f87e98af80e0def3f038d98f6b82b19c9e8a9496aa1",
        )),
        # the first A1 draw and the first A2 draw are both rejected, so A1
        # and A2 come from the streams' continuations after a resample.
        # At the default gap not one of 40,000 draws at d = 2 was
        # rejected, so the gap is widened to reach a rejection.
        (16, 2, 2, 85, 0.2, [False, True, False, True], (
            "db35dbd2009f878b62d9d577d627485d9e89c7e786262e281f705159d48a7074",
            "bf993cd9a1a007dfaadbbb62d77fbe9d99b6e9408b526a37594ffd4413a6ab2b",
            "442382afb6a7dec38b5f4e33c02f6f68e304c59b022c79865252ae819849677c",
        )),
    ],
)
def test_golden_matrix_bytes(monkeypatch, d, kappa, n, seed, min_gap, verdicts, golden):
    """Gram, A1 and A2 bytes are frozen, including after rejected draws."""
    if min_gap is not None:
        monkeypatch.setattr(Tolerance, "GEN_MIN_GAP", min_gap)
    seen = []
    margins_ok = gen._margins_ok

    def counting(*args):
        seen.append(margins_ok(*args))
        return seen[-1]

    monkeypatch.setattr(gen, "_margins_ok", counting)
    cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=n, seed=seed)
    space = random_space(cfg)
    pair = random_pair(space, cfg)
    got = (_sha256(space.gram), _sha256(pair.op1.matrix), _sha256(pair.op2.matrix))
    assert seen == verdicts
    assert got == golden


def test_builtin_fixtures_literals():
    fix1, fix3 = builtin_fixtures()

    assert fix1.name == "example1"
    assert np.array_equal(fix1.pair.space.gram, np.diag([1.0, -1.0]))
    assert np.array_equal(
        fix1.pair.op1.matrix, np.array([[1.0, 1j], [1j, -1.0]])
    )
    assert np.array_equal(fix1.pair.op2.matrix, np.diag([0.5, 1.0]))
    assert fix1.interval == Interval(0.25, 2.0)
    assert fix1.expected == {
        "n": 1, "kappa": 1, "eig1": 0, "eig2": 2, "sig1": 0, "sig2": 0,
        "slack": 1,
    }

    assert fix3.name == "example3"
    assert np.array_equal(fix3.pair.space.gram, np.diag([-1.0, 1.0, 1.0]))
    assert fix3.pair.op1.matrix[0, 1] == 100j
    assert fix3.pair.op2.matrix[1, 1] == 400.0
    assert fix3.interval == Interval(0.0, np.inf)
    assert fix3.expected == {
        "n": 1, "kappa": 1, "eig1": 0, "eig2": 3, "sig1": 0, "sig2": 1,
        "slack": 0,
    }
