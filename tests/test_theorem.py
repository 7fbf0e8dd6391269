import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
import pontgap.spectral
from pontgap.errors import DeltaPrimeSearchError
from pontgap.gen import GenConfig, builtin_fixtures, random_pair, random_space
from pontgap.indefinite import Inertia, validate_space
from pontgap.linalg import DEFAULT_TOL, Tolerance
from pontgap.perturbation import make_pair
from pontgap.spectral import Interval, spectrum, validate_operator
from pontgap.theorem import (
    GapReport,
    choose_delta_prime,
    proof_witness,
    sweep_counts,
    sweep_windows,
    verify_main_theorem,
)

dims = st.integers(min_value=1, max_value=5)
ranks = st.integers(min_value=0, max_value=2)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# reports on the hand-checked fixtures


def test_example1_report():
    fix = builtin_fixtures()[0]
    r = verify_main_theorem(fix.pair, fix.interval)
    assert (r.n, r.kappa) == (1, 1)
    assert (r.eig1, r.eig2, r.sig1, r.sig2) == (0, 2, 0, 0)
    assert r.inertia1 == Inertia(0, 0, 0)
    assert r.inertia2 == Inertia(1, 1, 0)
    assert r.sig_bound_holds and r.eig_bound_holds
    assert not r.equal_kappa_applicable
    assert r.equal_kappa_bound_holds  # vacuous when not applicable
    assert not r.positive_type
    assert r.min_kappa_bound == 3 and r.min_kappa_bound_holds
    assert r.slack == 1


def test_example3_report_is_tight():
    fix = builtin_fixtures()[1]
    r = verify_main_theorem(fix.pair, fix.interval)
    assert (r.eig1, r.eig2, r.sig1, r.sig2) == (0, 3, 0, 1)
    assert r.inertia2 == Inertia(2, 1, 0)
    assert r.eig_bound_holds and r.sig_bound_holds
    assert r.slack == 0  # |eig2 - eig1| == n + 2 kappa exactly


def test_reports_match_fixture_expectations():
    for fix in builtin_fixtures():
        r = verify_main_theorem(fix.pair, fix.interval)
        got = {
            "n": r.n, "kappa": r.kappa, "eig1": r.eig1, "eig2": r.eig2,
            "sig1": r.sig1, "sig2": r.sig2, "slack": r.slack,
        }
        assert got == fix.expected


# ---------------------------------------------------------------------------
# sweep_counts: each pair's windows from one count per operator


@pytest.fixture(scope="module", params=["fixtures", *range(1, 13), 32, 96],
                ids=lambda case: case if isinstance(case, str) else f"d{case}")
def pairs(request):
    """The builtin fixtures' pairs, or the generated pairs of one order d:
    kappa 0-3, ranks 0-3, seeds 0-2.  Below example1's first cut the counts
    are 2 and 0 with n = 1, which only unequal negative counts keep within
    the equal-kappa bound; no generated window has |eig1 - eig2| > n."""
    d = request.param
    if d == "fixtures":
        return [fixture.pair for fixture in builtin_fixtures()]
    return [
        random_pair(random_space(cfg), cfg)
        for kappa, rank, seed in itertools.product(range(4), range(4), range(3))
        if kappa <= d and rank <= d
        for cfg in [GenConfig(dim=d, kappa_minus=kappa, pert_rank=rank, seed=seed)]
    ]


def _folded(pair):
    """Each window's (lower, upper, eig1, eig2, sig1, sig2, slack, all_hold)
    as sweep_counts gives them: the whole line, then, if there is a cut,
    each window between adjacent ends."""
    cuts, counts = sweep_counts(pair)
    ends = [-math.inf, *cuts, math.inf]
    windows = [(-math.inf, math.inf), *(zip(ends, ends[1:]) if cuts else ())]
    assert len(windows) == len(counts)
    return [(*window, *count) for window, count in zip(windows, counts)]


def _per_window(pair):
    """The same, from each window of sweep_windows verified as such."""
    return [
        (w.lower, w.upper, r.eig1, r.eig2, r.sig1, r.sig2, r.slack, r.all_hold)
        for w in sweep_windows(pair)
        for r in [verify_main_theorem(pair, w)]
    ]


def test_sweep_counts_equal_each_window_verified_as_such(pairs, monkeypatch):
    expected = [_per_window(pair) for pair in pairs]
    assert [_folded(pair) for pair in pairs] == expected
    # where the rows do not add up, the fold counts each window's stacked union
    monkeypatch.setattr(pontgap.spectral, "_rows_add_up", lambda op, tol: False)
    twins = [
        make_pair(validate_operator(pair.space, pair.op1.matrix),
                  validate_operator(pair.space, pair.op2.matrix))
        for pair in pairs
    ]
    assert [_folded(twin) for twin in twins] == expected
    assert not any(pontgap.spectral._additive(op, DEFAULT_TOL)
                   for twin in twins for op in (twin.op1, twin.op2))


@pytest.mark.parametrize("d", [*range(1, 13), 32, 64, 96, 128])
def test_counts_without_negative_squares_equal_their_table_rows(d):
    # window_counts reads no table where kappa = 0: every sweep window's
    # count is still the sum of the window's rows of the operator's table
    windows = 0
    for seed in range(4):
        op1 = None
        for rank in range(min(d, 3) + 1):
            cfg = GenConfig(dim=d, kappa_minus=0, pert_rank=rank, seed=seed)
            pair = random_pair(op1 or random_space(cfg), cfg)
            op1 = pair.op1
            bounds = sweep_windows(pair)
            ends = sorted({end for window in bounds for end in (window.lower, window.upper)})
            for op in dict.fromkeys((pair.op1, pair.op2)):
                (whole,) = pontgap.spectral.window_counts(
                    op, (-math.inf, math.inf), DEFAULT_TOL)
                counts = [whole, *pontgap.spectral.window_counts(op, ends, DEFAULT_TOL)]
                rows = pontgap.spectral._table(op, DEFAULT_TOL).inertias
                for window, count in zip(bounds, counts):
                    _, included = pontgap.spectral.selection(op, window)
                    summed = [sum(getattr(rows[i], part) for i in included)
                              for part in ("plus", "minus", "zero")]
                    assert count == tuple(summed)
                    windows += 1
    assert windows >= 4 * min(d + 1, 4)


def test_every_sweep_cut_clears_both_spectra_by_each_endpoint_guard(pairs):
    # so no cut is ever ambiguous: the fold runs the endpoint guard of
    # spectral.positions at every cut, and no entry is near one
    cuts = 0
    for pair in pairs:
        ops = (pair.op1, pair.op2)
        values = [entry.value for op in ops for entry in spectrum(op).entries]
        for window in sweep_windows(pair)[2:]:
            cuts += 1
            for op in ops:
                guard = Tolerance.ENDPOINT_GUARD_SCALE * op.scale
                assert all(abs(value - window.lower) > guard for value in values)
    assert cuts > 0


# ---------------------------------------------------------------------------
# inner-interval selection


def test_unchecked_report_equals_the_checked_one():
    for fixture in builtin_fixtures():
        report = verify_main_theorem(fixture.pair, fixture.interval)
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(GapReport)}
        checked, unchecked = GapReport(**fields), GapReport._of_fields(**fields)
        for made in (report, unchecked):
            assert type(made) is GapReport
            assert made == checked
            assert hash(made) == hash(checked)
            assert repr(made) == repr(checked)
            assert vars(made) == vars(checked)
        with pytest.raises(dataclasses.FrozenInstanceError):
            unchecked.slack = 0


def test_choose_delta_prime_frozen_values():
    fix1, fix3 = builtin_fixtures()
    dp1 = choose_delta_prime(fix1.pair, fix1.interval)
    assert dp1.lower == pytest.approx(0.375, abs=0)
    assert dp1.upper == pytest.approx(1.5, abs=0)
    dp3 = choose_delta_prime(fix3.pair, fix3.interval)
    assert dp3.lower == pytest.approx(0.52177779365651933, rel=1e-15)
    assert dp3.upper == pytest.approx(375.35903003524038, rel=1e-15)


@given(dims, ranks, seeds)
def test_choose_delta_prime_contract(d, n, seed):
    n = min(n, d)
    space = helpers.make_space(d, min(1, d), seed)
    pair = helpers.make_rank_perturbed_pair(space, seed + 5, n)
    interval = Interval(-np.inf, np.inf)
    dp = choose_delta_prime(pair, interval)
    assert interval.lower < dp.lower < dp.upper < interval.upper
    # counted real eigenvalues of A1 end up strictly inside
    for v in spectrum(pair.op1).values():
        if abs(v.imag) < 1e-7:
            assert dp.lower < v.real < dp.upper
    # endpoints keep the advertised margin from both spectra
    for op in (pair.op1, pair.op2):
        band = Tolerance.CLUSTERING_SCALE * max(1.0, np.linalg.norm(op.matrix))
        margin = Tolerance.DELTA_PRIME_MARGIN_FACTOR * band
        for v in spectrum(op).values():
            assert abs(v - dp.lower) >= margin
            assert abs(v - dp.upper) >= margin


def test_choose_delta_prime_steps_off_zero_on_the_whole_line():
    # A's eigenvalues +-1e-4 i lie within the margin (1e-3) of 0, so the
    # search on the whole line moves on to -1 and then, going up from
    # there, past 0 again to 1.  A second block with eigenvalues
    # -1 +- 1e-4 i rules out -1 as well, and the search takes +1, then 2.
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    block = np.array([[0, 1], [-((1e-4) ** 2), 0]], dtype=complex)
    zero = np.zeros((2, 2))
    cases = [
        (flip, block, Interval(-1.0, 1.0)),
        (np.block([[flip, zero], [zero, flip]]),
         np.block([[block, zero], [zero, block - np.eye(2)]]), Interval(1.0, 2.0)),
    ]
    whole = Interval(-np.inf, np.inf)
    for gram, a, inner in cases:
        space = validate_space(gram)
        pair = make_pair(validate_operator(space, a), validate_operator(space, a))
        assert choose_delta_prime(pair, whole) == inner
        assert proof_witness(pair, whole).all_hold


def test_choose_delta_prime_exhausts_on_pinned_window():
    # every candidate inside (0.4995, 0.5005) sits within the required
    # clearance of A2's eigenvalue 1/2, so the sweep must give up
    pair = builtin_fixtures()[0].pair
    with pytest.raises(DeltaPrimeSearchError):
        choose_delta_prime(pair, Interval(0.4995, 0.5005))


def test_choose_delta_prime_walks_unbounded_sides_to_the_double_range():
    # example3 scaled by 2**70: its margin, 1e3 clustering bands, is about
    # 1e-3 ||A||_F ~ 4e20, past 2**59, the 60th doubling step.  The walk
    # goes on to 2**1023, so both unbounded windows get their witness, with
    # the counts of the unscaled pair (the scaling is exact)
    fix = builtin_fixtures()[1]
    space = fix.pair.op1.space
    scaled = make_pair(
        validate_operator(space, fix.pair.op1.matrix * 2.0**70),
        validate_operator(space, fix.pair.op2.matrix * 2.0**70),
    )
    for interval in (Interval(0.0, np.inf), Interval(-np.inf, np.inf)):
        witness = proof_witness(scaled, interval)
        assert witness.all_hold
        assert abs(choose_delta_prime(scaled, interval).lower) > 2.0**59
        report = verify_main_theorem(scaled, interval)
        unscaled = verify_main_theorem(fix.pair, interval)
        assert (report.eig1, report.eig2, report.sig1, report.sig2) == (
            unscaled.eig1, unscaled.eig2, unscaled.sig1, unscaled.sig2
        )
        assert (witness.eig1_delta_prime, witness.eig2_delta_prime) == (
            unscaled.eig1, unscaled.eig2
        )


# ---------------------------------------------------------------------------
# witnesses


def test_example1_witness_dimensions():
    fix = builtin_fixtures()[0]
    w = proof_witness(fix.pair, fix.interval)
    assert (w.dim_minus_out1, w.dim_plus_in1) == (1, 0)
    assert (w.dim_minus_out2, w.dim_plus_in2) == (0, 1)
    assert w.dim_k == 0
    assert w.q1_injective_on_k
    assert w.lower_bound_ok and w.upper_bound_ok
    assert w.chain_holds and w.sig_chain_holds
    assert (w.eig1_delta_prime, w.eig2_delta_prime) == (0, 2)


def test_example3_witness_is_pinched_tight():
    fix = builtin_fixtures()[1]
    w = proof_witness(fix.pair, fix.interval)
    assert (w.dim_minus_out1, w.dim_plus_in1) == (1, 0)
    assert (w.dim_minus_out2, w.dim_plus_in2) == (0, 2)
    # both pinch inequalities are equalities here: 1 = 0 + 2 - 1 = 1 + 0
    assert w.dim_k == 1
    assert w.lower_bound_ok and w.upper_bound_ok and w.q1_injective_on_k
    assert (w.eig1_delta, w.eig2_delta) == (0, 3)
    assert w.chain_holds and w.sig_chain_holds


@given(dims, ranks, seeds)
def test_witness_checks_hold_on_random_pairs(d, n, seed):
    n = min(n, d)
    space = helpers.make_space(d, min(2, d), seed)
    pair = helpers.make_rank_perturbed_pair(space, seed + 3, n)
    w = proof_witness(pair, Interval(-np.inf, np.inf))
    assert w.q1_injective_on_k
    assert w.dim_k >= w.dim_minus_out2 + w.dim_plus_in2 - n
    assert w.dim_k <= w.dim_minus_out1 + w.dim_plus_in1
    assert w.chain_holds and w.sig_chain_holds
    assert w.lower_bound_ok and w.upper_bound_ok
    # on the full line the inner interval still counts every real point
    assert w.eig1_delta_prime <= w.eig1_delta
    assert w.eig2_delta_prime <= w.eig2_delta


# ---------------------------------------------------------------------------
# report coherence on random pairs


@given(dims, ranks, seeds)
def test_report_numbers_are_coherent(d, n, seed):
    n = min(n, d)
    kminus = min(2, d)
    space = helpers.make_space(d, kminus, seed)
    pair = helpers.make_rank_perturbed_pair(space, seed + 1, n)
    r = verify_main_theorem(pair, Interval(-np.inf, np.inf))
    assert r.n == n
    assert r.kappa == kminus
    diff = abs(r.eig2 - r.eig1)
    assert r.slack == n + 2 * kminus - diff
    assert r.eig_bound_holds == (diff <= n + 2 * kminus)
    assert r.sig_bound_holds == (abs(r.sig2 - r.sig1) <= n)
    assert r.min_kappa_bound == n + 2 * min(space.kappa_plus, space.kappa_minus)
    assert r.min_kappa_bound <= n + 2 * kminus
    if r.equal_kappa_applicable:
        assert r.inertia1.minus == r.inertia2.minus
        assert r.equal_kappa_bound_holds == (diff <= n)
    if r.positive_type:
        assert r.equal_kappa_applicable
        assert r.sig1 == r.eig1 and r.sig2 == r.eig2
    # the bounds themselves must actually hold on generated instances
    assert r.eig_bound_holds and r.sig_bound_holds
    assert r.equal_kappa_bound_holds and r.min_kappa_bound_holds
