"""End-to-end checks of the eight headline guarantees.

Each test exercises one guarantee at its stated tolerance and budget and
records a one-line verdict for the terminal summary.  Tolerances are
asserted exactly as stated; none are loosened to make a test pass.
"""

import time
from pathlib import Path

import numpy as np

from pontgap.cli import main
from pontgap.gapform import (
    GapCase,
    GapLocation,
    decompose_resolvent_gap,
    decompose_spectrum_inside,
    hilbert_gap_check,
)
from pontgap.gen import (
    GenConfig,
    builtin_fixtures,
    random_pair,
    random_real_spectrum_operator,
    random_space,
)
from pontgap.indefinite import Inertia, validate_space
from pontgap.instancefile import InstanceRecord, dumps_instance, parse_instance
from pontgap.perturbation import resolvent_difference_rank, sample_admissible_points
from pontgap.spectral import Interval, spectrum
from pontgap.theorem import proof_witness, sweep_windows, verify_main_theorem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _ensemble_grid():
    """Every (d, kappa, n) cell with d <= 8, kappa <= 2, n <= 3."""
    return [
        (d, kappa, n)
        for d in range(2, 9)
        for kappa in range(0, min(2, d) + 1)
        for n in range(0, min(3, d) + 1)
    ]


def test_criterion_1_example1_counts(acceptance):
    ok = False
    start = time.perf_counter()
    try:
        fix = builtin_fixtures()[0]
        spec1 = spectrum(fix.pair.op1)
        assert len(spec1.entries) == 1
        assert abs(spec1.entries[0].value) <= 1e-9
        assert spec1.entries[0].multiplicity == 2
        spec2 = sorted(spectrum(fix.pair.op2).entries, key=lambda e: e.value.real)
        assert [e.multiplicity for e in spec2] == [1, 1]
        assert abs(spec2[0].value - 0.5) <= 1e-9
        assert abs(spec2[1].value - 1.0) <= 1e-9
        report = verify_main_theorem(fix.pair, fix.interval)
        assert (report.eig1, report.eig2) == (0, 2)
        assert (report.n, report.kappa) == (1, 1)
        assert report.eig_bound_holds and report.slack == 1
        ok = time.perf_counter() - start < 1.0
    finally:
        acceptance(1, "example 1 counts, slack 1", ok)
    assert ok


def test_criterion_2_example3_equality(acceptance):
    ok = False
    start = time.perf_counter()
    try:
        fix = builtin_fixtures()[1]
        values = sorted(spectrum(fix.pair.op1).values(), key=lambda z: z.imag)
        assert len(values) == 3
        assert abs(values[0] - (-100j)) <= 1e-9
        assert abs(values[1] - 0.0) <= 1e-9
        assert abs(values[2] - 100j) <= 1e-9
        report = verify_main_theorem(fix.pair, fix.interval)
        assert (report.n, report.kappa) == (1, 1)
        assert (report.eig1, report.eig2) == (0, 3)
        assert abs(report.eig2 - report.eig1) == report.n + 2 * report.kappa
        assert report.eig_bound_holds and report.slack == 0
        ok = time.perf_counter() - start < 1.0
    finally:
        acceptance(2, "example 3 equality case", ok)
    assert ok


def test_criterion_3_ensemble_bounds(acceptance):
    ok = False
    start = time.perf_counter()
    try:
        instances = 0
        for d, kappa, n in _ensemble_grid():
            for seed in range(13):
                cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=n, seed=seed)
                space = random_space(cfg)
                pair = random_pair(space, cfg)
                for interval in sweep_windows(pair):
                    report = verify_main_theorem(pair, interval)
                    assert report.sig_bound_holds, (cfg, interval)
                    assert report.eig_bound_holds, (cfg, interval)
                instances += 1
        assert instances >= 1000
        elapsed = time.perf_counter() - start
        ok = elapsed < 60.0
    finally:
        acceptance(3, f"ensemble bounds on {instances} instances", ok)
    assert ok


def _strict_signs(dec, rng) -> bool:
    minus_sign = -1.0 if dec.case is GapCase.RESOLVENT_GAP else 1.0
    for sub, sign in ((dec.m_minus, minus_sign), (dec.m_plus, -minus_sign)):
        for j in range(sub.dim):
            if not sign * dec.form.evaluate(sub.basis[:, j]) > 0:
                return False
        for _ in range(5):
            if sub.dim == 0:
                break
            c = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
            x = sub.basis @ (c / np.linalg.norm(c))
            if not sign * dec.form.evaluate(x) > 0:
                return False
    return True


def test_criterion_4_inertia_laws(acceptance):
    ok = False
    try:
        rng = np.random.default_rng(0)
        cases_a = cases_b = 0
        for d in range(2, 7):
            for kappa in range(0, min(2, d) + 1):
                for seed in range(15):
                    cfg = GenConfig(dim=d, kappa_minus=kappa, seed=seed)
                    space = random_space(cfg)

                    op = random_real_spectrum_operator(space, cfg, bounds=(-1.0, 1.0))
                    dec_b = decompose_spectrum_inside(op, -2.0, 2.0)
                    assert dec_b.inertia == Inertia(kappa, d - kappa, 0)
                    assert _strict_signs(dec_b, rng)
                    cases_b += 1

                    radius = max(abs(v) for v in spectrum(op).values())
                    dec_a = decompose_resolvent_gap(op, radius + 1.0, radius + 2.0)
                    assert dec_a.inertia == Inertia(d - kappa, kappa, 0)
                    assert _strict_signs(dec_a, rng)
                    cases_a += 1
        assert cases_a >= 200 and cases_b >= 200
        ok = True
    finally:
        acceptance(4, f"inertia laws ({cases_a}+{cases_b} cases)", ok)
    assert ok


def test_criterion_5_hilbert_reduction(acceptance):
    ok = False
    pairs = checks = 0
    try:
        # classical |eig1 - eig2| <= n with the definite inner product
        for d in range(2, 7):
            for n in range(0, min(3, d) + 1):
                for seed in range(11):
                    cfg = GenConfig(dim=d, kappa_minus=0, pert_rank=n, seed=seed)
                    space = validate_space(np.eye(d, dtype=complex))
                    assert np.array_equal(space.gram, np.eye(d))
                    pair = random_pair(space, cfg)
                    report = verify_main_theorem(pair, Interval(-np.inf, np.inf))
                    assert abs(report.eig2 - report.eig1) <= pair.n
                    assert report.positive_type and report.eig_bound_holds
                    pairs += 1
        assert pairs >= 200

        # three-way classification agrees with direct inspection
        rng = np.random.default_rng(5)
        while checks < 200:
            d = int(rng.integers(1, 7))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            t = 0.5 * (g + g.conj().T)
            w = np.linalg.eigvalsh(t)
            a, b = -0.5, 0.5
            if np.min(np.abs(w - a)) < 1e-5 or np.min(np.abs(w - b)) < 1e-5:
                continue
            inside = int(np.sum((w > a) & (w < b)))
            expected = (
                GapLocation.GAP_IN_RESOLVENT if inside == 0
                else GapLocation.SPECTRUM_IN_CLOSURE if inside == d
                else GapLocation.NEITHER
            )
            assert hilbert_gap_check(t, a, b) is expected
            checks += 1
        ok = True
    finally:
        acceptance(5, f"Hilbert reduction ({pairs} pairs, {checks} checks)", ok)
    assert ok


def test_criterion_6_resolvent_rank_invariance(acceptance):
    ok = False
    try:
        pairs = 0
        for d in range(2, 7):
            for n in range(0, min(3, d) + 1):
                for seed in range(3):
                    cfg = GenConfig(dim=d, kappa_minus=min(1, d), pert_rank=n,
                                    seed=seed)
                    space = random_space(cfg)
                    pair = random_pair(space, cfg)
                    points = sample_admissible_points(pair, count=10)
                    assert len(points) == 10
                    for z in points:
                        assert resolvent_difference_rank(pair, z) == pair.n
                    pairs += 1
        ok = pairs >= 50
    finally:
        acceptance(6, f"resolvent rank invariance ({pairs} pairs)", ok)
    assert ok


def test_criterion_7_proof_witness(acceptance):
    ok = False
    try:
        count = 0
        for fix in builtin_fixtures():
            w = proof_witness(fix.pair, fix.interval)
            assert w.q1_injective_on_k
            assert w.dim_k >= w.dim_minus_out2 + w.dim_plus_in2 - fix.pair.n
            assert w.dim_k <= w.dim_minus_out1 + w.dim_plus_in1
            assert w.eig2_delta_prime <= fix.pair.n + 2 * fix.pair.space.kappa_minus \
                + w.eig1_delta
            count += 1
        for d in range(2, 7):
            for kappa in range(0, min(2, d) + 1):
                for n in range(0, min(2, d) + 1):
                    for seed in range(3):
                        cfg = GenConfig(dim=d, kappa_minus=kappa, pert_rank=n,
                                        seed=seed)
                        space = random_space(cfg)
                        pair = random_pair(space, cfg)
                        w = proof_witness(pair, Interval(-np.inf, np.inf))
                        assert w.q1_injective_on_k
                        assert w.lower_bound_ok and w.upper_bound_ok
                        assert w.dim_k >= w.dim_minus_out2 + w.dim_plus_in2 - n
                        assert w.dim_k <= w.dim_minus_out1 + w.dim_plus_in1
                        assert w.eig2_delta_prime <= n + 2 * kappa + w.eig1_delta
                        assert w.chain_holds and w.sig_chain_holds
                        count += 1
        ok = count >= 102
    finally:
        acceptance(7, f"proof witness ({count} instances)", ok)
    assert ok


def test_criterion_8_determinism_and_round_trip(acceptance, tmp_path, capsys):
    ok = False
    try:
        texts = []
        for run in range(2):
            out = tmp_path / f"sweep{run}.csv"
            code = main(["sweep", "--dims", "2,3,4", "--kappas", "0,1",
                         "--ranks", "0,1,2", "--seeds", "3",
                         "--out", str(out)])
            capsys.readouterr()
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

        for name in ("example1.json", "example3.json"):
            text = (FIXTURES / name).read_text()
            assert dumps_instance(parse_instance(text)) == text
        for seed in range(25):
            cfg = GenConfig(dim=4, kappa_minus=1, pert_rank=2, seed=seed)
            space = random_space(cfg)
            pair = random_pair(space, cfg)
            record = InstanceRecord(
                gram=space.gram, a1=pair.op1.matrix, a2=pair.op2.matrix,
                intervals=(Interval(-np.inf, 0.0), Interval(0.0, np.inf)),
                name=f"round-trip-{seed}",
                expected=None,
            )
            text = dumps_instance(record)
            back = parse_instance(text)
            assert dumps_instance(back) == text
            assert np.array_equal(back.gram, record.gram)
            assert np.array_equal(back.a1, record.a1)
            assert np.array_equal(back.a2, record.a2)
        ok = True
    finally:
        acceptance(8, "determinism and round-trip", ok)
    assert ok
