"""Acceptance suite: the seven exit criteria, one test each.

Every test prints a single PASS/FAIL line (run pytest with -s to see them
all). Exact integer assertions throughout; the only tolerances are the two
wall-clock budgets, asserted as stated: the full exhaustive verification
must stay under 5 minutes and the classifier table under 10 seconds.
"""

import json
import random
import time

from burnside import (
    GroupSpec,
    PrimeField,
    classify,
    enumerate_diff_preserving,
    make_affine,
    run_trace,
    verify_certificate,
)
from burnside.automorphisms import all_diff_sets, naive_enumerate, scan_all_subsets
from burnside.classifier import DOUBLY_TRANSITIVE, SOLVABLE_AFFINE
from burnside.cli import main
from burnside.fields import (
    elementary_symmetric_via_newton,
    min_nonzero_power_sum,
    vandermonde_det,
)
from burnside.groups import derived_series, enumerate_group
from burnside.permutations import Perm
from burnside.polynomials import FpPoly
from burnside.trace import AFFINE, check_binomial_expansion

from conftest import qr_set

SCAN_PRIMES = (3, 5, 7, 11, 13)
SUBSET_COUNTS = {3: 2, 5: 14, 7: 62, 11: 1022, 13: 4094}


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_1_exhaustive_affine_verification():
    start = time.perf_counter()
    checked = 0
    for p in SCAN_PRIMES:
        rows = scan_all_subsets(PrimeField(p))
        assert len(rows) == SUBSET_COUNTS[p]
        for row in rows:
            assert row.all_affine
            assert row.automorphism_count == p * row.stabilizer_size
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (exhaustive affine verification)",
        elapsed < 300.0,
        f"{checked} subsets across p in {SCAN_PRIMES}, {elapsed:.1f}s < 300s",
    )


def test_criterion_2_dual_oracle_equality():
    compared = 0
    for p in (3, 5, 7):
        field = PrimeField(p)
        for dset in all_diff_sets(field):
            fast = enumerate_diff_preserving(field, dset)
            slow = naive_enumerate(field, dset)
            assert fast.automorphisms == slow.automorphisms
            compared += 1
    _report(
        "criterion 2 (dual-oracle equality)",
        True,
        f"{compared} subsets, backtracking == p!-filter exactly",
    )


def test_criterion_3_classifier_regression_table():
    start = time.perf_counter()
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        translation = make_affine((1, 1), field)

        cyclic = GroupSpec(field, (translation,))
        c = classify(cyclic)
        assert c.variant == SOLVABLE_AFFINE and len(c.diff_set) == 1
        assert verify_certificate(cyclic, c)
        assert derived_series(enumerate_group(cyclic, p * (p - 1)))[-1] == 1

        dihedral = GroupSpec(field, (translation, make_affine((p - 1, 0), field)))
        c = classify(dihedral)
        assert c.variant == SOLVABLE_AFFINE and c.diff_set.elements == (1, p - 1)
        assert verify_certificate(dihedral, c)
        assert derived_series(enumerate_group(dihedral, p * (p - 1)))[-1] == 1

        swap = list(range(p))
        swap[0], swap[1] = 1, 0
        symmetric = GroupSpec(field, (translation, Perm(field, tuple(swap))))
        c = classify(symmetric)
        assert c.variant == DOUBLY_TRANSITIVE
        assert verify_certificate(symmetric, c)

        three_cycle = list(range(p))
        three_cycle[0], three_cycle[1], three_cycle[2] = 1, 2, 0
        alternating = GroupSpec(field, (translation, Perm(field, tuple(three_cycle))))
        c = classify(alternating)
        assert c.variant == DOUBLY_TRANSITIVE
        assert verify_certificate(alternating, c)

    field = PrimeField(7)
    frobenius = GroupSpec(
        field, (make_affine((1, 1), field), make_affine((2, 0), field))
    )
    c = classify(frobenius)
    assert c.variant == SOLVABLE_AFFINE and c.diff_set.elements == (1, 2, 4)
    assert verify_certificate(frobenius, c)
    assert derived_series(enumerate_group(frobenius, 42))[-1] == 1

    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (classifier regression table)",
        elapsed < 10.0,
        f"C_p/D_p/S_p/A_p for p in (5,7,11,13) plus Frobenius-21, {elapsed:.1f}s < 10s",
    )


def test_criterion_4_trace_completeness():
    traced = 0
    for p in SCAN_PRIMES:
        field = PrimeField(p)
        for dset in all_diff_sets(field):
            result = enumerate_diff_preserving(field, dset)
            for perm in result.automorphisms:
                report = run_trace(field, dset, perm)
                assert report.verdict == AFFINE
                assert report.degree == 1
                assert all(step.passed for step in report.steps)
                traced += 1
    _report(
        "criterion 4 (trace completeness)",
        True,
        f"{traced} traces, zero VIOLATION verdicts",
    )


def test_criterion_5_power_sum_bound():
    checked = 0
    for p in SCAN_PRIMES:
        field = PrimeField(p)
        half = (p - 1) // 2
        for dset in all_diff_sets(field):
            if 2 * len(dset) <= p - 1:
                assert min_nonzero_power_sum(dset) <= half
                checked += 1
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        assert min_nonzero_power_sum(qr_set(field)) == (p - 1) // 2
    _report(
        "criterion 5 (power-sum bound)",
        True,
        f"{checked} small sets bounded; quadratic residues hit (p-1)/2 exactly",
    )


def test_criterion_6_algebra_self_checks():
    newton_checked = 0
    for p in (3, 5, 7, 11):
        field = PrimeField(p)
        for dset in all_diff_sets(field):
            m = len(dset)
            es = elementary_symmetric_via_newton(dset, m)
            poly = FpPoly.from_roots(field, dset.elements)
            for k in range(1, m + 1):
                sign = 1 if k % 2 == 0 else -1
                assert es[k - 1] == sign * poly.coeffs[m - k] % p
            newton_checked += 1

    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        rng = random.Random(p * 7919)
        sets = list(all_diff_sets(field))
        for _ in range(100):
            coeffs = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 6)))
            poly = FpPoly(field, coeffs)
            assert check_binomial_expansion(poly, rng.choice(sets), rng.randrange(1, 6))

    vdm_checked = 0
    for p in SCAN_PRIMES:
        field = PrimeField(p)
        for dset in all_diff_sets(field):
            assert vandermonde_det(dset) != 0
            vdm_checked += 1

    _report(
        "criterion 6 (algebra self-checks)",
        True,
        f"Newton on {newton_checked} sets, 400 random binomial expansions, "
        f"{vdm_checked} nonzero Vandermonde determinants",
    )


def test_criterion_7_scan_determinism(capsys):
    assert main(["scan", "--p", "11", "--jobs", "1"]) == 0
    single = capsys.readouterr().out
    assert main(["scan", "--p", "11", "--jobs", "8"]) == 0
    parallel = capsys.readouterr().out
    ok = single == parallel and json.loads(single)["result"]["subsets"] == 1022
    _report(
        "criterion 7 (scan determinism)",
        ok,
        "scan --p 11 byte-identical for --jobs 1 and --jobs 8",
    )
