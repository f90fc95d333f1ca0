"""An executable mutation record for the program's fast paths.

Each entry names a source file, one exact snippet of it, a replacement
that breaks the fast path, and the test nodes that must fail once the
replacement is made. The record shows that each fast path's equality
test against its slow oracle can fail.

Run from the repository root:

    python tests/mutants.py

Each mutant is applied to a copy of ``src/``, ``tests/`` and the files
the suite reads besides them (``FILES``) in a temporary directory, where
the whole suite collects, and its nodes run there with ``pytest -x``, on
at most ``min(4, os.cpu_count())`` subprocesses at once; results print in
record order. The run fails if any mutant's nodes all pass (the mutant
survives) or cannot be run. ``tests/test_mutants.py`` checks, in
the Tier-1 suite, that every snippet occurs exactly once in its file, so
a refactor that moves a mutated line must update this record.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Read by the suite besides src/ and tests/: the README's examples and the
# tracer's wrapped names.
FILES = ("pyproject.toml", "README.md", "perfbench/tracer.py")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/
    snippet: str  # occurs exactly once in the file
    replacement: str
    nodes: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        "row-affinity-dropped",
        "src/burnside/automorphisms.py",
        "and affine_coeffs(images, p) is None:",
        "and False:",
        ("tests/test_automorphisms.py::TestScan::test_row_rejects_a_non_affine_map",
         "tests/test_automorphisms.py::TestAffineAssertions::test_nonaffine_member_raises"),
    ),
    Mutant(
        "walk-exit-with-a-tie",
        "src/burnside/automorphisms.py",
        "if order == 1 and len(set(vectors)) == p:",
        "if order == 1 and len(set(vectors)) >= p - 1:",
        ("tests/test_fast_paths.py::TestEarlyWalkExit::test_vectors_alone",),
    ),
    Mutant(
        "walk-tie-bound-halved",
        "src/burnside/automorphisms.py",
        "return multisets if order % 2 == 0 else 2 * multisets - 1",
        "return multisets",
        ("tests/test_automorphisms.py::TestWalkGuard::test_guard_edges",
         "tests/test_automorphisms.py::TestWalkGuard::test_small_sets_mod_97",
         "tests/test_automorphisms.py::TestSlotWidths::test_two_point_layout"),
    ),
    Mutant(
        "walk-one-length-short",
        "src/burnside/automorphisms.py",
        "for k in range(1, last):",
        "for k in range(1, last - 1):",
        ("tests/test_fast_paths.py::TestEarlyWalkExit::test_every_small_set",
         "tests/test_fast_paths.py::TestEarlyWalkExit::test_first_separating_length_mod_13"),
    ),
    Mutant(
        "walk-key-field-one-bit-short",
        "src/burnside/automorphisms.py",
        "widths = [(size ** k).bit_length() for k in range(last)]",
        "widths = [(size ** k).bit_length() - 1 for k in range(last)]",
        ("tests/test_fast_paths.py::TestEarlyWalkExit::test_every_small_set",
         "tests/test_fast_paths.py::TestWalkKey::test_fields_fit_their_slots",
         "tests/test_automorphisms.py::TestSlotWidths::test_walk_counts"),
    ),
    Mutant(
        "walk-class-size-loosened",
        "src/burnside/automorphisms.py",
        "if sizes[vector] == order and vector not in tried:",
        "if sizes[vector] % order == 0 and vector not in tried:",
        ("tests/test_automorphisms.py::TestWalkCounts::test_count_law_checks_the_shortcut",
         "tests/test_automorphisms.py::TestWalkCounts::test_proper_subgroup_refused"),
    ),
    Mutant(
        "walk-maps-unchecked",
        "src/burnside/automorphisms.py",
        "if all(_preserves(images, elements, p) for images in maps):",
        "if True:",
        ("tests/test_automorphisms.py::TestWalkCounts::test_walk_maps_are_checked",),
    ),
    Mutant(
        "representative-as-list",
        "src/burnside/automorphisms.py",
        "reps.append(DiffSet._trusted(field, combo))",
        "reps.append(DiffSet._trusted(field, list(combo)))",
        ("tests/test_automorphisms.py::TestRotationWalk::test_matches_label_walk",
         "tests/test_automorphisms.py::TestUncheckedConstruction::test_orbit_representatives"),
    ),
    Mutant(
        "translate-as-list",
        "src/burnside/automorphisms.py",
        "perms = tuple(Perm._trusted(field, t) for t in tables)",
        "perms = tuple(Perm._trusted(field, list(t)) for t in tables)",
        ("tests/test_automorphisms.py::TestUncheckedConstruction::test_golden_sets",
         "tests/test_automorphisms.py::TestEnumeration::test_matches_naive_filter"),
    ),
    Mutant(
        "walk-maps-as-lists",
        "src/burnside/automorphisms.py",
        "return tuple(tuple([a * x % p for x in range(p)]) for a in range(p))",
        "return tuple([a * x % p for x in range(p)] for a in range(p))",
        ("tests/test_automorphisms.py::TestWalkCounts::test_maps_fixing_zero_takes_the_shortcut",
         "tests/test_fast_paths.py::TestMultiplierLines::test_rows_are_the_multiplier_maps"),
    ),
    Mutant(
        "line-compare-always-accepting",
        "src/burnside/automorphisms.py",
        "if not (images[1] and images == lines[images[1]]) and",
        "if False and",
        ("tests/test_automorphisms.py::TestScan::test_row_rejects_a_non_affine_map",
         "tests/test_automorphisms.py::TestAffineAssertions::test_nonaffine_member_raises",
         "tests/test_fast_paths.py::TestMultiplierLines::test_line_compare_on_tampered_tables"),
    ),
    Mutant(
        "line-compare-zero-row",
        "src/burnside/automorphisms.py",
        "if not (images[1] and images == lines[images[1]]) and",
        "if not (images == lines[images[1]]) and",
        ("tests/test_fast_paths.py::TestMultiplierLines::test_line_compare_on_tampered_tables",),
    ),
    Mutant(
        "multiplier-skip-loosened",
        "src/burnside/automorphisms.py",
        "if len(stabilizer) < 3 and",
        "if len(stabilizer) < 2 and",
        ("tests/test_automorphisms.py::TestWalkCounts::test_maps_fixing_zero_takes_the_shortcut",
         "tests/test_automorphisms.py::TestNoWalkTestFromThreeMultipliers"
         "::test_maps_fixing_zero_skips_the_walk_test"),
    ),
    Mutant(
        "period-wrong-divisor",
        "src/burnside/automorphisms.py",
        "return next(d for d in cyclic_table(p).divisors if double >> d & mask == word)",
        "return next(n // d for d in cyclic_table(p).divisors if double >> d & mask == word)",
        ("tests/test_fast_paths.py::TestWalkStabilizer::test_representatives",
         "tests/test_automorphisms.py::TestMultStabilizer::test_matches_all_multipliers_oracle"),
    ),
    Mutant(
        "orbit-rotations-one-short",
        "src/burnside/automorphisms.py",
        "for r in range(period):",
        "for r in range(period - 1):",
        ("tests/test_automorphisms.py::TestRotationWalk::test_matches_label_walk",),
    ),
    Mutant(
        "walk-complement-not-reversed",
        "src/burnside/automorphisms.py",
        "orbits += orbits[starts[k - 1]:starts[k]][::-1]",
        "orbits += orbits[starts[k - 1]:starts[k]]",
        ("tests/test_automorphisms.py::TestRotationWalk::test_matches_label_walk",
         "tests/test_cli.py::TestScanCommand::test_report_bytes"),
    ),
    Mutant(
        "block-tail-slice-off-by-one",
        "src/burnside/cli.py",
        "yield block[:-len(opening)]",
        "yield block[:-len(opening) - 1]",
        ("tests/test_fast_paths.py::TestBlockWriter::test_matches_json_dumps",
         "tests/test_cli.py::TestScanCommand::test_report_bytes"),
    ),
    Mutant(
        "power-sum-slot-two-bits-narrow",
        "src/burnside/fields.py",
        "    return ((p - 1) ** 3).bit_length()",
        "    return ((p - 1) ** 3).bit_length() - 2",
        ("tests/test_fields.py::TestPackedPowersBuild::test_column_build_matches_pow_build",
         "tests/test_polynomials.py::TestInterpolation::test_largest_weighted_row_sum_does_not_carry",
         "tests/test_trace.py::TestGoldenTraceBytes::test_trace_json_bytes_unchanged"),
    ),
    Mutant(
        "power-sum-unpack-compare-dropped",
        "src/burnside/trace.py",
        "left, right = unpack_powers(left, p), unpack_powers(right, p)\n"
        "            passed = [ok and a == b for ok, a, b in zip(passed, left, right)]",
        "passed = [False] * (p - 1)",
        ("tests/test_trace.py::TestPackedPowerSums::test_matches_direct_check_exhaustive_p5",
         "tests/test_trace.py::TestColumnSums::test_matches_point_sums_on_non_preserving_maps"),
    ),
    Mutant(
        "power-sum-first-always-one",
        "src/burnside/fields.py",
        "if sum(dset.elements) % p:",
        "if True:",
        ("tests/test_fast_paths.py::TestLazyPowerSum::test_every_small_set",
         "tests/test_fast_paths.py::TestLazyPowerSum::test_sum_first"),
    ),
    Mutant(
        "degree-forcing-always-true",
        "src/burnside/trace.py",
        "forces = nw - r <= n * (w_max - r)",
        "forces = True",
        ("tests/test_trace.py::TestDegreeComparison::test_degree_five_map_mod_13",),
    ),
    Mutant(
        "linear-base-dropped",
        "src/burnside/trace.py",
        "others.append(linear_power_sum(linear, w, p))",
        "others.append(linear_power_sum(linear[1:], w, p))",
        ("tests/test_trace.py::TestMillerKernel",),
    ),
    Mutant(
        "miller-ratio-index-off-by-one",
        "src/burnside/polynomials.py",
        "ratio = (e1 - k) * inv[k]",
        "ratio = (e1 - k) * inv[k - 1]",
        ("tests/test_polynomials.py::TestLinearPowerSum",
         "tests/test_trace.py::TestMillerKernel"),
    ),
    Mutant(
        "miller-first-coefficient-drops-a-base",
        "src/burnside/polynomials.py",
        "out = [sum(gs) % p]",
        "out = [sum(gs[1:]) % p]",
        ("tests/test_trace.py::TestMillerKernel",),
    ),
    Mutant(
        "power-squaring-multiply-dropped",
        "src/burnside/polynomials.py",
        "base = [c % p for c in mul_coeffs(base, base)]",
        "base = [c % p for c in base]",
        ("tests/test_polynomials.py::TestMillerPower",),
    ),
    Mutant(
        "cycle-walk-one-step-short",
        "src/burnside/permutations.py",
        "for k in range(1, len(images)):",
        "for k in range(1, len(images) - 1):",
        ("tests/test_fast_paths.py::TestOneWalkCycleTest::test_every_perm",),
    ),
    Mutant(
        "preserves-without-offset",
        "src/burnside/automorphisms.py",
        "top = x + p * layout.ones",
        "top = x",
        ("tests/test_automorphisms.py::TestBytePackedCheck::test_random_maps",
         "tests/test_automorphisms.py::TestCheckPreserves"),
    ),
    Mutant(
        "slot-one-bit-too-narrow",
        "src/burnside/fields.py",
        "if largest < 1 << b:",
        "if largest < 2 << b:",
        ("tests/test_fields.py::TestRowLayout::test_narrowest_width",
         "tests/test_automorphisms.py::TestSlotWidths::test_refinement_keys",
         "tests/test_automorphisms.py::TestSlotWidths::test_difference_check_raises_past_one_byte"),
    ),
    Mutant(
        "certificate-log-off-by-one",
        "src/burnside/classifier.py",
        "bits[c.a].bit_length() - 1",
        "bits[c.a].bit_length()",
        ("tests/test_classifier.py::TestCyclicTableUnits::test_every_pair_of_units",
         "tests/test_classifier.py::TestCertificateProperty::test_classify_then_verify"),
    ),
    Mutant(
        "subgroup-unsorted",
        "src/burnside/fields.py",
        "tuple(sorted(cyclic_table(p).powers[::t]))",
        "tuple(cyclic_table(p).powers[::t])",
        ("tests/test_automorphisms.py::TestMultStabilizer::test_matches_all_multipliers_oracle",
         "tests/test_classifier.py::TestCyclicTableUnits::test_every_pair_of_units"),
    ),
    Mutant(
        "certificate-fixed-point-rule-dropped",
        "src/burnside/classifier.py",
        "if any(2 <= sum(v == i for i, v in enumerate(g.images)) < p for g in spec.generators):",
        "if False:",
        ("tests/test_classifier.py::TestCertificateDecides::test_no_p_cycle_among_generators",),
    ),
    Mutant(
        "verify-order-check-always-true",
        "src/burnside/classifier.py",
        "return classification.group_order == p * exponent",
        "return True",
        ("tests/test_classifier.py::TestClosedFormOrder::test_consistent_supergroup_claim_rejected",),
    ),
    Mutant(
        "verify-unit-stabilizer-dropped",
        "src/burnside/classifier.py",
        "if sorted(a * u % p for u in units) != units:",
        "if False:",
        ("tests/test_fast_paths.py::TestVerifyOnTables::test_golden_certificates_and_tampers",),
    ),
    Mutant(
        "verify-claimed-b-dropped",
        "src/burnside/classifier.py",
        "if conjugate_affine_coeffs(g.images, labels, p) != (a % p, b % p):",
        "if (conjugate_affine_coeffs(g.images, labels, p) or (None,))[0] != a % p:",
        ("tests/test_classifier.py::TestVerifyCertificate::test_tampered_embedding_rejected",
         "tests/test_classifier.py::TestMalformedCertificate::test_parts",
         "tests/test_fast_paths.py::TestVerifyOnTables::test_golden_certificates_and_tampers"),
    ),
)


def _copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    for name in FILES:
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, target / name)


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(killed, pytest's last lines): killed when the nodes ran and failed."""
    with tempfile.TemporaryDirectory(prefix="burnside-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        source = tree / mutant.path
        text = source.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            return False, f"snippet occurs {text.count(mutant.snippet)} times in {mutant.path}"
        source.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.nodes],
            cwd=tree, env=env, capture_output=True, text=True)
    tail = "\n".join(proc.stdout.strip().splitlines()[-3:])
    # pytest exits 1 when tests ran and some failed; any other code means
    # the nodes passed (0) or could not be collected or run.
    return proc.returncode == 1, tail


def main() -> int:
    survivors = []
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        for mutant, (killed, tail) in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name}\n  {tail}", flush=True)
            if not killed:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
