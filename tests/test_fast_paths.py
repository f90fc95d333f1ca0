"""Each fast path of the scan against the slow route it replaced.

The block writer against ``json.dumps(indent=2)``; the row checked on
image tables against the row built from validated ``Perm``s; the cached
multiplier lines against the affine maps built one by one, and the
affinity check's line compare against ``affine_coeffs``; the M(U) the
orbit walk reads off its words against ``mult_stabilizer``; the walk
test on packed rows against its definition walked point by point; the
lazy power-sum read, S(1) first, against the unpacked vector; the
one-walk p-cycle test against the full cycle type; the certificate's
conjugates read off image tables against the conjugates built as
``Perm``s, and ``verify_certificate`` against the verifier that builds
them.
"""

import collections
import itertools
import json
import random
from contextlib import redirect_stdout
from io import StringIO

import pytest

import burnside.automorphisms
import burnside.cli
import burnside.fields
from burnside.cli import SCAN_BLOCK, _json_chunks, _ScanRows
from burnside.automorphisms import (
    LONGEST_WALK,
    _assert_theorem,
    _multiplier_tables,
    _scan_rows,
    _walk_plan,
    _walks_separate,
    all_diff_sets,
    canonical_subsets,
    mult_stabilizer,
    walk_orbits,
)
from burnside.classifier import SOLVABLE_AFFINE, classify, verify_certificate
from burnside.cli import parse_group_file
from burnside.errors import InputError, InternalInvariantViolation, PropositionViolated
from burnside.fields import (
    DiffSet,
    PrimeField,
    is_prime,
    min_nonzero_power_sum,
    subgroup_of_index,
)
from burnside.groups import GroupSpec, bfs_elements
from burnside.permutations import (
    Perm,
    affine_coeffs,
    conjugate_affine_coeffs,
    cycle_labels,
    make_affine,
    recognize_affine,
    relabel_to_translation,
)

from conftest import all_perms, exhaustive_report_rows, random_p_cycle, random_perm
from oracles import (
    affine_by_loop,
    conjugate,
    cycle_type,
    first_nonzero_power_sum,
    relabel_by_cycle_type,
    scan_row_by_perms,
    verify_by_conjugates,
    walk_decision_full,
    walks_separate_full,
)
from test_automorphisms import _orbit_representatives, timing_table_shapes
from test_classifier import replaced
from test_cli import golden_group_files

SMALL_PRIMES = [3, 5, 7, 11, 13]


def _every_set(primes=SMALL_PRIMES):
    return itertools.chain.from_iterable(all_diff_sets(PrimeField(p)) for p in primes)


def _scan_json(p):
    out = StringIO()
    with redirect_stdout(out):
        assert burnside.cli.main(["scan", "--p", str(p), "--jobs", "1"]) == 0
    return out.getvalue()


class TestBlockWriter:
    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_matches_json_dumps(self, monkeypatch, p, block):
        # The whole report, its rows from the exhaustive scan, dumped by
        # the pure-Python encoder; blocks of 1 and 7 rows put a block edge
        # inside every size class of more than one or seven sets.
        monkeypatch.setattr(burnside.cli, "SCAN_BLOCK", block)
        out = _scan_json(p)
        report = json.loads(out)
        report["result"]["rows"] = exhaustive_report_rows(p)
        assert out == json.dumps(report, indent=2) + "\n"

    def test_blocks_cross_size_classes_mod_13(self):
        # Mod 13 the sizes 3, 4 and 5 hold 220, 495 and 792 sets: one
        # block, two blocks (256 + 239) and four (3 * 256 + 24).
        report = json.loads(_scan_json(13))
        sizes = collections.Counter(row["size"] for row in report["result"]["rows"])
        assert [sizes[k] for k in (3, 4, 5)] == [220, 495, 792]
        reps, orbits = walk_orbits(PrimeField(13))
        texts = canonical_subsets([str(u) for u in range(1, 13)])
        streamed = {**report, "result": {**report["result"],
                                         "rows": _ScanRows(texts, orbits, reps)}}
        chunks = list(_json_chunks(streamed))
        # the head, one chunk per block, the end
        blocks = [-(-sizes[k] // SCAN_BLOCK) for k in range(1, 12)]
        assert blocks[2:5] == [1, 2, 4]
        assert len(chunks) == sum(blocks) + 2
        assert "".join(chunks) == json.dumps(report, indent=2) + "\n"


class TestTableRow:
    def test_every_small_set(self):
        for p in SMALL_PRIMES:
            dsets = list(all_diff_sets(PrimeField(p)))
            stabilizers = list(map(mult_stabilizer, dsets))
            assert _scan_rows(dsets, stabilizers) == list(map(scan_row_by_perms, dsets)), p

    def test_representatives_mod_17(self, monkeypatch):
        dsets = _orbit_representatives(17, monkeypatch)
        assert len(dsets) == 2067
        stabilizers = list(map(mult_stabilizer, dsets))
        assert _scan_rows(dsets, stabilizers) == list(map(scan_row_by_perms, dsets))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_affine_test_on_every_perm(self, p):
        for perm in all_perms(PrimeField(p)):
            assert affine_coeffs(perm.images, p) == affine_by_loop(perm.images, p)

    def test_affine_test_at_97(self):
        field = PrimeField(97)
        rng = random.Random(97)
        perms = [random_perm(field, rng) for _ in range(200)]
        perms += [make_affine((rng.randrange(1, 97), rng.randrange(97)), field)
                  for _ in range(200)]
        for perm in perms:
            # an affine map with one transposition of images is not affine
            near = list(perm.images)
            near[3], near[70] = near[70], near[3]
            for images in (perm.images, tuple(near)):
                assert affine_coeffs(images, 97) == affine_by_loop(images, 97)


class TestMultiplierLines:
    def test_rows_are_the_multiplier_maps(self):
        for p in filter(is_prime, range(2, 98)):
            lines = _multiplier_tables(p)
            assert len(lines) == p
            assert lines[0] == (0,) * p
            for a in range(1, p):
                assert lines[a] == make_affine((a, 0), PrimeField(p)).images, (p, a)

    # (p, affine tables): the lines and translates of a != 0, and mod 3
    # two swaps that give another line
    @pytest.mark.parametrize("p, affine", [(3, 6), (5, 8), (13, 24), (97, 192)])
    def test_line_compare_on_tampered_tables(self, p, affine):
        # Every line, the a = 0 row among them, with two entries swapped,
        # with images[0] moved off 0, and translated: the check raises
        # exactly where affine_coeffs finds no (a, b), with its payload.
        rng = random.Random(p)
        dset = DiffSet(PrimeField(p), (1,))
        tables = []
        for line in map(list, _multiplier_tables(p)):
            i, j = rng.sample(range(p), 2)
            swapped = line.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            moved = line.copy()
            moved[0] = rng.randrange(1, p)
            b = rng.randrange(1, p)
            tables += [line, swapped, moved, [(v + b) % p for v in line]]
        outcomes = collections.Counter()
        for images in map(tuple, tables):
            expected = affine_coeffs(images, p) is not None
            outcomes[expected] += 1
            try:
                _assert_theorem(dset, [images], p, 1)
            except PropositionViolated as exc:
                assert not expected, images
                assert exc.payload == {"p": p, "diff_set": [1], "permutation": list(images)}
            else:
                assert expected, images
        assert outcomes == {True: affine, False: 4 * p - affine}


def _walk_stabilizers(p, one_set=None):
    """The (representative, M(U)) pairs the orbit walk mod p hands to its
    row pass; with ``one_set``, the walk is cut down to that set alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(burnside.automorphisms, "_scan_sets",
                   lambda dsets, stabilizers, jobs: list(zip(dsets, stabilizers)))
        if one_set is not None:
            mp.setattr(burnside.automorphisms, "canonical_subsets",
                       lambda labels: iter([tuple(labels[u - 1] for u in one_set)]))
        pairs, _ = walk_orbits(PrimeField(p))
    return pairs


class TestWalkStabilizer:
    def test_every_small_set(self):
        for dset in _every_set():
            (rep, stabilizer), = _walk_stabilizers(dset.field.p, dset.elements)
            assert rep == dset
            assert stabilizer == mult_stabilizer(dset), dset.elements

    @pytest.mark.parametrize("p, orders", [
        (17, {1: 2048, 2: 16, 4: 2, 8: 1}),
        (19, {1: 7280, 2: 28, 3: 5, 6: 1, 9: 1}),
    ])
    def test_representatives(self, p, orders):
        pairs = _walk_stabilizers(p)
        for dset, stabilizer in pairs:
            assert stabilizer == mult_stabilizer(dset), dset.elements
        assert collections.Counter(len(s) for _, s in pairs) == orders


def _walk_decision(dset):
    """``_walks_separate`` on the set and ``walk_decision_full`` at the
    set's walk length K, with no guard."""
    p, elements = dset.field.p, dset.elements
    order = len(mult_stabilizer(dset))
    last = _walk_plan(p, len(elements), order)[1]
    return _walks_separate(elements, p, order), walk_decision_full(elements, p, order, last)


class TestEarlyWalkExit:
    """The walk test, with its guard, its vectors compared once at K, its
    filters and one x0 per class, against its definition at length K: so
    the guard skips only sets the walks cannot decide."""

    def test_every_small_set(self):
        for dset in _every_set():
            fast, full = _walk_decision(dset)
            assert fast == full, dset.elements

    def test_timing_table_shapes(self):
        for dset in timing_table_shapes():
            fast, full = _walk_decision(dset)
            assert fast == full, dset.elements

    def test_vectors_alone(self, monkeypatch):
        # With the pairs switched off, the packed vectors of lengths up
        # to K against the vectors walked point by point.
        monkeypatch.setattr(burnside.automorphisms, "_separated", lambda vectors, order: False)
        for dset in _every_set():
            p, elements = dset.field.p, dset.elements
            last = _walk_plan(p, len(elements), 1)[1]
            assert _walks_separate(elements, p, 1) == walks_separate_full(elements, p, last), elements

    def test_first_separating_length_mod_13(self, monkeypatch):
        # Of the 175 representatives mod 13 that the walk test decides, the
        # oracle's vectors alone (walks_separate_full, lengths 1..k) first
        # separate at k = 2 for 67, 3 for 83, 4 for 19 and 6 for 1, and the
        # pairs decide 5. The histogram describes the walk counts, not a
        # path of the program, which compares the vectors once, at K.
        lengths = collections.Counter()
        for dset in _orbit_representatives(13, monkeypatch):
            order = len(mult_stabilizer(dset))
            if _walks_separate(dset.elements, 13, order):
                lengths[next((k for k in range(1, LONGEST_WALK + 1) if order == 1
                              and walks_separate_full(dset.elements, 13, k)), "pairs")] += 1
        assert lengths == {2: 67, 3: 83, 4: 19, 6: 1, "pairs": 5}


class TestWalkKey:
    """The packed walk key where counts come nearest their fields' bounds:
    out_2 = |U| at x = |U| + 1 for an interval, and every count about
    (p-2)/p of its bound for a set missing one residue."""

    @pytest.mark.parametrize("p", [17, 23, 31, 37, 97])
    def test_intervals_and_near_full_sets(self, p):
        sets = [tuple(range(1, s + 1)) for s in range(2, p - 1)]
        sets += [tuple(u for u in range(1, p) if u != v) for v in (1, 2, p // 2)]
        for elements in sets:
            fast, full = _walk_decision(DiffSet(PrimeField(p), elements))
            assert fast == full, elements

    def test_fields_fit_their_slots(self):
        # Each length's field lies inside the slot, above the previous
        # length's unless it starts a new key, up to p = 263, for the
        # walk lengths of both parities of |M(U)|.
        for p in filter(is_prime, range(3, 264)):
            for size in range(1, p - 1):
                for order in (1, 2):
                    _, _, layout, shifts = _walk_plan(p, size, order)
                    tops = [shift + (size ** k).bit_length() for k, shift in enumerate(shifts)]
                    assert max(tops) <= layout.width, (p, size)
                    assert all(b <= a for a, b in zip(tops, shifts[1:]) if b), (p, size)


class TestLazyPowerSum:
    def test_every_small_set(self):
        for dset in _every_set():
            assert min_nonzero_power_sum(dset) == first_nonzero_power_sum(dset), dset.elements

    def test_sum_first(self, monkeypatch):
        # S(1) != 0 answers 1 before any packed row is read; the sets with
        # S(1) = 0 read the slots, and the answer is the oracle's on both.
        packed = []
        real = burnside.fields.packed_powers
        monkeypatch.setattr(burnside.fields, "packed_powers",
                            lambda p: packed.append(p) or real(p))
        paths = collections.Counter()
        for dset in _every_set():
            expected = first_nonzero_power_sum(dset)
            packed.clear()
            assert min_nonzero_power_sum(dset) == expected, dset.elements
            shortcut = sum(dset.elements) % dset.field.p != 0
            assert packed == ([] if shortcut else [dset.field.p])
            paths[shortcut] += 1
        assert paths == {True: 4778, False: 416}

    def test_random_sets_at_97(self):
        field = PrimeField(97)
        rng = random.Random(1997)
        for size in (1, 2, 12, 48, 95):
            for _ in range(40):
                dset = DiffSet(field, rng.sample(range(1, 97), size))
                assert min_nonzero_power_sum(dset) == first_nonzero_power_sum(dset)

    def test_all_zero_slots_raise(self, monkeypatch):
        # Every slot vanishing is a bug signal, as for an all-zero vector.
        monkeypatch.setattr(burnside.fields, "packed_powers", lambda p: (0,) * (2 * p))
        with pytest.raises(InternalInvariantViolation, match="every power sum vanished") as exc:
            min_nonzero_power_sum(DiffSet(PrimeField(7), (1, 2, 4)))
        assert exc.value.payload == {"p": 7, "elements": [1, 2, 4]}


def _relabel_outcome(relabel, perm):
    try:
        return relabel(perm)
    except InputError as exc:
        return str(exc)


class TestOneWalkCycleTest:
    @staticmethod
    def _check(perm):
        p = perm.field.p
        assert (cycle_labels(perm) is not None) == (cycle_type(perm) == (p,))
        assert (_relabel_outcome(relabel_to_translation, perm)
                == _relabel_outcome(relabel_by_cycle_type, perm))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_perm(self, p):
        for perm in all_perms(PrimeField(p)):
            self._check(perm)

    def test_random_perms_at_97(self):
        field = PrimeField(97)
        rng = random.Random(97)
        perms = [random_perm(field, rng) for _ in range(300)]
        perms += [random_p_cycle(field, rng) for _ in range(100)]
        assert sum(cycle_labels(q) is not None for q in perms) >= 100
        for perm in perms:
            self._check(perm)

    @pytest.mark.parametrize("p", [5, 13, 97])
    def test_classify_relabels_by_the_first_p_cycle(self, p):
        # A relabelled dihedral group, from x -> x + 1 and x -> -x: the
        # certificate's relabeling is the one of the first p-cycle in
        # breadth-first order, as the full cycle type picks it.
        field = PrimeField(p)
        sigma = random_perm(field, random.Random(p))
        gens = tuple(conjugate(make_affine(c, field), sigma) for c in ((1, 1), (p - 1, 0)))
        tau = next(g for g in bfs_elements(field, gens) if cycle_type(g) == (p,))
        assert classify(GroupSpec(field, gens)).relabeling == relabel_by_cycle_type(tau)


def _golden_specs():
    return {name: parse_group_file(StringIO(text)) for name, text in golden_group_files().items()}


class TestConjugateOnTables:
    """``conjugate_affine_coeffs`` against ``recognize_affine`` of the
    conjugate built by two ``compose`` calls and an ``inverse``."""

    @staticmethod
    def _check(g, lam):
        got = conjugate_affine_coeffs(g.images, lam.images, g.field.p)
        assert got == recognize_affine(conjugate(g, lam))
        return got is not None

    def test_golden_group_files(self):
        rng = random.Random(1)
        for name, spec in _golden_specs().items():
            field = spec.field
            lams = [Perm.identity(field), random_perm(field, rng)]
            lams += [relabel_to_translation(g) for g in spec.generators
                     if cycle_labels(g) is not None]
            c = classify(spec)
            if c.variant == SOLVABLE_AFFINE:
                lams.append(c.relabeling)
            for lam in lams:
                for g in spec.generators:
                    self._check(g, lam)

    @pytest.mark.parametrize("p", [5, 7, 13, 23, 97])
    def test_seeded_relabelings(self, p):
        # g = L^-1 * h * L for an affine h, so L * g * L^-1 = h; with two
        # images of g swapped it is not affine; a random g rarely is.
        field = PrimeField(p)
        rng = random.Random(p)
        affine = 0
        for _ in range(60):
            lam = random_perm(field, rng)
            h = make_affine((rng.randrange(1, p), rng.randrange(p)), field)
            g = conjugate(h, lam.inverse())
            near = list(g.images)
            i, j = rng.sample(range(p), 2)
            near[i], near[j] = near[j], near[i]
            affine += self._check(g, lam)
            assert not self._check(Perm(field, near), lam)
            self._check(random_perm(field, rng), lam)
        assert affine == 60

    def test_every_perm_of_degree_5(self):
        field = PrimeField(5)
        rng = random.Random(5)
        lams = [Perm.identity(field)] + [random_perm(field, rng) for _ in range(6)]
        for lam in lams:
            # 20 of the 120 are affine after relabelling, as AGL(1, 5) has 20
            assert sum(self._check(g, lam) for g in all_perms(field)) == 20


def _tampered(c):
    """Each tamper of a solvable certificate, by name."""
    field, p = c.field, c.field.p
    other = PrimeField(5 if p != 5 else 7)
    out = {}
    for i, (a, b) in enumerate(c.embedding):
        for key, coeffs in (("a+1", (a + 1, b)), ("a-1", (a - 1, b)), ("a+p", (a + p, b)),
                            ("a=0", (0, b)), ("a=p", (p, b)), ("b+1", (a, b + 1)),
                            ("b-1", (a, b - 1)), ("b+p", (a, b + p))):
            embedding = list(c.embedding)
            embedding[i] = coeffs
            out[f"{key}@{i}"] = {"embedding": tuple(embedding)}
    swapped = list(c.relabeling.images)
    swapped[1], swapped[-1] = swapped[-1], swapped[1]
    out["relabeling-swapped"] = {"relabeling": Perm(field, swapped)}
    out["relabeling-of-other-degree"] = {"relabeling": Perm.identity(other)}
    out["diff-set-of-other-degree"] = {"diff_set": DiffSet(other, (1,))}
    units = c.diff_set.elements
    for t in (t for t in range(2, p) if (p - 1) % t == 0):
        if subgroup_of_index(p, t) != units:
            out[f"subgroup-of-index-{t}"] = {"diff_set": DiffSet(field, subgroup_of_index(p, t))}
    if len(units) > 1:
        out["one-removed"] = {"diff_set": DiffSet(field, units[1:])}
        # the same size, 1 kept: only a*U = U can tell
        outside = next(u for u in range(1, p) if u not in units)
        out["last-replaced"] = {"diff_set": DiffSet(field, units[:-1] + (outside,))}
    out["order+p"] = {"group_order": c.group_order + p}
    out["order-p"] = {"group_order": c.group_order - p}
    return out


class TestVerifyOnTables:
    """``verify_certificate`` against ``verify_by_conjugates``, which builds
    each conjugate, its claimed affine map and the difference check."""

    def test_golden_certificates_and_tampers(self):
        kept = []
        for name, spec in _golden_specs().items():
            c = classify(spec)
            assert verify_certificate(spec, c) is verify_by_conjugates(spec, c) is True
            if c.variant != SOLVABLE_AFFINE:
                continue
            for tamper, changes in _tampered(c).items():
                claim = replaced(c, **changes)
                expected = verify_by_conjugates(spec, claim)
                assert verify_certificate(spec, claim) is expected, (name, tamper)
                if expected:
                    kept.append(tamper.split("@")[0])
        # a and b are read mod p; every other tamper is rejected
        assert set(kept) == {"a+p", "b+p"}
