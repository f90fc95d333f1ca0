import collections
import functools
import gc
import hashlib
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

import burnside.automorphisms
import burnside.cli
from burnside import DiffSet, PrimeField, enumerate_diff_preserving, make_affine
from burnside.automorphisms import (
    LONGEST_WALK,
    WALK_LENGTH,
    AutResult,
    _checked_maps_fixing_zero,
    _maps_fixing_zero,
    _neighbour_rows,
    _refine,
    _scan_rows,
    _search_fixing_zero,
    _walk_plan,
    _walks_separate,
    all_diff_sets,
    assert_all_affine,
    canonical_subsets,
    check_preserves,
    mult_stabilizer,
    scan_all_subsets,
    walk_orbits,
)
from burnside.errors import InputError, PropositionViolated
from burnside.cli import parse_group_file
from burnside.fields import cyclic_table, is_prime, parse_ints, row_layout
from burnside.groups import bfs_elements, is_transitive
from burnside.permutations import Perm, recognize_affine, relabel_to_translation
from burnside.polynomials import FpPoly, interpolate

from conftest import all_perms, exhaustive_report_rows, qr_set, random_perm
from test_cli import golden_group_files
from test_trace import _golden_traces
from oracles import (
    all_multipliers_stabilizer,
    cycle_type,
    equitable_refinement,
    indicator,
    label_walk,
    mult_stabilizer_by_quotients,
    naive_enumerate,
    neighbour_keys,
    preserves_by_pairs,
    walk_counts,
    walk_decision_full,
    walk_vectors,
    walks_separate_full,
)


def preserves_biconditional(perm, dset):
    """Slow oracle checking both directions of the difference condition."""
    p = perm.field.p
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            fwd = (i - j) % p in dset
            img = (perm.images[i] - perm.images[j]) % p in dset
            if fwd != img:
                return False
    return True


class TestCheckPreserves:
    def test_translation_preserves_everything(self):
        f = PrimeField(7)
        t = make_affine((1, 1), f)
        for dset in all_diff_sets(f):
            assert check_preserves(t, dset)

    def test_negation_breaks_asymmetric_set(self):
        f = PrimeField(5)
        assert not check_preserves(make_affine((4, 0), f), DiffSet(f, (1,)))

    def test_doubling_fixes_its_coset(self):
        f = PrimeField(7)
        assert check_preserves(make_affine((2, 0), f), DiffSet(f, (1, 2, 4)))

    def test_forward_check_equals_biconditional(self):
        # One direction suffices for permutations of a finite set.
        f = PrimeField(5)
        sets = list(all_diff_sets(f))
        for perm in all_perms(f):
            for dset in sets:
                assert check_preserves(perm, dset) == preserves_biconditional(perm, dset)


def _transposed(perm, rng):
    """perm followed by the swap of two random points."""
    images = list(perm.images)
    i, j = rng.sample(range(len(images)), 2)
    images[i], images[j] = images[j], images[i]
    return Perm(perm.field, tuple(images))


class TestBytePackedCheck:
    """``check_preserves`` reads the p differences for one u off the bytes
    of one integer; it must agree with the pair-by-pair loop, including at
    both ends of the byte range."""

    @pytest.mark.parametrize("p", [7, 11, 13, 31, 61, 89, 97])
    def test_random_maps(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 101)
        for _ in range(40):
            dset = DiffSet(f, rng.sample(range(1, p), rng.randrange(1, p - 1)))
            perm = random_perm(f, rng)
            assert check_preserves(perm, dset) == preserves_by_pairs(perm, dset)

    @pytest.mark.parametrize("p", [7, 11, 13, 31, 61, 89, 97])
    def test_affine_maps_inside_and_outside_the_stabilizer(self, p):
        f = PrimeField(p)
        rng = random.Random(p)
        sets = [qr_set(f), DiffSet(f, (1, p - 1)),
                DiffSet(f, rng.sample(range(1, p), (p - 1) // 2))]
        for dset in sets:
            stab = mult_stabilizer(dset)
            outside = [a for a in range(1, p) if a not in stab]
            for a in [*stab, *rng.sample(outside, min(6, len(outside)))]:
                perm = make_affine((a, rng.randrange(p)), f)
                assert preserves_by_pairs(perm, dset) == (a in stab)
                assert check_preserves(perm, dset) == (a in stab)

    @pytest.mark.parametrize("p", [7, 11, 13, 31, 61, 89, 97])
    def test_affine_map_with_one_transposition(self, p):
        # Only affine maps preserve differences, so none of these does.
        f = PrimeField(p)
        rng = random.Random(p + 1)
        for dset in (qr_set(f), DiffSet(f, (1, p - 1)), DiffSet(f, (1,))):
            for a in mult_stabilizer(dset)[:6]:
                perm = _transposed(make_affine((a, rng.randrange(p)), f), rng)
                assert not preserves_by_pairs(perm, dset)
                assert not check_preserves(perm, dset)

    @pytest.mark.parametrize("p", [7, 13, 61, 89, 97])
    def test_byte_range_ends(self, p):
        # With 1 and p-1 in U, every map x -> ±x + b has some
        # perm(j+u) - perm(j) equal to 1-p (byte 1) and some equal to p-1
        # (byte 2p-1): the step across 0 and p-1.
        f = PrimeField(p)
        rng = random.Random(p + 2)
        sets = [DiffSet(f, (1, p - 1)), DiffSet(f, (1, 2, p - 2, p - 1)),
                DiffSet(f, (1, *rng.sample(range(2, p - 1), (p - 5) // 2), p - 1))]
        for dset in sets:
            affine = [make_affine((a, b), f) for a in (1, p - 1) for b in range(p)]
            for perm in affine:
                images = perm.images
                raw = {images[(j + u) % p] - images[j] for u in dset for j in range(p)}
                assert {1 - p, p - 1} <= raw
            others = [_transposed(q, rng) for q in affine[::p // 5]]
            others += [random_perm(f, rng) for _ in range(10)]
            for perm in affine + others:
                assert check_preserves(perm, dset) == preserves_by_pairs(perm, dset)
        # x -> ±x + b preserves {1, p-1}; with two points swapped it does not
        assert check_preserves(make_affine((p - 1, 3), f), sets[0])
        assert not check_preserves(_transposed(make_affine((1, 0), f), rng), sets[0])


def _walk_key_counts(monkeypatch, elements, p):
    """out_k(x) and in_k(x) for k = 1..K and every x, read off the walk
    key at length K by fields of the bits of |U|**(k-1) each, at the
    plan's shifts. Given an odd order other than 1 the walk test compares
    the pairs alone, at K, so a spy on ``_separated`` sees the key there
    (the plan is the one for order 1). None when the test is skipped."""
    _, last, _, shifts = _walk_plan(p, len(elements), 1)
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(burnside.automorphisms, "_separated",
                      lambda vectors, order: seen.append(vectors))
        _walks_separate(elements, p, 3)
    if not seen:
        return None
    columns = list(zip(*seen[0]))
    counts = []
    row = -1
    for k, shift in enumerate(shifts):
        row += not shift
        mask = (1 << (len(elements) ** k).bit_length()) - 1
        counts += [[c >> shift & mask for c in column] for column in columns[2 * row:2 * row + 2]]
    return counts


def _oracle_key_counts(elements, p):
    """The same counts, walked point by point."""
    last = _walk_plan(p, len(elements), 1)[1]
    return [counts for out in walk_counts(elements, p, last)
            for counts in (out, [out[-x % p] for x in range(p)])]


class TestSlotWidths:
    """Each packed kernel's slot width is the narrowest that holds the
    largest value it states (``fields.row_layout``), so the widths change
    with p. Refinement keys go from 8 to 16 bits, and walk counts from 16
    to 32, between p = 17 and p = 19; ``TestWalkCounts::
    test_orbit_representatives[17]`` and ``[19]`` run the search and the
    walk test on both sides. Keys go from 16 to 32 bits, and walk counts
    from 32 to 64, between p = 257 and p = 263, and the difference check's
    one byte per point ends at p = 127: past the prime cap, so the kernels
    are called directly, on unchecked fields."""

    @pytest.mark.parametrize("p, width", [(257, 16), (263, 32)])
    def test_refinement_keys(self, p, width):
        layout = row_layout(p, p * (p - 2))
        assert layout.width == width
        rng = random.Random(p)
        for size in (1, 4, (p - 1) // 2, p - 3, p - 2):
            elements = tuple(sorted(rng.sample(range(1, p), size)))
            rows = _neighbour_rows(elements, p)
            for k in (1, 7, p // 2, p - 1, p):
                cell = rng.sample(range(p), k)
                packed = layout.unpack(sum(rows[w] for w in cell))
                assert packed == neighbour_keys(elements, cell, p), (size, k)

    @pytest.mark.parametrize("p", [257, 263])
    def test_refinement(self, p):
        rng = random.Random(p + 1)
        for size in (1, 4, 9, (p - 1) // 2):
            elements = tuple(sorted(rng.sample(range(1, p), size)))
            cells, where = [[0], list(range(1, p))], [0] + [1] * (p - 1)
            _refine(cells, where, [0], _neighbour_rows(elements, p), p)
            assert sorted(map(sorted, cells)) == equitable_refinement(elements, p)

    @pytest.mark.parametrize("p, width", [(257, 32), (263, 64)])
    def test_walk_counts(self, monkeypatch, p, width):
        # Every field of the walk key against the counts, for random sets
        # and for the intervals {1..s} with s a power of two, whose out_2
        # = s at x = s + 1 fills its field: a field one bit short spills.
        assert row_layout(p, (p - 2) ** WALK_LENGTH).width == width
        rng = random.Random(p + 2)
        outcomes = []
        sets = [tuple(sorted(rng.sample(range(1, p), size)))
                for size in (1, 4, 9, (p - 1) // 2, p - 3, p - 2)]
        sets += [tuple(range(1, s + 1)) for s in (2, 4, 8, 16, 32, 64, 128)]
        decoded = 0
        for elements in sets:
            order = len(mult_stabilizer(DiffSet(PrimeField._trusted(p), elements)))
            counts = _walk_key_counts(monkeypatch, elements, p)
            if counts is not None:
                assert counts == _oracle_key_counts(elements, p), elements
                decoded += 1
            last = _walk_plan(p, len(elements), order)[1]
            outcomes.append(_walks_separate(elements, p, order))
            assert outcomes[-1] == walk_decision_full(elements, p, order, last), elements
        assert set(outcomes) == {False, True}
        assert decoded == len(sets) - 2  # all but {1} and {1, 2}

    @pytest.mark.parametrize("p", [127, 131, 257, 263])
    def test_two_point_layout(self, monkeypatch, p):
        # Sets the pairs test reaches around the one-byte and 8/16-bit
        # edges: small random sets, whose walks run to LONGEST_WALK, and
        # unions of cosets of {1, -1}, where |M(U)| is even.
        f = PrimeField._trusted(p)
        rng = random.Random(p + 3)
        sets = [tuple(sorted(rng.sample(range(1, p), size))) for size in (3, 3, 4, 5)]
        for size in (4, 10, 16):
            half = rng.sample(range(1, (p + 1) // 2), size)
            sets.append(tuple(sorted(half + [p - u for u in half])))
        paths = []
        for elements in sets:
            stabilizer = mult_stabilizer(DiffSet(f, elements))
            order = len(stabilizer)
            walked, last, _, _ = _walk_plan(p, len(elements), order)
            assert walked, elements
            if order % 2:
                assert _walk_key_counts(monkeypatch, elements, p) == _oracle_key_counts(elements, p)
            decided = _walks_separate(elements, p, order)
            assert decided == walk_decision_full(elements, p, order, last), elements
            paths.append(decided and not (order == 1 and walks_separate_full(elements, p, last)))
        assert any(paths)

    def test_difference_check_at_the_top_of_one_byte(self):
        # 2p - 1 = 253 at p = 127; with 1 and p-1 in U, maps x -> ±x + b
        # reach both ends of the byte range, 1 and 2p - 1.
        p = 127
        f = PrimeField._trusted(p)
        rng = random.Random(p)
        sets = [qr_set(f), DiffSet(f, (1, p - 1)),
                DiffSet(f, (1, *rng.sample(range(2, p - 1), 40), p - 1))]
        for dset in sets:
            affine = [make_affine((a, rng.randrange(p)), f)
                      for a in (*mult_stabilizer(dset)[:4], 1, p - 1, 3)]
            others = [_transposed(q, rng) for q in affine] + [random_perm(f, rng) for _ in range(8)]
            for perm in affine + others:
                assert check_preserves(perm, dset) == preserves_by_pairs(perm, dset)
        assert check_preserves(make_affine((p - 1, 5), f), sets[1])

    def test_difference_check_raises_past_one_byte(self):
        # 2p - 1 = 261 at p = 131 no longer fits one byte.
        f = PrimeField._trusted(131)
        with pytest.raises(InputError, match="one byte"):
            check_preserves(make_affine((1, 0), f), DiffSet(f, (1,)))


class TestMultStabilizer:
    def test_examples(self):
        assert mult_stabilizer(DiffSet(PrimeField(7), (1, 2, 4))) == (1, 2, 4)
        assert mult_stabilizer(DiffSet(PrimeField(5), (1,))) == (1,)
        assert mult_stabilizer(DiffSet(PrimeField(5), (1, 4))) == (1, 4)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_is_multiplicative_subgroup(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            stab = set(mult_stabilizer(dset))
            assert 1 in stab
            for a in stab:
                assert pow(a, -1, p) in stab
                for b in stab:
                    assert a * b % p in stab

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_all_multipliers_oracle(self, p):
        for dset in all_diff_sets(PrimeField(p)):
            assert mult_stabilizer(dset) == all_multipliers_stabilizer(dset)

    def test_matches_all_multipliers_oracle_on_hard_sets(self):
        for p, elements in HARD_SETS:
            dset = DiffSet(PrimeField(p), elements)
            assert mult_stabilizer(dset) == all_multipliers_stabilizer(dset)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_quotient_oracle(self, p):
        for dset in all_diff_sets(PrimeField(p)):
            assert mult_stabilizer(dset) == mult_stabilizer_by_quotients(dset)

    @pytest.mark.parametrize("p", [p for p in range(3, 32) if is_prime(p)])
    def test_unions_of_cosets(self, p):
        # Every union of cosets of every subgroup H of F_p* but F_p* and
        # {1} (whose unions are every set): M(U) contains H, and is larger
        # when the cosets taken are a union of cosets of a larger subgroup.
        _, powers, _, divisors = cyclic_table(p)
        checked = 0
        for t in divisors[1:-1]:
            # H = <g**t> has t cosets g**j * H, j < t
            for chosen in range(1, 2 ** t - 1):
                elements = [x for k, x in enumerate(powers) if chosen >> k % t & 1]
                dset = DiffSet(PrimeField(p), elements)
                stab = mult_stabilizer(dset)
                assert stab == all_multipliers_stabilizer(dset), elements
                assert stab == mult_stabilizer_by_quotients(dset), elements
                assert set(powers[::t]) <= set(stab)
                checked += 1
        assert checked == sum(2 ** t - 2 for t in divisors[1:-1])

    @pytest.mark.parametrize("p", [p for p in range(3, 98) if is_prime(p)])
    def test_random_sets(self, p):
        rng = random.Random(p * 7)
        for _ in range(30):
            dset = DiffSet(PrimeField(p), rng.sample(range(1, p), rng.randrange(1, p - 1)))
            assert mult_stabilizer(dset) == all_multipliers_stabilizer(dset), dset.elements


class TestEnumeration:
    def test_directed_cycle_has_only_rotations(self):
        f = PrimeField(5)
        result = enumerate_diff_preserving(f, DiffSet(f, (1,)))
        expected = tuple(
            sorted(make_affine((1, b), f).images for b in range(5))
        )
        assert tuple(q.images for q in result.automorphisms) == expected
        assert result.all_affine
        assert result.mult_stabilizer == (1,)

    def test_pentagon_has_dihedral_group(self):
        f = PrimeField(5)
        result = enumerate_diff_preserving(f, DiffSet(f, (1, 4)))
        assert len(result.automorphisms) == 10
        assert result.all_affine

    def test_paley_digraph_mod_7(self):
        f = PrimeField(7)
        result = enumerate_diff_preserving(f, DiffSet(f, (1, 2, 4)))
        assert len(result.automorphisms) == 21
        multipliers = {recognize_affine(q).a for q in result.automorphisms}
        assert multipliers == {1, 2, 4}

    def test_output_sorted_by_image_table(self):
        f = PrimeField(7)
        result = enumerate_diff_preserving(f, DiffSet(f, (1, 3)))
        tables = [q.images for q in result.automorphisms]
        assert tables == sorted(tables)

    @pytest.mark.parametrize("p", [5, 7])
    def test_closed_under_composition_and_inverse(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            auts = set(enumerate_diff_preserving(f, dset).automorphisms)
            for a in auts:
                assert a.inverse() in auts
            sample = sorted(auts, key=lambda q: q.images)[:5]
            for a in sample:
                for b in sample:
                    assert a.compose(b) in auts

    @pytest.mark.parametrize("p", [5, 7])
    def test_complement_symmetry(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            direct = enumerate_diff_preserving(f, dset)
            comp = enumerate_diff_preserving(f, dset.complement())
            assert direct.automorphisms == comp.automorphisms

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_naive_filter(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            fast = enumerate_diff_preserving(f, dset)
            slow = naive_enumerate(f, dset)
            assert fast.automorphisms == slow.automorphisms

    def test_matches_naive_filter_spot_p7(self):
        f = PrimeField(7)
        for elements in [(1,), (2, 3), (1, 2, 4), (3, 5, 6), (1, 6)]:
            dset = DiffSet(f, elements)
            assert (
                enumerate_diff_preserving(f, dset).automorphisms
                == naive_enumerate(f, dset).automorphisms
            )

    def test_naive_guard(self):
        f = PrimeField(11)
        with pytest.raises(InputError):
            naive_enumerate(f, DiffSet(f, (1,)))

    def test_naive_tiny_example(self):
        f = PrimeField(3)
        result = naive_enumerate(f, DiffSet(f, (1,)))
        assert len(result.automorphisms) == 3
        assert result.all_affine


def all_roots_search(field, dset):
    """The search before pi(0) = 0 was pinned: every root value, pruning
    tables built pair by pair. Kept as the oracle for the fast search."""
    p = field.p
    member = indicator(dset)
    add_in = [0] * p
    add_out = [0] * p
    sub_in = [0] * p
    sub_out = [0] * p
    for w in range(p):
        ai = ao = si = so = 0
        for d in range(1, p):
            if member[d]:
                ai |= 1 << ((w + d) % p)
                si |= 1 << ((w - d) % p)
            else:
                ao |= 1 << ((w + d) % p)
                so |= 1 << ((w - d) % p)
        add_in[w], add_out[w] = ai, ao
        sub_in[w], sub_out[w] = si, so

    full = (1 << p) - 1
    solutions = []
    img = [0] * p

    def extend(k, used, allowed):
        mask = allowed[k] & ~used & full
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            img[k] = v
            if k + 1 == p:
                solutions.append(tuple(img))
                continue
            used_v = used | low
            nxt = allowed.copy()
            viable = True
            for t in range(k + 1, p):
                fwd = add_in[v] if member[t - k] else add_out[v]
                bwd = sub_in[v] if member[(k - t) % p] else sub_out[v]
                cut = nxt[t] & fwd & bwd
                if (cut & ~used_v) == 0:
                    viable = False
                    break
                nxt[t] = cut
            if viable:
                extend(k + 1, used_v, nxt)

    extend(0, 0, [full] * p)
    return solutions


def position_order_search(field, dset):
    """The search before individualise-refine: pi(0) = 0 pinned, images
    assigned in position order 0, 1, ..., p-1 with candidate values
    ascending, pruning against the points already assigned; then the p
    translates of each solution, sorted. Kept as the oracle for the
    refinement search."""
    p = field.p
    member = indicator(dset)
    full = (1 << p) - 1

    def rotations(mask):
        return [((mask << w) | (mask >> (p - w))) & full for w in range(p)]

    add_in = rotations(sum(1 << u for u in dset.elements))
    sub_in = rotations(sum(1 << (p - u) for u in dset.elements))
    add_out = [full & ~m & ~(1 << w) for w, m in enumerate(add_in)]
    sub_out = [full & ~m & ~(1 << w) for w, m in enumerate(sub_in)]

    solutions = []
    img = [0] * p

    def extend(k, used, allowed):
        mask = allowed[k] & ~used & full
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            img[k] = v
            if k + 1 == p:
                solutions.append(tuple(img))
                continue
            used_v = used | low
            nxt = allowed.copy()
            viable = True
            for t in range(k + 1, p):
                fwd = add_in[v] if member[t - k] else add_out[v]
                bwd = sub_in[v] if member[(k - t) % p] else sub_out[v]
                cut = nxt[t] & fwd & bwd
                if (cut & ~used_v) == 0:
                    viable = False
                    break
                nxt[t] = cut
            if viable:
                extend(k + 1, used_v, nxt)

    extend(0, 0, [1] + [full] * (p - 1))
    shifted = [tuple(range(b, p)) + tuple(range(b)) for b in range(p)]
    return sorted(
        tuple(map(shift.__getitem__, s)) for s in solutions for shift in shifted
    )


class TestPositionOrderOracle:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_set(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            fast = enumerate_diff_preserving(f, dset)
            assert [q.images for q in fast.automorphisms] == position_order_search(f, dset)


def coset_union(p, order, count):
    """The union of the first ``count`` cosets g**j * H of the subgroup H
    of F_p* of the given order, g the least primitive root."""
    g = next(g for g in range(2, p)
             if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    h = pow(g, (p - 1) // order, p)
    return sorted({pow(g, j, p) * pow(h, k, p) % p
                   for j in range(count) for k in range(order)})


# Sets the position-order search took minutes on (or never finished).
HARD_SETS = [
    (61, (5,)),
    (97, (5,)),
    (97, (6, 91)),                                    # a {u, -u} pair
    (97, tuple(coset_union(97, 16, 3))),              # |U| = 48, |M(U)| = 16
    (97, qr_set(PrimeField(97)).elements),            # Paley
    (97, tuple(range(1, 14))),                        # the interval {1..13}
    (97, tuple(random.Random(97).sample(range(1, 97), 13))),
]


class TestHardSets:
    """The hard sets, and the extremes of the packed counts (|U| = 1 and
    |U| = 95 at p = 97, where a count slot holds up to 128*95 + 95),
    against the theorem: the maps fixing 0 are exactly x -> a*x, a in M(U)."""

    @pytest.mark.parametrize("p, elements", [
        *HARD_SETS,
        (97, (1,)),
        (97, (96,)),
        (97, tuple(range(2, 97))),
        (97, tuple(u for u in range(1, 97) if u != 48)),
    ])
    def test_maps_fixing_zero_are_multipliers(self, p, elements):
        f = PrimeField(p)
        dset = DiffSet(f, elements)
        result = enumerate_diff_preserving(f, dset)
        fixing_zero = [q.images for q in result.automorphisms if q.images[0] == 0]
        assert fixing_zero == sorted(
            tuple(a * x % p for x in range(p)) for a in mult_stabilizer(dset)
        )
        assert len(result.automorphisms) == p * len(result.mult_stabilizer)
        assert result.all_affine


class TestGoldenSearch:
    def test_maps_fixing_zero_digest(self):
        # The maps fixing 0, in the order the search returns them, for all
        # 5194 sets with p <= 13 and the hard sets. The order follows the
        # search tree, so this pins the tree the refinement walks. The
        # search runs on every set, also where walk counts decide.
        sets = [dset for p in (3, 5, 7, 11, 13) for dset in all_diff_sets(PrimeField(p))]
        sets += [DiffSet(PrimeField(p), elements) for p, elements in HARD_SETS]
        digest = hashlib.sha256()
        for dset in sets:
            digest.update(repr((dset.field.p, dset.elements, _search_fixing_zero(dset))).encode())
        assert len(sets) == 5201
        assert digest.hexdigest() == (
            "15d9a27161c2ad1142445eb8597b0e5fd26041dcf028cfc6d4fd17cd991e6622"
        )


def timing_table_shapes():
    """The p = 97 shapes the search was timed on: every {u} and {u, -u},
    the intervals {1..k} for even k <= 48, ten seeded random sets each of
    size 12 and 32, unions of 1..5 cosets of the order-16 subgroup and the
    squares."""
    p = 97
    rng = random.Random(p)
    shapes = [(u,) for u in range(1, p)]
    shapes += [(u, p - u) for u in range(1, (p + 1) // 2)]
    shapes += [tuple(range(1, k + 1)) for k in range(2, 49, 2)]
    shapes += [tuple(sorted(rng.sample(range(1, p), size))) for size in (12, 32) for _ in range(10)]
    shapes += [tuple(coset_union(p, 16, count)) for count in range(1, 6)]
    shapes.append(qr_set(PrimeField(p)).elements)
    return [DiffSet(PrimeField(p), elements) for elements in shapes]


def _orbit_representatives(p, monkeypatch):
    """The sets ``walk_orbits`` searches mod p, without searching them."""
    monkeypatch.setattr(burnside.automorphisms, "_scan_sets",
                        lambda dsets, stabilizers, jobs: dsets)
    reps, _ = walk_orbits(PrimeField(p))
    return reps


def _multipliers(dset):
    p = dset.field.p
    return [tuple(a * x % p for x in range(p)) for a in mult_stabilizer(dset)]


def _walk_decisions(dsets):
    """How many sets walk counts decide, after checking each decision
    against the search: wherever they decide, the search must find the
    multipliers x -> a*x, a in M(U), alone. Returns the sets the vectors
    of lengths up to WALK_LENGTH decide where they can reach p points
    (each must be decided), then the sets decided by the vectors of
    lengths up to K and by the pairs."""
    short = one = two = 0
    for dset in dsets:
        p, elements = dset.field.p, dset.elements
        order = len(mult_stabilizer(dset))
        decided = _walks_separate(elements, p, order)
        if p <= _reach(len(elements)) and walks_separate_full(elements, p, WALK_LENGTH):
            assert decided, elements
            short += 1
        if decided:
            assert sorted(_search_fixing_zero(dset)) == _multipliers(dset), elements
            last = _walk_plan(p, len(elements), order)[1]
            if order == 1 and walks_separate_full(elements, p, last):
                one += 1
            else:
                two += 1
    return short, one, two


# The sets decided by the vectors of lengths up to K and by the pairs,
# beside the counts of lengths up to WALK_LENGTH in the parameters below.
EVERY_SET_DECISIONS = {3: (2, 0), 5: (12, 2), 7: (54, 6), 11: (980, 40), 13: (4008, 66)}
REPRESENTATIVE_DECISIONS = {13: (170, 5), 17: (2034, 30), 19: (7249, 58)}


class TestWalkCounts:
    """Walk counts decide Aut_0 = M(U) without a search; the search stays
    their oracle. The decision counts are pinned per path, so a weaker
    test (shorter walks, out-walks alone, a looser class size) fails here
    as well as a wrong one."""

    @pytest.mark.parametrize("p, decided", [(3, 2), (5, 12), (7, 54), (11, 970), (13, 3996)])
    def test_every_set(self, p, decided):
        short, one, two = _walk_decisions(all_diff_sets(PrimeField(p)))
        assert short == decided
        assert (one, two) == EVERY_SET_DECISIONS[p]

    # (p, representatives, with trivial Aut_0, decided by walks of
    # lengths up to WALK_LENGTH)
    @pytest.mark.parametrize("p, reps, trivial, decided", [
        (13, 179, 170, 169),
        (17, 2067, 2048, 2034),
        (19, 7315, 7280, 7249),
    ])
    def test_orbit_representatives(self, monkeypatch, p, reps, trivial, decided):
        dsets = _orbit_representatives(p, monkeypatch)
        assert len(dsets) == reps
        identity = [tuple(range(p))]
        searched = [_search_fixing_zero(dset) == identity for dset in dsets]
        assert sum(searched) == trivial
        short, one, two = _walk_decisions(dsets)
        assert short == decided
        assert (one, two) == REPRESENTATIVE_DECISIONS[p]

    def test_timing_table_shapes(self):
        dsets = timing_table_shapes()
        assert len(dsets) == 96 + 48 + 24 + 20 + 5 + 1
        assert _walk_decisions(dsets) == (39, 39, 2)

    def test_hard_sets(self):
        assert _walk_decisions(DiffSet(PrimeField(p), e) for p, e in HARD_SETS) == (2, 2, 0)

    def test_maps_fixing_zero_takes_the_shortcut(self, monkeypatch):
        # A set walk counts decide never reaches the search, with a
        # trivial M(U) or not; one they do not decide does.
        def no_search(dset):
            raise AssertionError(dset.elements)

        f = PrimeField(13)
        monkeypatch.setattr(burnside.automorphisms, "_search_fixing_zero", no_search)
        for elements in (1, 2, 5), (1, 12):
            dset = DiffSet(f, elements)
            assert _maps_fixing_zero(dset, mult_stabilizer(dset)) == _multipliers(dset)
        with pytest.raises(AssertionError):
            dset = DiffSet(f, (1, 3, 9))
            _maps_fixing_zero(dset, mult_stabilizer(dset))

    def test_count_law_checks_the_shortcut(self, monkeypatch):
        # A multiplier group missing a member, as a wrong period of U's
        # word would give, to mult_stabilizer and the orbit walk alike:
        # the walk test must refuse to decide, the search finds the
        # member's map, and Burnside's count law catches the mismatch on
        # every path.
        dset = DiffSet(PrimeField(5), (1, 4))
        assert not _walks_separate(dset.elements, 5, 1)
        monkeypatch.setattr(burnside.automorphisms, "_period", lambda word, p: p - 1)
        for count in _COUNTERS:
            with pytest.raises(PropositionViolated, match="count disagrees") as exc:
                count(dset)
            assert exc.value.payload == {"p": 5, "diff_set": [1, 4], "count": 10, "expected": 5}

    @pytest.mark.parametrize("p, elements", [
        (5, (1, 4)), (13, (1, 12)), (13, (1, 2, 11, 12)), (17, (1, 16)), (19, (1, 2, 17, 18)),
    ])
    def test_proper_subgroup_refused(self, p, elements):
        # Sets the pairs decide with M(U) = {1, -1}. Told that M(U) is
        # {1}, the walk test refuses: -1 ties every point with its
        # negative, and every class but 0's holds whole orbits of -1.
        dset = DiffSet(PrimeField(p), elements)
        assert mult_stabilizer(dset) == (1, p - 1)
        assert _walks_separate(elements, p, 2)
        assert not _walks_separate(elements, p, 1)

    def test_walk_maps_are_checked(self, monkeypatch):
        # A walk test that always decided, given a group whose members do
        # not stabilize U (period 2 of the word gives {1, 4}): each
        # multiplier map is checked, so the search runs, and the count law
        # catches the wrong group.
        monkeypatch.setattr(burnside.automorphisms, "_walks_separate", lambda elements, p, order: True)
        monkeypatch.setattr(burnside.automorphisms, "_period", lambda word, p: 2)
        for count in _COUNTERS:
            with pytest.raises(PropositionViolated, match="count disagrees") as exc:
                count(DiffSet(PrimeField(5), (1, 2)))
            assert exc.value.payload == {"p": 5, "diff_set": [1, 2], "count": 5, "expected": 10}


@functools.lru_cache(maxsize=None)
def _three_or_more_multipliers():
    """Every set with |M(U)| >= 3 at p <= 13, every such orbit
    representative mod 17 and 19, and seeded unions of cosets of the
    subgroups of order 3, 4, 6, 8 and 12 mod 97 (four of each; a union
    may have a larger M(U))."""
    sets = [dset for p in (3, 5, 7, 11, 13) for dset in all_diff_sets(PrimeField(p))]
    with pytest.MonkeyPatch.context() as mp:
        for p in (17, 19):
            sets += _orbit_representatives(p, mp)
    powers = cyclic_table(97).powers
    rng = random.Random(97)
    for order in (3, 4, 6, 8, 12):
        index = 96 // order
        for _ in range(4):
            cosets = rng.sample(range(index), rng.randrange(1, index))
            sets.append(DiffSet(PrimeField(97), [powers[j + index * k]
                                                 for j in cosets for k in range(order)]))
    return tuple((dset, mult_stabilizer(dset)) for dset in sets
                 if len(mult_stabilizer(dset)) >= 3)


class TestNoWalkTestFromThreeMultipliers:
    """With a != b in M(U) other than 1 and any x0 != 0, y = (1-b)*x0 /
    (a-b) and y' = a*y are distinct points whose pairs (v(y), v(y - x0))
    are equal: v(y') = v(y) as a keeps every walk count, and
    y' - x0 = b*(y - x0). So the walk test cannot decide a set with
    |M(U)| >= 3, and ``_maps_fixing_zero`` skips it there."""

    def test_the_sets(self):
        orders = collections.Counter(
            (dset.field.p, len(stabilizer)) for dset, stabilizer in _three_or_more_multipliers())
        assert orders == {(7, 3): 2, (11, 5): 2, (13, 3): 12, (13, 4): 6, (13, 6): 2,
                          (17, 4): 2, (17, 8): 1, (19, 3): 5, (19, 6): 1, (19, 9): 1,
                          (97, 3): 4, (97, 4): 4, (97, 6): 4, (97, 8): 4, (97, 12): 4}

    @pytest.mark.parametrize("length", [4, 5, 6])
    def test_definition_fails(self, length):
        for dset, stabilizer in _three_or_more_multipliers():
            assert not walk_decision_full(dset.elements, dset.field.p, len(stabilizer), length)

    def test_lemma_pairs_collide(self):
        for dset, stabilizer in _three_or_more_multipliers():
            p = dset.field.p
            vectors = walk_vectors(dset.elements, p, LONGEST_WALK)
            a, b = stabilizer[1], stabilizer[2]
            for x0 in range(1, p):
                y = (1 - b) * x0 * pow(a - b, -1, p) % p
                moved = a * y % p
                assert moved != y
                assert (moved - x0) % p == b * (y - x0) % p
                assert vectors[moved] == vectors[y]
                assert vectors[(moved - x0) % p] == vectors[(y - x0) % p]

    def test_maps_fixing_zero_skips_the_walk_test(self, monkeypatch):
        calls = []
        real = burnside.automorphisms._walks_separate

        def spy(elements, p, order):
            calls.append(elements)
            return real(elements, p, order)

        monkeypatch.setattr(burnside.automorphisms, "_walks_separate", spy)
        for dset, stabilizer in _three_or_more_multipliers():
            assert _maps_fixing_zero(dset, stabilizer) == _search_fixing_zero(dset)
        assert calls == []
        # the spy sees the test where |M(U)| is 1 or 2
        for elements in (1, 2, 5), (1, 12):
            dset = DiffSet(PrimeField(13), elements)
            _maps_fixing_zero(dset, mult_stabilizer(dset))
        assert calls == [(1, 2, 5), (1, 12)]


def _reach(s, length=WALK_LENGTH):
    """1 + 2 * (the multisets of 1..length steps from |U| = s): one more
    than the most points walk counts can give a nonzero vector, out or
    in, with -1 not in M(U)."""
    return 1 + 2 * sum(math.comb(s + k - 1, k) for k in range(1, length + 1))


def _pairs_reach(s):
    """The largest p where the pairs of the two-point test need not tie,
    at the walk length K of sets of s elements with -1 not in M(U): the
    least length from WALK_LENGTH where the vectors could reach p points,
    at most LONGEST_WALK."""
    def pairs_reach(p):
        length = next((k for k in range(WALK_LENGTH, LONGEST_WALK) if p <= _reach(s, k)),
                      LONGEST_WALK)
        return 2 * _reach(s, length) - 1
    return max(p for p in range(3, 400) if p <= pairs_reach(p))


class TestWalkGuard:
    """Sets too small for their walks to decide skip the walk test; the
    test's definition must reject every one of them."""

    # (p, |U|): all walked, since walks run to LONGEST_WALK and the pairs
    # reach up to p = 25 for |U| = 1, 109 for 2 and 333 for 3
    @pytest.mark.parametrize("p, size", [(7, 1), (11, 1), (29, 2), (31, 2), (67, 3), (71, 3), (97, 4)])
    def test_guard_bound(self, p, size):
        walked, last, _, _ = _walk_plan(p, size, 1)
        assert walked == (p <= _pairs_reach(size))
        assert [_reach(s) for s in range(5)] == [1, 9, 29, 69, 139]
        assert [_pairs_reach(s) for s in range(1, 4)] == [25, 109, 333]

    @pytest.mark.parametrize("p, elements, walked", [
        (23, (1,), True), (29, (1,), False), (53, (1, 52), True), (59, (1, 58), False),
    ])
    def test_guard_edges(self, p, elements, walked):
        # A singleton's pairs reach 25 points; with -1 in M(U) the walks
        # to 0 are those from 0 negated, so {1, -1}'s reach 2 * 28 - 1.
        dset = DiffSet(PrimeField(p), elements)
        assert _walk_plan(p, len(elements), len(mult_stabilizer(dset)))[0] == walked

    @pytest.mark.parametrize("p, skipped", [(3, 0), (5, 0), (7, 0), (11, 10), (13, 12)])
    def test_every_set(self, p, skipped):
        # The sets whose walks of length up to WALK_LENGTH cannot reach p
        # points (the singletons mod 11 and 13) now walk to LONGEST_WALK,
        # and that decides each; no set with p <= 13 skips the test.
        short = [d for d in all_diff_sets(PrimeField(p)) if p > _reach(len(d))]
        assert len(short) == skipped
        assert all(_walks_separate(d.elements, p, 1) for d in short)
        for dset in all_diff_sets(PrimeField(p)):
            walked, last, _, _ = _walk_plan(p, len(dset), len(mult_stabilizer(dset)))
            assert walked, dset.elements

    def test_small_sets_mod_97(self):
        # The singletons and the pairs {u, -u} mod 97 skip the test, and
        # its definition rejects each at LONGEST_WALK (multiplying by u
        # maps {1} and {1, -1} onto them); seeded pairs and triples are
        # walked, with the definition's answer.
        assert not _walk_plan(97, 1, 1)[0]
        assert not _walk_plan(97, 2, 2)[0]
        assert not walk_decision_full((1,), 97, 1, LONGEST_WALK)
        assert not walk_decision_full((1, 96), 97, 2, LONGEST_WALK)
        rng = random.Random(97)
        for k in (2, 3):
            for _ in range(20):
                dset = DiffSet(PrimeField(97), rng.sample(range(1, 97), k))
                order = len(mult_stabilizer(dset))
                walked, last, _, _ = _walk_plan(97, k, order)
                assert walked
                assert (_walks_separate(dset.elements, 97, order)
                        == walk_decision_full(dset.elements, 97, order, last)), dset.elements

    @pytest.mark.parametrize("p", [p for p in range(29, 98) if is_prime(p)])
    def test_guarded_sets_cannot_pass(self, p):
        # Each prime from 29 to 97: {1} skips the test, and so does
        # {1, -1} from 59 on; the definition rejects every skipped one.
        for elements, order in ((1,), 1), ((1, p - 1), 2):
            walked, last, _, _ = _walk_plan(p, len(elements), order)
            if not walked:
                assert not walk_decision_full(elements, p, order, last), elements
        assert not _walk_plan(p, 1, 1)[0]
        assert (not _walk_plan(p, 2, 2)[0]) == (p >= 59)


class TestRotationWalk:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
    def test_matches_label_walk(self, monkeypatch, p):
        # The same representatives, in the same order, and the same orbit
        # index for every set, as the walk over labels u -> bit u-1.
        monkeypatch.setattr(burnside.automorphisms, "_scan_sets",
                        lambda dsets, stabilizers, jobs: dsets)
        assert walk_orbits(PrimeField(p)) == label_walk(PrimeField(p))


def _golden_sets():
    """The sets ``TestGoldenSearch`` pins: every set with p <= 13 and the
    hard sets."""
    sets = [dset for p in (3, 5, 7, 11, 13) for dset in all_diff_sets(PrimeField(p))]
    return sets + [DiffSet(PrimeField(p), elements) for p, elements in HARD_SETS]


def _golden_digest(sets):
    """``TestGoldenSearch``'s digest, each set's maps found by the search,
    called through the module so that a spy or a patch sees it."""
    digest = hashlib.sha256()
    for dset in sets:
        maps = burnside.automorphisms._search_fixing_zero(dset)
        digest.update(repr((dset.field.p, dset.elements, maps)).encode())
    return digest.hexdigest()


GOLDEN_DIGEST = "15d9a27161c2ad1142445eb8597b0e5fd26041dcf028cfc6d4fd17cd991e6622"


def _trace_shapes_97():
    """(set, image table) of each p = 97 trace of the golden trace sample."""
    for argv in _golden_traces():
        if argv[2] == "97":
            yield parse_ints(argv[4], "set"), parse_ints(argv[6], "perm")


class TestUncheckedConstruction:
    """Every value derived from validated ones is built without
    re-validation (``Value._trusted``): the translates of the search's
    maps fixing 0 and the walk's representatives; products, inverses, the
    identity and relabelings; complements and interpolants. Each equals
    what the validating constructor builds from its fields, which also
    pins every field's type, since a list never equals a tuple."""

    @staticmethod
    def _check(dsets):
        for dset in dsets:
            fixed = _checked_maps_fixing_zero(dset, mult_stabilizer(dset))
            perms = enumerate_diff_preserving(dset.field, dset).automorphisms
            assert len(perms) == dset.field.p * len(fixed)
            for q in perms:
                assert Perm(q.field, q.images) == q, (dset.elements, q.images)

    def test_golden_sets(self):
        self._check(_golden_sets())

    def test_timing_table_shapes(self):
        self._check(timing_table_shapes())

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_orbit_representatives(self, monkeypatch, p):
        reps = _orbit_representatives(p, monkeypatch)
        assert reps
        for dset in reps:
            assert DiffSet(dset.field, dset.elements) == dset

    @pytest.mark.parametrize("text", golden_group_files().values(),
                             ids=golden_group_files().keys())
    def test_group_operations_on_golden_groups(self, text):
        spec = parse_group_file(StringIO(text))
        field = spec.field
        identity = Perm.identity(field)
        assert Perm(field, identity.images) == identity
        cycles = 0
        for q in bfs_elements(field, spec.generators):
            for r in (q, q.inverse(), *(q.compose(g) for g in spec.generators)):
                assert Perm(field, r.images) == r
            if cycle_type(q) == (field.p,):
                cycles += 1
                lam = relabel_to_translation(q)
                assert Perm(field, lam.images) == lam
        assert cycles or not is_transitive(spec)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_complement_of_every_set(self, p):
        for dset in all_diff_sets(PrimeField(p)):
            rest = dset.complement()
            assert DiffSet(rest.field, rest.elements) == rest

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_interpolate_every_perm(self, p):
        f = PrimeField(p)
        for perm in all_perms(f):
            poly = interpolate(f, perm)
            assert FpPoly(f, poly.coeffs) == poly

    def test_complement_and_interpolate_at_trace_shapes(self):
        f = PrimeField(97)
        shapes = list(_trace_shapes_97())
        assert len(shapes) == 4
        for elements, images in shapes:
            rest = DiffSet(f, elements).complement()
            assert DiffSet(f, rest.elements) == rest
            poly = interpolate(f, images)
            assert FpPoly(f, poly.coeffs) == poly


def _unrefined_root(monkeypatch):
    """Skip the refinement of {0} | rest, the search's only one with queue
    [0]: the first level's cell is then all of 1..p-1, so its branches
    x0 -> y include every y / x0 that is not a multiplier. The search
    stays complete, since refinement only prunes."""
    refine = burnside.automorphisms._refine

    def root_unrefined(cells, where, queue, rows, p, expected=None):
        if queue == [0]:
            return []
        return refine(cells, where, queue, rows, p, expected)

    monkeypatch.setattr(burnside.automorphisms, "_refine", root_unrefined)


class TestMultiplierBranches:
    """When one level makes the partition discrete, the search tries each
    first-level branch x0 -> y with the map x -> (y / x0) * x, checked by
    ``_preserves``; a candidate that fails sends its branch to the search,
    and must never change the output.

    With the refinement as it is, every first-level cell seen (every set
    with p <= 13, every representative mod 17 and 19, the p = 97 timing
    shapes) is one coset x0 * M(U), and one level always makes the
    partition discrete. So the tests that reach a non-multiplier branch,
    or a second level, weaken the refinement first."""

    def _spy(self, monkeypatch):
        """Spy on the searches and return a list with one entry per search:
        how many maps it emitted by the multiplier step, not by ``_descend``."""
        descend = burnside.automorphisms._descend
        search = burnside.automorphisms._search_fixing_zero
        descended = []
        emitted = []

        def spy_descend(*args):
            found = descend(*args)
            descended.extend(found)
            return found

        def spy_search(dset):
            descended.clear()
            found = search(dset)
            others = set(found) - set(descended) - {tuple(range(dset.field.p))}
            emitted.append(len(others))
            return found

        monkeypatch.setattr(burnside.automorphisms, "_descend", spy_descend)
        monkeypatch.setattr(burnside.automorphisms, "_search_fixing_zero", spy_search)
        return emitted

    def _reject_once(self, monkeypatch):
        """A difference check that rejects each map but the identity the
        first time it sees it: every multiplier candidate fails, as if that
        multiplier were missing, and its branch is searched, where the check
        sees the map again and decides it as before."""
        check = burnside.automorphisms._preserves
        seen = set()

        def once(images, elements, p):
            key = (p, tuple(elements), tuple(images))
            if key in seen or key[2] == tuple(range(p)):
                return check(images, elements, p)
            seen.add(key)
            return False

        monkeypatch.setattr(burnside.automorphisms, "_preserves", once)

    def test_every_candidate_rejected_once(self, monkeypatch):
        # Every real multiplier missed: every branch is searched, and the
        # maps and their order stay.
        emitted = self._spy(monkeypatch)
        self._reject_once(monkeypatch)
        assert _golden_digest(_golden_sets()) == GOLDEN_DIGEST
        assert len(emitted) == 5201 and not any(emitted)

    @pytest.mark.parametrize("p, elements", HARD_SETS)
    def test_non_multiplier_candidates(self, monkeypatch, p, elements):
        # Over an unrefined root the first level's branches x0 -> y take
        # every y in 1..p-1, so most candidates are not multipliers:
        # ``_preserves`` rejects them and their branches are searched. The
        # same maps come back, |M(U)| - 1 of them by the multiplier step;
        # with every candidate rejected once, the same list, in order.
        dset = DiffSet(PrimeField(p), elements)
        maps = _search_fixing_zero(dset)
        _unrefined_root(monkeypatch)
        emitted = self._spy(monkeypatch)
        found = burnside.automorphisms._search_fixing_zero(dset)
        assert sorted(found) == sorted(maps)
        assert emitted == [len(mult_stabilizer(dset)) - 1]
        self._reject_once(monkeypatch)
        assert burnside.automorphisms._search_fixing_zero(dset) == found
        assert emitted[1:] == [0]

    @pytest.mark.parametrize("p", [5, 7])
    def test_unrefined_search(self, monkeypatch, p):
        # With no refinement at all, every level but the last individualises
        # one point and the branches go p - 2 levels deep: every branch is
        # searched, and the same maps come back.
        sets = list(all_diff_sets(PrimeField(p)))
        maps = [sorted(_search_fixing_zero(dset)) for dset in sets]
        monkeypatch.setattr(burnside.automorphisms, "_refine",
                            lambda cells, where, queue, rows, p, expected=None: [])
        emitted = self._spy(monkeypatch)
        found = [burnside.automorphisms._search_fixing_zero(dset) for dset in sets]
        assert [sorted(f) for f in found] == maps
        assert len(emitted) == len(sets) and not any(emitted)

    def test_second_map_fixing_x0(self, monkeypatch):
        # A map other than the identity that fixes 0 and x0 would contradict
        # Burnside's theorem; faked here, with no refinement (x0 = 1) and a
        # difference check that also accepts sigma. Every branch must then
        # be searched, and sigma returned for the count law to reject.
        p, dset = 7, DiffSet(PrimeField(7), (1, 2, 4))
        sigma = (0, 1, 3, 2, 4, 6, 5)
        check = burnside.automorphisms._preserves
        monkeypatch.setattr(burnside.automorphisms, "_refine",
                            lambda cells, where, queue, rows, p, expected=None: [])
        monkeypatch.setattr(burnside.automorphisms, "_preserves",
                            lambda images, elements, p: tuple(images) == sigma
                            or check(images, elements, p))
        emitted = self._spy(monkeypatch)
        found = burnside.automorphisms._search_fixing_zero(dset)
        assert emitted == [0]
        assert sorted(found) == sorted([sigma] + [
            tuple(a * x % p for x in range(p)) for a in (1, 2, 4)])

    def test_multiplier_path_on_golden_sets(self, monkeypatch):
        emitted = self._spy(monkeypatch)
        assert _golden_digest(_golden_sets()) == GOLDEN_DIGEST
        assert (len(emitted), sum(map(bool, emitted)), sum(emitted)) == (5201, 119, 219)

    # (p, searches, searches that emitted a multiplier, maps they emitted),
    # on the representatives that the vectors of walks of length up to
    # WALK_LENGTH leave undecided
    @pytest.mark.parametrize("p, searched, taken, maps", [
        (13, 10, 9, 17), (17, 33, 19, 29), (19, 66, 35, 51)])
    def test_multiplier_path_on_representatives(self, monkeypatch, p, searched, taken, maps):
        dsets = [dset for dset in _orbit_representatives(p, monkeypatch)
                 if not (p <= _reach(len(dset)) and walks_separate_full(dset.elements, p))]
        emitted = self._spy(monkeypatch)
        for dset in dsets:
            burnside.automorphisms._search_fixing_zero(dset)
        assert (len(emitted), sum(map(bool, emitted)), sum(emitted)) == (searched, taken, maps)

    def test_mult_stabilizer_once_per_set(self, monkeypatch):
        # The search never computes M(U); it is read off one word's period
        # once per set, on every path: by mult_stabilizer for the
        # enumeration, and by the orbit walk itself for each orbit, where
        # mult_stabilizer never runs.
        calls, periods = [], []
        real, real_period = burnside.automorphisms.mult_stabilizer, burnside.automorphisms._period

        def counted(dset):
            calls.append(dset.elements)
            return real(dset)

        def counted_period(word, p):
            periods.append(word)
            return real_period(word, p)

        monkeypatch.setattr(burnside.automorphisms, "mult_stabilizer", counted)
        monkeypatch.setattr(burnside.automorphisms, "_period", counted_period)
        for p, elements in HARD_SETS:
            dset = DiffSet(PrimeField(p), elements)
            calls.clear()
            periods.clear()
            enumerate_diff_preserving(dset.field, dset)
            assert calls == [dset.elements]
            assert len(periods) == 1
        calls.clear()
        periods.clear()
        reps, _ = walk_orbits(PrimeField(13))
        assert calls == []
        assert len(periods) == len(reps) == 179
        assert len(set(periods)) == 179


class TestNoCyclicGarbage:
    def test_searches_leave_nothing_for_the_collector(self):
        f = PrimeField(19)
        sets = [(6, 13), (1,), (3, 4, 7, 9, 11, 12, 16, 17, 18)]
        gc.collect()
        gc.disable()
        try:
            for elements in sets:
                enumerate_diff_preserving(f, DiffSet(f, elements))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAllRootsOracle:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_every_set(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            fast = enumerate_diff_preserving(f, dset)
            assert [q.images for q in fast.automorphisms] == all_roots_search(f, dset)

    @pytest.mark.parametrize("p, elements", [
        (13, (1,)),
        (13, (1, 12)),
        (13, (2, 4, 5, 7, 8)),                      # |U| = ceil(p/3)
        (13, (1, 3, 4, 9, 10, 12)),                 # squares, |U| = (p-1)/2
        (17, (6, 11)),                              # deep sparse search
        (17, (1, 4, 9, 10, 13, 15)),
        (17, (1, 2, 3, 4, 5, 12, 13, 15)),
        (17, (1, 2, 4, 8, 9, 13, 15, 16)),          # squares
        (19, (6, 13)),                              # deepest: ~9 s for the oracle
        (19, (3, 5, 7, 9, 11, 14, 18)),
        (19, (3, 4, 7, 9, 11, 12, 16, 17, 18)),
        (19, (1, 4, 5, 6, 7, 9, 11, 16, 17)),       # squares
    ])
    def test_fixed_sets(self, p, elements):
        f = PrimeField(p)
        dset = DiffSet(f, elements)
        fast = enumerate_diff_preserving(f, dset)
        assert [q.images for q in fast.automorphisms] == all_roots_search(f, dset)
        assert fast.all_affine


class TestAffineAssertions:
    def test_count_law_small(self):
        for p in (3, 5, 7):
            f = PrimeField(p)
            for dset in all_diff_sets(f):
                result = enumerate_diff_preserving(f, dset)
                assert len(result.automorphisms) == p * len(result.mult_stabilizer)

    def test_nonaffine_member_raises(self):
        f = PrimeField(5)
        dset = DiffSet(f, (1,))
        fake = AutResult(
            diff_set=dset,
            automorphisms=(Perm(f, (0, 2, 1, 3, 4)),),
            mult_stabilizer=(1,),
            all_affine=False,
        )
        with pytest.raises(PropositionViolated) as exc:
            assert_all_affine(fake)
        assert exc.value.payload["permutation"] == [0, 2, 1, 3, 4]

    def test_wrong_count_raises(self):
        f = PrimeField(5)
        dset = DiffSet(f, (1,))
        fake = AutResult(
            diff_set=dset,
            automorphisms=(Perm.identity(f),),
            mult_stabilizer=(1,),
            all_affine=True,
        )
        with pytest.raises(PropositionViolated) as exc:
            assert_all_affine(fake)
        assert exc.value.payload["expected"] == 5


def _count_by_aut_command(dset):
    """`aut` through cli.main; exit 2 comes back as the serialized violation."""
    out, err = StringIO(), StringIO()
    argv = ["aut", "--p", str(dset.field.p), "--set", ",".join(map(str, dset))]
    with redirect_stdout(out), redirect_stderr(err):
        code = burnside.cli.main(argv)
    if code == 2:
        failure = json.loads(err.getvalue())
        raise PropositionViolated(failure["error"], payload=failure["counterexample"])
    assert code == 0
    return json.loads(out.getvalue())["result"]["automorphism_count"]


def _count_by_orbit_scan(dset):
    """dset's row of ``walk_orbits``, with the walk cut down to dset alone.

    Each walk the scan makes yields only dset, in that walk's labels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(burnside.automorphisms, "canonical_subsets",
                   lambda labels: iter([tuple(labels[u - 1] for u in dset.elements)]))
        (row,), _ = walk_orbits(dset.field)
    return row.automorphism_count


# Every caller that checks Burnside's count law on the maps fixing 0: a
# scan row, the orbit scan, the enumeration, and the `aut` command.
_COUNTERS = [
    lambda dset: _scan_rows([dset], [mult_stabilizer(dset)])[0].automorphism_count,
    _count_by_orbit_scan,
    lambda dset: len(enumerate_diff_preserving(dset.field, dset).automorphisms),
    _count_by_aut_command,
]


class TestCanonicalSubsets:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_same_order_over_any_labels(self, p):
        # The walk reads bits and the writers read texts in the order of
        # the residues themselves; each tuple maps back to the same set.
        sets = list(canonical_subsets(range(1, p)))
        assert len(sets) == len(set(sets)) == 2 ** (p - 1) - 2
        assert sets == sorted(sets, key=lambda s: (len(s), s))
        bits = list(canonical_subsets([1 << u - 1 for u in range(1, p)]))
        assert [tuple(b.bit_length() for b in combo) for combo in bits] == sets
        texts = list(canonical_subsets([str(u) for u in range(1, p)]))
        assert [tuple(map(int, combo)) for combo in texts] == sets

    @pytest.mark.parametrize("n", range(1, 13))
    def test_complements_reverse_each_size(self, n):
        # Within one size, A precedes B exactly when min(A ^ B) is in A,
        # so complementing reverses the order: the walk reads the orbits
        # of the sizes above n/2 off those below, reversed.
        by_size = {k: [] for k in range(n + 1)}
        for combo in canonical_subsets(range(1, n + 1)):
            by_size[len(combo)].append(combo)
        members = set(range(1, n + 1))
        for k in range(1, n):
            complements = [tuple(sorted(members.difference(c))) for c in by_size[k]]
            assert complements == by_size[n - k][::-1], (n, k)


class TestScan:
    def test_p5_summary(self):
        rows = scan_all_subsets(PrimeField(5))
        assert len(rows) == 14
        assert all(r.all_affine for r in rows)
        assert rows[0].elements == (1,)
        assert [r.size for r in rows] == sorted(r.size for r in rows)
        for r in rows:
            assert r.automorphism_count == 5 * r.stabilizer_size

    def test_p3_counts(self):
        rows = scan_all_subsets(PrimeField(3))
        assert [(r.elements, r.automorphism_count) for r in rows] == [
            ((1,), 3),
            ((2,), 3),
        ]

    def test_prime_cap(self):
        with pytest.raises(InputError, match="capped at p <= 23"):
            scan_all_subsets(PrimeField(29))

    def test_jobs_guard(self):
        with pytest.raises(InputError, match="worker count"):
            walk_orbits(PrimeField(5), jobs=0)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_p2_has_no_sets(self, jobs):
        with pytest.raises(InputError, match="p >= 3"):
            scan_all_subsets(PrimeField(2))
        with pytest.raises(InputError, match="p >= 3"):
            walk_orbits(PrimeField(2), jobs=jobs)

    @pytest.mark.parametrize("p, jobs, cpus, started", [
        (7, 10_000, 4, [4]),    # bounded by the machine
        (3, 10_000, 4, []),     # one orbit mod 3: {1} and {2} = 2*{1}
        (7, 3, 8, [3]),         # the request itself is the bound
        (7, 10_000, None, []),  # unknown CPU count: run in this process
        (7, 10_000, 1, []),
        (5, 10_000, 4, [3]),    # bounded by the 3 orbits mod 5
    ])
    def test_worker_count_clamped(self, fake_pool, monkeypatch, p, jobs, cpus, started):
        monkeypatch.setattr(burnside.automorphisms.os, "cpu_count", lambda: cpus)
        walk = walk_orbits(PrimeField(p), jobs=jobs)
        assert fake_pool == started
        assert walk == walk_orbits(PrimeField(p), jobs=1)

    @pytest.mark.parametrize("p, jobs, cpus, started", [
        (7, 10_000, 4, [4]),
        (3, 10_000, 4, []),     # one orbit mod 3: {1} and {2} = 2*{1}
    ])
    def test_orbit_worker_count_clamped(self, fake_pool, monkeypatch, p, jobs, cpus, started):
        # `scan --jobs` reaches the orbit walk's clamp and writes the --jobs 1 report.
        monkeypatch.setattr(burnside.automorphisms.os, "cpu_count", lambda: cpus)

        def scan(k):
            out = StringIO()
            with redirect_stdout(out):
                assert burnside.cli.main(["scan", "--p", str(p), "--jobs", str(k)]) == 0
            return out.getvalue()

        report = scan(jobs)
        assert fake_pool == started
        assert report == scan(1)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_orbit_scan_matches_exhaustive(self, p, jobs):
        # The rows `scan` writes from the orbit walk, against every set searched.
        out = StringIO()
        with redirect_stdout(out):
            assert burnside.cli.main(["scan", "--p", str(p), "--jobs", str(jobs)]) == 0
        assert json.loads(out.getvalue())["result"]["rows"] == exhaustive_report_rows(p)

    def test_orbit_scan_guards(self):
        with pytest.raises(InputError, match="capped at p <= 23"):
            walk_orbits(PrimeField(29))
        with pytest.raises(InputError, match="p >= 3"):
            walk_orbits(PrimeField(2))

    def test_parallel_matches_sequential(self):
        # A real two-worker pool, against the walk in this process.
        sequential = walk_orbits(PrimeField(7), jobs=1)
        parallel = walk_orbits(PrimeField(7), jobs=2)
        assert sequential == parallel

    def test_row_checks_the_maps_fixing_zero(self, monkeypatch):
        # A search that found only the identity: the count law fails with
        # the counts of all solutions, p * |fixed| against p * |M(U)|.
        monkeypatch.setattr(burnside.automorphisms, "_maps_fixing_zero",
                            lambda dset, stabilizer: [tuple(range(dset.field.p))])
        for count in _COUNTERS:
            assert count(DiffSet(PrimeField(5), (1,))) == 5
            with pytest.raises(PropositionViolated, match="count disagrees") as exc:
                count(DiffSet(PrimeField(5), (1, 4)))
            assert exc.value.payload == {"p": 5, "diff_set": [1, 4], "count": 5, "expected": 10}

    def test_scans_report_the_same_counterexample(self, monkeypatch, capsys, tmp_path):
        # {1, 4} = -{1, 4} is the first orbit representative mod 5 with
        # |M(U)| > 1, so the identity-only search fails there first in
        # both scans; `scan` exits 2 with that counterexample and writes
        # no part of its report, to stdout or to --output.
        monkeypatch.setattr(burnside.automorphisms, "_maps_fixing_zero",
                            lambda dset, stabilizer: [tuple(range(dset.field.p))])
        payload = {"p": 5, "diff_set": [1, 4], "count": 5, "expected": 10}
        for scan in (scan_all_subsets, walk_orbits):
            with pytest.raises(PropositionViolated, match="count disagrees") as exc:
                scan(PrimeField(5))
            assert exc.value.payload == payload
        assert burnside.cli.main(["scan", "--p", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "automorphism count disagrees with p * |stabilizer|",
            "counterexample": payload,
        }
        target = tmp_path / "scan.json"
        assert burnside.cli.main(["scan", "--p", "5", "--output", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["counterexample"] == payload
        assert not target.exists()

    def test_row_rejects_a_non_affine_map(self, monkeypatch):
        monkeypatch.setattr(burnside.automorphisms, "_maps_fixing_zero",
                            lambda dset, stabilizer: [(0, 2, 1, 3, 4)])
        for count in _COUNTERS:
            with pytest.raises(PropositionViolated, match="not affine") as exc:
                count(DiffSet(PrimeField(5), (1,)))
            assert exc.value.payload["permutation"] == [0, 2, 1, 3, 4]


class TestRandomizedCrossCheck:
    def test_random_perms_rarely_preserve_but_never_break_oracle(self):
        f = PrimeField(7)
        rng = random.Random(77)
        sets = list(all_diff_sets(f))
        for _ in range(300):
            perm = random_perm(f, rng)
            for dset in rng.sample(sets, 5):
                assert check_preserves(perm, dset) == preserves_biconditional(perm, dset)
