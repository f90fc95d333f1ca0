import gc
import hashlib
import random

import pytest

import burnside.automorphisms
from burnside import DiffSet, PrimeField, enumerate_diff_preserving, make_affine
from burnside.automorphisms import (
    AutResult,
    _maps_fixing_zero,
    _scan_one,
    all_diff_sets,
    assert_all_affine,
    check_preserves,
    mult_stabilizer,
    naive_enumerate,
    scan_all_subsets,
)
from burnside.errors import InputError, PropositionViolated
from burnside.permutations import Perm, recognize_affine

from conftest import all_perms, qr_set, random_perm


def preserves_biconditional(perm, dset):
    """Slow oracle checking both directions of the difference condition."""
    p = perm.field.p
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            fwd = (i - j) % p in dset
            img = (perm(i) - perm(j)) % p in dset
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


def all_multipliers_stabilizer(dset):
    """Every a in 1..p-1 with a*U = U, tried one by one. Kept as the oracle
    for the search over the |U| quotients u/u0."""
    p = dset.field.p
    target = set(dset.elements)
    return tuple(
        a for a in range(1, p) if {a * u % p for u in target} == target
    )


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
                    assert a * b in auts

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
    member = dset.indicator()
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
    member = dset.indicator()
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
        # search tree, so this pins the tree the refinement walks.
        sets = [dset for p in (3, 5, 7, 11, 13) for dset in all_diff_sets(PrimeField(p))]
        sets += [DiffSet(PrimeField(p), elements) for p, elements in HARD_SETS]
        digest = hashlib.sha256()
        for dset in sets:
            digest.update(repr((dset.field.p, dset.elements, _maps_fixing_zero(dset))).encode())
        assert len(sets) == 5201
        assert digest.hexdigest() == (
            "15d9a27161c2ad1142445eb8597b0e5fd26041dcf028cfc6d4fd17cd991e6622"
        )


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
        with pytest.raises(InputError):
            scan_all_subsets(PrimeField(17))

    def test_jobs_guard(self):
        with pytest.raises(InputError):
            scan_all_subsets(PrimeField(5), jobs=0)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_p2_has_no_sets(self, jobs):
        with pytest.raises(InputError, match="p >= 3"):
            scan_all_subsets(PrimeField(2), jobs=jobs)

    @pytest.mark.parametrize("p, jobs, cpus, started", [
        (7, 10_000, 4, [4]),    # bounded by the machine
        (3, 10_000, 4, [2]),    # bounded by the 2 subsets mod 3
        (7, 3, 8, [3]),         # the request itself is the bound
        (7, 10_000, None, []),  # unknown CPU count: run in this process
        (7, 10_000, 1, []),
    ])
    def test_worker_count_clamped(self, fake_pool, monkeypatch, p, jobs, cpus, started):
        monkeypatch.setattr(burnside.automorphisms.os, "cpu_count", lambda: cpus)
        rows = scan_all_subsets(PrimeField(p), jobs=jobs)
        assert fake_pool == started
        assert rows == scan_all_subsets(PrimeField(p), jobs=1)

    def test_parallel_matches_sequential(self):
        sequential = scan_all_subsets(PrimeField(7), jobs=1)
        parallel = scan_all_subsets(PrimeField(7), jobs=2)
        assert sequential == parallel

    def test_row_checks_the_maps_fixing_zero(self, monkeypatch):
        # A search that found only the identity: the count law fails with
        # the counts of all solutions, p * |fixed| against p * |M(U)|.
        monkeypatch.setattr(burnside.automorphisms, "_maps_fixing_zero",
                            lambda dset: [tuple(range(dset.field.p))])
        assert _scan_one(DiffSet(PrimeField(5), (1,))).automorphism_count == 5
        with pytest.raises(PropositionViolated, match="count disagrees") as exc:
            _scan_one(DiffSet(PrimeField(5), (1, 4)))
        assert exc.value.payload == {"p": 5, "diff_set": [1, 4], "count": 5, "expected": 10}

    def test_row_rejects_a_non_affine_map(self, monkeypatch):
        monkeypatch.setattr(burnside.automorphisms, "_maps_fixing_zero",
                            lambda dset: [(0, 2, 1, 3, 4)])
        with pytest.raises(PropositionViolated, match="not affine") as exc:
            _scan_one(DiffSet(PrimeField(5), (1,)))
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
