import random
from collections import Counter

import pytest

from burnside import GroupSpec, PrimeField, make_affine
from burnside.errors import CapExceeded, FieldMismatch, InputError
from burnside.groups import (
    derived_series,
    enumerate_group,
    orbit_of_pair,
    orbit_of_point,
    transitivity_tests,
)
from burnside.permutations import Perm
from conftest import random_perm


def c_p(field):
    return GroupSpec(field, (make_affine((1, 1), field),))


def d_p(field):
    p = field.p
    return GroupSpec(field, (make_affine((1, 1), field), make_affine((p - 1, 0), field)))


def s_p(field):
    swap = list(range(field.p))
    swap[0], swap[1] = 1, 0
    return GroupSpec(field, (make_affine((1, 1), field), Perm(field, tuple(swap))))


class TestSpecs:
    def test_requires_generators(self):
        with pytest.raises(InputError):
            GroupSpec(PrimeField(5), ())

    def test_requires_matching_degree(self):
        with pytest.raises(FieldMismatch):
            GroupSpec(PrimeField(5), (Perm.identity(PrimeField(7)),))


class TestOrbits:
    def test_point_orbit_of_translation(self):
        f = PrimeField(5)
        assert orbit_of_point(c_p(f), 0) == [0, 1, 2, 3, 4]

    def test_point_orbit_of_identity(self):
        f = PrimeField(5)
        assert orbit_of_point(GroupSpec(f, (Perm.identity(f),)), 3) == [3]

    def test_point_orbit_of_transposition(self):
        f = PrimeField(5)
        spec = GroupSpec(f, (Perm(f, (0, 2, 1, 3, 4)),))
        assert orbit_of_point(spec, 1) == [1, 2]

    def test_point_out_of_range(self):
        with pytest.raises(InputError):
            orbit_of_point(c_p(PrimeField(5)), 5)

    def test_pair_orbit_full_for_symmetric_group(self):
        assert len(orbit_of_pair(s_p(PrimeField(5)), (1, 0))) == 20

    def test_pair_orbit_of_translation_is_constant_difference(self):
        f = PrimeField(5)
        assert orbit_of_pair(c_p(f), (1, 0)) == [(0, 4), (1, 0), (2, 1), (3, 2), (4, 3)]

    def test_pair_orbit_of_identity(self):
        f = PrimeField(5)
        assert orbit_of_pair(GroupSpec(f, (Perm.identity(f),)), (1, 0)) == [(1, 0)]

    def test_equal_pair_rejected(self):
        with pytest.raises(InputError):
            orbit_of_pair(c_p(PrimeField(5)), (2, 2))

    @pytest.mark.parametrize("maker", [c_p, d_p, s_p])
    def test_point_orbits_partition(self, maker):
        f = PrimeField(7)
        spec = maker(f)
        seen = []
        for x in range(7):
            orbit = orbit_of_point(spec, x)
            assert x in orbit
            if orbit[0] == x:
                seen.extend(orbit)
        assert sorted(seen) == list(range(7))

    @pytest.mark.parametrize("maker", [c_p, d_p, s_p])
    def test_pair_orbits_partition(self, maker):
        f = PrimeField(7)
        spec = maker(f)
        all_pairs = [(i, j) for i in range(7) for j in range(7) if i != j]
        covered = set()
        for pair in all_pairs:
            orbit = frozenset(orbit_of_pair(spec, pair))
            assert pair in orbit
            covered.add(orbit)
        # distinct orbits are disjoint and cover all ordered pairs
        assert sorted(p for orbit in covered for p in orbit) == sorted(all_pairs)
        assert sum(len(orbit) for orbit in covered) == len(all_pairs)

    @pytest.mark.parametrize("gens", [
        [(1, 1)],
        [(1, 1), (10, 0)],
        [(1, 1), (2, 0)],
    ])
    def test_difference_classes_under_translation(self, gens):
        # Any group containing i -> i+1 moves pairs within whole difference
        # classes, each class contributing exactly p pairs to its orbit.
        p = 11
        f = PrimeField(p)
        spec = GroupSpec(f, tuple(make_affine(c, f) for c in gens))
        for pair in [(i, j) for i in range(p) for j in range(p) if i != j]:
            counts = Counter((i - j) % p for i, j in orbit_of_pair(spec, pair))
            assert all(count == p for count in counts.values())


class TestTransitivity:
    def test_cyclic(self):
        assert transitivity_tests(c_p(PrimeField(5))) == (True, False)

    def test_symmetric(self):
        assert transitivity_tests(s_p(PrimeField(5))) == (True, True)

    def test_identity_group(self):
        f = PrimeField(5)
        assert transitivity_tests(GroupSpec(f, (Perm.identity(f),))) == (False, False)


class TestEnumeration:
    def test_cyclic_order(self):
        assert enumerate_group(c_p(PrimeField(5)), 10).order == 5

    def test_dihedral_order(self):
        assert enumerate_group(d_p(PrimeField(5)), 20).order == 10

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded) as exc:
            enumerate_group(s_p(PrimeField(5)), 20)
        assert exc.value.cap == 20
        assert exc.value.partial_count > 20

    def test_cap_guard(self):
        with pytest.raises(InputError):
            enumerate_group(c_p(PrimeField(5)), 0)

    def test_contains_identity_and_closed(self):
        group = enumerate_group(d_p(PrimeField(7)), 50)
        elements = set(group.elements)
        assert Perm.identity(PrimeField(7)) in elements
        for a in group.elements:
            assert a.inverse() in elements
            for b in group.elements:
                assert a * b in elements

    def test_generator_order_independent(self):
        f = PrimeField(7)
        t = make_affine((1, 1), f)
        m = make_affine((3, 0), f)
        one = enumerate_group(GroupSpec(f, (t, m)), 50)
        two = enumerate_group(GroupSpec(f, (m, t)), 50)
        assert {g.images for g in one.elements} == {g.images for g in two.elements}

    @pytest.mark.parametrize("maker", [c_p, d_p])
    def test_orbit_size_divides_order(self, maker):
        f = PrimeField(11)
        spec = maker(f)
        group = enumerate_group(spec, 200)
        assert group.order % len(orbit_of_point(spec, 0)) == 0


class TestDerivedSeries:
    def test_cyclic_is_abelian(self):
        group = enumerate_group(c_p(PrimeField(5)), 10)
        assert derived_series(group) == [5, 1]

    def test_dihedral(self):
        group = enumerate_group(d_p(PrimeField(5)), 20)
        assert derived_series(group) == [10, 5, 1]

    def test_full_affine_group(self):
        f = PrimeField(5)
        spec = GroupSpec(f, (make_affine((1, 1), f), make_affine((2, 0), f)))
        group = enumerate_group(spec, 20)
        assert derived_series(group) == [20, 5, 1]

    def test_alternating_group_stabilizes(self):
        # A_5 is perfect, so the series must stall at 60 instead of dropping.
        f = PrimeField(5)
        spec = GroupSpec(f, (make_affine((1, 1), f), Perm(f, (1, 2, 0, 3, 4))))
        group = enumerate_group(spec, 60)
        assert group.order == 60
        assert derived_series(group) == [60, 60]


def all_pairs_derived_series(elements):
    """Oracle: each level is closed from the commutators of all its pairs.

    Works on raw image tuples, independent of ``derived_series``.
    """

    def mul(a, b):  # a after b
        return tuple(a[i] for i in b)

    def inv(a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    current = {g.images for g in elements}
    orders = [len(current)]
    while orders[-1] > 1:
        inverses = {a: inv(a) for a in current}
        seeds = {mul(mul(inverses[a], inverses[b]), mul(a, b))
                 for a in current for b in current}
        sub = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for h in frontier:
                for g in seeds:
                    q = mul(h, g)
                    if q not in sub:
                        sub.add(q)
                        nxt.append(q)
            frontier = nxt
        orders.append(len(sub))
        if len(sub) == len(current):
            break
        current = sub
    return orders


def affine_generating_sets(p):
    """Generating sets of every transitive subgroup T.<m> of AGL(1, p).

    For each multiplier m: every pair (i -> i+b, i -> m*i+c), and the pair
    (i -> m*i, i -> m*i+1) that holds no translation; for m = 1, every
    translation alone. The subgroup is fixed by its order p * ord(m).
    """
    f = PrimeField(p)
    for b in range(1, p):
        yield (make_affine((1, b), f),)
    for m in range(2, p):
        yield (make_affine((m, 0), f), make_affine((m, 1), f))
        for b in range(1, p):
            for c in range(p):
                yield (make_affine((1, b), f), make_affine((m, c), f))


class TestDerivedSeriesOracle:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_transitive_affine_subgroups(self, p):
        oracle = {}
        for gens in affine_generating_sets(p):
            group = enumerate_group(GroupSpec(PrimeField(p), gens), p * (p - 1))
            if group.order not in oracle:
                oracle[group.order] = all_pairs_derived_series(group.elements)
            assert derived_series(group) == oracle[group.order]
        # one subgroup per divisor of p - 1, the translations alone abelian
        assert len(oracle) == sum((p - 1) % k == 0 for k in range(1, p))
        assert oracle[p] == [p, 1]

    def test_relabelled_affine_subgroups(self):
        # Conjugating by a random bijection hides the affine form from the
        # generators but cannot change the series.
        p = 13
        f = PrimeField(p)
        rng = random.Random(13)
        for _ in range(20):
            sigma = random_perm(f, rng)
            m = rng.randrange(2, p)
            gens = (make_affine((1, rng.randrange(1, p)), f), make_affine((m, rng.randrange(p)), f))
            group = enumerate_group(GroupSpec(f, tuple(g.conjugate(sigma) for g in gens)), p * (p - 1))
            assert derived_series(group) == all_pairs_derived_series(group.elements)

    @pytest.mark.parametrize("gens, expected", [
        # S_5 = <5-cycle, transposition>, A_5 = <5-cycle, 3-cycle>
        ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], [120, 60, 60]),
        ([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], [60, 60]),
        # S_4 on the points 0..3: the commutators of its two generators
        # generate only a 3-cycle, so the normal-closure step must run.
        ([(1, 2, 3, 0, 4), (1, 0, 2, 3, 4)], [24, 12, 4, 1]),
    ])
    def test_symmetric_and_alternating(self, gens, expected):
        f = PrimeField(5)
        group = enumerate_group(GroupSpec(f, tuple(Perm(f, g) for g in gens)), 120)
        assert all_pairs_derived_series(group.elements) == expected
        assert derived_series(group) == expected

    def test_random_subgroups_of_s5(self):
        f = PrimeField(5)
        rng = random.Random(5)
        for _ in range(40):
            gens = tuple(random_perm(f, rng) for _ in range(rng.randrange(1, 4)))
            group = enumerate_group(GroupSpec(f, gens), 120)
            assert derived_series(group) == all_pairs_derived_series(group.elements)

    def test_trivial_group(self):
        f = PrimeField(5)
        group = enumerate_group(GroupSpec(f, (Perm.identity(f),)), 1)
        assert derived_series(group) == [1]
