import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burnside.groups
from burnside import DiffSet, GroupSpec, PrimeField, classify, make_affine, verify_certificate
from burnside.automorphisms import check_preserves
from burnside.classifier import (
    Classification,
    DOUBLY_TRANSITIVE,
    NOT_TRANSITIVE,
    SOLVABLE_AFFINE,
)
from burnside.errors import InputError
from burnside.cli import parse_group_file
from burnside.fields import is_prime
from burnside.groups import (
    derived_series,
    enumerate_group,
    is_doubly_transitive,
    orbit_of_pair,
)
from burnside.permutations import AffineCoeffs, Perm, relabel_to_translation
from conftest import random_perm
from oracles import conjugate, cycle_type, multiplier_orbit, perm_order
from test_cli import golden_group_files
from test_groups import affine_generating_sets


def replaced(c: Classification, **changes) -> Classification:
    """``c`` rebuilt from its fields, with ``changes`` in place of some."""
    fields = {name: getattr(c, name) for name in Classification.__slots__}
    return Classification(**{**fields, **changes})


def translation(field):
    return make_affine((1, 1), field)


def dihedral(field):
    return GroupSpec(field, (translation(field), make_affine((field.p - 1, 0), field)))


def pair_orbit_differences(spec, relabeling):
    """The differences of the orbit of (1, 0) under the relabelled group:
    the slow oracle for the multiplier group that classify reads U from."""
    p = spec.field.p
    relabelled = GroupSpec(spec.field, tuple(conjugate(g, relabeling) for g in spec.generators))
    return tuple(sorted({(i - j) % p for i, j in orbit_of_pair(relabelled, (1, 0))}))


def check_against_oracles(spec, c):
    """classify's U and |H| against the pair orbit and the enumeration."""
    p = spec.field.p
    assert c.diff_set.elements == pair_orbit_differences(spec, c.relabeling)
    assert c.group_order == enumerate_group(spec, p * (p - 1)).order


def symmetric(field):
    swap = list(range(field.p))
    swap[0], swap[1] = 1, 0
    return GroupSpec(field, (translation(field), Perm(field, tuple(swap))))


class TestClassify:
    def test_dihedral_witness(self):
        f = PrimeField(5)
        spec = dihedral(f)
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.diff_set.elements == (1, 4)
        assert c.embedding == (AffineCoeffs(1, 1), AffineCoeffs(4, 0))
        assert c.group_order == 10
        # first order-5 element in enumeration order is the translation itself
        assert c.relabeling.is_identity

    def test_symmetric_group_detected(self):
        assert classify(symmetric(PrimeField(5))).variant == DOUBLY_TRANSITIVE

    def test_frobenius_21(self):
        f = PrimeField(7)
        spec = GroupSpec(f, (translation(f), make_affine((2, 0), f)))
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.diff_set.elements == (1, 2, 4)
        assert c.group_order == 21

    def test_intransitive_group(self):
        f = PrimeField(5)
        c = classify(GroupSpec(f, (make_affine((2, 0), f),)))
        assert c.variant == NOT_TRANSITIVE
        assert c.diff_set is None

    def test_relabeling_applied_when_needed(self):
        # Generated by i -> i+2: the first order-p element is i -> i+2
        # itself, so the solvable witness relabels before embedding.
        f = PrimeField(5)
        spec = GroupSpec(f, (make_affine((1, 2), f),))
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.diff_set.elements == (1,)
        assert not c.relabeling.is_identity
        assert verify_certificate(spec, c)

    def test_degree_two(self):
        f = PrimeField(2)
        spec = GroupSpec(f, (Perm(f, (1, 0)),))
        assert classify(spec).variant == DOUBLY_TRANSITIVE

    def test_deterministic(self):
        f = PrimeField(7)
        spec = GroupSpec(f, (translation(f), make_affine((2, 0), f)))
        first = json.dumps(classify(spec).to_payload())
        second = json.dumps(classify(spec).to_payload())
        assert first == second

    def test_solvable_order_arithmetic(self):
        for p in (5, 7, 11):
            f = PrimeField(p)
            c = classify(dihedral(f))
            assert c.group_order % p == 0
            assert (p * (p - 1)) % c.group_order == 0


class TestDifferenceSet:
    # U is the multiplier group of the embedding: the differences of the
    # orbit of (1, 0), which pair_orbit_differences lists the slow way.
    def test_translation_only(self):
        f = PrimeField(5)
        spec = GroupSpec(f, (translation(f),))
        c = classify(spec)
        assert c.diff_set.elements == (1,)
        check_against_oracles(spec, c)

    def test_dihedral(self):
        spec = dihedral(PrimeField(5))
        c = classify(spec)
        assert c.diff_set.elements == (1, 4)
        check_against_oracles(spec, c)

    def test_frobenius(self):
        f = PrimeField(7)
        spec = GroupSpec(f, (translation(f), make_affine((2, 0), f)))
        c = classify(spec)
        assert c.diff_set.elements == (1, 2, 4)
        check_against_oracles(spec, c)


class TestVerifyCertificate:
    def test_valid_certificates(self):
        for p in (5, 7, 11):
            f = PrimeField(p)
            for spec in (dihedral(f), GroupSpec(f, (translation(f),))):
                c = classify(spec)
                assert verify_certificate(spec, c)

    def test_doubly_transitive_verdicts(self):
        f = PrimeField(5)
        good = symmetric(f)
        c = classify(good)
        assert verify_certificate(good, c)
        assert not verify_certificate(dihedral(f), c)

    def test_not_transitive_verdict(self):
        f = PrimeField(5)
        spec = GroupSpec(f, (make_affine((2, 0), f),))
        c = classify(spec)
        assert verify_certificate(spec, c)
        assert not verify_certificate(dihedral(f), c)

    def test_tampered_embedding_rejected(self):
        f = PrimeField(5)
        spec = dihedral(f)
        c = classify(spec)
        tampered = Classification(
            field=c.field,
            variant=c.variant,
            relabeling=c.relabeling,
            diff_set=c.diff_set,
            embedding=(c.embedding[0], AffineCoeffs(c.embedding[1].a, 1)),
            group_order=c.group_order,
        )
        assert not verify_certificate(spec, tampered)

    def test_tampered_diff_set_rejected(self):
        from burnside import DiffSet

        # T.<a> has U = <a>. Every wrong U after (2,) is a union of cosets
        # of <a>, so every generator preserves it; each lacks 1 or has the
        # wrong size for the group order.
        for p, a, wrong_sets in (
            (5, 4, [(2,), (2, 3)]),
            (13, 12, [(2, 11), (1, 2, 11, 12)]),
            (7, 2, [(3, 5, 6)]),
        ):
            f = PrimeField(p)
            spec = GroupSpec(f, (translation(f), make_affine((a, 0), f)))
            c = classify(spec)
            assert verify_certificate(spec, c)
            for elements in wrong_sets:
                tampered = replaced(c, diff_set=DiffSet(f, elements))
                assert not verify_certificate(spec, tampered), (p, elements)

    def test_tampered_order_rejected(self):
        f = PrimeField(5)
        spec = dihedral(f)
        c = classify(spec)
        tampered = Classification(
            field=c.field,
            variant=c.variant,
            relabeling=c.relabeling,
            diff_set=c.diff_set,
            embedding=c.embedding,
            group_order=20,
        )
        assert not verify_certificate(spec, tampered)

    @pytest.mark.parametrize("order", [5.0, True])
    def test_non_integer_order_rejected(self, order):
        # from_payload rejects these too; 5.0 == 5 would otherwise pass
        f = PrimeField(5)
        spec = GroupSpec(f, (translation(f),))
        c = classify(spec)
        assert c.group_order == 5
        assert not verify_certificate(spec, replaced(c, group_order=order))

    def test_wrong_variant_rejected(self):
        f = PrimeField(5)
        spec = dihedral(f)
        assert not verify_certificate(spec, Classification(f, DOUBLY_TRANSITIVE))
        assert not verify_certificate(spec, Classification(f, NOT_TRANSITIVE))


class TestMalformedCertificate:
    """verify_certificate never raises: a malformed part yields False, and
    the embedding may hold plain (a, b) pairs as well as AffineCoeffs."""

    @staticmethod
    def frobenius_21():
        f = PrimeField(7)
        spec = GroupSpec(f, (translation(f), make_affine((2, 0), f)))
        c = classify(spec)
        assert c.embedding == ((1, 1), (2, 0)) and c.relabeling.is_identity
        return spec, c

    @pytest.mark.parametrize("changes, expected", [
        ({"embedding": ((1, 1), (2, 0))}, True),
        ({"embedding": [[1, 1], [2, 0]]}, True),
        ({"embedding": ((1, 1), (2, 1))}, False),
        ({"embedding": ((1, 1), None)}, False),
        ({"embedding": ((1, 1), (1,))}, False),
        ({"embedding": ((1, 1), (1, 1, 5))}, False),
        ({"embedding": ((1, 1), (2.0, 0))}, False),
        ({"embedding": ((1, 1), ("2", 0))}, False),
        ({"embedding": ((1, 1), 2)}, False),
        ({"embedding": ((1, 1),)}, False),
        ({"embedding": None}, False),
        ({"diff_set": (1, 2, 4)}, False),
        ({"diff_set": None}, False),
        ({"relabeling": tuple(range(7))}, False),
        ({"relabeling": None}, False),
        ({"relabeling": Perm.identity(PrimeField(5))}, False),
    ], ids=["plain-pairs", "lists", "wrong-pair", "none-entry", "short-entry",
            "long-entry", "float-entry", "string-entry", "int-entry",
            "too-few-entries", "no-embedding", "tuple-diff-set", "no-diff-set",
            "tuple-relabeling", "no-relabeling", "relabeling-of-other-degree"])
    def test_parts(self, changes, expected):
        spec, c = self.frobenius_21()
        assert verify_certificate(spec, replaced(c, **changes)) is expected

    def test_plain_pairs_on_a_relabelled_group(self):
        spec = index_two_group_at_p97()
        c = classify(spec)
        plain = replaced(c, embedding=tuple((a, b) for a, b in c.embedding))
        assert not isinstance(plain.embedding[0], AffineCoeffs)
        assert verify_certificate(spec, plain) is True
        assert plain.to_payload() == c.to_payload()

    @pytest.mark.parametrize("claim", [None, (), "SOLVABLE_AFFINE"])
    def test_not_a_classification(self, claim):
        spec, _ = self.frobenius_21()
        assert verify_certificate(spec, claim) is False


class TestCyclicTableUnits:
    """The certificate reads U, the group its multipliers generate, off
    ``cyclic_table`` as <g**t>; the breadth-first orbit of 1 under
    x -> a*x over p-point permutations is the oracle."""

    @pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)])
    def test_every_pair_of_units(self, p):
        f = PrimeField(p)
        for a1 in range(1, p):
            for a2 in range(1, p):
                spec = GroupSpec(f, (translation(f), make_affine((a1, 0), f),
                                     make_affine((a2, 0), f)))
                c = classify(spec)
                units = multiplier_orbit(f, (a1, a2))
                if len(units) == p - 1:
                    assert c.variant == DOUBLY_TRANSITIVE
                else:
                    assert c.diff_set.elements == units, (p, a1, a2)
                    assert c.group_order == p * len(units)

    @staticmethod
    def certify_shapes():
        """Relabelled T.<m> for every multiplier order k < p-1, p <= 23, and
        C_97, as the certify benchmark draws them."""
        rng = random.Random(23)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            f = PrimeField(p)
            for k in (k for k in range(1, p - 1) if (p - 1) % k == 0):
                gens = [(1, rng.randrange(1, p))]
                if k > 1:
                    gens.append((of_order(p, k), rng.randrange(p)))
                yield relabelled(f, gens, rng)
        yield relabelled(PrimeField(97), [(1, rng.randrange(1, 97))], rng)

    def test_certify_shapes(self):
        shapes = list(self.certify_shapes())
        assert len(shapes) == 27
        for spec in shapes:
            c = classify(spec)
            assert c.variant == SOLVABLE_AFFINE
            units = multiplier_orbit(spec.field, [a for a, _ in c.embedding])
            assert c.diff_set.elements == units
            assert verify_certificate(spec, c)


class TestCheckedAtTheEdge:
    """A checked Perm is built from outside input alone: classify and
    verify_certificate build none, since both read each conjugated
    generator off the image tables."""

    @pytest.mark.parametrize("text", golden_group_files().values(),
                             ids=golden_group_files().keys())
    def test_checked_perm_builds(self, monkeypatch, text):
        spec = parse_group_file(io.StringIO(text))
        checked = []
        check = Perm.__post_init__

        def counted(perm):
            checked.append(perm.images)
            check(perm)

        monkeypatch.setattr(Perm, "__post_init__", counted)
        c = classify(spec)
        assert checked == []
        assert verify_certificate(spec, c)
        assert checked == []


class TestPayloadRoundTrip:
    def test_solvable(self):
        f = PrimeField(7)
        spec = GroupSpec(f, (translation(f), make_affine((3, 2), f)))
        c = classify(spec)
        restored = Classification.from_payload(json.loads(json.dumps(c.to_payload())))
        assert restored == c
        assert verify_certificate(spec, restored)

    def test_other_variants(self):
        f = PrimeField(5)
        for spec in (symmetric(f), GroupSpec(f, (make_affine((2, 0), f),))):
            c = classify(spec)
            assert Classification.from_payload(c.to_payload()) == c


class TestMalformedPayload:
    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("relabeling"),
        lambda d: d.update(embedding=[{"a": 1}]),
        lambda d: d.update(p="x"),
        # Numbers that int() would truncate or parse: each must be an int.
        lambda d: d.update(p=7.9),
        lambda d: d.update(p=7.0),
        lambda d: d.update(relabeling=[v + 0.5 for v in d["relabeling"]]),
        lambda d: d.update(diff_set=[str(u) for u in d["diff_set"]]),
        lambda d: d["embedding"][0].update(a=d["embedding"][0]["a"] + 0.25),
        lambda d: d["embedding"][0].update(b=True),
        lambda d: d.update(group_order=float(d["group_order"])),
        # The variant must be one of the three verdict constants.
        lambda d: d.update(variant="FOO"),
        lambda d: d.update(variant=None),
        lambda d: d.update(variant=5),
        lambda d: d.update(variant=["SOLVABLE_AFFINE"]),
    ], ids=["missing-relabeling", "embedding-without-b", "p-not-a-number",
            "p-float", "p-integral-float", "relabeling-floats", "diff-set-strings",
            "a-float", "b-bool", "group-order-float", "variant-unknown",
            "variant-none", "variant-int", "variant-list"])
    def test_raises_input_error(self, edit):
        f = PrimeField(7)
        payload = classify(GroupSpec(f, (translation(f), make_affine((2, 0), f)))).to_payload()
        edit(payload)
        with pytest.raises(InputError):
            Classification.from_payload(payload)


class TestEnumerationOracle:
    """classify reads U and |H| from its embedding's multipliers and stops
    at the first p-cycle; the full enumeration and the pair orbit of the
    relabelled group are the oracles."""

    @staticmethod
    def check(spec):
        """Compare a subgroup of a conjugate of AGL(1, p) with its
        enumeration; True if it is on the solvable branch."""
        p = spec.field.p
        c = classify(spec)
        enum = enumerate_group(spec, p * (p - 1))
        # the reference rule: tau is the first element of order p listed
        tau = next((g for g in enum.elements if perm_order(g) == p), None)
        if tau is None:  # no translations: a point is fixed
            assert c.variant == NOT_TRANSITIVE
            return False
        if enum.order == p * (p - 1):  # all of AGL(1, p)
            assert c.variant == DOUBLY_TRANSITIVE
            return False
        assert c.variant == SOLVABLE_AFFINE
        assert c.group_order == enum.order
        assert c.diff_set.elements == pair_orbit_differences(spec, c.relabeling)
        assert c.relabeling == relabel_to_translation(tau)
        return True

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_affine_generating_sets(self, p):
        f = PrimeField(p)
        rng = random.Random(p)
        solvable = 0
        for gens in affine_generating_sets(p):
            sigma = random_perm(f, rng)
            for spec in (GroupSpec(f, gens),
                         GroupSpec(f, tuple(conjugate(g, sigma) for g in gens))):
                solvable += self.check(spec)
        # every set but those generating AGL(1, p) is solvable
        primitive = sum(perm_order(make_affine((m, 0), f)) == p - 1 for m in range(2, p))
        total = (p - 1) + (p - 2) * (1 + (p - 1) * p)
        assert solvable == 2 * (total - primitive * (1 + (p - 1) * p))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
    def test_relabelled_sets_without_p_cycle_generator(self, p):
        f = PrimeField(p)
        rng = random.Random(p)
        solvable = 0
        for _ in range(40):
            gens = tuple(
                make_affine((rng.randrange(2, p), rng.randrange(p)), f)
                for _ in range(rng.choice((2, 3)))
            )
            sigma = random_perm(f, rng)
            spec = GroupSpec(f, tuple(conjugate(g, sigma) for g in gens))
            assert all(cycle_type(g) != (p,) for g in spec.generators)
            solvable += self.check(spec)
        assert solvable > 0


def index_two_group_at_p97():
    """T.<m> with m of order 48 mod 97, relabelled: order 97 * 48 = 4656."""
    p = 97
    f = PrimeField(p)
    m = 25  # 5 is a primitive root mod 97, and 25 = 5^2
    rng = random.Random(97)
    sigma = list(range(p))
    rng.shuffle(sigma)
    sigma = Perm(f, tuple(sigma))
    return GroupSpec(f, tuple(
        conjugate(g, sigma) for g in (translation(f), make_affine((m, 3), f))
    ))


class TestLargestDegree:
    def test_index_two_group_at_p97(self):
        spec = index_two_group_at_p97()
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.group_order == 4656
        assert verify_certificate(spec, c)


def of_order(p, k):
    """The least a mod p of multiplicative order k."""
    return next(a for a in range(1, p) if perm_order(make_affine((a, 0), PrimeField(p))) == k)


def relabelled(field, gens, rng):
    """The group the affine maps ``gens`` generate, relabelled by a shuffle."""
    sigma = list(range(field.p))
    rng.shuffle(sigma)
    sigma = Perm(field, tuple(sigma))
    return GroupSpec(field, tuple(conjugate(make_affine(c, field), sigma) for c in gens))


class TestClosedFormOrder:
    """verify_certificate checks the group order as p times the least common
    exponent of the multipliers; the enumeration is the oracle."""

    @staticmethod
    def check(spec):
        p = spec.field.p
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert verify_certificate(spec, c)
        assert c.group_order == enumerate_group(spec, p * (p - 1)).order
        return c.group_order

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_every_transitive_affine_subgroup(self, p):
        # T.<g^d> for a primitive root g and every divisor d > 1 of p - 1;
        # d = 1 is AGL(1, p), which is doubly transitive.
        f = PrimeField(p)
        rng = random.Random(p)
        g = of_order(p, p - 1)
        for d in (d for d in range(2, p) if (p - 1) % d == 0):
            m = pow(g, d, p)
            spec = relabelled(f, [(1, 1), (m, rng.randrange(p))], rng)
            assert self.check(spec) == p * (p - 1) // d

    @pytest.mark.parametrize("p, orders, exponent", [(31, (3, 5), 15), (61, (4, 6), 12)])
    def test_exponent_is_the_lcm_of_the_multiplier_orders(self, p, orders, exponent):
        f = PrimeField(p)
        rng = random.Random(p)
        gens = [(1, 1)] + [(of_order(p, k), rng.randrange(p)) for k in orders]
        assert self.check(relabelled(f, gens, rng)) == p * exponent
        # the same group with no translation among its generators
        gens = [(of_order(p, k), rng.randrange(p)) for k in orders]
        assert self.check(relabelled(f, gens, rng)) == p * exponent

    @pytest.mark.parametrize("p, gens, claimed_u", [
        # T.<3> mod 13 has U = {1, 3, 9}; the squares are a union of its cosets
        (13, [(1, 1), (3, 5)], (1, 3, 4, 9, 10, 12)),
        # T.<5> mod 31 has U = {1, 5, 25}; claim U and its coset 2U
        (31, [(1, 1), (5, 2)], (1, 2, 5, 10, 19, 25)),
    ])
    def test_consistent_supergroup_claim_rejected(self, p, gens, claimed_u):
        f = PrimeField(p)
        spec = relabelled(f, gens, random.Random(p))
        c = classify(spec)
        assert verify_certificate(spec, c)
        tampered = replaced(
            c, diff_set=DiffSet(f, claimed_u), group_order=p * len(claimed_u))
        # every check but the order comparison holds for the tampered claim
        assert 1 in tampered.diff_set
        assert p * len(tampered.diff_set) == tampered.group_order
        for g in spec.generators:
            assert check_preserves(conjugate(g, c.relabeling), tampered.diff_set)
        assert not verify_certificate(spec, tampered)

    def test_verify_never_enumerates(self, monkeypatch):
        spec = index_two_group_at_p97()
        c = classify(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("verify_certificate enumerated the group")

        monkeypatch.setattr(burnside.groups, "closure", refuse)
        assert verify_certificate(spec, c)


def cycle(field, points):
    """The cycle (points[0] points[1] ...) as a permutation of F_p."""
    images = list(range(field.p))
    for x, y in zip(points, points[1:] + points[:1]):
        images[x] = y
    return Perm(field, tuple(images))


class TestCertificateDecides:
    """classify tries the certificate first; only a group without one builds
    the orbit of (1, 0), which must then be full."""

    def test_solvable_groups_never_build_the_pair_orbit(self, monkeypatch):
        f5, f7, f97 = PrimeField(5), PrimeField(7), PrimeField(97)
        specs = [dihedral(f5),
                 GroupSpec(f7, (translation(f7), make_affine((2, 0), f7))),
                 GroupSpec(f97, (translation(f97),)),
                 index_two_group_at_p97()]

        def refuse(*args, **kwargs):
            raise AssertionError("the pair orbit was built")

        monkeypatch.setattr(burnside.groups, "orbit_of_pair", refuse)
        for spec in specs:
            c = classify(spec)
            assert c.variant == SOLVABLE_AFFINE
            assert verify_certificate(spec, c)

    @staticmethod
    def check_doubly_transitive(spec):
        c = classify(spec)
        assert c.variant == DOUBLY_TRANSITIVE
        assert verify_certificate(spec, c)

    @staticmethod
    def shuffled(field, gens, seed):
        """The group ``gens`` generate, relabelled by a seeded shuffle."""
        sigma = random_perm(field, random.Random(seed))
        spec = GroupSpec(field, tuple(conjugate(g, sigma) for g in gens))
        assert all(cycle_type(g) != (field.p,) for g in spec.generators)
        return spec

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("family", ["transposition", "two_long_cycles"])
    def test_no_p_cycle_among_generators(self, p, family, monkeypatch):
        # S_p from (0 1), (1 ... p-1): (0 1) fixes p - 2 points, which no
        # affine map but the identity does, so no search runs. S_p from
        # (1 ... p-1), (0 ... p-2): each fixes one point, so one search runs.
        f = PrimeField(p)
        if family == "transposition":
            gens = (cycle(f, [0, 1]), cycle(f, list(range(1, p))))
        else:
            gens = (cycle(f, list(range(1, p))), cycle(f, list(range(p - 1))))
        spec = self.shuffled(f, gens, p)
        searches = []
        search = burnside.classifier.bfs_elements

        def counted(field, seeds):
            searches.append(field.p)
            return search(field, seeds)

        monkeypatch.setattr(burnside.classifier, "bfs_elements", counted)
        self.check_doubly_transitive(spec)
        assert searches == ([] if family == "transposition" else [p])

    def test_adjacent_transpositions(self):
        f = PrimeField(7)
        self.check_doubly_transitive(
            self.shuffled(f, tuple(cycle(f, [i, i + 1]) for i in range(6)), 7))

    def test_failed_search_falls_back_to_the_pair_orbit(self, monkeypatch):
        # a search that finds no p-cycle leaves S_5 to the pair orbit
        f = PrimeField(5)
        spec = self.shuffled(f, (cycle(f, [1, 2, 3, 4]), cycle(f, [0, 1, 2, 3])), 5)
        monkeypatch.setattr(burnside.classifier, "bfs_elements",
                            lambda field, seeds: iter([Perm.identity(field)]))
        self.check_doubly_transitive(spec)


class TestAffineSubgroupSweep:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_single_generator_subgroups(self, p):
        f = PrimeField(p)
        for a in range(1, p):
            for b in range(p):
                spec = GroupSpec(f, (make_affine((a, b), f),))
                c = classify(spec)
                assert verify_certificate(spec, c)
                if a == 1 and b != 0:
                    assert c.variant == SOLVABLE_AFFINE
                else:
                    assert c.variant == NOT_TRANSITIVE

    @pytest.mark.parametrize("p", [3, 5])
    def test_all_generator_pairs(self, p):
        # The full affine group is sharply doubly transitive, so pairs that
        # generate all of it are reported on the doubly transitive branch.
        f = PrimeField(p)
        coeffs = [(a, b) for a in range(1, p) for b in range(p)]
        for c1 in coeffs:
            for c2 in coeffs:
                spec = GroupSpec(f, (make_affine(c1, f), make_affine(c2, f)))
                c = classify(spec)
                assert verify_certificate(spec, c)
                if c.variant == SOLVABLE_AFFINE:
                    enum = enumerate_group(spec, p * (p - 1))
                    assert derived_series(enum)[-1] == 1

    @pytest.mark.parametrize("p", [7, 11])
    def test_sampled_generator_pairs(self, p):
        f = PrimeField(p)
        rng = random.Random(p)
        coeffs = [(a, b) for a in range(1, p) for b in range(p)]
        seen = set()
        for _ in range(60):
            spec = GroupSpec(
                f,
                (
                    make_affine(rng.choice(coeffs), f),
                    make_affine(rng.choice(coeffs), f),
                ),
            )
            c = classify(spec)
            seen.add(c.variant)
            assert verify_certificate(spec, c)
        assert SOLVABLE_AFFINE in seen


@st.composite
def _relabelled_affine_subgroup(draw):
    """T.<m> for m of order k, k a proper divisor of p - 1, relabelled by a
    random permutation. k = p - 1 gives AGL(1, p), which is sharply doubly
    transitive (see test_all_generator_pairs)."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]))
    f = PrimeField(p)
    k = draw(st.sampled_from([k for k in range(1, p - 1) if (p - 1) % k == 0]))
    # i -> m*i has order ord(m) mod p.
    m = next(m for m in range(1, p) if perm_order(make_affine((m, 0), f)) == k)
    sigma = Perm(f, tuple(draw(st.permutations(range(p)))))
    gens = (translation(f), make_affine((m, draw(st.integers(0, p - 1))), f))
    return GroupSpec(f, tuple(conjugate(g, sigma) for g in gens)), p * k


class TestCertificateProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_relabelled_affine_subgroup())
    def test_classify_then_verify(self, drawn):
        spec, order = drawn
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.group_order == order
        check_against_oracles(spec, c)
        assert verify_certificate(spec, c)
        assert (c.variant == DOUBLY_TRANSITIVE) == is_doubly_transitive(spec)
