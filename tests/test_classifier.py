import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import GroupSpec, PrimeField, classify, make_affine, verify_certificate
from burnside.classifier import (
    Classification,
    DOUBLY_TRANSITIVE,
    NOT_TRANSITIVE,
    SOLVABLE_AFFINE,
    extract_difference_set,
)
from burnside.errors import InputError
from burnside.groups import derived_series, enumerate_group
from burnside.permutations import AffineCoeffs, Perm


def translation(field):
    return make_affine((1, 1), field)


def dihedral(field):
    return GroupSpec(field, (translation(field), make_affine((field.p - 1, 0), field)))


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


class TestExtractDifferenceSet:
    def test_translation_only(self):
        f = PrimeField(5)
        spec = GroupSpec(f, (translation(f),))
        assert extract_difference_set(spec).elements == (1,)

    def test_dihedral(self):
        f = PrimeField(5)
        assert extract_difference_set(dihedral(f)).elements == (1, 4)

    def test_frobenius(self):
        f = PrimeField(7)
        spec = GroupSpec(f, (translation(f), make_affine((2, 0), f)))
        assert extract_difference_set(spec).elements == (1, 2, 4)


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

        f = PrimeField(5)
        spec = dihedral(f)
        c = classify(spec)
        tampered = Classification(
            field=c.field,
            variant=c.variant,
            relabeling=c.relabeling,
            diff_set=DiffSet(f, (2,)),
            embedding=c.embedding,
            group_order=c.group_order,
        )
        assert not verify_certificate(spec, tampered)

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

    def test_wrong_variant_rejected(self):
        f = PrimeField(5)
        spec = dihedral(f)
        assert not verify_certificate(spec, Classification(f, DOUBLY_TRANSITIVE))
        assert not verify_certificate(spec, Classification(f, NOT_TRANSITIVE))


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
    ], ids=["missing-relabeling", "embedding-without-b", "p-not-a-number"])
    def test_raises_input_error(self, edit):
        f = PrimeField(7)
        payload = classify(GroupSpec(f, (translation(f), make_affine((2, 0), f)))).to_payload()
        edit(payload)
        with pytest.raises(InputError):
            Classification.from_payload(payload)


class TestLargestDegree:
    def test_index_two_group_at_p97(self):
        # T.<m> with m of order 48 mod 97, relabelled: order 97 * 48 = 4656.
        p = 97
        f = PrimeField(p)
        m = 25  # 5 is a primitive root mod 97, and 25 = 5^2
        rng = random.Random(97)
        sigma = list(range(p))
        rng.shuffle(sigma)
        sigma = Perm(f, tuple(sigma))
        spec = GroupSpec(f, tuple(
            g.conjugate(sigma) for g in (translation(f), make_affine((m, 3), f))
        ))
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.group_order == 4656
        assert verify_certificate(spec, c)


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
    m = next(m for m in range(1, p) if make_affine((m, 0), f).order() == k)
    sigma = Perm(f, tuple(draw(st.permutations(range(p)))))
    gens = (translation(f), make_affine((m, draw(st.integers(0, p - 1))), f))
    return GroupSpec(f, tuple(g.conjugate(sigma) for g in gens)), p * k


class TestCertificateProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_relabelled_affine_subgroup())
    def test_classify_then_verify(self, drawn):
        spec, order = drawn
        c = classify(spec)
        assert c.variant == SOLVABLE_AFFINE
        assert c.group_order == order
        assert verify_certificate(spec, c)
