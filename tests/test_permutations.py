import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import PrimeField, make_affine
from burnside.errors import FieldMismatch, InputError
from burnside.permutations import (
    AffineCoeffs,
    Perm,
    recognize_affine,
    relabel_to_translation,
)
from burnside.polynomials import interpolate

from conftest import all_perms, random_p_cycle, random_perm


class TestPermBasics:
    def test_bijection_required(self):
        f = PrimeField(5)
        with pytest.raises(InputError):
            Perm(f, (0, 0, 1, 2, 3))
        with pytest.raises(InputError):
            Perm(f, (0, 1, 2))

    # int() would truncate or parse each of these into a bijection.
    @pytest.mark.parametrize("images", [
        (0.9, 1.5, 2.2), (0, 1, 2.0), ("2", 0, 1), (0, "1", "2"), (False, True, 2),
    ], ids=["floats", "integral-float", "numeric-string", "strings-among-ints", "bools"])
    def test_non_int_entries_rejected(self, images):
        with pytest.raises(InputError, match="must be integers"):
            Perm(PrimeField(3), images)

    def test_identity(self):
        f = PrimeField(5)
        ident = Perm.identity(f)
        assert ident.is_identity
        assert ident.images == (0, 1, 2, 3, 4)

    def test_call_and_compose(self):
        f = PrimeField(5)
        sigma = Perm(f, (1, 2, 3, 4, 0))
        tau = Perm(f, (0, 4, 3, 2, 1))
        assert sigma(3) == 4
        composed = sigma.compose(tau)
        assert all(composed(i) == sigma(tau(i)) for i in range(5))
        assert composed == sigma * tau

    def test_inverse(self):
        f7 = PrimeField(7)
        triple = make_affine((3, 0), f7)
        assert triple.inverse() == make_affine((5, 0), f7)
        assert (triple * triple.inverse()).is_identity

    def test_order_and_cycle_type(self):
        f = PrimeField(5)
        assert Perm(f, (1, 2, 3, 4, 0)).order() == 5
        assert Perm(f, (1, 0, 2, 3, 4)).cycle_type() == (1, 1, 1, 2)
        assert Perm.identity(f).cycle_type() == (1, 1, 1, 1, 1)

    def test_pow(self):
        f = PrimeField(7)
        sigma = make_affine((3, 2), f)
        assert (sigma ** sigma.order()).is_identity
        assert sigma ** -1 == sigma.inverse()
        assert sigma ** 2 == sigma * sigma

    def test_cycle_string(self):
        f = PrimeField(5)
        assert Perm(f, (1, 0, 2, 3, 4)).cycle_string() == "(0 1)"
        assert Perm.identity(f).cycle_string() == "()"

    def test_degree_mismatch(self):
        with pytest.raises(FieldMismatch):
            Perm.identity(PrimeField(5)).compose(Perm.identity(PrimeField(7)))

    def test_text_round_trip(self):
        f = PrimeField(5)
        perm = Perm.from_text(f, "1,2,3,4,0")
        assert perm.images == (1, 2, 3, 4, 0)
        assert Perm.from_text(f, ",".join(map(str, perm.images))) == perm
        with pytest.raises(InputError):
            Perm.from_text(f, "1,2,x,4,0")
        with pytest.raises(InputError):
            Perm.from_text(f, "1,2,3")


class TestAffine:
    def test_make_affine_examples(self):
        f5 = PrimeField(5)
        assert make_affine((1, 1), f5).images == (1, 2, 3, 4, 0)
        assert make_affine((4, 0), f5).images == (0, 4, 3, 2, 1)
        assert make_affine((2, 3), PrimeField(7)).images == (3, 5, 0, 2, 4, 6, 1)

    def test_zero_multiplier_rejected(self):
        with pytest.raises(InputError):
            make_affine((0, 1), PrimeField(5))
        with pytest.raises(InputError):
            make_affine((5, 1), PrimeField(5))

    def test_recognize_examples(self):
        f5 = PrimeField(5)
        assert recognize_affine(Perm.identity(f5)) == AffineCoeffs(1, 0)
        assert recognize_affine(Perm(f5, (1, 0, 2, 3, 4))) is None
        f7 = PrimeField(7)
        assert recognize_affine(make_affine((2, 3), f7)) == (2, 3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_recognize_round_trip_exhaustive(self, p):
        f = PrimeField(p)
        for a in range(1, p):
            for b in range(p):
                assert recognize_affine(make_affine((a, b), f)) == (a, b)

    def test_recognize_agrees_with_interpolation(self):
        f = PrimeField(5)
        for perm in all_perms(f):
            assert (recognize_affine(perm) is not None) == (
                interpolate(f, perm).degree <= 1
            )

    def test_affine_maps_form_a_group(self):
        p = 7
        f = PrimeField(p)
        for a1 in range(1, p):
            for b1 in range(p):
                lhs = make_affine((a1, b1), f)
                inv = recognize_affine(lhs.inverse())
                assert inv is not None
                for a2 in range(1, p):
                    for b2 in range(p):
                        rhs = make_affine((a2, b2), f)
                        got = recognize_affine(lhs * rhs)
                        assert got == ((a1 * a2) % p, (a1 * b2 + b1) % p)


class TestRelabeling:
    def test_translation_fixed(self):
        f = PrimeField(5)
        tau = make_affine((1, 1), f)
        assert relabel_to_translation(tau).is_identity

    def test_example(self):
        f = PrimeField(5)
        sigma = Perm(f, (2, 3, 4, 0, 1))  # i -> i+2
        lam = relabel_to_translation(sigma)
        assert lam(0) == 0 and lam(2) == 1 and lam(4) == 2 and lam(1) == 3 and lam(3) == 4

    def test_rejects_non_p_cycles(self):
        f = PrimeField(5)
        with pytest.raises(InputError):
            relabel_to_translation(Perm(f, (1, 0, 2, 3, 4)))
        with pytest.raises(InputError):
            relabel_to_translation(Perm.identity(f))

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_conjugation_yields_translation(self, p):
        f = PrimeField(p)
        translation = make_affine((1, 1), f)
        rng = random.Random(p * 13)
        for _ in range(25):
            sigma = random_p_cycle(f, rng)
            lam = relabel_to_translation(sigma)
            assert lam(0) == 0
            assert sigma.conjugate(lam) == translation

    def test_conjugate_definition(self):
        f = PrimeField(7)
        rng = random.Random(3)
        sigma, lam = random_perm(f, rng), random_perm(f, rng)
        assert sigma.conjugate(lam) == lam * sigma * lam.inverse()


@st.composite
def _perm_triple_and_exponents(draw):
    f = PrimeField(draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23])))
    perms = [Perm(f, tuple(draw(st.permutations(range(f.p))))) for _ in range(3)]
    return (*perms, draw(st.integers(-30, 30)), draw(st.integers(-30, 30)))


class TestGroupLaws:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_perm_triple_and_exponents())
    def test_group_laws(self, drawn):
        g, h, k, a, b = drawn
        one = Perm.identity(g.field)
        assert (g * h) * k == g * (h * k)
        assert one * g == g == g * one
        assert g * g.inverse() == one == g.inverse() * g
        assert (g ** a) * (g ** b) == g ** (a + b)
        assert g ** g.order() == one
