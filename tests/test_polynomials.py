import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import PrimeField, make_affine
from burnside.errors import FieldMismatch, InputError
from burnside.fields import is_prime
from burnside.permutations import Perm, recognize_affine
from burnside.polynomials import FpPoly, NEG_INFINITY, interpolate, linear_power_sum

from conftest import all_perms, random_perm
from oracles import evaluate


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        f = PrimeField(5)
        assert FpPoly(f, (1, 2, 0, 0)).coeffs == (1, 2)
        assert FpPoly(f, (0, 0, 5)).coeffs == ()

    def test_coefficients_normalized(self):
        f = PrimeField(5)
        assert FpPoly(f, (-1, 7)).coeffs == (4, 2)

    def test_coefficients_from_an_iterator(self):
        # the check must not use up an iterator before the coefficients are stored
        f = PrimeField(5)
        assert FpPoly(f, iter((1, 2, 3))).coeffs == (1, 2, 3)
        assert FpPoly(f, (c for c in (-1, 7))).coeffs == (4, 2)

    # int() would truncate or parse each of these into a coefficient.
    @pytest.mark.parametrize("coeffs", [
        (1.5, 2), (0, 1.0), ("3",), (True,),
    ], ids=["float", "integral-float", "numeric-string", "bool"])
    def test_non_int_coefficients_rejected(self, coeffs):
        with pytest.raises(InputError, match="must be integers"):
            FpPoly(PrimeField(5), coeffs)

    def test_zero_degree_sentinel(self):
        f = PrimeField(5)
        zero = FpPoly.zero(f)
        assert zero.degree == NEG_INFINITY
        assert zero.is_zero
        assert zero.degree < 0
        assert FpPoly.constant(f, 3).degree == 0
        assert FpPoly(f, (0, 1)).degree == 1


class TestArithmetic:
    def test_square_of_linear(self):
        f = PrimeField(5)
        sq = FpPoly(f, (1, 1)) ** 2
        assert sq.coeffs == (1, 2, 1)

    def test_degree_of_power(self):
        f = PrimeField(7)
        assert (FpPoly(f, (1, 2)) ** 3).degree == 3

    def test_degrees_add_under_product(self):
        f = PrimeField(11)
        rng = random.Random(7)
        for _ in range(50):
            a = FpPoly(f, tuple(rng.randrange(11) for _ in range(rng.randrange(1, 6))))
            b = FpPoly(f, tuple(rng.randrange(11) for _ in range(rng.randrange(1, 6))))
            if a.is_zero or b.is_zero:
                assert (a * b).is_zero
            else:
                assert (a * b).degree == a.degree + b.degree

    def test_eval_horner(self):
        f = PrimeField(7)
        poly = FpPoly(f, (1, 0, 3))  # 1 + 3X^2
        for x in range(7):
            assert evaluate(poly, x) == (1 + 3 * x * x) % 7

    def test_pow_zero_and_guard(self):
        f = PrimeField(5)
        assert (FpPoly(f, (2, 1)) ** 0).coeffs == (1,)
        with pytest.raises(InputError):
            FpPoly(f, (2, 1)) ** -1

    def test_field_mismatch(self):
        a = FpPoly(PrimeField(5), (1, 1))
        b = FpPoly(PrimeField(7), (1, 1))
        with pytest.raises(FieldMismatch):
            a + b
        with pytest.raises(FieldMismatch):
            a * b


def _repeated_product(poly, e):
    """The oracle for f ** e: e-fold schoolbook multiplication."""
    out = FpPoly.one(poly.field)
    for _ in range(e):
        out = out * poly
    return out


class TestMillerPower:
    """f ** e with deg(f)*e <= p-1 takes Miller's recurrence when f is a
    binomial c*X**v + d*X**(v+1) and square-and-multiply otherwise; both must
    equal repeated multiplication."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_repeated_product(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 53)
        polys = [FpPoly.zero(f), FpPoly.one(f), FpPoly.constant(f, p - 1)]
        for n in range(1, p):
            for _ in range(4):
                coeffs = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
                polys.append(FpPoly(f, coeffs))
                v = rng.randrange(1, n + 1)  # lowest term X**v, v >= 1
                coeffs[:v] = [0] * v
                polys.append(FpPoly(f, coeffs))
            # binomial c*X**(n-1) + d*X**n: the recurrence with X**v factored out
            polys.append(FpPoly(f, [0] * (n - 1) + [rng.randrange(1, p), rng.randrange(1, p)]))
            polys.append(FpPoly(f, (0,) * n + (rng.randrange(1, p),)))
        covered = 0
        for poly in polys:
            n = max(len(poly.coeffs) - 1, 0)
            for e in range(0, p if n == 0 else (p - 1) // n + 1):
                assert poly ** e == _repeated_product(poly, e), (poly.coeffs, e)
                covered += 1
        assert covered > 2 * p

    def test_zero_polynomial(self):
        f = PrimeField(7)
        assert (FpPoly.zero(f) ** 0).coeffs == (1,)
        assert (FpPoly.zero(f) ** 3).is_zero

    def test_lowest_term_factored_out(self):
        f = PrimeField(13)
        # (X^2 + 2X^3)^3 = X^6 (1 + 2X)^3 = X^6 + 6X^7 + 12X^8 + 8X^9
        assert (FpPoly(f, (0, 0, 1, 2)) ** 3).coeffs == (0,) * 6 + (1, 6, 12, 8)

    def test_squaring_path_past_the_bound(self):
        # deg*e >= p: the recurrence would divide by p; square-and-multiply.
        f = PrimeField(5)
        assert (FpPoly(f, (1, 1)) ** 5).coeffs == (1, 0, 0, 0, 0, 1)
        assert FpPoly(f, (2, 1, 3)) ** 4 == _repeated_product(FpPoly(f, (2, 1, 3)), 4)



class TestLinearPowerSum:
    """sum_j (c_j + d_j*X)**e by one Miller recurrence over every base must
    equal the column sums of the repeated products of each base."""

    @pytest.mark.parametrize("p", [5, 13, 31, 97])
    def test_matches_summed_repeated_products(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 71)
        for trial in range(8):
            bases = [(rng.randrange(1, p), rng.randrange(p)) for _ in range(rng.randrange(1, 6))]
            if trial == 0:
                bases.append((3, 0))  # d = 0: only the constant term survives
            e = (0, 1, 2, p - 2, p - 1)[trial] if trial < 5 else rng.randrange(p)
            want = [0] * (e + 1)
            for c, d in bases:
                for i, x in enumerate(_repeated_product(FpPoly(f, (c, d)), e).coeffs):
                    want[i] = (want[i] + x) % p
            assert linear_power_sum(bases, e, p) == want, (bases, e)
            # unreduced entries act as their residues
            assert linear_power_sum([(c + p, d + 2 * p) for c, d in bases], e, p) == want

    def test_empty_and_single(self):
        assert linear_power_sum([], 3, 7) == [0, 0, 0, 0]
        # (2 + 3X)**2 = 4 + 12X + 9X**2 = 4 + 5X + 2X**2 mod 7
        assert linear_power_sum([(2, 3)], 2, 7) == [4, 5, 2]


_P = 13
_polys = st.lists(st.integers(0, _P - 1), max_size=5).map(
    lambda cs: FpPoly(PrimeField(_P), cs))
_binomials = st.builds(
    lambda v, c, d: FpPoly(PrimeField(_P), [0] * v + [c, d]),
    st.integers(0, 3), st.integers(1, _P - 1), st.integers(0, _P - 1))


class TestRingLaws:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.one_of(_binomials, _polys), _polys, _polys,
           st.integers(0, 8), st.integers(0, 8))
    def test_ring_laws_and_power_law(self, a, b, c, i, j):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        # i + j straddles deg*e <= p-1 (Miller) and deg*e >= p (squaring).
        assert (a ** i) * (a ** j) == a ** (i + j)


class TestShift:
    def test_examples(self):
        f5 = PrimeField(5)
        assert FpPoly(f5, (0, 0, 1)).shift(1).coeffs == (1, 2, 1)
        assert FpPoly(f5, (3,)).shift(2).coeffs == (3,)
        f7 = PrimeField(7)
        assert FpPoly(f7, (0, 0, 0, 1)).shift(2).coeffs == (1, 5, 6, 1)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_shift_round_trip_and_eval(self, p):
        f = PrimeField(p)
        rng = random.Random(p)
        for _ in range(20):
            poly = FpPoly(f, tuple(rng.randrange(p) for _ in range(rng.randrange(1, p))))
            for u in range(p):
                shifted = poly.shift(u)
                assert shifted.shift(-u % p) == poly
                assert shifted.degree == poly.degree
                for x in range(p):
                    assert evaluate(shifted, x) == evaluate(poly, (x + u) % p)

    def test_shift_by_zero(self):
        f = PrimeField(7)
        poly = FpPoly(f, (1, 2, 3))
        assert poly.shift(0) == poly


def _interpolate_oracle(field, values):
    """The closed form f = sum_a f(a) * (1 - (X - a)**(p-1)), term by term:
    -sum_a f(a) * a**(p-1-k) at X**k for k = 1..p-1, f(0) at X**0."""
    p = field.p
    out = [values[0]] + [0] * (p - 1)
    for a, y in enumerate(values):
        t = y  # y * a**(p-1-k), for k = p-1 down to 1
        for k in range(p - 1, 0, -1):
            out[k] -= t
            t = t * a % p
    return FpPoly(field, out)


class TestInterpolation:
    def test_affine_map_interpolates_to_itself(self):
        f = PrimeField(5)
        assert interpolate(f, (1, 3, 0, 2, 4)).coeffs == (1, 2)  # 2i+1

    def test_identity(self):
        f = PrimeField(5)
        assert interpolate(f, (0, 1, 2, 3, 4)).coeffs == (0, 1)

    def test_transposition(self):
        # Frozen from an exhaustive search over all 5^5 coefficient vectors.
        f = PrimeField(5)
        poly = interpolate(f, (1, 0, 2, 3, 4))
        assert poly.coeffs == (1, 2, 1, 1)
        assert poly.degree >= 2

    def test_accepts_perm_objects(self):
        f = PrimeField(7)
        perm = make_affine((2, 3), f)
        assert interpolate(f, perm).coeffs == (3, 2)

    def test_wrong_point_count(self):
        with pytest.raises(InputError):
            interpolate(PrimeField(5), (0, 1, 2))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_round_trip_exhaustive(self, p):
        f = PrimeField(p)
        for perm in all_perms(f):
            poly = interpolate(f, perm)
            assert poly.degree <= p - 1
            for i in range(p):
                assert evaluate(poly, i) == perm.images[i]

    @pytest.mark.parametrize("p", [2, 5, 97])
    def test_unreduced_values_interpolate_as_their_residues(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 17)
        for _ in range(20):
            values = [rng.randrange(-3 * p, 3 * p) for _ in range(p)]
            residues = [v % p for v in values]
            assert interpolate(f, values) == interpolate(f, residues)
        # Every value negative or at least p.
        values = [v - p if v % 2 else v + p for v in range(p)]
        assert interpolate(f, values).coeffs == (0, 1)

    @pytest.mark.parametrize("p", [p for p in range(2, 98) if is_prime(p)])
    def test_matches_term_by_term_oracle(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 7)
        for _ in range(5):
            table = list(range(p))
            rng.shuffle(table)
            assert interpolate(f, table) == _interpolate_oracle(f, table)
            values = [rng.randrange(-3 * p, 3 * p) for _ in range(p)]
            assert interpolate(f, values) == _interpolate_oracle(f, values)

    def test_largest_weighted_row_sum_does_not_carry(self):
        # Every value p-1: each slot of the weighted row sum reaches its
        # largest size, and the polynomial is the constant p-1.
        f = PrimeField(97)
        values = [96] * 97
        assert interpolate(f, values) == _interpolate_oracle(f, values)
        assert interpolate(f, values).coeffs == (96,)

    @pytest.mark.parametrize("values", [(0, 1, 2, 3, 4.0), (True, 1, 2, 3, 4)])
    def test_non_int_values_rejected(self, values):
        with pytest.raises(InputError, match="interpolation value"):
            interpolate(PrimeField(5), values)

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_round_trip_sampled(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 31)
        for _ in range(60):
            perm = random_perm(f, rng)
            poly = interpolate(f, perm)
            assert all(evaluate(poly, i) == perm.images[i] for i in range(p))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.sampled_from([p for p in range(2, 98) if is_prime(p)])
           .flatmap(lambda p: st.permutations(range(p))))
    def test_round_trip_property(self, images):
        f = PrimeField(len(images))
        perm = Perm(f, tuple(images))
        poly = interpolate(f, perm)
        assert all(evaluate(poly, i) == perm.images[i] for i in range(f.p))

    def test_affinity_criterion_exhaustive(self):
        # Degree <= 1 exactly when consecutive differences are constant,
        # which is exactly when the permutation is affine.
        f = PrimeField(5)
        for perm in all_perms(f):
            deg_affine = interpolate(f, perm).degree <= 1
            diffs = {(perm.images[(i + 1) % 5] - perm.images[i]) % 5 for i in range(5)}
            assert deg_affine == (len(diffs) == 1)
            assert deg_affine == (recognize_affine(perm) is not None)


class TestRendering:
    def test_render(self):
        f = PrimeField(7)
        assert FpPoly(f, (1, 2)).render() == "1 + 2*X"
        assert FpPoly(f, (0, 0, 3)).render() == "3*X^2"
        assert FpPoly.zero(f).render() == "0"
        assert FpPoly(f, (5, 0, 1, 2)).render() == "5 + 1*X^2 + 2*X^3"
