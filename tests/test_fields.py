import pytest

from burnside import DiffSet, PrimeField
from burnside.automorphisms import all_diff_sets
from burnside.errors import InputError
from burnside.fields import (
    binomial_mod_p,
    elementary_symmetric_via_newton,
    is_prime,
    min_nonzero_power_sum,
    power_sum,
    power_sums,
    vandermonde_det,
)

from conftest import qr_set


class TestPrimeField:
    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 91])
    def test_composite_rejected(self, bad):
        with pytest.raises(InputError):
            PrimeField(bad)

    def test_cap(self):
        with pytest.raises(InputError):
            PrimeField(101)

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            PrimeField(True)

    def test_is_prime_small(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestBinomial:
    def test_examples(self):
        assert binomial_mod_p(4, 2, PrimeField(5)) == 1
        assert binomial_mod_p(6, 3, PrimeField(7)) == 6
        assert binomial_mod_p(12, 0, PrimeField(13)) == 1

    def test_invalid(self):
        f = PrimeField(5)
        with pytest.raises(InputError):
            binomial_mod_p(2, 3, f)
        with pytest.raises(InputError):
            binomial_mod_p(-1, 0, f)
        with pytest.raises(InputError):
            binomial_mod_p(3, -1, f)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_nonzero_below_p(self, p):
        # Lucas: C(n, k) has no factor p while n <= p-1.
        f = PrimeField(p)
        for n in range(p):
            for k in range(n + 1):
                assert binomial_mod_p(n, k, f) != 0


class TestDiffSet:
    def test_normalizes_sorted(self):
        d = DiffSet(PrimeField(7), (4, 1, 2))
        assert d.elements == (1, 2, 4)
        assert 4 in d and 3 not in d
        assert len(d) == 3

    # int() would truncate or parse each of these into a valid set.
    @pytest.mark.parametrize("elements", [
        (1.9, "2"), (1, 2.0), ("3",), (4, "1", 2), (True, 2),
    ], ids=["float-and-string", "integral-float", "numeric-string",
            "string-among-ints", "bool"])
    def test_non_int_entries_rejected(self, elements):
        with pytest.raises(InputError, match="must be integers"):
            DiffSet(PrimeField(7), elements)

    def test_rejects_zero_member(self):
        with pytest.raises(InputError):
            DiffSet(PrimeField(5), (0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            DiffSet(PrimeField(5), (5,))

    def test_rejects_empty_and_full(self):
        f = PrimeField(5)
        with pytest.raises(InputError):
            DiffSet(f, ())
        with pytest.raises(InputError):
            DiffSet(f, (1, 2, 3, 4))

    def test_no_valid_set_mod_2_or_3_pairs(self):
        with pytest.raises(InputError):
            DiffSet(PrimeField(2), (1,))
        assert DiffSet(PrimeField(3), (1,)).elements == (1,)

    def test_complement(self):
        d = DiffSet(PrimeField(7), (1, 2, 4))
        assert d.complement().elements == (3, 5, 6)
        assert d.complement().complement() == d

    def test_indicator(self):
        d = DiffSet(PrimeField(5), (1, 4))
        assert d.indicator() == (False, True, False, False, True)


class TestPowerSums:
    def test_examples(self):
        f7 = PrimeField(7)
        u = DiffSet(f7, (1, 2, 4))
        assert power_sum(u, 1) == 0
        assert power_sum(u, 3) == 3
        assert power_sum(DiffSet(PrimeField(5), (1, 4)), 2) == 2

    def test_exponent_guard(self):
        with pytest.raises(InputError):
            power_sum(DiffSet(PrimeField(5), (1,)), 0)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_term_by_term_sum(self, p):
        # Oracle: repeated multiplication, no pow(). k runs past p-1, so the
        # lookup at (k-1) mod (p-1) is checked too.
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            for k in range(1, 3 * (p - 1) + 1):
                total = 0
                for u in dset:
                    term = 1
                    for _ in range(k):
                        term = term * u % p
                    total = (total + term) % p
                assert power_sum(dset, k) == total

    @pytest.mark.parametrize("size", [1, 95])
    def test_vector_at_p97(self, size):
        # 95 = p-2 is the most packed rows a sum can hold without a carry.
        dset = DiffSet(PrimeField(97), range(1, size + 1))
        want = tuple(sum(pow(u, k, 97) for u in dset) % 97 for k in range(1, 97))
        assert power_sums(dset) == want

    def test_min_nonzero_examples(self):
        assert min_nonzero_power_sum(DiffSet(PrimeField(7), (1, 2, 4))) == 3
        assert min_nonzero_power_sum(DiffSet(PrimeField(5), (1, 4))) == 2
        assert min_nonzero_power_sum(DiffSet(PrimeField(5), (1,))) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_small_sets_have_small_min_index(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            if 2 * len(dset) <= p - 1:
                assert min_nonzero_power_sum(dset) <= (p - 1) // 2

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_quadratic_residues_hit_the_bound(self, p):
        assert min_nonzero_power_sum(qr_set(PrimeField(p))) == (p - 1) // 2


class TestNewton:
    def test_examples(self):
        assert elementary_symmetric_via_newton(DiffSet(PrimeField(7), (1, 2, 4)), 3) == [0, 0, 1]
        assert elementary_symmetric_via_newton(DiffSet(PrimeField(5), (1, 4)), 2) == [0, 4]
        assert elementary_symmetric_via_newton(DiffSet(PrimeField(11), (7,)), 1) == [7]

    def test_guards(self):
        d = DiffSet(PrimeField(5), (1, 2))
        with pytest.raises(InputError):
            elementary_symmetric_via_newton(d, 0)
        with pytest.raises(InputError):
            elementary_symmetric_via_newton(d, 3)
        with pytest.raises(InputError):
            elementary_symmetric_via_newton(DiffSet(PrimeField(5), (1, 2, 3)), 5)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_direct_expansion(self, p):
        # e_k from Newton must match the coefficients of prod (X - u).
        from burnside.polynomials import FpPoly

        f = PrimeField(p)
        for dset in all_diff_sets(f):
            m = len(dset)
            es = elementary_symmetric_via_newton(dset, m)
            poly = FpPoly.from_roots(f, dset.elements)
            for k in range(1, m + 1):
                sign = 1 if k % 2 == 0 else -1
                assert es[k - 1] == sign * poly.coeffs[m - k] % p


class TestVandermonde:
    def test_examples(self):
        assert vandermonde_det(DiffSet(PrimeField(5), (1, 2))) == 2
        assert vandermonde_det(DiffSet(PrimeField(7), (1,))) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_nonzero_exhaustive(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            assert vandermonde_det(dset) != 0

    def test_closed_form(self):
        # det = (prod u_j) * prod_{i<j} (u_j - u_i) for the k = 1..m shape.
        f = PrimeField(11)
        d = DiffSet(f, (2, 5, 8, 10))
        expected = 1
        for u in d:
            expected = expected * u % 11
        elems = d.elements
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                expected = expected * (elems[j] - elems[i]) % 11
        assert vandermonde_det(d) == expected

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_min_power_index_always_exists(self, p):
        # Nonsingular Vandermonde forces some nonzero power sum, so the
        # internal-error branch must be unreachable for valid sets.
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            assert 1 <= min_nonzero_power_sum(dset) <= p - 1
