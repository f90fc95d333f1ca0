import random

import pytest

from burnside import DiffSet, PrimeField
from burnside.automorphisms import all_diff_sets
from burnside.errors import InputError, InternalInvariantViolation
from burnside.fields import (
    binomial_mod_p,
    cyclic_table,
    is_prime,
    min_nonzero_power_sum,
    packed_powers,
    parse_int,
    parse_ints,
    power_sum,
    power_sums,
    row_layout,
    subgroup_of_index,
)

from conftest import poly_from_roots, qr_set
from oracles import (
    elementary_symmetric_via_newton,
    indicator,
    packed_powers_by_pow,
    vandermonde_det,
)


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


class TestParseInts:
    def test_comma_separated(self):
        assert parse_ints("3, -1,0", "image list") == (3, -1, 0)

    def test_surrounding_whitespace_and_sign(self):
        assert parse_ints(" +7 ,\t-0\n", "image list") == (7, 0)
        assert parse_int(" -12\n") == -12

    # Each of these but the first seven is an integer list to int(): digit
    # grouping, Arabic-Indic and full-width digits, and non-ASCII spaces.
    @pytest.mark.parametrize("text", [
        "", "1,,2", "1,x", "1.0", "1;2", "1 2", "+-1", "1_0", "1_0,\u0663",
        "\u0663", "\uff11", "1,\xa02", "\u20031",
    ])
    def test_rejected_with_what_and_text(self, text):
        with pytest.raises(InputError) as exc:
            parse_ints(text, "difference set")
        assert str(exc.value) == f"cannot parse difference set {text!r}"
        if "," not in text:
            with pytest.raises(ValueError):
                parse_int(text)

    def test_past_the_digit_limit(self):
        # A plain decimal too long for int() is a parse error, not a traceback.
        text = "1" * 5000
        with pytest.raises(InputError, match="cannot parse difference set"):
            parse_ints(f"2,{text}", "difference set")
        with pytest.raises(ValueError):
            parse_int(text)


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
        assert indicator(d) == (False, True, False, False, True)


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
        # 95 = p-2 is the largest set, so the most packed rows a power-sum
        # vector adds up.
        dset = DiffSet(PrimeField(97), range(1, size + 1))
        want = tuple(sum(pow(u, k, 97) for u in dset) % 97 for k in range(1, 97))
        assert power_sums(dset) == want

    def test_min_nonzero_examples(self):
        assert min_nonzero_power_sum(DiffSet(PrimeField(7), (1, 2, 4))) == 3
        assert min_nonzero_power_sum(DiffSet(PrimeField(5), (1, 4))) == 2
        assert min_nonzero_power_sum(DiffSet(PrimeField(5), (1,))) == 1

    def test_min_nonzero_reads_a_given_vector(self):
        dset = DiffSet(PrimeField(7), (1, 2, 4))
        assert min_nonzero_power_sum(dset, power_sums(dset)) == 3
        # A valid set has a nonzero power sum, so an all-zero vector is a bug.
        with pytest.raises(InternalInvariantViolation, match="every power sum vanished") as exc:
            min_nonzero_power_sum(dset, (0,) * 6)
        assert exc.value.payload == {"p": 7, "elements": [1, 2, 4]}

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
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            m = len(dset)
            es = elementary_symmetric_via_newton(dset, m)
            poly = poly_from_roots(f, dset.elements)
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


class TestPackedPowersBuild:
    def test_column_build_matches_pow_build(self):
        # The table is built one column at a time from x**(p-1) = 1 down;
        # every slot must hold its own pow(x, w, p), for every prime <= 97.
        primes = [p for p in range(2, 98) if is_prime(p)]
        assert len(primes) == 25
        for p in primes:
            assert packed_powers.__wrapped__(p) == packed_powers_by_pow(p), p


class TestCyclicTable:
    PRIMES = [p for p in range(2, 98) if is_prime(p)]

    def test_root_has_order_p_minus_1(self):
        # By brute force: the least g whose powers reach all of F_p*.
        assert len(self.PRIMES) == 25
        for p in self.PRIMES:
            g = cyclic_table(p).root
            assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1, p
            assert all(len({pow(h, k, p) for k in range(p - 1)}) < p - 1
                       for h in range(1, g)), p

    def test_powers_bits_and_divisors(self):
        for p in self.PRIMES:
            g, powers, bits, divisors = cyclic_table(p)
            assert powers == tuple(pow(g, k, p) for k in range(p - 1))
            assert bits[0] == 0
            assert [bits[x].bit_length() - 1 for x in powers] == list(range(p - 1))
            assert all(bits[x] == 1 << k for k, x in enumerate(powers))
            assert divisors == tuple(d for d in range(1, p) if (p - 1) % d == 0)

    @pytest.mark.parametrize("p", [5, 13, 31, 97])
    def test_multiplying_by_g_rotates_the_word(self, p):
        # bit k of U's word is g**k in U, so g*U's word is U's word moved
        # one place up, with the top bit wrapping round to bit 0.
        g, _, bits, _ = cyclic_table(p)
        full = (1 << p - 1) - 1
        rng = random.Random(p)
        for _ in range(20):
            elements = rng.sample(range(1, p), rng.randrange(1, p - 1))
            word = sum(bits[u] for u in elements)
            moved = sum(bits[g * u % p] for u in elements)
            assert moved == (word << 1 | word >> p - 2) & full


class TestRowLayout:
    """The packed-row layout against plain lists: slot j of a row is
    coefficient j of a polynomial taken mod X**p - 1."""

    @pytest.mark.parametrize("largest, width", [
        (1, 8), (255, 8), (256, 16), (2**16 - 1, 16), (2**16, 32), (2**32, 64), (2**64 - 1, 64),
    ])
    def test_narrowest_width(self, largest, width):
        assert row_layout(13, largest).width == width

    def test_no_slot_holds_more_than_64_bits(self):
        with pytest.raises(InputError, match="cannot hold"):
            row_layout(13, 2**64)

    @pytest.mark.parametrize("p, largest", [(5, 200), (13, 40000), (29, 2**31), (97, 2**60)])
    def test_operations_match_plain_lists(self, p, largest):
        layout = row_layout(p, largest)
        rng = random.Random(p)
        values = [rng.randrange(largest + 1) for _ in range(p)]
        row = layout.pack(values)
        assert layout.unpack(row) == values
        assert layout.unpack(layout.ones) == [1] * p
        assert layout.to_bytes(row) == b"".join(v.to_bytes(layout.width // 8, "little")
                                                for v in values)
        ks = [0, 1, p - 1, *rng.sample(range(p), 3)]
        rotated = [values[-k:] + values[:-k] for k in ks]
        assert list(map(layout.unpack, layout.rotations(row, ks))) == rotated
        assert layout.unpack(layout.monomials(ks[3:])) == [int(j in ks[3:]) for j in range(p)]
        # a cyclic product whose slots stay at most ``largest``
        small = [rng.randrange(2) for _ in range(p)]
        bound = largest // p
        big = [rng.randrange(bound + 1) for _ in range(p)]
        product = [sum(small[i] * big[(j - i) % p] for i in range(p)) for j in range(p)]
        assert layout.unpack(layout.fold(layout.pack(small) * layout.pack(big))) == product


@pytest.mark.parametrize("p", [5, 13, 31, 97])
def test_subgroup_of_index(p):
    g = cyclic_table(p).root
    for t in cyclic_table(p).divisors:
        expected = sorted({pow(g, t * k, p) for k in range(p - 1)})
        assert subgroup_of_index(p, t) == tuple(expected)
