import gc
import json
import math
import random
from hashlib import sha256

import pytest

import burnside.trace
from burnside import (
    DiffSet,
    PrimeField,
    enumerate_diff_preserving,
    make_affine,
    run_trace,
)
from burnside.automorphisms import all_diff_sets, check_preserves, mult_stabilizer
from burnside.cli import main
from burnside.errors import FieldMismatch, InputError, InternalInvariantViolation
from burnside.fields import min_nonzero_power_sum, packed_powers, power_sums
from burnside.permutations import Perm
from burnside.polynomials import FpPoly
from burnside.trace import (
    AFFINE,
    VIOLATION,
    _power_sum_identities,
    _power_sum_right_sides,
    _shifted_power_identities,
    check_binomial_expansion,
    check_contradiction_bound,
    check_leading_coefficient,
    check_multiset_identity,
    check_power_sum_identity,
    check_vanishing_identity,
    reduce_by_complement,
)

from conftest import all_perms, qr_set, random_perm
from oracles import power_sum_identities_by_points, shifted_power_identities_by_memo


class TestComplementReduction:
    def test_half_sized_set_unchanged(self):
        f = PrimeField(7)
        d = DiffSet(f, (1, 2, 4))
        assert reduce_by_complement(d) == d

    def test_large_set_replaced(self):
        f = PrimeField(7)
        assert reduce_by_complement(DiffSet(f, (1, 2, 3, 5, 6))).elements == (4,)

    def test_small_set_unchanged(self):
        f = PrimeField(5)
        d = DiffSet(f, (1, 4))
        assert reduce_by_complement(d) == d

    @pytest.mark.parametrize("p", [3, 5])
    def test_preservation_equivariant_exhaustive(self, p):
        import itertools

        f = PrimeField(p)
        sets = list(all_diff_sets(f))
        for images in itertools.permutations(range(p)):
            perm = Perm(f, images)
            for dset in sets:
                assert check_preserves(perm, dset) == check_preserves(
                    perm, dset.complement()
                )

    def test_preservation_equivariant_sampled_p7(self):
        f = PrimeField(7)
        rng = random.Random(7)
        sets = list(all_diff_sets(f))
        perms = [random_perm(f, rng) for _ in range(100)]
        perms += list(enumerate_diff_preserving(f, DiffSet(f, (1, 2, 4))).automorphisms)
        for perm in perms:
            for dset in rng.sample(sets, 8):
                assert check_preserves(perm, dset) == check_preserves(
                    perm, dset.complement()
                )


class TestMultisetIdentity:
    def test_doubling_map(self):
        f = PrimeField(7)
        assert check_multiset_identity(make_affine((2, 0), f), DiffSet(f, (1, 2, 4)))

    def test_translation(self):
        f = PrimeField(7)
        for dset in all_diff_sets(f):
            assert check_multiset_identity(make_affine((1, 1), f), dset)

    def test_non_preserving_rejected(self):
        f = PrimeField(7)
        with pytest.raises(InputError):
            check_multiset_identity(Perm(f, (1, 0, 2, 3, 4, 5, 6)), DiffSet(f, (1, 2, 4)))

    @pytest.mark.parametrize("p", [3, 5])
    def test_difference_check_is_the_multiset_identity(self, p):
        # For a bijection, "every difference lies in U" is "the differences are U".
        f = PrimeField(p)
        for perm in all_perms(f):
            for dset in all_diff_sets(f):
                rebuilt = all(
                    {(perm.images[(i + u) % p] - perm.images[i]) % p for u in dset} == set(dset.elements)
                    for i in range(p)
                )
                assert check_preserves(perm, dset) == rebuilt


class TestPowerSumIdentity:
    def test_affine_map(self):
        f = PrimeField(7)
        assert check_power_sum_identity(make_affine((2, 1), f), DiffSet(f, (1, 2, 4)), 2)

    def test_w_one_for_any_preserving_map(self):
        f = PrimeField(7)
        dset = DiffSet(f, (1, 2, 4))
        for q in enumerate_diff_preserving(f, dset).automorphisms:
            assert check_power_sum_identity(q, dset, 1)

    def test_translation_all_w(self):
        f = PrimeField(5)
        for dset in all_diff_sets(f):
            for w in range(1, 5):
                assert check_power_sum_identity(make_affine((1, 1), f), dset, w)

    def test_guards(self):
        f = PrimeField(7)
        dset = DiffSet(f, (1, 2, 4))
        with pytest.raises(InputError):
            check_power_sum_identity(make_affine((2, 0), f), dset, 0)
        with pytest.raises(InputError):
            check_power_sum_identity(Perm(f, (1, 0, 2, 3, 4, 5, 6)), dset, 2)


def _power_sum_oracle(perm, dset, w):
    """The direct check of one w: both sums mod p at every point."""
    p = perm.field.p
    images = perm.images
    return all(
        sum(pow(images[(i + u) % p], w, p) for u in dset.elements) % p
        == sum(pow((images[i] + u) % p, w, p) for u in dset.elements) % p
        for i in range(p)
    )


class TestPackedPowerSums:
    """The packed kernel checks every w at once; it must agree with the
    direct per-w check, including on maps that do not preserve U, where the
    packed sums differ and are unpacked slot by slot."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_direct_check_on_random_maps(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 17)
        sets = list(all_diff_sets(f))
        unpacked = mixed = 0
        for _ in range(40):
            perm = random_perm(f, rng)
            dset = rng.choice(sets)
            got = _power_sum_identities(perm, dset)
            want = [_power_sum_oracle(perm, dset, w) for w in range(1, p)]
            assert got == want, (perm.images, dset.elements)
            unpacked += not all(want)
            mixed += any(want) and not all(want)
        assert unpacked > 0
        if p in (5, 7):  # at larger p a random map fails every w
            assert mixed > 0  # some w pass and some fail on one map

    def test_matches_direct_check_exhaustive_p5(self):
        # Every map and set at p = 5, including the few where some w passes
        # although its sums differ as integers at some point.
        f = PrimeField(5)
        sets = list(all_diff_sets(f))
        for perm in all_perms(f):
            for dset in sets:
                want = [_power_sum_oracle(perm, dset, w) for w in range(1, 5)]
                assert _power_sum_identities(perm, dset) == want

    def test_preserving_maps_pass_every_w(self):
        f = PrimeField(7)
        dset = DiffSet(f, (1, 2, 4))
        for q in enumerate_diff_preserving(f, dset).automorphisms:
            assert _power_sum_identities(q, dset) == [True] * 6

    def test_exponents_past_p_minus_1(self):
        # x**w depends on w only through (w-1) mod (p-1) + 1, zero included.
        f = PrimeField(7)
        dset = DiffSet(f, (1, 2, 4))
        for q in enumerate_diff_preserving(f, dset).automorphisms[:5]:
            for w in range(1, 20):
                assert check_power_sum_identity(q, dset, w) == _power_sum_oracle(q, dset, w)


class TestColumnSums:
    """The column sums must give the per-w verdicts of the point-by-point
    sums on maps that do not preserve U, where the unequal-integer branch
    unpacks both sides and compares them slot by slot mod p."""

    @pytest.mark.parametrize("p", [13, 31, 97])
    def test_matches_point_sums_on_non_preserving_maps(self, p, monkeypatch):
        f = PrimeField(p)
        rng = random.Random(p * 23)
        unpacked = []
        real = burnside.trace.unpack_powers
        monkeypatch.setattr(burnside.trace, "unpack_powers",
                            lambda packed, q: unpacked.append(q) or real(packed, q))
        squares = qr_set(f)
        sets = [squares, DiffSet(f, rng.sample(range(1, p), (p - 1) // 3))]
        residues = set(squares.elements)
        mixed = 0
        for dset in sets:
            stab = mult_stabilizer(dset)
            perms = [make_affine((a, rng.randrange(p)), f)
                     for a in range(2, p) if a not in stab][:8]
            perms += [random_perm(f, rng) for _ in range(8)]
            swapped = list(make_affine((1, 0), f).images)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            perms.append(Perm(f, tuple(swapped)))
            for perm in perms:
                assert not check_preserves(perm, dset)
                want = power_sum_identities_by_points(perm, dset)
                assert _power_sum_identities(perm, dset) == want, (perm.images, dset.elements)
                mixed += any(want) and not all(want)
        assert unpacked
        # On the squares S_k = 0 for k < (p-1)/2, so x -> ax + b with a a
        # non-residue passes every w < (p-1)/2 with unequal packed sums.
        assert mixed > 0
        a = next(a for a in range(2, p) if a not in residues)
        verdicts = _power_sum_identities(make_affine((a, 5), f), squares)
        assert verdicts == [w < (p - 1) // 2 for w in range(1, p)]


class TestVanishingIdentity:
    def test_affine_interpolant(self):
        f = PrimeField(7)
        assert check_vanishing_identity(FpPoly(f, (1, 2)), DiffSet(f, (1, 2, 4)), 3)

    def test_identity_polynomial(self):
        f = PrimeField(5)
        x = FpPoly(f, (0, 1))
        for dset in all_diff_sets(f):
            for w in range(1, 5):
                assert check_vanishing_identity(x, dset, w)

    def test_degree_guard(self):
        f = PrimeField(5)
        quadratic = FpPoly(f, (0, 0, 1))
        with pytest.raises(InputError):
            check_vanishing_identity(quadratic, DiffSet(f, (1,)), 3)

    def test_fails_for_polynomials_of_non_preserving_maps(self):
        # x -> x^3 is a permutation of F_5 but does not preserve {1}.
        f = PrimeField(5)
        cube = FpPoly(f, (0, 0, 0, 1))
        assert not check_vanishing_identity(cube, DiffSet(f, (1,)), 1)

    def test_modulus_mismatch(self):
        with pytest.raises(FieldMismatch):
            check_vanishing_identity(FpPoly(PrimeField(5), (1, 2)), DiffSet(PrimeField(7), (6,)), 2)


class TestBinomialExpansion:
    def test_worked_example(self):
        f = PrimeField(5)
        assert check_binomial_expansion(FpPoly(f, (0, 0, 1)), DiffSet(f, (1, 4)), 2)

    def test_w_one(self):
        f = PrimeField(5)
        assert check_binomial_expansion(FpPoly(f, (2, 3)), DiffSet(f, (1, 2)), 1)

    @pytest.mark.parametrize("p", [5, 7])
    def test_holds_for_arbitrary_polynomials(self, p):
        # Pure ring algebra: no preservation hypothesis anywhere.
        f = PrimeField(p)
        rng = random.Random(p * 101)
        sets = list(all_diff_sets(f))
        for _ in range(100):
            poly = FpPoly(f, tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5))))
            dset = rng.choice(sets)
            w = rng.randrange(1, 6)
            assert check_binomial_expansion(poly, dset, w)

    def test_guard(self):
        f = PrimeField(5)
        with pytest.raises(InputError):
            check_binomial_expansion(FpPoly(f, (0, 1)), DiffSet(f, (1,)), 0)

    def test_modulus_mismatch(self):
        with pytest.raises(FieldMismatch):
            check_binomial_expansion(FpPoly(PrimeField(5), (1, 2)), DiffSet(PrimeField(7), (6,)), 2)


def _shifted_power_oracle(poly, dset, w):
    """(vanishing, binomial) from FpPoly +, * and == alone: powers by
    repeated products (no Miller path), f(X+u) by Horner (no ``shift``)."""
    field, p = poly.field, poly.field.p

    def const(c):
        return FpPoly.constant(field, c)

    def power(q, e):
        out = FpPoly.one(field)
        for _ in range(e):
            out = out * q
        return out

    def composed(u):
        out = FpPoly.zero(field)
        for c in reversed(poly.coeffs):
            out = out * FpPoly(field, (u, 1)) + const(c)
        return out

    total = shifted = FpPoly.zero(field)
    for u in dset.elements:
        total = total + power(poly + const(u), w)
        shifted = shifted + power(composed(u), w)
    expansion = const(len(dset)) * power(poly, w)
    for k in range(1, w + 1):
        s_k = sum(pow(u, k, p) for u in dset.elements)
        expansion = expansion + const(math.comb(w, k) * s_k) * power(poly, w - k)
    return shifted == total, expansion == total


class TestShiftedPowerIdentities:
    """Both public checks read one shared build of sum_u (f+u)**w; each must
    agree with an oracle that builds every polynomial independently."""

    @staticmethod
    def _assert_agrees(poly, dset, w):
        vanishing, binomial = _shifted_power_oracle(poly, dset, w)
        assert check_vanishing_identity(poly, dset, w) == vanishing
        assert check_binomial_expansion(poly, dset, w) == binomial
        return vanishing, binomial

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_affine_exhaustive(self, p):
        # f = aX + b vanishes up to w exactly when S_k(aU) = S_k(U) for
        # k <= w, so a outside M(U) gives failing vanishing verdicts.
        f = PrimeField(p)
        verdicts = set()
        for dset in all_diff_sets(f):
            for w in range(1, p):
                for a in range(1, p):
                    poly = FpPoly(f, ((a + w) % p, a))
                    verdicts.add(self._assert_agrees(poly, dset, w))
        assert verdicts == {(True, True), (False, True)}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_random_polynomials(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 211)
        sets = list(all_diff_sets(f))
        for _ in range(60):
            degree = rng.randrange(0, 4)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            w = rng.randrange(1, (p - 1) // max(degree, 1) + 1)
            self._assert_agrees(FpPoly(f, tuple(coeffs)), rng.choice(sets), w)

    @pytest.mark.parametrize("p, h", [(97, 1), (97, 8), (61, 6)])
    def test_affine_at_trace_shapes(self, p, h):
        # The trace's own case: f = aX + b at w = p-1, U the order-h subgroup
        # (M(U) = U). With a in M(U) the bases f+u and f(X+u) are the same
        # |U| polynomials; with a outside, aU != U and vanishing fails.
        f = PrimeField(p)
        inside = _subgroup(p, h)
        outside = next(a for a in range(2, p) if a not in inside)
        dset = DiffSet(f, tuple(inside))
        assert self._assert_agrees(FpPoly(f, (40, inside[-1])), dset, p - 1) == (True, True)
        assert self._assert_agrees(FpPoly(f, (40, outside)), dset, p - 1) == (False, True)

    def test_quadratic_square_and_multiply(self):
        # f = X**2 + X + 3 has three terms, so every power takes
        # square-and-multiply. U is a cycle of u -> u**2 + u, so the bases
        # f(X+u) have the constant terms f(u) = 3 + u' of the bases f+u'
        # and differ from them only in X: a power memo must key on the
        # whole base.
        f = PrimeField(31)
        dset = DiffSet(f, (1, 2, 6, 8, 10, 11, 12, 17, 27))
        for w in (2, 3, 8, 15):
            assert self._assert_agrees(FpPoly(f, (3, 1, 1)), dset, w) == (False, True)

    def test_cube_mod_5_fails_vanishing_only(self):
        # x -> x^3 permutes F_5 but does not preserve {1}.
        f = PrimeField(5)
        cube = FpPoly(f, (0, 0, 0, 1))
        assert self._assert_agrees(cube, DiffSet(f, (1,)), 1) == (False, True)


class TestMillerKernel:
    """The kernel that sums every linear power f+u with a nonzero constant
    term at once must give the verdicts of the per-base memo and column
    sums it replaced, on the trace's own maps and off them."""

    @staticmethod
    def _assert_agrees(poly, dset, w):
        sums = power_sums(dset)
        want = shifted_power_identities_by_memo(poly, dset, w, sums)
        assert _shifted_power_identities(poly, dset, w, sums) == want
        if poly.degree * w <= poly.field.p - 1:
            assert check_vanishing_identity(poly, dset, w) == want[0]
        assert check_binomial_expansion(poly, dset, w) == want[1]
        return want

    @pytest.mark.parametrize("p, h", [(13, 3), (31, 5), (61, 6), (97, 8), (97, 48)])
    def test_affine_inside_and_outside_the_multipliers(self, p, h):
        f = PrimeField(p)
        rng = random.Random(p * 41 + h)
        subgroup = DiffSet(f, _subgroup(p, h))
        scattered = DiffSet(f, rng.sample(range(1, p), (p - 1) // 3))
        verdicts = set()
        for dset in (subgroup, scattered):
            stab = mult_stabilizer(dset)
            outside = [a for a in range(2, p) if a not in stab]
            u0 = dset.elements[0]
            for a in (rng.choice(stab), rng.choice(outside)):
                # b = -u0 puts a zero constant term among the bases f + u
                for b in (rng.randrange(p), -u0 % p):
                    for w in (p - 1, rng.randrange(1, p - 1)):
                        verdict = self._assert_agrees(FpPoly(f, (b, a)), dset, w)
                        verdicts.add((a in stab, verdict))
        assert (True, (True, True)) in verdicts
        assert (False, (False, True)) in verdicts

    @pytest.mark.parametrize("p", [13, 31, 61, 97])
    def test_zero_constant_term_in_both_sums(self, p):
        # f = aX + b with a in M(U) and b = -a*u0: both f + u (at u = -b)
        # and f(X + u0) = aX are the base a*X, which takes pow_coeffs.
        f = PrimeField(p)
        dset = qr_set(f)
        a, u0 = dset.elements[1], dset.elements[0]
        b = -a * u0 % p
        assert -b % p in dset
        assert self._assert_agrees(FpPoly(f, (b, a)), dset, p - 1) == (True, True)

    @pytest.mark.parametrize("p", [13, 31, 61, 97])
    def test_quadratic_takes_pow_coeffs(self, p):
        f = PrimeField(p)
        rng = random.Random(p * 43)
        dset = DiffSet(f, rng.sample(range(1, p), 4))
        for w in (1, 3, (p - 1) // 2 if p <= 31 else 5):
            coeffs = (rng.randrange(p), rng.randrange(p), rng.randrange(1, p))
            self._assert_agrees(FpPoly(f, coeffs), dset, w)
        # X**2 + X: a binomial with v = 1, so pow_coeffs takes Miller's path
        self._assert_agrees(FpPoly(f, (0, 1, 1)), dset, 3)


class TestRightSideCache:
    """``_power_sum_right_sides`` keeps a few sets' packed right sides; a
    kept entry must be the right side of its own set and modulus."""

    def test_agrees_with_point_sums_across_more_sets_than_kept(self):
        cache = _power_sum_right_sides
        cache.cache_clear()
        f = PrimeField(31)
        rng = random.Random(3101)
        sets = list({tuple(sorted(rng.sample(range(1, 31), rng.randrange(1, 16))))
                     for _ in range(3 * cache.cache_info().maxsize)})
        assert len(sets) > cache.cache_info().maxsize
        for _ in range(6 * len(sets)):
            dset = DiffSet(f, rng.choice(sets))
            stab = mult_stabilizer(dset)
            for perm in (make_affine((rng.choice(stab), rng.randrange(31)), f),
                         random_perm(f, rng)):
                want = power_sum_identities_by_points(perm, dset)
                assert _power_sum_identities(perm, dset) == want, (perm.images, dset.elements)
        info = cache.cache_info()
        assert info.hits > 0 and info.misses > info.maxsize
        assert info.currsize == info.maxsize

    def test_moduli_never_share_an_entry(self):
        cache = _power_sum_right_sides
        cache.cache_clear()
        for p in (13, 31, 13, 31):
            rhs = cache(DiffSet(PrimeField(p), (1, 2, 5)))
            rows = packed_powers(p)
            assert rhs == tuple(sum(rows[y + u] for u in (1, 2, 5)) for y in range(p))
        assert cache.cache_info().currsize == 2
        assert cache.cache_info().hits == 2

    def test_cache_size_is_small(self):
        assert _power_sum_right_sides.cache_info().maxsize == 4


class TestTraceLeavesNoCyclicGarbage:
    def test_traces_leave_nothing_for_the_collector(self):
        f = PrimeField(97)
        sets = [DiffSet(f, _subgroup(97, 48)), DiffSet(f, (1,)),
                DiffSet(f, [u for u in range(1, 97) if u not in _subgroup(97, 8)])]
        _power_sum_right_sides.cache_clear()
        burnside.trace._reduced_facts.cache_clear()
        gc.collect()
        gc.disable()
        try:
            for dset in sets:
                for a in mult_stabilizer(dset)[:3]:
                    assert run_trace(f, dset, make_affine((a, 5), f)).verdict == AFFINE
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLeadingCoefficient:
    def test_worked_examples(self):
        assert check_leading_coefficient(DiffSet(PrimeField(5), (1, 4)), 1, 2)
        assert check_leading_coefficient(DiffSet(PrimeField(7), (1, 2, 4)), 1, 3)
        assert check_leading_coefficient(DiffSet(PrimeField(5), (1,)), 1, 1)

    def test_guards(self):
        f = PrimeField(5)
        with pytest.raises(InputError):
            # r = 2 for {1,4}, so n*w = 1 < r is out of range.
            check_leading_coefficient(DiffSet(f, (1, 4)), 1, 1)
        with pytest.raises(InputError):
            check_leading_coefficient(DiffSet(f, (1,)), 1, 5)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_degree_drop_exhaustive(self, p):
        # deg L = nw - r exactly, for every set and every admissible nw.
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            r = min_nonzero_power_sum(dset)
            for nw in range(r, p):
                assert check_leading_coefficient(dset, 1, nw)


class TestContradictionBound:
    def test_unreachable_for_linear_interpolants(self):
        for p in (5, 7, 11, 13):
            for r in range(1, p):
                assert not check_contradiction_bound(p, 1, r)

    def test_synthetic_higher_degree(self):
        # n = 2, p = 11: w = 5, and the chain needs 2(r-1) >= 20.
        assert check_contradiction_bound(11, 2, 11)
        assert not check_contradiction_bound(11, 2, 10)
        # n = 2, p = 13: w = 6, chain needs 2(r-1) >= 24.
        assert check_contradiction_bound(13, 2, 13)
        assert not check_contradiction_bound(13, 2, 12)

    def test_chain_implies_large_r(self):
        for p in (5, 7, 11, 13):
            for n in range(2, p):
                for r in range(1, 2 * p):
                    if check_contradiction_bound(p, n, r):
                        assert 2 * r > p + 1


class TestRunTrace:
    def test_affine_map_full_pipeline(self):
        f = PrimeField(7)
        report = run_trace(f, DiffSet(f, (1, 2, 4)), make_affine((2, 3), f))
        assert report.verdict == AFFINE
        assert report.degree == 1
        assert report.w_max == 6
        assert report.min_power_index == 3
        assert all(step.passed for step in report.steps)
        names = [step.name for step in report.steps]
        assert names[0] == "complement_reduction"
        assert "multiset_identity" in names
        assert "power_sum_identity(w=6)" in names
        assert "vanishing_identity(w=6)" in names
        assert "binomial_expansion(w=6)" in names
        assert "leading_coefficient(nw=6)" in names
        assert names[-1] == "degree_forces_affine"

    def test_translation_with_singleton(self):
        f = PrimeField(5)
        report = run_trace(f, DiffSet(f, (1,)), make_affine((1, 1), f))
        assert report.verdict == AFFINE
        assert report.degree == 1
        assert report.min_power_index == 1

    def test_non_preserving_rejected(self):
        f = PrimeField(7)
        with pytest.raises(InputError, match="preserve"):
            run_trace(f, DiffSet(f, (1, 2, 4)), Perm(f, (1, 0, 2, 3, 4, 5, 6)))

    def test_large_set_reduced_before_checks(self):
        f = PrimeField(7)
        report = run_trace(f, DiffSet(f, (1, 2, 3, 5, 6)), make_affine((1, 1), f))
        assert report.reduced_set.elements == (4,)
        assert report.verdict == AFFINE

    def test_power_sums_recorded(self):
        f = PrimeField(7)
        report = run_trace(f, DiffSet(f, (1, 2, 4)), make_affine((2, 0), f))
        assert report.power_sums == (0, 0, 3)
        for k in range(1, report.min_power_index):
            assert report.power_sums[k - 1] == 0

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_all_automorphisms_trace_affine(self, p):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            for q in enumerate_diff_preserving(f, dset).automorphisms:
                report = run_trace(f, dset, q)
                assert report.verdict == AFFINE
                assert report.degree == 1
                assert all(step.passed for step in report.steps)

    def test_payload_shape(self):
        f = PrimeField(5)
        payload = run_trace(f, DiffSet(f, (1, 4)), make_affine((4, 0), f)).to_payload()
        assert payload["p"] == 5
        assert payload["verdict"] == AFFINE
        assert payload["degree"] == 1
        assert isinstance(payload["steps"], list)
        assert all({"name", "passed", "detail"} <= set(s) for s in payload["steps"])

    def test_mismatched_moduli_rejected(self):
        f5, f7 = PrimeField(5), PrimeField(7)
        with pytest.raises(InputError):
            run_trace(f5, DiffSet(f7, (1,)), Perm.identity(f5))


# A dense U and a map that preserves it: the multiset step runs on U^c.
_DENSE_ARGV = ["trace", "--p", "13", "--set", "1,2,3,4,9,10,11,12",
               "--perm", ",".join(str((12 * i + 5) % 13) for i in range(13))]


@pytest.fixture
def broken_reduction(monkeypatch):
    """A complement reduction that drops the least element of U^c."""
    monkeypatch.setattr(burnside.trace, "reduce_by_complement",
                        lambda dset: DiffSet(dset.field, dset.complement().elements[1:]))


class TestBrokenReduction:
    # The input check is on U, the multiset step on the reduced set, so a
    # faulty reduction is a VIOLATION (exit 2), never an input error.
    def test_multiset_step_fails(self, broken_reduction):
        f = PrimeField(13)
        report = run_trace(f, DiffSet(f, (1, 2, 3, 4, 9, 10, 11, 12)), make_affine((12, 5), f))
        assert report.reduced_set.elements == (6, 7, 8)
        step = next(s for s in report.steps if s.name == "multiset_identity")
        assert (step.passed, step.detail) == (False, "some point fails the multiset identity")
        assert report.verdict == VIOLATION

    def test_main_writes_the_report_and_exits_2(self, broken_reduction, capsys):
        assert main(_DENSE_ARGV) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["result"]["verdict"] == VIOLATION
        assert err == ("trace verdict VIOLATION: a checked identity failed on valid "
                       "input; this is a bug\n")

    def test_main_exits_0_with_the_real_reduction(self, capsys):
        assert main(_DENSE_ARGV) == 0
        assert json.loads(capsys.readouterr().out)["result"]["verdict"] == AFFINE


def _subgroup(p, h):
    """The order-h subgroup of F_p^*, sorted."""
    return [x for x in range(1, p) if pow(x, h, p) == 1]


def _golden_traces():
    """argv lists for the golden sample: every automorphism of every set for
    p <= 7, plus fixed affine maps x -> a*x + b with a in M(U) at p = 31, 61
    and 97, on unions of cosets of a subgroup (sets above (p-1)/2 included,
    so the complement reduction takes part)."""
    out = []
    for p in (3, 5, 7):
        f = PrimeField(p)
        for dset in all_diff_sets(f):
            for q in enumerate_diff_preserving(f, dset).automorphisms:
                out.append((p, dset.elements, q.images))
    fixed = [
        (31, _subgroup(31, 5), 2, 5),
        (31, [u for u in range(1, 31) if u not in _subgroup(31, 5)], 16, 0),
        (31, _subgroup(31, 15), 4, 30),
        (61, _subgroup(61, 6), _subgroup(61, 6)[1], 7),
        (61, _subgroup(61, 30), 4, 11),
        (61, [u for u in range(1, 61) if u not in _subgroup(61, 4)], 11, 60),
        (97, [1], 1, 1),
        (97, _subgroup(97, 8), _subgroup(97, 8)[1], 40),
        (97, _subgroup(97, 48), 4, 96),
        (97, [u for u in range(1, 97) if u not in _subgroup(97, 48)], 9, 3),
    ]
    for p, elements, a, b in fixed:
        out.append((p, tuple(elements), tuple((a * i + b) % p for i in range(p))))
    return [
        ["trace", "--p", str(p), "--set", ",".join(map(str, elements)),
         "--perm", ",".join(map(str, images))]
        for p, elements, images in out
    ]


class TestGoldenTraceBytes:
    # SHA-256 of the concatenated `trace` JSON of the sample, recorded with
    # the per-w power-sum checks and square-and-multiply powers that the
    # packed kernel and Miller's recurrence replaced: no report byte moved.
    GOLDEN = "9a010a00e0d74f4ef6444234b8e58136292e9d74591abc013b4585f67a0e6bba"

    def test_trace_json_bytes_unchanged(self, capsys):
        digest = sha256()
        argvs = _golden_traces()
        for argv in argvs:
            assert main(argv) == 0
            digest.update(capsys.readouterr().out.encode())
        assert len(argvs) == 600
        assert digest.hexdigest() == self.GOLDEN


class TestReducedFacts:
    def test_golden_sample_cold_and_warm(self, capsys):
        facts = burnside.trace._reduced_facts
        facts.cache_clear()
        for _ in range(2):
            digest = sha256()
            for argv in _golden_traces():
                assert main(argv) == 0
                digest.update(capsys.readouterr().out.encode())
            assert digest.hexdigest() == TestGoldenTraceBytes.GOLDEN
        assert facts.cache_info().hits > 0

    def test_all_zero_power_sums_raise_on_every_call(self, monkeypatch):
        # A valid set always has a nonzero power sum; if none is, every call
        # must report it, so the failure is never cached.
        f = PrimeField(7)
        dset = DiffSet(f, (1, 2, 4))
        facts = burnside.trace._reduced_facts
        facts.cache_clear()
        monkeypatch.setattr(burnside.trace, "power_sums", lambda d: (0,) * (d.field.p - 1))
        for _ in range(2):
            with pytest.raises(InternalInvariantViolation, match="every power sum vanished"):
                check_leading_coefficient(dset, 1, 3)
            with pytest.raises(InternalInvariantViolation, match="every power sum vanished"):
                run_trace(f, dset, make_affine((2, 3), f))
        assert facts.cache_info().currsize == 0

    def test_cache_size_is_fixed(self):
        assert burnside.trace._reduced_facts.cache_info().maxsize == 64
