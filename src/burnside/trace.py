"""Step-by-step numeric replay of why difference-preserving maps are affine.

Given a concrete (p, U, pi) with pi preserving U-differences, this walks
the full chain of identities behind that fact: complement reduction, the
multiset identity on shifted images, power-sum identities, the vanishing
and binomial-expansion identities for the interpolating polynomial, and
the leading-coefficient degree comparison that pins the degree to one.
Each step is checked on the actual numbers and logged; the verdict must
come out AFFINE on every valid input, so a VIOLATION verdict is a bug
signal, not an input rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automorphisms import check_preserves
from .errors import FieldMismatch, InputError
from .fields import (
    DiffSet,
    PrimeField,
    binomial_mod_p,
    min_nonzero_power_sum,
    packed_powers,
    power_sums,
    unpack_powers,
)
from .permutations import Perm
from .polynomials import FpPoly, interpolate

AFFINE = "AFFINE"
VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class TraceStep:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class TraceReport:
    """Scalar summary plus the ordered step log of one trace run."""

    field: PrimeField
    diff_set: DiffSet
    reduced_set: DiffSet
    degree: int
    w_max: int
    min_power_index: int
    power_sums: tuple[int, ...]
    steps: tuple[TraceStep, ...]
    verdict: str

    def to_payload(self) -> dict:
        return {
            "p": self.field.p,
            "diff_set": list(self.diff_set.elements),
            "reduced_set": list(self.reduced_set.elements),
            "degree": self.degree,
            "w_max": self.w_max,
            "min_power_index": self.min_power_index,
            "power_sums": list(self.power_sums),
            "steps": [
                {"name": s.name, "passed": s.passed, "detail": s.detail}
                for s in self.steps
            ],
            "verdict": self.verdict,
        }


def reduce_by_complement(dset: DiffSet) -> DiffSet:
    """The set itself if |U| <= (p-1)/2, otherwise its complement.

    A permutation preserves U-differences exactly when it preserves
    complement-differences, so the reduction is harmless.
    """
    if 2 * len(dset) <= dset.field.p - 1:
        return dset
    return dset.complement()


def _multiset_identity(perm: Perm, dset: DiffSet) -> bool:
    """The multiset identity, for a permutation already known to preserve U."""
    p = perm.field.p
    images = perm.images
    target = set(dset.elements)
    for i in range(p):
        base = images[i]
        if {(images[(i + u) % p] - base) % p for u in dset.elements} != target:
            return False
    return True


def check_multiset_identity(perm: Perm, dset: DiffSet) -> bool:
    """For every i, the shifted-image differences reproduce U exactly:
    {perm(i+u) - perm(i) : u in U} = U."""
    if not check_preserves(perm, dset):
        raise InputError("permutation does not preserve U-differences")
    return _multiset_identity(perm, dset)


def _power_sum_identities(perm: Perm, dset: DiffSet) -> list[bool]:
    """Whether sum_u perm(i+u)**w == sum_u (perm(i)+u)**w mod p holds at
    every i, for each w = 1..p-1 (entry w-1).

    Both sides are sums of |U| <= p-2 packed rows, which never carry
    between slots: equal integers mean every w passes at that i. Unequal
    integers are unpacked and compared slot by slot mod p, since sums that
    differ as integers may still agree mod p.
    """
    p = perm.field.p
    rows = packed_powers(p)
    images = perm.images * 2
    elements = dset.elements
    passed = [True] * (p - 1)
    for i in range(p):
        lhs = sum(rows[images[i + u]] for u in elements)
        base = images[i]
        rhs = sum(rows[base + u] for u in elements)
        if lhs != rhs:
            lhs, rhs = unpack_powers(lhs, p), unpack_powers(rhs, p)
            passed = [ok and a == b for ok, a, b in zip(passed, lhs, rhs)]
    return passed


def check_power_sum_identity(perm: Perm, dset: DiffSet, w: int) -> bool:
    """sum_u perm(i+u)**w == sum_u (perm(i)+u)**w for every i, mod p."""
    if w < 1:
        raise InputError(f"power-sum identity needs w >= 1, got {w}")
    if not check_preserves(perm, dset):
        raise InputError("permutation does not preserve U-differences")
    # x**w == x**w' mod p for w' = (w-1) mod (p-1) + 1, zero included.
    return _power_sum_identities(perm, dset)[(w - 1) % (perm.field.p - 1)]


def _accumulate(acc: list[int], poly: FpPoly, sign: int = 1) -> None:
    """acc += sign * poly, coefficient-wise and unreduced."""
    cs = poly.coeffs
    acc[:len(cs)] = [a + sign * c for a, c in zip(acc, cs)]


def _shifted_power_identities(poly: FpPoly, dset: DiffSet, w: int) -> tuple[bool, bool]:
    """(vanishing, binomial) for f = poly at exponent w, building
    T = sum_u (f+u)**w once: sum_u f(X+u)**w - T and T - |U|*f**w -
    sum_{k=1..w} C(w,k) S(k) f**(w-k) must both be zero polynomials. The
    f**(w-k) come from schoolbook products, a cross-check of Miller's path."""
    field, p = poly.field, poly.field.p
    size = max(len(poly.coeffs) - 1, 0) * w + 1
    total, shifted = [0] * size, [0] * size
    for u in dset.elements:
        _accumulate(total, (poly + FpPoly.constant(field, u)) ** w)
        _accumulate(shifted, poly.shift(u) ** w)
    vanishing = all((s - t) % p == 0 for s, t in zip(shifted, total))
    _accumulate(total, poly ** w, -len(dset))
    powers = [FpPoly.one(field)]
    for _ in range(w - 1):
        powers.append(powers[-1] * poly)
    sums = power_sums(dset)
    for k in range(1, w + 1):
        coeff = binomial_mod_p(w, k, field) * sums[(k - 1) % (p - 1)]
        _accumulate(total, powers[w - k], -coeff)
    return vanishing, all(c % p == 0 for c in total)


def _check_shifted_power_args(poly: FpPoly, dset: DiffSet, w: int, name: str) -> None:
    if poly.field != dset.field:
        raise FieldMismatch("polynomial and difference set use different moduli")
    if w < 1:
        raise InputError(f"{name} needs w >= 1, got {w}")


def check_vanishing_identity(poly: FpPoly, dset: DiffSet, w: int) -> bool:
    """sum_u f(X+u)**w - sum_u (f(X)+u)**w is the zero polynomial.

    Coefficient-wise, not merely zero on points; requires deg(f)*w <= p-1
    so that vanishing on all of F_p forces the zero polynomial.
    """
    _check_shifted_power_args(poly, dset, w, "vanishing identity")
    if poly.degree * w > poly.field.p - 1:
        raise InputError(
            f"degree hypothesis violated: deg(f)*w = {poly.degree * w} > {poly.field.p - 1}"
        )
    return _shifted_power_identities(poly, dset, w)[0]


def check_binomial_expansion(poly: FpPoly, dset: DiffSet, w: int) -> bool:
    """sum_u (f+u)**w - |U|*f**w == sum_{k=1..w} C(w,k) S(k) f**(w-k).

    Pure ring algebra: holds for any polynomial whatsoever, so a failure
    means the polynomial arithmetic itself is broken.
    """
    _check_shifted_power_args(poly, dset, w, "binomial expansion")
    return _shifted_power_identities(poly, dset, w)[1]


def check_leading_coefficient(dset: DiffSet, n: int, w: int) -> bool:
    """The tail of L(X) = sum_u ((X+u)**(n*w) - X**(n*w)).

    With r the least nonzero power-sum index, L must have coefficient zero
    at X**(nw-k) for 1 <= k < r, leading coefficient C(nw, r)*S(r) != 0 at
    X**(nw-r), hence degree exactly nw - r.
    """
    field = dset.field
    p = field.p
    nw = n * w
    r = min_nonzero_power_sum(dset)
    if not r <= nw <= p - 1:
        raise InputError(f"leading-coefficient check needs r <= n*w <= p-1, "
                         f"got r={r}, n*w={nw}, p={p}")
    acc = [0] * (nw + 1)
    for u in dset.elements:
        _accumulate(acc, FpPoly(field, (u, 1)) ** nw)
    acc[nw] -= len(dset)
    if any(c % p for c in acc[nw - r + 1:]):
        return False
    expected = binomial_mod_p(nw, r, field) * power_sums(dset)[r - 1] % p
    return acc[nw - r] % p == expected != 0


def check_contradiction_bound(p: int, n: int, r: int) -> bool:
    """The inequality chain p-1 < n(w+1) <= 2nw <= 2(r-1) for maximal w.

    Used when r-1 >= n*w: with w = (p-1)//n maximal, the chain forces
    r > (p+1)/2. The middle link needs n >= 2 in spirit (w >= 1 suffices
    formally); exercised directly by tests since valid traces never take
    this branch.
    """
    w = (p - 1) // n
    return (p - 1 < n * (w + 1)) and (n * (w + 1) <= 2 * n * w) and (2 * n * w <= 2 * (r - 1))


def run_trace(field: PrimeField, dset: DiffSet, perm: Perm) -> TraceReport:
    """Execute the full identity chain for one (p, U, pi) and log each step.

    Raises InputError when pi does not preserve U-differences; otherwise
    always returns a report, with verdict AFFINE exactly when the
    interpolating polynomial has degree one and every step passed.
    """
    p = field.p
    if dset.field != field or perm.field != field:
        raise InputError("trace inputs must share one modulus")
    if not check_preserves(perm, dset):
        raise InputError("permutation does not preserve U-differences")

    steps: list[TraceStep] = []
    reduced = reduce_by_complement(dset)
    steps.append(TraceStep(
        "complement_reduction", True,
        f"|U|={len(dset)} -> |U|={len(reduced)} <= (p-1)/2 = {(p - 1) // 2}",
    ))

    ok = _multiset_identity(perm, reduced)
    steps.append(TraceStep(
        "multiset_identity", ok,
        "shifted-image differences reproduce U at every point" if ok
        else "some point fails the multiset identity",
    ))

    for w, ok in enumerate(_power_sum_identities(perm, reduced), start=1):
        steps.append(TraceStep(
            f"power_sum_identity(w={w})", ok,
            "both sums agree at every point" if ok else "sums disagree",
        ))

    poly = interpolate(field, perm)
    n = int(poly.degree)
    w_max = (p - 1) // n
    steps.append(TraceStep(
        "interpolation_degree", 1 <= n <= p - 1,
        f"deg f = {n}, maximal w with n*w <= p-1 is {w_max}",
    ))

    vanishing, binomial = _shifted_power_identities(poly, reduced, w_max)
    steps.append(TraceStep(
        f"vanishing_identity(w={w_max})", vanishing,
        "difference of shifted powers is the zero polynomial" if vanishing
        else "difference of shifted powers has a nonzero coefficient",
    ))
    steps.append(TraceStep(
        f"binomial_expansion(w={w_max})", binomial,
        "expansion matches the power-sum form" if binomial else "expansion mismatch",
    ))

    r = min_nonzero_power_sum(reduced)
    half = (p - 1) // 2

    if r <= n * w_max:
        ok = check_leading_coefficient(reduced, n, w_max)
        steps.append(TraceStep(
            f"leading_coefficient(nw={n * w_max})", ok,
            f"degree n*w-r = {n * w_max - r} with leading coefficient "
            f"C({n * w_max},{r})*S({r})" if ok else "leading-coefficient claim fails",
        ))
        forces = n * w_max - r <= n * (w_max - r)
        steps.append(TraceStep(
            "degree_forces_affine", forces,
            f"nw-r = {n * w_max - r} <= n(w-r) = {n * (w_max - r)} forces n = 1"
            if forces else
            f"nw-r = {n * w_max - r} > n(w-r) = {n * (w_max - r)}: degree {n} is impossible",
        ))
    else:
        bound = check_contradiction_bound(p, n, r)
        steps.append(TraceStep(
            "power_sum_tail_contradiction", bound,
            f"r = {r} > (p+1)/2 would force S(k) = 0 for k <= {half}, "
            f"contradicting |U| = {len(reduced)} <= {half}",
        ))

    verdict = AFFINE if n == 1 and all(s.passed for s in steps) else VIOLATION
    return TraceReport(
        field=field,
        diff_set=dset,
        reduced_set=reduced,
        degree=n,
        w_max=w_max,
        min_power_index=r,
        power_sums=power_sums(reduced)[:half],
        steps=tuple(steps),
        verdict=verdict,
    )
