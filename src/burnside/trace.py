"""Step-by-step numeric replay of why difference-preserving maps are affine.

Given a concrete (p, U, pi) with pi preserving U-differences, this walks
the full chain of identities behind that fact: complement reduction, the
multiset identity on shifted images, power-sum identities, the vanishing
and binomial-expansion identities for the interpolating polynomial, and
the leading-coefficient degree comparison that pins the degree to one.
Each step is checked on the actual numbers and logged; the verdict must
come out AFFINE on every valid input, so a VIOLATION verdict is a bug
signal, not an input rejection. For a bijection the multiset identity is
the difference check ``check_preserves``, run on the reduced set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

from .automorphisms import check_preserves
from .errors import FieldMismatch, InputError
from .fields import (
    DiffSet,
    PrimeField,
    Value,
    _fill,
    binomial_mod_p,
    min_nonzero_power_sum,
    packed_powers,
    power_sums,
    unpack_powers,
)
from .permutations import Perm
from .polynomials import (
    FpPoly,
    canonical,
    interpolate,
    linear_power_sum,
    mul_coeffs,
    pow_coeffs,
    shift_coeffs,
)

AFFINE = "AFFINE"
VIOLATION = "VIOLATION"


class TraceStep(Value):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        _fill(self, name, passed, detail)


class TraceReport(Value):
    """Scalar summary plus the ordered step log of one trace run."""

    __slots__ = ("field", "diff_set", "reduced_set", "degree", "w_max",
                 "min_power_index", "power_sums", "steps", "verdict")

    def __init__(self, field, diff_set, reduced_set, degree, w_max, min_power_index,
                 power_sums, steps, verdict) -> None:
        _fill(self, field, diff_set, reduced_set, degree, w_max, min_power_index,
              power_sums, steps, verdict)

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


def check_multiset_identity(perm: Perm, dset: DiffSet) -> bool:
    """For every i, the shifted-image differences reproduce U exactly:
    {perm(i+u) - perm(i) : u in U} = U.

    For a bijection this is ``check_preserves``: the |U| differences at i
    are distinct, so they lie in U exactly when they are U. Raises
    InputError when perm does not preserve U-differences."""
    if not check_preserves(perm, dset):
        raise InputError("permutation does not preserve U-differences")
    return True


def _power_sum_identities(perm: Perm, dset: DiffSet) -> list[bool]:
    """Whether sum_u perm(i+u)**w == sum_u (perm(i)+u)**w mod p holds at
    every i, for each w = 1..p-1 (entry w-1).

    Both sides are built for all p points at once, as the column sums of
    |U| shifted windows of packed rows: lhs[i] sums the rows of perm(i+u),
    read off the image rows repeated twice, and rhs[y] the rows of y + u
    (``_power_sum_right_sides``, kept per set), so the side to compare
    with lhs[i] is rhs[perm(i)]. Sums of |U| <= p-2 packed rows never
    carry between slots: equal integers mean every w passes at that i.
    Unequal integers are unpacked and compared slot by slot mod p, since
    sums that differ as integers may still agree mod p.
    """
    p = perm.field.p
    rows = packed_powers(p)
    images = perm.images
    image_rows = [rows[y] for y in images] * 2
    lhs = map(sum, zip(*[image_rows[u:u + p] for u in dset.elements]))
    rhs = _power_sum_right_sides(dset)
    passed = [True] * (p - 1)
    for left, y in zip(lhs, images):
        right = rhs[y]
        if left != right:
            left, right = unpack_powers(left, p), unpack_powers(right, p)
            passed = [ok and a == b for ok, a, b in zip(passed, left, right)]
    return passed


def check_power_sum_identity(perm: Perm, dset: DiffSet, w: int) -> bool:
    """sum_u perm(i+u)**w == sum_u (perm(i)+u)**w for every i, mod p."""
    if w < 1:
        raise InputError(f"power-sum identity needs w >= 1, got {w}")
    if not check_preserves(perm, dset):
        raise InputError("permutation does not preserve U-differences")
    # x**w == x**w' mod p for w' = (w-1) mod (p-1) + 1, zero included.
    return _power_sum_identities(perm, dset)[(w - 1) % (perm.field.p - 1)]


def _sum_of_powers(bases: list[tuple[int, ...]], w: int, p: int) -> tuple[int, ...]:
    """sum of base**w over canonical bases, canonical. For w <= p-1 every
    linear base with a nonzero constant term goes through one
    ``linear_power_sum``; any other base (a constant, a*X, degree two or
    more, or w >= p) through ``pow_coeffs``."""
    miller = w <= p - 1
    linear, others = [], []
    for base in bases:
        if miller and len(base) == 2 and base[0]:
            linear.append(base)
        else:
            others.append(pow_coeffs(base, w, p))
    if linear:
        others.append(linear_power_sum(linear, w, p))
    return canonical(map(sum, zip_longest(*others, fillvalue=0)), p)


def _shifted_power_identities(poly: FpPoly, dset: DiffSet, w: int,
                              sums: tuple[int, ...]) -> tuple[bool, bool]:
    """(vanishing, binomial) for f = poly at exponent w, with sums the power
    sums of dset, building T = sum_u (f+u)**w once: sum_u f(X+u)**w - T and
    T - sum_{k=0..w} c_k f**(w-k), c_0 = |U| and c_k = C(w,k) S(k), must both
    be zero polynomials.

    For f = aX + b with a in M(U) the bases f+u and f(X+u) = aX + (au+b)
    run over the same |U| polynomials, so the shifted sum is T itself
    whenever the sorted bases are equal. The binomial side is evaluated by
    Horner with schoolbook products, a cross-check of Miller's path."""
    field, p, cs = poly.field, poly.field.p, poly.coeffs
    head, tail = (cs[0], cs[1:]) if cs else (0, ())
    bases = sorted(canonical((head + u, *tail), p) for u in dset.elements)
    shifted_bases = sorted(canonical(shift_coeffs(cs, u), p) for u in dset.elements)
    total = _sum_of_powers(bases, w, p)
    shifted = total if shifted_bases == bases else _sum_of_powers(shifted_bases, w, p)
    expansion = [len(dset)]
    for k in range(1, w + 1):
        expansion = mul_coeffs(expansion, cs) or [0]
        expansion[0] += binomial_mod_p(w, k, field) * sums[(k - 1) % (p - 1)]
        expansion = [c % p for c in expansion]
    return shifted == total, canonical(expansion, p) == total


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
    return _shifted_power_identities(poly, dset, w, power_sums(dset))[0]


def check_binomial_expansion(poly: FpPoly, dset: DiffSet, w: int) -> bool:
    """sum_u (f+u)**w - |U|*f**w == sum_{k=1..w} C(w,k) S(k) f**(w-k).

    Pure ring algebra: holds for any polynomial whatsoever, so a failure
    means the polynomial arithmetic itself is broken.
    """
    _check_shifted_power_args(poly, dset, w, "binomial expansion")
    return _shifted_power_identities(poly, dset, w, power_sums(dset))[1]


@lru_cache(maxsize=4)
def _power_sum_right_sides(dset: DiffSet) -> tuple[int, ...]:
    """Entry y is sum_u rows[y + u], the packed right side of the power-sum
    identities at every point whose image is y.

    It depends on the set alone, and traces of several maps on one set run
    back to back. At p = 97 one entry is about 28 KB, so only a few sets
    are kept.
    """
    p = dset.field.p
    rows = packed_powers(p)
    return tuple(map(sum, zip(*[rows[u:u + p] for u in dset.elements])))


@lru_cache(maxsize=64)
def _reduced_facts(dset: DiffSet, nw: int) -> tuple[tuple[int, ...], int, bool | None]:
    """(power sums, r, leading-coefficient verdict at nw) of a set, with r
    the least nonzero power-sum index; the verdict is None unless
    r <= nw <= p-1.

    Everything here depends on the set and nw alone, and traces of several
    maps on one set repeat them. An all-zero power-sum vector raises, and a
    raise is never cached, so it raises again on every call.
    """
    p = dset.field.p
    sums = power_sums(dset)
    r = min_nonzero_power_sum(dset, sums)
    if not r <= nw <= p - 1:
        return sums, r, None
    acc = linear_power_sum([(u, 1) for u in dset.elements], nw, p)
    acc[nw] -= len(dset)
    if any(c % p for c in acc[nw - r + 1:]):
        return sums, r, False
    expected = binomial_mod_p(nw, r, dset.field) * sums[r - 1] % p
    return sums, r, acc[nw - r] % p == expected != 0


def check_leading_coefficient(dset: DiffSet, n: int, w: int) -> bool:
    """The tail of L(X) = sum_u ((X+u)**(n*w) - X**(n*w)).

    With r the least nonzero power-sum index, L must have coefficient zero
    at X**(nw-k) for 1 <= k < r, leading coefficient C(nw, r)*S(r) != 0 at
    X**(nw-r), hence degree exactly nw - r.
    """
    nw = n * w
    _, r, verdict = _reduced_facts(dset, nw)
    if verdict is None:
        raise InputError(f"leading-coefficient check needs r <= n*w <= p-1, "
                         f"got r={r}, n*w={nw}, p={dset.field.p}")
    return verdict


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

    # The input check above is on U; this step is on the reduced set, which
    # for a dense U is U^c. So it re-checks the complement reduction: a
    # faulty reduction shows here as a failed step and a VIOLATION verdict
    # (exit 2), not as an input error.
    ok = check_preserves(perm, reduced)
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

    sums, r, leading = _reduced_facts(reduced, n * w_max)
    vanishing, binomial = _shifted_power_identities(poly, reduced, w_max, sums)
    steps.append(TraceStep(
        f"vanishing_identity(w={w_max})", vanishing,
        "difference of shifted powers is the zero polynomial" if vanishing
        else "difference of shifted powers has a nonzero coefficient",
    ))
    steps.append(TraceStep(
        f"binomial_expansion(w={w_max})", binomial,
        "expansion matches the power-sum form" if binomial else "expansion mismatch",
    ))

    half = (p - 1) // 2

    if r <= n * w_max:
        steps.append(TraceStep(
            f"leading_coefficient(nw={n * w_max})", leading,
            f"degree n*w-r = {n * w_max - r} with leading coefficient "
            f"C({n * w_max},{r})*S({r})" if leading else "leading-coefficient claim fails",
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
        power_sums=sums[:half],
        steps=tuple(steps),
        verdict=verdict,
    )
