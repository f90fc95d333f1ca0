"""Dense polynomial arithmetic and closed-form interpolation over F_p.

Coefficient lists are indexed by exponent and never carry trailing zeros.
The zero polynomial has an empty list and degree negative infinity, so
degree comparisons can never silently treat it as a constant. The
constructor reduces every coefficient mod p, so sums, products and shifts
hand it plain integer sums; ``interpolate``, whose values are checked on
the way in, reduces its own and builds its result unchecked.

The arithmetic itself lives in three kernels on plain coefficient lists,
``mul_coeffs``, ``pow_coeffs`` (square-and-multiply) and ``shift_coeffs``;
the ``FpPoly`` operators wrap the first two, and the trace calls them
directly so that no intermediate result is validated and reduced a second
time. The trace also sums many linear powers at once with
``linear_power_sum``, the one implementation of Miller's recurrence.

Interpolation reads its sums of f(a) * a**w from the packed power rows of
``fields``: one big-integer multiply-add per point, not p**2 Python steps.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .errors import FieldMismatch, InputError
from .fields import PrimeField, Value, _fill, packed_powers, require_ints, unpack_powers

NEG_INFINITY = float("-inf")


class FpPoly(Value):
    """A polynomial over F_p, stored densely with canonical coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs) -> None:
        coeffs = tuple(coeffs)  # read once: the check must see what is stored
        require_ints(coeffs, "coefficient")
        _fill(self, field, canonical(coeffs, field.p))

    @property
    def degree(self) -> int | float:
        if not self.coeffs:
            return NEG_INFINITY
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_field(self, other: "FpPoly") -> None:
        if self.field != other.field:
            raise FieldMismatch(
                f"mixed moduli {self.field.p} and {other.field.p}"
            )

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FpPoly(self.field, out)

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check_field(other)
        return FpPoly(self.field, mul_coeffs(self.coeffs, other.coeffs))

    def __pow__(self, exponent: int) -> "FpPoly":
        """f**e, by ``pow_coeffs``."""
        if exponent < 0:
            raise InputError(f"polynomial power must be >= 0, got {exponent}")
        return FpPoly(self.field, pow_coeffs(self.coeffs, exponent, self.field.p))

    def render(self) -> str:
        """Human-readable form "c0 + c1*X + c2*X^2 + ..." (render-only)."""
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*X")
            else:
                terms.append(f"{c}*X^{k}")
        return " + ".join(terms)


def canonical(coeffs: Iterable[int], p: int) -> tuple[int, ...]:
    """The coefficients reduced mod p, trailing zeros stripped."""
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The schoolbook product of two coefficient lists, as plain integer
    sums (unreduced). Canonical factors mod p give a product whose leading
    coefficient is nonzero mod p: F_p has no zero divisors."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a  # the outer loop runs over the shorter factor
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + n] = [o + x * y for o, y in zip(out[i:i + n], b)]
    return out


def pow_coeffs(coeffs: Sequence[int], e: int, p: int) -> list[int]:
    """f**e, reduced mod p, for canonical coefficients of f and e >= 0, by
    square-and-multiply with schoolbook products."""
    result, base = [1], coeffs
    while e:
        if e & 1:
            result = [c % p for c in mul_coeffs(result, base)]
        e >>= 1
        if e:
            base = [c % p for c in mul_coeffs(base, base)]
    return result


def shift_coeffs(coeffs: Sequence[int], u: int) -> list[int]:
    """f(X + u) by Horner rebasing, as plain integer sums (unreduced); the
    leading coefficient is unchanged."""
    acc: list[int] = []
    for c in reversed(coeffs):
        # acc := acc * (X + u) + c
        new = [0] + acc
        for j, a in enumerate(acc):
            new[j] += a * u
        new[0] += c
        acc = new
    return acc


@lru_cache(maxsize=None)
def _inverses(p: int) -> tuple[int, ...]:
    """k**-1 mod p at index k, for k = 1..p-1 (index 0 holds 0)."""
    return (0,) + tuple(pow(k, -1, p) for k in range(1, p))


def linear_power_sum(bases: Sequence[tuple[int, int]], e: int, p: int) -> list[int]:
    """Coefficients of sum_j (c_j + d_j*X)**e at X**0..X**e, reduced mod p,
    for pairs (c_j, d_j) with every c_j nonzero mod p and 0 <= e <= p-1.

    Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7) for a
    linear base is the binomial ratio: with h_j = d_j/c_j, the coefficients
    of (c_j + d_j*X)**e are g_0 = c_j**e and g_k = g_{k-1} * (e+1-k)/k * h_j
    for k = 1..e; each k <= e <= p-1 is a unit, so it is exact mod p. Every
    base advances together, one list comprehension per k, and each
    coefficient is summed as it is produced, so no base's row is stored.
    The sum may have trailing zeros.
    """
    inv = _inverses(p)
    hs = [d * inv[c % p] % p for c, d in bases]
    gs = [pow(c, e, p) for c, _ in bases]
    out = [sum(gs) % p]
    e1 = e + 1
    for k in range(1, e1):
        ratio = (e1 - k) * inv[k]
        gs = [g * ratio * h % p for g, h in zip(gs, hs)]
        out.append(sum(gs) % p)
    return out


def interpolate(field: PrimeField, images) -> FpPoly:
    """The unique polynomial of degree <= p-1 through (a, images[a]) for all a.

    Over F_p, f = sum_a f(a) * (1 - (X - a)**(p-1)), and C(p-1, k) = (-1)**k
    mod p, so f has constant term f(0) and, for k = 1..p-1, coefficient
    -sum_a f(a) * a**(p-1-k) at X**k (with 0**0 = 1). At k = p-1 that is
    -sum_a f(a); below it, every sum over a >= 1 is one slot of the packed
    power rows weighted by the residues f(a) (``fields.packed_powers``).

    Accepts any length-p sequence of integers, or an object exposing an
    ``images`` attribute (a permutation).
    """
    values: Sequence[int] = getattr(images, "images", images)
    p = field.p
    if len(values) != p:
        raise InputError(
            f"interpolation needs exactly {p} values, one per point, got {len(values)}"
        )
    require_ints(values, "interpolation value")
    ys = [y % p for y in values]
    # slot w-1 holds sum_{a >= 1} ys[a] * a**w
    sums = unpack_powers(sum(map(mul, ys[1:], packed_powers(p)[1:p])), p)
    coeffs = canonical([ys[0], *[-s for s in reversed(sums[:-1])], -sum(ys)], p)
    return FpPoly._trusted(field, coeffs)
