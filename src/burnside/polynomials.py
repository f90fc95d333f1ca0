"""Dense polynomial arithmetic and closed-form interpolation over F_p.

Coefficient lists are indexed by exponent and never carry trailing zeros.
The zero polynomial has an empty list and degree negative infinity, so
degree comparisons can never silently treat it as a constant. The
constructor reduces every coefficient mod p, so sums, products and
interpolation hand it plain integer sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FieldMismatch, InputError
from .fields import PrimeField

NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class FpPoly:
    """A polynomial over F_p, stored densely with canonical coefficients."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        cs = [int(c) % p for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, field: PrimeField) -> "FpPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "FpPoly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "FpPoly":
        return cls(field, (c,))

    @classmethod
    def from_roots(cls, field: PrimeField, roots: Iterable[int]) -> "FpPoly":
        """Expand the monic product of (X - r) over the given roots."""
        p = field.p
        coeffs = [1]
        for r in roots:
            coeffs.insert(0, 0)
            for j in range(len(coeffs) - 1):
                coeffs[j] = (coeffs[j] - coeffs[j + 1] * r) % p
        return cls(field, coeffs)

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
        if self.is_zero or other.is_zero:
            return FpPoly.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FpPoly(self.field, out)

    def __pow__(self, exponent: int) -> "FpPoly":
        """f**e. For a binomial f = c*X**v + d*X**(v+1) (c != 0, d may be 0)
        with deg(f)*e <= p-1, by J.C.P. Miller's power recurrence (Knuth,
        TAOCP vol. 2, section 4.7), which for a linear factor is the binomial
        ratio: O(e) coefficient operations, and every k it divides by is at
        most e <= p-1, hence a unit. Every other f, or deg(f)*e >= p, by
        square-and-multiply."""
        if exponent < 0:
            raise InputError(f"polynomial power must be >= 0, got {exponent}")
        cs, p = self.coeffs, self.field.p
        if cs and (len(cs) - 1) * exponent <= p - 1:
            v = next(i for i, c in enumerate(cs) if c)
            if len(cs) - v <= 2:
                return FpPoly(self.field, _binomial_power(cs, v, exponent, p))
        result = FpPoly.one(self.field)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def shift(self, u: int) -> "FpPoly":
        """The composition f(X + u), via Horner rebasing; degree preserved."""
        p = self.field.p
        acc: list[int] = []
        for c in reversed(self.coeffs):
            # acc := acc * (X + u) + c
            new = [0] * (len(acc) + 1)
            for j, a in enumerate(acc):
                new[j + 1] = (new[j + 1] + a) % p
                new[j] = (new[j] + a * u) % p
            new[0] = (new[0] + c) % p
            acc = new
        return FpPoly(self.field, acc)

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


@lru_cache(maxsize=None)
def _inverses(p: int) -> tuple[int, ...]:
    """k**-1 mod p at index k, for k = 1..p-1 (index 0 holds 0)."""
    return (0,) + tuple(pow(k, -1, p) for k in range(1, p))


def _binomial_power(coeffs: Sequence[int], v: int, e: int, p: int) -> list[int]:
    """Coefficients of f**e for f = c*X**v + d*X**(v+1), c != 0, with
    deg(f)*e <= p-1.

    Write f = c * X**v * (1 + h*X), h = d/c. Miller's recurrence for the
    linear factor gives (1 + h*X)**e = sum_k g_k X**k with g_0 = 1 and
    g_k = g_{k-1} * (e+1-k)/k * h for k = 1..e; each k <= e <= p-1 is a
    unit, so it is exact mod p. f**e = c**e * X**(v*e) * g.
    """
    c = coeffs[v]
    g = [pow(c, e, p)]  # c**e, carried through every g_k
    if len(coeffs) - v == 2:
        inv = _inverses(p)
        h = coeffs[v + 1] * inv[c] % p
        e1 = e + 1
        for k in range(1, e + 1):
            g.append(g[-1] * (e1 - k) * h * inv[k] % p)
    return [0] * (v * e) + g


def interpolate(field: PrimeField, images) -> FpPoly:
    """The unique polynomial of degree <= p-1 through (a, images[a]) for all a.

    Over F_p, f = sum_a f(a) * (1 - (X - a)**(p-1)), and C(p-1, k) = (-1)**k
    mod p, so f has constant term f(0) and, for k = 1..p-1, coefficient
    -sum_a f(a) * a**(p-1-k) at X**k (with 0**0 = 1).

    Accepts any length-p sequence of integers, or an object exposing an
    ``images`` attribute (a permutation).
    """
    values: Sequence[int] = getattr(images, "images", images)
    p = field.p
    if len(values) != p:
        raise InputError(
            f"interpolation needs exactly {p} values, one per point, got {len(values)}"
        )
    out = [values[0]] + [0] * (p - 1)
    for a, y in enumerate(values):
        t = y  # y * a**(p-1-k), for k = p-1 down to 1
        for k in range(p - 1, 0, -1):
            out[k] -= t
            t = t * a % p
    return FpPoly(field, out)
