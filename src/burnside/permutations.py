"""Permutations of F_p given by image tables.

Provides the group algebra (compose, invert, order, cycle structure),
construction and recognition of affine maps i -> a*i + b, and the
relabeling that turns any p-cycle into translation by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import FieldMismatch, InputError
from .fields import PrimeField, require_ints


class AffineCoeffs(NamedTuple):
    """Coefficients of i -> a*i + b with a nonzero."""

    a: int
    b: int


@dataclass(frozen=True)
class Perm:
    """A bijection of {0..p-1}, stored as its image table."""

    field: PrimeField
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        require_ints(images, "image table")
        object.__setattr__(self, "images", images)
        p = self.field.p
        if len(images) != p or sorted(images) != list(range(p)):
            raise InputError(
                f"image table {images} is not a bijection of 0..{p - 1}"
            )

    @classmethod
    def identity(cls, field: PrimeField) -> "Perm":
        return cls(field, tuple(range(field.p)))

    @classmethod
    def from_text(cls, field: PrimeField, text: str) -> "Perm":
        """Parse the comma-separated image list "pi(0),pi(1),...,pi(p-1)"."""
        try:
            images = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise InputError(f"cannot parse permutation {text!r}") from None
        return cls(field, images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def _check_field(self, other: "Perm") -> None:
        if self.field != other.field:
            raise FieldMismatch(
                f"mixed degrees {self.field.p} and {other.field.p}"
            )

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (self * other)(i) = self(other(i))."""
        self._check_field(other)
        return Perm(self.field, tuple(self.images[v] for v in other.images))

    def __mul__(self, other: "Perm") -> "Perm":
        return self.compose(other)

    def inverse(self) -> "Perm":
        inv = [0] * self.field.p
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(self.field, tuple(inv))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def conjugate(self, by: "Perm") -> "Perm":
        """by * self * by^-1."""
        return by * self * by.inverse()

    def cycles(self, include_fixed: bool = True) -> list[tuple[int, ...]]:
        """Cycle decomposition; each cycle starts at its least point."""
        seen = [False] * self.field.p
        out = []
        for start in range(self.field.p):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                seen[v] = True
                cycle.append(v)
                v = self.images[v]
            if include_fixed or len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted multiset of cycle lengths, fixed points included."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def cycle_string(self) -> str:
        """Cycle notation, render-only; fixed points omitted."""
        moved = self.cycles(include_fixed=False)
        if not moved:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in moved)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))


def make_affine(coeffs: AffineCoeffs | tuple[int, int], field: PrimeField) -> Perm:
    """The permutation i -> a*i + b; requires a nonzero mod p."""
    a, b = coeffs
    p = field.p
    if a % p == 0:
        raise InputError("affine map needs a nonzero multiplier")
    return Perm(field, tuple((a * i + b) % p for i in range(p)))


def recognize_affine(perm: Perm) -> Optional[AffineCoeffs]:
    """Return (a, b) with perm(i) = a*i + b for all i, or None.

    Uses the O(p) first-difference test; agrees with the interpolating
    polynomial having degree <= 1.
    """
    p = perm.field.p
    b = perm.images[0]
    a = (perm.images[1] - b) % p
    for i in range(p):
        if perm.images[i] != (a * i + b) % p:
            return None
    return AffineCoeffs(a, b)


def relabel_to_translation(perm: Perm) -> Perm:
    """For a p-cycle sigma, the relabeling L with L(sigma^k(0)) = k.

    Conjugating by L turns sigma into translation by one:
    L * sigma * L^-1 maps k to k+1 for every k.
    """
    p = perm.field.p
    if perm.cycle_type() != (p,):
        raise InputError(f"relabeling requires a {p}-cycle, got {perm.cycle_string()}")
    labels = [0] * p
    x = 0
    for k in range(p):
        labels[x] = k
        x = perm.images[x]
    return Perm(perm.field, tuple(labels))
