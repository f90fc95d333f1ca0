"""Permutations of F_p given by image tables.

Provides the group algebra (compose, invert, cycle structure),
construction and recognition of affine maps i -> a*i + b, including on a
conjugate read off two image tables, and the relabeling that turns any
p-cycle into translation by one. The constructor checks its table; every
permutation derived from checked ones (products, inverses, the identity,
relabelings) is built unchecked.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import FieldMismatch, InputError
from .fields import PrimeField, Value, _fill, parse_ints, require_ints


class AffineCoeffs(NamedTuple):
    """Coefficients of i -> a*i + b with a nonzero."""

    a: int
    b: int


class Perm(Value):
    """A bijection of {0..p-1}, stored as its image table, checked by ``__post_init__``."""

    __slots__ = ("field", "images")

    def __init__(self, field: PrimeField, images) -> None:
        _fill(self, field, tuple(images))
        self.__post_init__()

    def __post_init__(self) -> None:
        images = self.images
        require_ints(images, "image table")
        p = self.field.p
        if len(images) != p or sorted(images) != list(range(p)):
            raise InputError(
                f"image table {images} is not a bijection of 0..{p - 1}"
            )

    @classmethod
    def identity(cls, field: PrimeField) -> "Perm":
        return cls._trusted(field, tuple(range(field.p)))

    @classmethod
    def from_text(cls, field: PrimeField, text: str) -> "Perm":
        """Parse the comma-separated image list "pi(0),pi(1),...,pi(p-1)"."""
        return cls(field, parse_ints(text, "permutation"))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def compose(self, other: "Perm") -> "Perm":
        """self after other, the map i -> self(other(i))."""
        if self.field != other.field:
            raise FieldMismatch(f"mixed degrees {self.field.p} and {other.field.p}")
        return Perm._trusted(self.field, tuple(self.images[v] for v in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.field.p
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm._trusted(self.field, tuple(inv))

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

    def cycle_string(self) -> str:
        """Cycle notation, render-only; fixed points omitted."""
        moved = self.cycles(include_fixed=False)
        if not moved:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in moved)


def make_affine(coeffs: AffineCoeffs | tuple[int, int], field: PrimeField) -> Perm:
    """The permutation i -> a*i + b; requires a nonzero mod p."""
    a, b = coeffs
    p = field.p
    if a % p == 0:
        raise InputError("affine map needs a nonzero multiplier")
    return Perm(field, tuple((a * i + b) % p for i in range(p)))


def affine_coeffs(images: tuple[int, ...], p: int) -> Optional[AffineCoeffs]:
    """Return (a, b) with images[i] = a*i + b mod p for all i, or None.

    The O(p) first-difference test on an image table, a tuple of length
    p: b is images[0], a is images[1] - b, and the table must be the
    residues of b, b + a, ..., b + (p-1)a. A zero a is never affine.
    """
    b = images[0]
    a = (images[1] - b) % p
    if a and images == tuple(map(p.__rmod__, range(b, b + a * p, a))):
        return AffineCoeffs(a, b)
    return None


def recognize_affine(perm: Perm) -> Optional[AffineCoeffs]:
    """Return (a, b) with perm(i) = a*i + b for all i, or None; agrees with
    the interpolating polynomial having degree <= 1."""
    return affine_coeffs(perm.images, perm.field.p)


def conjugate_affine_coeffs(images: tuple[int, ...], labels: tuple[int, ...],
                            p: int) -> Optional[AffineCoeffs]:
    """``recognize_affine`` of L * g * L^-1, read off the image tables of g
    and of the relabeling L, or None; no conjugate is built.

    L * g * L^-1 is i -> a*i + b exactly when L(g(j)) = a*L(j) + b for
    every j, with b = L(g(L^-1(0))) and a = L(g(L^-1(1))) - b: the table
    of L after g must be the line's table read at L's labels.
    """
    b = labels[images[labels.index(0)]]
    a = (labels[images[labels.index(1)]] - b) % p
    if a:
        line = tuple(map(p.__rmod__, range(b, b + a * p, a)))
        if tuple(map(labels.__getitem__, images)) == tuple(map(line.__getitem__, labels)):
            return AffineCoeffs(a, b)
    return None


def cycle_labels(perm: Perm) -> Optional[list[int]]:
    """For a p-cycle sigma, the list L with L[sigma^k(0)] = k; None when
    the orbit of 0 closes in fewer than p steps, so perm is no p-cycle.

    One walk along the orbit of 0: a bijection whose orbit of 0 reaches
    p points is a single p-cycle.
    """
    images = perm.images
    labels = [0] * len(images)
    x = images[0]
    for k in range(1, len(images)):
        if not x:
            return None
        labels[x] = k
        x = images[x]
    return labels


def relabel_to_translation(perm: Perm) -> Perm:
    """For a p-cycle sigma, the relabeling L with L(sigma^k(0)) = k.

    Conjugating by L turns sigma into translation by one:
    L * sigma * L^-1 maps k to k+1 for every k.
    """
    labels = cycle_labels(perm)
    if labels is None:
        p = perm.field.p
        raise InputError(f"relabeling requires a {p}-cycle, got {perm.cycle_string()}")
    return Perm._trusted(perm.field, tuple(labels))
