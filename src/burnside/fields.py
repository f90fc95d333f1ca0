"""The prime field F_p, difference sets and their power sums.

Residues are canonical representatives in [0, p-1]. Every power sum is read
from one packed table of x**w mod p, whose layout only this module knows.
Every other packed row of p slots, taken mod X**p - 1, has the layout of
``row_layout``, its slot width set by the largest value its caller states.
The multiplicative group F_p* is cyclic; ``cyclic_table`` fixes a primitive
root g and labels each nonzero x by its logarithm, so that a set of nonzero
residues is a word of p-1 bits and multiplying by g rotates it.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import InputError, InternalInvariantViolation

# Trial division is instant at desk scale; the cap keeps accidental huge
# moduli out. Packed slot widths derive from p (``row_layout``), and only
# the byte-wide difference check stops, with an InputError, past p = 127.
DEFAULT_PRIME_CAP = 97


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_set = object.__setattr__


def _fill(obj, *values):
    """``obj`` with its fields, in ``__slots__`` order, set to ``values``."""
    any(map(_set, repeat(obj), obj.__slots__, values))
    return obj


class Value:
    """Base of the value classes: ``__slots__`` names the fields in the order
    ``__init__`` takes, checks and sets them. Read-only, compared and hashed
    by field values, shown as a dataclass, pickled through ``__init__``;
    ``_trusted`` skips the checks, for values derived from validated ones."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    @classmethod
    def _trusted(cls, *values):
        return _fill(object.__new__(cls), *values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PrimeField(Value):
    """The prime field F_p; carries the validated modulus."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError(f"modulus must be an integer, got {p!r}")
        if p > DEFAULT_PRIME_CAP:
            raise InputError(f"modulus {p} exceeds the supported cap {DEFAULT_PRIME_CAP}")
        if not is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        _fill(self, p)

    def nonzero(self) -> range:
        return range(1, self.p)


def require_ints(values, what: str) -> None:
    """InputError unless every entry's type is exactly int: a bool, a float
    or a numeric string is rejected, never truncated or parsed."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InputError(f"{what} entries must be integers, got {bad!r}")


# A plain decimal: an optional sign and ASCII digits, with surrounding
# ASCII whitespace. int() alone also reads "1_0", "\u0663" and "\uff11".
_DECIMAL = r"\s*[+-]?[0-9]+\s*"
_DECIMAL_ONE = re.compile(_DECIMAL, re.ASCII)
_DECIMAL_LIST = re.compile(rf"{_DECIMAL}(?:,{_DECIMAL})*", re.ASCII)


def parse_int(text: str) -> int:
    """The plain decimal in ``text``; ValueError for anything else, or for
    more digits than int() converts."""
    if _DECIMAL_ONE.fullmatch(text) is None:
        raise ValueError(f"not a plain decimal integer: {text!r}")
    return int(text)


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated list of plain decimals in ``text``; InputError
    naming ``what`` if any entry is something else. The whole list is
    checked by one regular expression before any entry is converted."""
    if _DECIMAL_LIST.fullmatch(text) is not None:
        try:
            return tuple(map(int, text.split(",")))
        except ValueError:  # an entry past int()'s digit limit
            pass
    raise InputError(f"cannot parse {what} {text!r}")


class DiffSet(Value):
    """A non-empty proper subset of F_p \\ {0}, stored as a sorted tuple.

    These are the connection sets of circulant digraphs on F_p: the pairs
    (i, j) with i - j in the set are the arcs whose preservation is tested.
    """

    __slots__ = ("field", "elements")

    def __init__(self, field: PrimeField, elements) -> None:
        elems = tuple(elements)
        require_ints(elems, "difference-set")
        elems = tuple(sorted(set(elems)))
        p = field.p
        if any(not 1 <= u <= p - 1 for u in elems):
            raise InputError(
                f"difference-set elements must lie in 1..{p - 1}, got {elems}"
            )
        if not 1 <= len(elems) <= p - 2:
            raise InputError(
                f"difference set must be a non-empty proper subset of 1..{p - 1}"
            )
        _fill(self, field, elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, u: int) -> bool:
        return u in self.elements

    def complement(self) -> "DiffSet":
        """The complement within 1..p-1 (never empty, never full)."""
        inside = set(self.elements)
        rest = tuple(u for u in self.field.nonzero() if u not in inside)
        return DiffSet._trusted(self.field, rest)


def binomial_mod_p(n: int, k: int, field: PrimeField) -> int:
    """C(n, k) reduced mod p; nonzero whenever 0 <= k <= n <= p-1."""
    if n < 0 or k < 0 or k > n:
        raise InputError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k) % field.p


class CyclicTable(NamedTuple):
    """F_p* = <root>, with the logarithms of its members as bits."""

    root: int
    powers: tuple[int, ...]  # root**k mod p for k = 0..p-2
    bits: tuple[int, ...]  # 1 << k at x = root**k; 0 at x = 0
    divisors: tuple[int, ...]  # every divisor of p-1, ascending


@lru_cache(maxsize=None)
def cyclic_table(p: int) -> CyclicTable:
    """The least primitive root mod p and its table.

    g generates F_p* when g**((p-1)/q) != 1 for every prime q dividing
    p-1. The sum of ``bits[x]`` over a set U of nonzero residues is U's
    word: bit k is set when g**k is in U, and the word of g**d * U is that
    word rotated d places up (mod p-1).
    """
    n = p - 1
    divisors = tuple(d for d in range(1, n + 1) if n % d == 0)
    primes = [q for q in divisors if is_prime(q)]
    root = next(g for g in range(1, p) if all(pow(g, n // q, p) != 1 for q in primes))
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * root % p)
    bits = [0] * p
    for k, x in enumerate(powers):
        bits[x] = 1 << k
    return CyclicTable(root, tuple(powers), tuple(bits), divisors)


@lru_cache(maxsize=None)
def subgroup_of_index(p: int, t: int) -> tuple[int, ...]:
    """<g**t>, the subgroup of index t in F_p* = <g>, ascending; t divides p-1."""
    return tuple(sorted(cyclic_table(p).powers[::t]))


class RowLayout(NamedTuple):
    """p slots of ``width`` bits packed in one integer: slot j holds the
    coefficient of X**j, X = 2**width, of a polynomial taken mod X**p - 1.
    Rows, sums and folded products read back exactly while no slot passes
    the largest value the layout was made for (``row_layout``)."""

    p: int
    width: int  # bits per slot
    code: str  # the slot's array format
    span: int  # bits per row, width * p
    mask: int  # (1 << span) - 1
    ones: int  # 1 in every slot

    def pack(self, values) -> int:
        """The row whose slot j holds values[j]."""
        slots = array(self.code, values)
        if sys.byteorder == "big":
            slots.byteswap()
        return int.from_bytes(slots, "little")

    def monomials(self, ks) -> int:
        """The sum of X**k over ks, each k in 0..p-1."""
        width = self.width
        return sum([1 << width * k for k in ks])

    def rotations(self, row: int, ks) -> Iterator[int]:
        """X**k * row mod X**p - 1 for each k of ks in 0..p-1, lazily: slot j
        moves to j + k, read off the row written twice over."""
        width, mask, span = self.width, self.mask, self.span
        double = row | row << span
        return (double >> span - width * k & mask for k in ks)

    def fold(self, product: int) -> int:
        """A product of two rows, taken mod X**p - 1."""
        return (product & self.mask) + (product >> self.span)

    def to_bytes(self, row: int) -> bytes:
        """The row's slots in order, each little-endian."""
        return row.to_bytes(self.span // 8, "little")

    def unpack(self, row: int) -> list[int]:
        """Every slot of the row, as a list. ``to_bytes`` is written out: this
        runs once per splitter and per walk length, and a call costs."""
        slots = array(self.code, row.to_bytes(self.span // 8, "little"))
        if sys.byteorder == "big":
            slots.byteswap()
        return slots.tolist()


@lru_cache(maxsize=None)
def row_layout(p: int, largest: int) -> RowLayout:
    """The narrowest layout of 8, 16, 32 or 64-bit slots holding ``largest``."""
    for b, code in (8, "B"), (16, "H"), (32, "I"), (64, "Q"):
        if largest < 1 << b:
            mask = (1 << b * p) - 1
            return RowLayout(p, b, code, b * p, mask, mask // ((1 << b) - 1))
    raise InputError(f"a packed slot cannot hold {largest} (p = {p})")


def _slot_width(p: int) -> int:
    return ((p - 1) ** 3).bit_length()


@lru_cache(maxsize=None)
def packed_powers(p: int) -> tuple[int, ...]:
    """Row x, for x = 0..2p-1 (period p), holds x**w mod p in slot w-1 for
    w = 1..p-1. A sum of rows with non-negative integer weights of total
    weight at most (p-1)**2 (say p-1 rows, each times a residue) has every
    slot at most (p-1)**3, which fits the slot width: such sums never carry
    from one slot into the next.
    """
    slot = _slot_width(p)
    inverses = [0] + [pow(x, -1, p) for x in range(1, p)]
    column = [0] + [1] * (p - 1)  # x**(p-1)
    rows = column
    # Built one column at a time from the top slot down: x**(w-1) is
    # x**w * x**-1, and every row moves up one slot per step.
    for _ in range(p - 2):
        column = [c * i % p for c, i in zip(column, inverses)]
        rows = [row << slot | c for row, c in zip(rows, column)]
    return tuple(rows + rows)


def _slots(packed: int, p: int) -> Iterator[int]:
    """Slot w-1 of a weighted sum of packed rows, of total weight at most
    (p-1)**2, reduced mod p, for w = 1..p-1 in turn."""
    slot = _slot_width(p)
    mask = (1 << slot) - 1
    return ((packed >> s & mask) % p for s in range(0, slot * (p - 1), slot))


def unpack_powers(packed: int, p: int) -> tuple[int, ...]:
    """Every slot of ``_slots``, as a tuple."""
    return tuple(_slots(packed, p))


def power_sums(dset: DiffSet) -> tuple[int, ...]:
    """(S(1), ..., S(p-1)) with S(k) the sum of u**k over the set, mod p."""
    p = dset.field.p
    rows = packed_powers(p)
    return unpack_powers(sum(rows[u] for u in dset.elements), p)


def power_sum(dset: DiffSet, k: int) -> int:
    """Sum of u**k over the set, mod p."""
    if k < 1:
        raise InputError(f"power-sum exponent must be >= 1, got {k}")
    # No member is 0, so u**k depends on k only through (k-1) mod (p-1).
    return power_sums(dset)[(k - 1) % (dset.field.p - 1)]


def min_nonzero_power_sum(dset: DiffSet, sums: tuple[int, ...] | None = None) -> int:
    """Smallest k in 1..p-1 whose power sum is nonzero.

    ``sums`` is the set's ``power_sums`` vector when the caller already
    holds it. Otherwise S(1), the sum mod p, is tried first; then the
    packed sum's slots are read from S(1) upwards, each reduced mod p only
    when it is reached. A valid set always has a nonzero power sum (its
    Vandermonde matrix is nonsingular), so an all-zero vector is a bug.
    """
    if sums is None:
        p = dset.field.p
        if sum(dset.elements) % p:
            return 1
        sums = _slots(sum(map(packed_powers(p).__getitem__, dset.elements)), p)
    for k, s in enumerate(sums, start=1):
        if s:
            return k
    raise InternalInvariantViolation(
        "every power sum vanished for a non-empty proper subset",
        payload={"p": dset.field.p, "elements": list(dset.elements)},
    )

