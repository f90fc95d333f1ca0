"""The prime field F_p, difference sets and the symmetric functions of a set.

Residues are canonical representatives in [0, p-1]. Every power sum is read
from one packed table of x**w mod p, whose layout only this module knows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InternalInvariantViolation

# Trial division is deterministic and instant at desk scale; the cap keeps
# accidental huge moduli out rather than limiting the mathematics.
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


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p; carries the validated modulus."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise InputError(f"modulus must be an integer, got {self.p!r}")
        if self.p > DEFAULT_PRIME_CAP:
            raise InputError(f"modulus {self.p} exceeds the supported cap {DEFAULT_PRIME_CAP}")
        if not is_prime(self.p):
            raise InputError(f"modulus {self.p} is not prime")

    def nonzero(self) -> range:
        return range(1, self.p)


def require_ints(values, what: str) -> None:
    """InputError unless every entry's type is exactly int: a bool, a float
    or a numeric string is rejected, never truncated or parsed."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InputError(f"{what} entries must be integers, got {bad!r}")


@dataclass(frozen=True)
class DiffSet:
    """A non-empty proper subset of F_p \\ {0}, stored as a sorted tuple.

    These are the connection sets of circulant digraphs on F_p: the pairs
    (i, j) with i - j in the set are the arcs whose preservation is tested.
    """

    field: PrimeField
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        require_ints(elems, "difference-set")
        elems = tuple(sorted(set(elems)))
        object.__setattr__(self, "elements", elems)
        p = self.field.p
        if any(not 1 <= u <= p - 1 for u in elems):
            raise InputError(
                f"difference-set elements must lie in 1..{p - 1}, got {elems}"
            )
        if not 1 <= len(elems) <= p - 2:
            raise InputError(
                f"difference set must be a non-empty proper subset of 1..{p - 1}"
            )

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
        return DiffSet(self.field, rest)

    def indicator(self) -> tuple[bool, ...]:
        """Membership table indexed by residue, for hot loops."""
        table = [False] * self.field.p
        for u in self.elements:
            table[u] = True
        return tuple(table)


def binomial_mod_p(n: int, k: int, field: PrimeField) -> int:
    """C(n, k) reduced mod p; nonzero whenever 0 <= k <= n <= p-1."""
    if n < 0 or k < 0 or k > n:
        raise InputError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k) % field.p


def _slot_width(p: int) -> int:
    return ((p - 2) * (p - 1)).bit_length()


@lru_cache(maxsize=None)
def packed_powers(p: int) -> tuple[int, ...]:
    """Row x, for x = 0..2p-1 (period p), holds x**w mod p in slot w-1 for
    w = 1..p-1. A slot of a sum of at most p-2 rows is at most (p-2)*(p-1),
    which fits the slot width: sums never carry from one slot into the next.
    """
    slot = _slot_width(p)
    rows = []
    for x in range(p):
        row = 0
        for w in range(p - 1, 0, -1):
            row = (row << slot) | pow(x, w, p)
        rows.append(row)
    return tuple(rows + rows)


def unpack_powers(packed: int, p: int) -> tuple[int, ...]:
    """Slot w-1 of a sum of at most p-2 packed rows, reduced mod p, for
    w = 1..p-1."""
    slot = _slot_width(p)
    mask = (1 << slot) - 1
    return tuple([(packed >> s & mask) % p for s in range(0, slot * (p - 1), slot)])


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


def min_nonzero_power_sum(dset: DiffSet) -> int:
    """Smallest k in 1..p-1 whose power sum is nonzero.

    A valid set always has one (its Vandermonde matrix is nonsingular), so
    an all-zero scan signals a bug.
    """
    for k, s in enumerate(power_sums(dset), start=1):
        if s:
            return k
    raise InternalInvariantViolation(
        "every power sum vanished for a non-empty proper subset",
        payload={"p": dset.field.p, "elements": list(dset.elements)},
    )


def elementary_symmetric_via_newton(dset: DiffSet, m: int) -> list[int]:
    """First m elementary symmetric functions of the set, from its power sums.

    Uses the Newton recurrence k*e_k = sum_{i=1..k} (-1)**(i-1) e_{k-i} S(i);
    the divisions by 1..m force m <= p-1.
    """
    p = dset.field.p
    if m >= p:
        raise InputError(f"Newton recurrence needs m < p, got m={m}, p={p}")
    if not 1 <= m <= len(dset):
        raise InputError(f"need 1 <= m <= |set|={len(dset)}, got m={m}")
    sums = power_sums(dset)
    es = [1]  # e_0
    for k in range(1, m + 1):
        acc = 0
        for i in range(1, k + 1):
            term = es[k - i] * sums[i - 1] % p
            acc = (acc - term if i % 2 == 0 else acc + term) % p
        es.append(acc * pow(k, -1, p) % p)
    return es[1:]


def vandermonde_det(dset: DiffSet) -> int:
    """Determinant of the matrix (u_j ** k), k = 1..|set|, over F_p.

    Distinct nonzero entries make this provably nonzero; a zero result is
    reported as an internal error.
    """
    p = dset.field.p
    elems = dset.elements
    m = len(elems)
    rows = [[pow(u, k, p) for u in elems] for k in range(1, m + 1)]
    det = _det_mod_p(rows, p)
    if det == 0:
        raise InternalInvariantViolation(
            "Vandermonde determinant of a valid difference set vanished",
            payload={"p": p, "elements": list(elems)},
        )
    return det


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant by Gaussian elimination over F_p."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            if factor:
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return det % p
