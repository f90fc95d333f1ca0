"""Orbit machinery and bounded enumeration for generated permutation groups.

Everything here is breadth-first search over a fixed generator order, so
element lists, orbits and reports come out deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, FieldMismatch, InputError
from .fields import PrimeField, Value, _fill
from .permutations import Perm


class GroupSpec(Value):
    """A permutation group of F_p given by a non-empty generator list."""

    __slots__ = ("field", "generators")

    def __init__(self, field: PrimeField, generators) -> None:
        gens = tuple(generators)
        if not gens:
            raise InputError("a group needs at least one generator")
        for g in gens:
            if g.field != field:
                raise FieldMismatch(
                    f"generator degree {g.field.p} does not match p={field.p}"
                )
        _fill(self, field, gens)


class EnumeratedGroup(Value):
    """A fully enumerated group: identity included, closed under products.

    ``generators`` generate ``elements``; ``derived_series`` works from them.
    """

    __slots__ = ("field", "generators", "elements")

    def __init__(self, field: PrimeField, generators: tuple, elements: tuple) -> None:
        _fill(self, field, generators, elements)

    @property
    def order(self) -> int:
        return len(self.elements)


def orbit_of_point(spec: GroupSpec, x: int) -> list[int]:
    """Closure of {x} under the generators, in ascending order."""
    p = spec.field.p
    if not 0 <= x < p:
        raise InputError(f"point {x} outside 0..{p - 1}")
    seen = {x}
    queue = deque([x])
    while queue:
        y = queue.popleft()
        for g in spec.generators:
            z = g.images[y]
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return sorted(seen)


def orbit_of_pair(spec: GroupSpec, pair: tuple[int, int]) -> list[tuple[int, int]]:
    """Closure of an ordered pair under the diagonal action, sorted."""
    i, j = pair
    p = spec.field.p
    if i == j:
        raise InputError("pair orbits are defined for ordered pairs with i != j")
    if not (0 <= i < p and 0 <= j < p):
        raise InputError(f"pair {pair} outside 0..{p - 1}")
    seen = {(i, j)}
    queue = deque([(i, j)])
    while queue:
        a, b = queue.popleft()
        for g in spec.generators:
            nxt = (g.images[a], g.images[b])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def is_transitive(spec: GroupSpec) -> bool:
    """Whether the orbit of 0 is all of F_p."""
    return len(orbit_of_point(spec, 0)) == spec.field.p


def is_doubly_transitive(spec: GroupSpec) -> bool:
    """Whether the orbit of (1, 0) holds all p*(p-1) ordered pairs; a full
    pair orbit also makes the group transitive."""
    p = spec.field.p
    return len(orbit_of_pair(spec, (1, 0))) == p * (p - 1)


def bfs_elements(field: PrimeField, seeds: Iterable[Perm]) -> Iterator[Perm]:
    """The group the seeds generate, lazily and breadth first: the identity,
    the distinct seeds, then each new product h * g in queue order."""
    seed_list = list(seeds)
    identity = Perm.identity(field)
    seen = {identity.images}
    queue = deque([identity])
    yield identity
    while queue:
        h = queue.popleft()
        for g in seed_list:
            q = h.compose(g)
            if q.images not in seen:
                seen.add(q.images)
                queue.append(q)
                yield q


def closure(field: PrimeField, seeds: Iterable[Perm], cap: int) -> list[Perm]:
    """The first ``cap`` elements of ``bfs_elements``, i.e. the whole group.

    Raises CapExceeded when more than ``cap`` distinct elements appear.
    """
    if cap < 1:
        raise InputError(f"enumeration cap must be >= 1, got {cap}")
    elements = list(islice(bfs_elements(field, seeds), cap + 1))
    if len(elements) > cap:
        raise CapExceeded(f"group closure exceeded cap {cap}", cap)
    return elements


def enumerate_group(spec: GroupSpec, cap: int) -> EnumeratedGroup:
    """Enumerate the generated group, erroring past ``cap`` elements."""
    elements = closure(spec.field, spec.generators, cap)
    return EnumeratedGroup(spec.field, spec.generators, tuple(elements))


def derived_series(group: EnumeratedGroup) -> list[int]:
    """Orders of the iterated commutator subgroups, until 1 or stabilization.

    The group is solvable exactly when the list ends at 1. Each level is
    built from generators, never from all pairs of elements: for H = <X>,
    the commutator subgroup H' is the normal closure in H of the
    commutators [x, y] with x, y in X (Seress, *Permutation Group
    Algorithms*, 2003; Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, 2005). The generators of that closure are the X of the
    next level.
    """
    field = group.field
    orders = [group.order]
    generators = group.generators
    while orders[-1] > 1:
        generators, order = _commutator_subgroup(field, generators, orders[-1])
        orders.append(order)
        if order == orders[-2]:
            break  # perfect subgroup: series stabilized above 1
    return orders


def _commutator_subgroup(
    field: PrimeField, generators: Sequence[Perm], order: int
) -> tuple[tuple[Perm, ...], int]:
    """Generators and order of H', where H = <generators> has ``order``.

    N starts as the closure of the non-identity [x, y] = x^-1 y^-1 x y.
    Each generator n of N is conjugated by every x in X; a conjugate
    outside N joins N's generators and N is closed again. When no
    conjugate falls outside, N is normal in H, hence N = H'. Conjugating
    by x alone suffices: x N x^-1 inside the finite N forces equality.
    """
    inverses = [x.inverse() for x in generators]
    seeds: dict[tuple[int, ...], Perm] = {}
    for x, x_inv in zip(generators, inverses):
        for y, y_inv in zip(generators, inverses):
            c = x_inv.compose(y_inv).compose(x).compose(y)
            if not c.is_identity:
                seeds.setdefault(c.images, c)
    n_gens = list(seeds.values())
    members = {g.images for g in closure(field, n_gens, cap=order)}
    unchecked = list(n_gens)
    while unchecked:
        added = []
        for n in unchecked:
            for x, x_inv in zip(generators, inverses):
                c = x.compose(n).compose(x_inv)
                if c.images not in members:
                    members.add(c.images)
                    added.append(c)
        if added:
            n_gens.extend(added)
            members = {g.images for g in closure(field, n_gens, cap=order)}
        unchecked = added
    return tuple(n_gens), len(members)
