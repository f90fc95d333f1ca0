"""Exhaustive search for difference-preserving permutations.

These are the automorphisms of the circulant digraph Cay(Z_p, U), whose
arcs join pairs with difference in U. Translations preserve every
difference, so only the maps fixing 0 are sought (``_maps_fixing_zero``).
The multipliers x -> a*x with a in M(U) are among them, and walk counts
often show that they are all (``_walks_separate``; Godsil and Royle,
"Algebraic Graph Theory", 2001, the first round of colour refinement of
Weisfeiler and Leman, 1968): when the counts from and to 0 tell every
point apart, the identity is the only map; when they tell every point
apart relative to a point x0 whose class of equal counts is M(U) * x0,
orbit and stabilizer leave the multipliers alone, which never happens
when |M(U)| >= 3, so those sets skip the test. Otherwise an
individualise-refine search finds them all (``_search_fixing_zero``; as
in nauty and Traces, McKay and Piperno, "Practical graph isomorphism,
II", J. Symb. Comput. 60, 2014), which the tests check against a plain
filter over all p! permutations at tiny degree and keep as the walk
test's oracle. Both read the digraph as packed rows, R = sum of X**u
over U taken mod X**p - 1, in layouts of ``fields.row_layout``. Every
permutation found must be affine with a multiplier stabilizing U, and
they must number p * |M(U)|; anything else is reported as a violation,
since it would contradict a theorem.

F_p* is cyclic: with g a primitive root (``fields.cyclic_table``), U is
the word of p-1 bits with bit k set when g**k is in U, and multiplying U
by g rotates the word by one place (as in the necklace generation of
Ruskey, Savage and Wang, J. Algorithms 13, 1992). M(U) is read off the
word's period (``_period``). A scan of every valid set searches one set
per orbit (``walk_orbits``, the only code that starts worker processes),
which reads M(U) off its walk; ``scan_all_subsets`` searches them all, in
this process, and is kept as its oracle.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from functools import lru_cache

from .errors import FieldMismatch, InputError, PropositionViolated
from .fields import (DiffSet, PrimeField, RowLayout, Value, _fill, cyclic_table,
                     min_nonzero_power_sum, row_layout, subgroup_of_index)
from .permutations import Perm, affine_coeffs

# A scan's walk holds a 2**(p-1)-slot orbit table and a per-set orbit
# list: 4.2M slots each at p = 23 (a whole scan there took 11-14 s and a
# 120 MB peak RSS on a 2-vCPU host), but 268M each at p = 29.
SCAN_PRIME_CAP = 23

# Walks of length 1..K tell points apart in ``_walks_separate``, with K
# from WALK_LENGTH up to LONGEST_WALK (``_walk_plan``).
WALK_LENGTH = 4
LONGEST_WALK = 6

class AutResult(Value):
    """All difference-preserving permutations for one set U."""

    __slots__ = ("diff_set", "automorphisms", "mult_stabilizer", "all_affine")

    def __init__(self, diff_set: DiffSet, automorphisms: tuple[Perm, ...],
                 mult_stabilizer: tuple[int, ...], all_affine: bool) -> None:
        _fill(self, diff_set, automorphisms, mult_stabilizer, all_affine)


class ScanRow(Value):
    """Per-set summary line of a full-subset scan."""

    __slots__ = ("elements", "size", "stabilizer_size", "automorphism_count",
                 "all_affine", "min_power_index")

    def __init__(self, elements: tuple[int, ...], size: int, stabilizer_size: int,
                 automorphism_count: int, all_affine: bool, min_power_index: int) -> None:
        _fill(self, elements, size, stabilizer_size, automorphism_count, all_affine,
              min_power_index)


def _preserves(images, elements, p: int) -> bool:
    """Whether images[i] - images[j] is in U whenever i - j is in U.

    With x the row of ``images``, slot j of x + p*ones - X**u * x is
    images[j] - images[j-u] + p, in 1..2p-1, read as one byte. The
    difference mod p is in U exactly when that byte is v or v + p for some
    v in U: deleting those byte values must leave nothing.
    """
    layout = row_layout(p, 2 * p - 1)
    if layout.code != "B":
        raise InputError(f"the difference check needs 2p - 1 to fit one byte, got p = {p}")
    x = layout.pack(images)
    top = x + p * layout.ones
    allowed = bytes(elements) + bytes(map(p.__add__, elements))
    to_bytes = layout.to_bytes
    for rotated in layout.rotations(x, elements):
        if to_bytes(top - rotated).translate(None, allowed):
            return False
    return True


def check_preserves(perm: Perm, dset: DiffSet) -> bool:
    """Whether i - j in U implies perm(i) - perm(j) in U, for all i, j.

    For a permutation of a finite set the implication is automatically an
    equivalence (iterate the map), so one direction suffices.
    """
    if dset.field != perm.field:
        raise FieldMismatch("difference set and permutation use different moduli")
    return _preserves(perm.images, dset.elements, perm.field.p)


def mult_stabilizer(dset: DiffSet) -> tuple[int, ...]:
    """All a with a*U = U, ascending; a subgroup of the multiplicative group.

    With F_p* = <g> (``cyclic_table``), g**d * U = U exactly when the
    rotation by d fixes U's word, and the d that do are the multiples of
    the word's period t (``_period``). So M(U) = <g**t>.
    """
    p = dset.field.p
    word = sum(map(cyclic_table(p).bits.__getitem__, dset.elements))
    return subgroup_of_index(p, _period(word, p))


def _period(word: int, p: int) -> int:
    """The least divisor of p-1 whose rotation fixes a word of p-1 bits.
    Bit k of the rotation by d is bit k + d of the word written twice."""
    n = p - 1
    double = word | word << n
    mask = (1 << n) - 1
    return next(d for d in cyclic_table(p).divisors if double >> d & mask == word)


@lru_cache(maxsize=None)
def _multiplier_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """Row a is the image table of x -> a*x mod p."""
    return tuple(tuple([a * x % p for x in range(p)]) for a in range(p))


def _refine(cells, where, queue, rows, p, expected=None):
    """Refine an ordered partition in place until it is equitable.

    ``cells`` is the list of cells and ``where[x]`` the index of the cell
    holding x; ``queue`` holds the indices of the splitter cells. Each
    splitter S splits every cell it reaches by the key (p-1)*out + in,
    where out and in count x's out- and in-neighbours (x + U and x - U)
    in S. All p keys are the slots of one packed sum, the sum of
    ``rows[w]`` over w in S (see ``_neighbour_rows``). in is at most
    |U| <= p - 2, so the key orders fragments as (out, in) does.

    A touched cell splits into fragments ordered by key, each keeping the
    cell's order; the first keeps the cell's index and the others are
    appended, so two partitions given the same splits stay matched cell
    by cell. Fragments are new lists, since partitions copied with
    ``list.copy`` share their cells. A waiting cell that splits queues
    its new fragments; any other cell queues all fragments but its
    largest, whose counts follow from the others' (as in nauty).
    Refinement stops early when the partition is discrete.

    Returns the list of per-splitter signatures (each touched cell with
    its fragments' keys and sizes). Given ``expected``, the signatures of
    the matching refinement on the other side, returns None at the first
    signature that differs instead.
    """
    unpack = row_layout(p, p * (p - 2)).unpack
    waiting = set(queue)
    trace = []
    while queue and len(cells) < p:
        s = queue.pop()
        waiting.discard(s)
        keys = unpack(sum(map(rows.__getitem__, cells[s])))
        key = keys.__getitem__
        touched = set(map(where.__getitem__, itertools.compress(range(p), keys)))
        signature = []
        splits = []
        for c in sorted(touched):
            cell = cells[c]
            if len(cell) == 1:
                signature.append((c, keys[cell[0]]))
                continue
            frags = [list(frag) for _, frag in itertools.groupby(sorted(cell, key=key), key)]
            signature.append((c, [(keys[f[0]], len(f)) for f in frags]))
            if len(frags) > 1:
                splits.append((c, frags))
        if expected is not None and signature != expected[len(trace)]:
            return None
        trace.append(signature)
        for c, frags in splits:
            indices = [c, *range(len(cells), len(cells) + len(frags) - 1)]
            cells[c] = frags[0]
            for i, frag in zip(indices[1:], frags[1:]):
                cells.append(frag)
                for x in frag:
                    where[x] = i
            if c in waiting:
                del indices[0]
            else:
                sizes = [len(f) for f in frags]
                del indices[sizes.index(max(sizes))]
            queue.extend(indices)
            waiting.update(indices)
    return trace


def _neighbour_rows(elements, p: int) -> list[int]:
    """Row w is X**w * R mod X**p - 1, for R the sum over u in U of
    (p-1) * X**(p-u) + X**u: slot x holds p-1 for each u with x + u = w
    and 1 for each u with x - u = w. So the sum of the rows over a set S
    holds every point's key (p-1)*out + in in S (``_refine``), each at
    most p(p-2)."""
    layout = row_layout(p, p * (p - 2))
    r = (p - 1) * layout.monomials(p - u for u in elements) + layout.monomials(elements)
    return list(layout.rotations(r, range(p)))


def _individualise(cells, where, c, x):
    """Split x off cell c into a new last cell; return its index."""
    cells[c] = [y for y in cells[c] if y != x]
    cells.append([x])
    where[x] = len(cells) - 1
    return where[x]


@lru_cache(maxsize=None)
def _walk_plan(p: int, size: int, order: int) -> tuple[int, int, RowLayout, tuple[int, ...]]:
    """The walk test's table for sets of s = ``size`` elements mod p with
    |M(U)| = ``order``. At most C(s+k, k) - 1 points have nonzero counts of
    walks of length 1..k from 0 (sums of multisets of steps from U), as
    many to 0, so at most n = 2*C(s+k, k) - 2 have a nonzero vector; with
    -1 in M(U) (``order`` even), U = -U, the walks to 0 are those from 0
    negated, and n = C(s+k, k) - 1. The vectors tie while p > n + 1, and
    the pairs of the two-point test while two points have both vectors
    zero, so while p > 2n + 1. K = ``last`` is the least k >= WALK_LENGTH
    with p <= n + 1, where the walks could reach every point, but at most
    LONGEST_WALK. The pairs are tested at K alone, if they need not tie
    there, and with order 1 the vectors from the least k >= 2 where they
    need not tie (length 1 alone, vectors in {0, 1}**2, tells at most 4
    apart): ``first`` is the first length tested, or K + 1 for no test.
    A walk's first k - 1 steps fix its last, so out_k <= s**(k-1), whose
    bits make length k's field in a key. The fields share one slot if
    they fit 32 bits; else the slot holds the longest, and lengths share
    a key in order while they fit (64-bit products were 2x slower at
    p = 97)."""
    def reach(k):  # n + 1
        multisets = math.comb(size + k, k)
        return multisets if order % 2 == 0 else 2 * multisets - 1
    last = next((k for k in range(WALK_LENGTH, LONGEST_WALK) if p <= reach(k)), LONGEST_WALK)
    pairs = last if p <= 2 * reach(last) - 1 else last + 1
    first = next((k for k in range(2, last) if order == 1 and p <= reach(k)), pairs)
    widths = [(size ** k).bit_length() for k in range(last)]
    layout = row_layout(p, (1 << (sum(widths) if sum(widths) <= 32 else widths[-1])) - 1)
    shifts, used = [], 0
    for width in widths:
        if used + width > layout.width:
            used = 0
        shifts.append(used)
        used += width
    return first, last, layout, tuple(shifts)


def _walks_separate(elements, p: int, order: int) -> bool:
    """Whether walk counts show that the maps fixing 0 number ``order``,
    |M(U)|, so that they are the multipliers x -> a*x, a in M(U).

    With R = sum of X**u over U, slot x of R**k mod X**p - 1 counts
    out_k(x), the walks of length k from 0 to x. The walks from x to 0
    are those from 0 to -x translated, so in_k(x) = out_k(-x). A map
    fixing 0 that preserves U-differences is an automorphism of the
    digraph, so it carries the walks from 0 to x onto those from 0 to its
    image, and keeps x's vector v(x) = (out_1..K(x), in_1..K(x)), K =
    ``last`` of ``_walk_plan``. The walks from x0 to y are those from 0
    to y - x0 translated, so a map fixing 0 and x0 keeps v(y - x0) too.
    The test passes when

    - ``order`` is 1 and the p vectors v(x) are pairwise distinct: every
      point is fixed, and the identity is the only map; or
    - some class of equal vectors holds exactly ``order`` points, and
      for one x0 != 0 in it the pairs (v(y), v(y - x0)) are pairwise
      distinct (``_separated``). The multipliers keep every v, so
      M(U) * x0, of ``order`` points, lies in the orbit of x0, which lies
      in its class: the orbit is M(U) * x0. The maps fixing 0 and x0
      keep every pair, so the identity is the only one, and by
      orbit-stabilizer the maps fixing 0 number ``order``.

    Nothing here assumes Burnside's theorem; that the multipliers are
    among the maps is checked by the caller. K - 1 products build R**2,
    ..., R**K, each added into a key row in its length's field
    (``_walk_plan``): slot x of the keys holds out_1..k(x) and slot -x
    in_1..k(x). With order 1 the vectors are compared at each length k
    from ``first`` on, one unpack each, and the test returns at the first
    that separates: longer vectors only refine the partition, so the
    answer is the one for K. The pairs are compared at K alone.
    """
    first, last, layout, shifts = _walk_plan(p, len(elements), order)
    if first > last:
        return False
    key = r = power = layout.monomials(elements)
    fold, unpack = layout.fold, layout.unpack
    done = []
    for k in range(1, last):
        power = fold(power * r)
        if shifts[k]:
            key += power << shifts[k]
        else:  # length k + 1 starts a new key
            keys = unpack(key)
            done += keys, keys[:1] + keys[:0:-1]
            key = power
        if k >= first - 1:
            keys = unpack(key)
            columns = (*done, keys, keys[:1] + keys[:0:-1])
            if order == 1 and len(set(zip(*columns))) == p:
                return True
            if k == last - 1:
                return _separated(list(zip(*columns)), order)
    return False


def _separated(vectors, order: int) -> bool:
    """The two-point test of ``_walks_separate`` on the vectors v(x),
    x = 0..p-1: whether for some x0 != 0 whose class of equal vectors
    holds ``order`` points the pairs (v(y), v(y - x0)) are pairwise
    distinct. One x0 is tried per such class, its least member: the
    multipliers keep every v, so they carry the pairs of x0 onto those of
    a*x0. The points of one class need pairs that differ in v(y - x0), so
    no class may hold more points than there are classes, and the largest
    class C and C + x0 may share at most one point. Slot x0 of the packed
    product of C and -C counts the points they share, for every x0 at
    once."""
    p = len(vectors)
    sizes = collections.Counter(vectors)
    largest = max(sizes.values())
    if largest > len(sizes):
        return False
    big = next(v for v, size in sizes.items() if size == largest)
    members = list(itertools.compress(range(p), map(big.__eq__, vectors)))
    layout = row_layout(p, p)
    shared = layout.unpack(layout.fold(layout.monomials(members)
                                       * layout.monomials([-y % p for y in members])))
    tried = {vectors[0]}
    for x0 in itertools.compress(range(p), map((2).__gt__, shared)):
        vector = vectors[x0]
        if sizes[vector] == order and vector not in tried:
            tried.add(vector)
            if len(set(zip(vectors, vectors[-x0:] + vectors[:-x0]))) == p:
                return True
    return False


def _maps_fixing_zero(dset: DiffSet, stabilizer: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every difference-preserving map with pi(0) = 0, given M(U).

    When walk counts show that the maps fixing 0 are the multipliers
    (``_walks_separate``), those are x -> a*x for a in M(U), ascending
    from the identity (``mult_stabilizer`` is sorted), each other one
    re-checked by ``_preserves`` as the search re-checks its maps;
    otherwise, or if a check fails, it is what ``_search_fixing_zero``
    finds. Both give the same maps, so scan and aut, which read only
    their number or sort them, never depend on which step decided. Sets
    too small for their walks to decide skip the test (``_walk_plan``),
    and so do sets with |M(U)| >= 3, where it fails: for a != b in M(U)
    other than 1 and any x0 != 0, y = (1-b)*x0 / (a-b) and y' = a*y
    differ, v(y') = v(y) and y' - x0 = b*(y - x0), so their pairs tie.
    """
    p = dset.field.p
    elements = dset.elements
    if len(stabilizer) < 3 and _walks_separate(elements, p, len(stabilizer)):
        lines = _multiplier_tables(p)
        maps = [lines[a] for a in stabilizer[1:]]
        if all(_preserves(images, elements, p) for images in maps):
            return [lines[1], *maps]
    return _search_fixing_zero(dset)


def _search_fixing_zero(dset: DiffSet) -> list[tuple[int, ...]]:
    """Every difference-preserving map with pi(0) = 0, by individualise-refine.

    Positions and values carry matched ordered partitions, both starting
    as {0} | rest and refined alike; cell i of positions must map onto
    cell i of values. The positions side never depends on the values
    chosen, so it is refined once per level: individualise the first
    point of the smallest non-singleton cell, refine, repeat until the
    partition is discrete, recording each refinement's signatures. The
    values side is searched depth first (``_descend``): each value of the
    matching cell is individualised in turn and refined against the
    recorded signatures, and a branch dies at the first key or fragment
    size that differs. At a discrete partition the map is read off cell
    by cell and re-checked.

    When one level makes the partition discrete, its branches x0 -> y,
    for x0 the point positions individualise there, are tried with a
    known map first, as nauty skips branches by the automorphisms it
    knows. Branch x0 -> x0 then holds the identity alone, so two maps in
    one branch, which would differ by a map fixing 0 and x0, are equal:
    every branch holds at most one map. If x -> a*x with a = y / x0
    passes ``_preserves``, it is the branch's one map and its search is
    skipped; otherwise the branch is searched. Nothing here assumes
    Burnside's theorem: a candidate that fails the check costs a search.
    With more levels every branch is searched. Branches are taken, and
    maps returned, in the order of the plain depth-first search.
    """
    p = dset.field.p
    elements = dset.elements
    rows = _neighbour_rows(elements, p)
    cells, where = [[0], list(range(1, p))], [0] + [1] * (p - 1)
    # Every point has |U| out- and in-neighbours in all of F_p, so {0}
    # alone is enough to start from.
    _refine(cells, where, [0], rows, p)
    # Both sides refine {0} | rest alike, so the values side starts here.
    root, root_where = cells.copy(), where.copy()
    levels = []
    while len(cells) < p:
        _, c = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)
        queue = [_individualise(cells, where, c, cells[c][0])]
        levels.append((c, _refine(cells, where, queue, rows, p)))
    positions = [cell[0] for cell in cells]
    if len(levels) != 1:
        return _descend([(0, root, root_where)], levels, positions, rows, elements)

    # One level makes the partition discrete: the identity alone fixes x0.
    c, _ = levels[0]
    x0, *others = root[c]
    inverse = pow(x0, -1, p)
    solutions = []
    for y in reversed(others):
        a = y * inverse % p
        images = [a * x % p for x in range(p)]
        if _preserves(images, elements, p):
            solutions.append(tuple(images))
        else:
            solutions += _descend(_children(0, root, root_where, [y], levels, rows),
                                  levels, positions, rows, elements)
    return solutions + [tuple(range(p))]


def _children(depth, values, value_where, ys, levels, rows):
    """The nodes one level below (values, value_where): for each y of
    ``ys`` in turn, y individualised in the cell of ``levels[depth]`` and
    refined, kept when it matches that level's recorded signatures."""
    c, trace = levels[depth]
    p = len(value_where)
    nodes = []
    for y in ys:
        child, child_where = values.copy(), value_where.copy()
        queue = [_individualise(child, child_where, c, y)]
        if _refine(child, child_where, queue, rows, p, trace) is not None:
            nodes.append((depth + 1, child, child_where))
    return nodes


def _descend(stack, levels, positions, rows, elements):
    """The maps below the nodes on ``stack``, searched depth first from
    its top, each read off a discrete partition and checked."""
    p = len(positions)
    solutions = []
    while stack:
        depth, values, value_where = stack.pop()
        if depth == len(levels):
            images = [0] * p
            for x, cell in zip(positions, values):
                images[x] = cell[0]
            if _preserves(images, elements, p):
                solutions.append(tuple(images))
            continue
        c, _ = levels[depth]
        stack += _children(depth, values, value_where, values[c], levels, rows)
    return solutions


def enumerate_diff_preserving(field: PrimeField, dset: DiffSet) -> AutResult:
    """Every difference-preserving permutation, sorted by image table.

    Translations x -> x + b preserve every difference, so each solution is
    a translate of exactly one solution fixing 0. The search therefore
    finds the maps fixing 0 (``_maps_fixing_zero``) and adds the p
    translates of each, sorted so the result comes out in the same
    lexicographic order as a search over all roots. Burnside's count law
    is checked on the maps fixing 0 (``_checked_maps_fixing_zero``), so a
    result is only ever returned with ``all_affine`` true. Each translate of a
    bijection is one, so its ``Perm`` is built unchecked.
    """
    if dset.field != field:
        raise FieldMismatch("difference set built over a different modulus")
    p = field.p
    stabilizer = mult_stabilizer(dset)
    fixed = _checked_maps_fixing_zero(dset, stabilizer)
    shifted = [tuple(range(b, p)) + tuple(range(b)) for b in range(p)]
    tables = sorted(
        tuple(map(shift.__getitem__, s)) for s in fixed for shift in shifted
    )
    perms = tuple(Perm._trusted(field, t) for t in tables)
    return AutResult(dset, perms, stabilizer, True)


def assert_all_affine(result: AutResult) -> None:
    """Raise PropositionViolated unless the result looks like a theorem.

    Checks that every automorphism is affine and that the count equals
    p * |M(U)|; either failure is a bug, never a property of the input.
    """
    _assert_theorem(
        result.diff_set,
        [q.images for q in result.automorphisms],
        len(result.automorphisms),
        len(result.mult_stabilizer),
    )


def _assert_theorem(dset: DiffSet, tables, count: int, stabilizer_size: int) -> None:
    """Raise unless every image table is affine and count == p * stabilizer_size.
    A table equal to the line x -> a*x, a = images[1] != 0, skips ``affine_coeffs``."""
    p = dset.field.p
    lines = _multiplier_tables(p)
    for images in tables:
        if not (images[1] and images == lines[images[1]]) and affine_coeffs(images, p) is None:
            raise PropositionViolated(
                "difference-preserving permutation is not affine",
                payload={"p": p, "diff_set": list(dset.elements), "permutation": list(images)})
    expected = p * stabilizer_size
    if count != expected:
        raise PropositionViolated(
            "automorphism count disagrees with p * |stabilizer|",
            payload={"p": p, "diff_set": list(dset.elements), "count": count,
                     "expected": expected})


def canonical_subsets(labels):
    """Every non-empty proper subset of 1..p-1, in (size, lex) order, as a
    tuple of labels.

    ``labels`` is the sequence of the labels of 1, ..., p-1 in order: the
    residues themselves (``field.nonzero()``), their bits or their decimal
    texts. A set's tuple holds its members' labels, ascending by member, so
    the order is the same whatever the labels are; each caller builds its
    labels once and does no per-element work per set.
    """
    return itertools.chain.from_iterable(
        itertools.combinations(labels, size) for size in range(1, len(labels))
    )


def all_diff_sets(field: PrimeField):
    """Every valid difference set mod p, in canonical (size, lex) order."""
    for combo in canonical_subsets(field.nonzero()):
        yield DiffSet(field, combo)


def _checked_maps_fixing_zero(dset: DiffSet, stabilizer: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The image tables of the maps fixing 0, given M(U), once Burnside's
    count law holds on them.

    Every solution is a translate of exactly one map fixing 0, and every
    translate of an affine map is affine, so "all p * |fixed| maps are
    affine and number p * |M(U)|" is decided without the translates.
    """
    fixed = _maps_fixing_zero(dset, stabilizer)
    _assert_theorem(dset, fixed, dset.field.p * len(fixed), len(stabilizer))
    return fixed


def _scan_rows(dsets, stabilizers) -> list[ScanRow]:
    """The scan row of each set, given its M(U), in order, in one pass, each
    checked on the image tables of its maps fixing 0 alone."""
    rows = []
    for dset, stabilizer in zip(dsets, stabilizers):
        fixed = _checked_maps_fixing_zero(dset, stabilizer)
        size, count = len(dset.elements), dset.field.p * len(fixed)
        rows.append(ScanRow._trusted(dset.elements, size, len(stabilizer), count, True,
                                     min_nonzero_power_sum(dset)))
    return rows


def _check_scan(field: PrimeField) -> None:
    """Raise InputError unless a scan mod p may run."""
    p = field.p
    if p < 3:
        raise InputError(f"no difference set exists mod {p}; scan needs p >= 3")
    if p > SCAN_PRIME_CAP:
        raise InputError(
            f"subset scan is capped at p <= {SCAN_PRIME_CAP} "
            f"({2 ** (p - 1) - 2} subsets at p={p})"
        )


def _scan_sets(dsets: list[DiffSet], stabilizers: list[tuple], jobs: int) -> list[ScanRow]:
    """``_scan_rows`` of the sets and their M(U), in order.

    At most ``min(jobs, len(dsets), os.cpu_count())`` worker processes
    start; with one, the sets are scanned in this process, and otherwise
    in about 8 chunks a worker. The pool is imported only here:
    concurrent.futures.process pulls in multiprocessing (about 2.5 MB
    resident), which no other command needs.
    """
    workers = min(jobs, len(dsets), os.cpu_count() or 1)
    if workers == 1:
        return _scan_rows(dsets, stabilizers)
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(dsets) // (workers * 8))
    starts = range(0, len(dsets), chunk)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows = pool.map(_scan_rows, [dsets[i:i + chunk] for i in starts],
                        [stabilizers[i:i + chunk] for i in starts])
        return list(itertools.chain.from_iterable(rows))


def scan_all_subsets(field: PrimeField) -> list[ScanRow]:
    """Run the enumeration over every valid set mod p, one row each, in
    canonical subset order.

    Every set is searched, in this process; this is the oracle for
    ``walk_orbits``, and it shares none of the walk's orbit or worker code.
    """
    _check_scan(field)
    dsets = list(all_diff_sets(field))
    return _scan_rows(dsets, list(map(mult_stabilizer, dsets)))


def walk_orbits(field: PrimeField, jobs: int = 1) -> tuple[list[ScanRow], list[int]]:
    """The checked row of each orbit representative, and each set's orbit.

    The group F_p* x {U -> U, U -> U^c} acts on the valid sets, and every
    row field but ``elements`` and ``size`` is constant on an orbit:

    - Aut(aU) = a Aut(U) a^-1 and Aut(U^c) = Aut(U), so the automorphism
      counts agree;
    - M(aU) = M(U^c) = M(U), since F_p* is abelian and each a permutes it;
    - S_k(aU) = a^k S_k(U), and S_k(U^c) = -S_k(U) for k <= p-2, where the
      k-th powers of F_p* sum to 0; S_(p-1) = |U| mod p is nonzero for
      every valid set, so the least k with S_k != 0 agrees.

    The sets of at most (p-1)/2 elements are walked in ``canonical_subsets``
    order, each as its word over ``cyclic_table`` (bit k for g**k in U),
    the sum of its tuple over the bits of 1..p-1. The first set met of an
    orbit is its least member and its representative, built unchecked,
    and its word's period t gives M(U) = <g**t> (``_period``); a table of
    2**(p-1) slots maps the t distinct rotations of its word (g**r * U)
    to its orbit, and at size (p-1)/2, where U^c has U's size, their
    complements too. Within one size A precedes B exactly when min(A ^ B)
    is in A, so complementing reverses the order: the orbits of size
    p-1-k are those of size k reversed. Only the representatives are
    searched (``_scan_sets``). Returns their rows, in orbit order, and the
    orbit of every set in canonical order, the same for any ``jobs``.
    """
    _check_scan(field)
    if jobs < 1:
        raise InputError(f"worker count must be >= 1, got {jobs}")
    p = field.p
    n = p - 1
    half = n // 2
    full = (1 << n) - 1
    bits = cyclic_table(p).bits
    sizes = [math.comb(n, k) for k in range(1, half + 1)]
    words = map(sum, itertools.islice(canonical_subsets(bits[1:]), sum(sizes)))
    orbit_of = [None] * (full + 1)
    reps, stabilizers, orbits = [], [], []
    for word, combo in zip(words, canonical_subsets(field.nonzero())):
        orbit = orbit_of[word]
        if orbit is None:
            orbit = len(reps)
            reps.append(DiffSet._trusted(field, combo))
            period = _period(word, p)
            stabilizers.append(subgroup_of_index(p, period))
            double = word | word << n
            flip = full if len(combo) == half else 0
            for r in range(period):
                image = double >> r & full
                orbit_of[image] = orbit_of[image ^ flip] = orbit
        orbits.append(orbit)
    starts = list(itertools.accumulate(sizes, initial=0))
    for k in range(half - 1, 0, -1):
        orbits += orbits[starts[k - 1]:starts[k]][::-1]
    return _scan_sets(reps, stabilizers, jobs), orbits
