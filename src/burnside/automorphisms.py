"""Exhaustive search for difference-preserving permutations.

These are the automorphisms of the circulant digraph whose arcs join pairs
with difference in a fixed set U. Two independent enumerations are kept: an
individualise-refine search over the maps fixing 0 (the workhorse; partition
refinement as in nauty and Traces, McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 60, 2014) and a plain factorial filter
(the cross-check at tiny degree). Every permutation found must be affine
with a multiplier stabilizing U; anything else is reported as a violation,
since it would contradict a theorem.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass

from .errors import FieldMismatch, InputError, PropositionViolated
from .fields import DiffSet, PrimeField, min_nonzero_power_sum
from .permutations import Perm, recognize_affine

NAIVE_DEGREE_CAP = 8
SCAN_PRIME_CAP = 13
# Imported by the first parallel scan: concurrent.futures.process pulls in
# multiprocessing (about 2.5 MB resident), which no other command needs.
ProcessPoolExecutor = None


@dataclass(frozen=True)
class AutResult:
    """All difference-preserving permutations for one set U."""

    diff_set: DiffSet
    automorphisms: tuple[Perm, ...]
    mult_stabilizer: tuple[int, ...]
    all_affine: bool


@dataclass(frozen=True)
class ScanRow:
    """Per-set summary line of a full-subset scan."""

    elements: tuple[int, ...]
    size: int
    stabilizer_size: int
    automorphism_count: int
    all_affine: bool
    min_power_index: int


def _preserves(images, member, elements, p: int) -> bool:
    """Whether images[i] - images[j] is in U whenever i - j is in U."""
    for u in elements:
        for j in range(p):
            if not member[(images[(j + u) % p] - images[j]) % p]:
                return False
    return True


def check_preserves(perm: Perm, dset: DiffSet) -> bool:
    """Whether i - j in U implies perm(i) - perm(j) in U, for all i, j.

    For a permutation of a finite set the implication is automatically an
    equivalence (iterate the map), so one direction suffices.
    """
    if dset.field != perm.field:
        raise FieldMismatch("difference set and permutation use different moduli")
    return _preserves(perm.images, dset.indicator(), dset.elements, perm.field.p)


def mult_stabilizer(dset: DiffSet) -> tuple[int, ...]:
    """All a with a*U = U; a subgroup of the multiplicative group."""
    p = dset.field.p
    target = set(dset.elements)
    return tuple(
        a for a in range(1, p) if {a * u % p for u in target} == target
    )


def _refine(cells, where, queue, arcs, p, expected=None):
    """Refine an ordered partition in place until it is equitable.

    ``cells`` is the list of cells and ``where[x]`` the index of the cell
    holding x; ``queue`` holds the indices of the splitter cells. Each
    splitter S splits every cell it reaches by the key (out-count,
    in-count) of U-neighbours in S, counted through S's own elements:
    ``arcs[w]`` lists w - U and then w + U minus p, so an in-neighbour x
    is counted under x - p and ``where[x - p]`` is still x's cell.
    Fragments are ordered by key, the first keeps the cell's index and the
    others are appended, so two partitions given the same splits stay
    matched cell by cell. A waiting cell that splits queues its new
    fragments; any other cell queues all fragments but its largest, whose
    counts follow from the others' (as in nauty). Refinement stops early
    when the partition is discrete.

    Returns the list of per-splitter signatures (each touched cell with
    its fragments' keys and sizes). Given ``expected``, the signatures of
    the matching refinement on the other side, returns None at the first
    signature that differs instead.
    """
    waiting = set(queue)
    trace = []
    while queue and len(cells) < p:
        s = queue.pop()
        waiting.discard(s)
        count = Counter(itertools.chain.from_iterable(map(arcs.__getitem__, cells[s])))
        get = count.get
        signature = []
        splits = []
        for c in sorted(set(map(where.__getitem__, count))):
            cell = cells[c]
            if len(cell) == 1:
                x = cell[0]
                signature.append((c, get(x, 0), get(x - p, 0)))
                continue
            groups = {}
            for x in cell:
                groups.setdefault((get(x, 0), get(x - p, 0)), []).append(x)
            frags = sorted(groups.items())
            signature.append((c, [(key, len(f)) for key, f in frags]))
            if len(frags) > 1:
                splits.append((c, [f for _, f in frags]))
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


def _individualise(cells, where, c, x):
    """Split x off cell c into a new last cell; return its index."""
    cells[c] = [y for y in cells[c] if y != x]
    cells.append([x])
    where[x] = len(cells) - 1
    return where[x]


def _maps_fixing_zero(dset: DiffSet) -> list[tuple[int, ...]]:
    """Every difference-preserving map with pi(0) = 0, by individualise-refine.

    Positions and values carry matched ordered partitions, both starting
    as {0} | rest and refined alike; cell i of positions must map onto
    cell i of values. The positions side never depends on the values
    chosen, so it is refined once per level: individualise the first
    point of the smallest non-singleton cell, refine, repeat until the
    partition is discrete, recording each refinement's signatures. The
    values side is searched depth first: each value of the matching cell
    is individualised in turn and refined against the recorded signatures,
    and a branch dies at the first key or fragment size that differs. At
    a discrete partition the map is read off cell by cell and re-checked.
    """
    p = dset.field.p
    elements = dset.elements
    member = dset.indicator()
    arcs = [
        [(w - u) % p for u in elements] + [(w + u) % p - p for u in elements]
        for w in range(p)
    ]
    cells, where = [[0], list(range(1, p))], [0] + [1] * (p - 1)
    # Every point has |U| out- and in-neighbours in all of F_p, so {0}
    # alone is enough to start from.
    _refine(cells, where, [0], arcs, p)
    # Both sides refine {0} | rest alike, so the values side starts here.
    stack = [(0, cells.copy(), where.copy())]
    levels = []
    while len(cells) < p:
        _, c = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)
        queue = [_individualise(cells, where, c, cells[c][0])]
        levels.append((c, _refine(cells, where, queue, arcs, p)))
    positions = [cell[0] for cell in cells]

    solutions = []
    while stack:
        depth, values, value_where = stack.pop()
        if depth == len(levels):
            images = [0] * p
            for x, cell in zip(positions, values):
                images[x] = cell[0]
            if _preserves(images, member, elements, p):
                solutions.append(tuple(images))
            continue
        c, trace = levels[depth]
        for y in values[c]:
            child, child_where = values.copy(), value_where.copy()
            queue = [_individualise(child, child_where, c, y)]
            if _refine(child, child_where, queue, arcs, p, trace) is not None:
                stack.append((depth + 1, child, child_where))
    return solutions


def enumerate_diff_preserving(field: PrimeField, dset: DiffSet) -> AutResult:
    """Every difference-preserving permutation, sorted by image table.

    Translations x -> x + b preserve every difference, so each solution is
    a translate of exactly one solution fixing 0. The search therefore
    finds the maps fixing 0 (``_maps_fixing_zero``) and adds the p
    translates of each, sorted so the result comes out in the same
    lexicographic order as a search over all roots.
    """
    if dset.field != field:
        raise FieldMismatch("difference set built over a different modulus")
    p = field.p
    solutions = _maps_fixing_zero(dset)
    # A translate of an affine map is affine: checking the maps fixing 0
    # decides all_affine for the whole set.
    all_affine = all(recognize_affine(Perm(field, s)) is not None for s in solutions)
    shifted = [tuple(range(b, p)) + tuple(range(b)) for b in range(p)]
    tables = sorted(
        tuple(map(shift.__getitem__, s)) for s in solutions for shift in shifted
    )
    perms = tuple(Perm(field, t) for t in tables)
    return AutResult(dset, perms, mult_stabilizer(dset), all_affine)


def naive_enumerate(field: PrimeField, dset: DiffSet) -> AutResult:
    """Filter all p! permutations; the independent oracle for tiny p."""
    if dset.field != field:
        raise FieldMismatch("difference set built over a different modulus")
    p = field.p
    if p > NAIVE_DEGREE_CAP:
        raise InputError(
            f"naive enumeration is capped at degree {NAIVE_DEGREE_CAP}, got {p}"
        )
    member = dset.indicator()
    found = [
        Perm(field, images)
        for images in itertools.permutations(range(p))
        if _preserves(images, member, dset.elements, p)
    ]
    all_affine = all(recognize_affine(q) is not None for q in found)
    return AutResult(dset, tuple(found), mult_stabilizer(dset), all_affine)


def assert_all_affine(result: AutResult) -> None:
    """Raise PropositionViolated unless the result looks like a theorem.

    Checks that every automorphism is affine and that the count equals
    p * |M(U)|; either failure is a bug, never a property of the input.
    """
    _assert_theorem(
        result.diff_set,
        result.automorphisms,
        len(result.automorphisms),
        len(result.mult_stabilizer),
    )


def _assert_theorem(dset: DiffSet, perms, count: int, stabilizer_size: int) -> None:
    """Raise unless every perm is affine and count == p * stabilizer_size."""
    p = dset.field.p
    for q in perms:
        if recognize_affine(q) is None:
            raise PropositionViolated(
                "difference-preserving permutation is not affine",
                payload={
                    "p": p,
                    "diff_set": list(dset.elements),
                    "permutation": list(q.images),
                },
            )
    expected = p * stabilizer_size
    if count != expected:
        raise PropositionViolated(
            "automorphism count disagrees with p * |stabilizer|",
            payload={
                "p": p,
                "diff_set": list(dset.elements),
                "count": count,
                "expected": expected,
            },
        )


def all_diff_sets(field: PrimeField):
    """Every valid difference set mod p, in canonical (size, lex) order."""
    for size in range(1, field.p - 1):
        for combo in itertools.combinations(range(1, field.p), size):
            yield DiffSet(field, combo)


def _scan_one(args: tuple[int, tuple[int, ...]]) -> ScanRow:
    """One scan row, checked on the maps fixing 0 alone.

    Every solution is a translate of exactly one map fixing 0, and every
    translate of an affine map is affine, so "all p * |fixed| maps are
    affine and number p * |M(U)|" is decided without the translates.
    """
    p, elements = args
    field = PrimeField(p)
    dset = DiffSet(field, elements)
    fixed = [Perm(field, s) for s in _maps_fixing_zero(dset)]
    stabilizer = mult_stabilizer(dset)
    _assert_theorem(dset, fixed, p * len(fixed), len(stabilizer))
    return ScanRow(
        elements=dset.elements,
        size=len(dset),
        stabilizer_size=len(stabilizer),
        automorphism_count=p * len(fixed),
        all_affine=True,
        min_power_index=min_nonzero_power_sum(dset),
    )


def scan_all_subsets(
    field: PrimeField, jobs: int = 1, prime_cap: int = SCAN_PRIME_CAP
) -> list[ScanRow]:
    """Run the enumeration over every valid set mod p, one row each.

    Rows come back in canonical subset order regardless of the worker
    count, so serialized scans are byte-identical for any ``jobs``. At
    most ``min(jobs, subsets, os.cpu_count())`` worker processes start;
    with one, the scan runs in this process.
    """
    p = field.p
    if p < 3:
        raise InputError(f"no difference set exists mod {p}; scan needs p >= 3")
    if p > prime_cap:
        raise InputError(
            f"subset scan is capped at p <= {prime_cap} "
            f"({2 ** (p - 1) - 2} subsets at p={p}); raise the cap explicitly"
        )
    if jobs < 1:
        raise InputError(f"worker count must be >= 1, got {jobs}")
    tasks = [(p, dset.elements) for dset in all_diff_sets(field)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        return [_scan_one(task) for task in tasks]
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_one, tasks, chunksize=chunk))
