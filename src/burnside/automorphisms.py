"""Exhaustive search for difference-preserving permutations.

These are the automorphisms of the circulant digraph whose arcs join pairs
with difference in a fixed set U. Two independent enumerations are kept: a
pruned backtracking search (the workhorse) and a plain factorial filter
(the cross-check at tiny degree). Every permutation found must be affine
with a multiplier stabilizing U; anything else is reported as a violation,
since it would contradict a theorem.
"""

from __future__ import annotations

import itertools
import os
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


def enumerate_diff_preserving(field: PrimeField, dset: DiffSet) -> AutResult:
    """Backtracking enumeration of every difference-preserving permutation.

    Translations x -> x + b preserve every difference, so each solution is
    a translate of exactly one solution fixing 0. The search therefore pins
    pi(0) = 0 and adds the p translates at the end, sorted so the result
    comes out in the same lexicographic order as a search over all roots.

    Images are assigned in position order 0, 1, ..., p-1 with candidate
    values ascending, pruning with the biconditional
    i - j in U  <=>  pi(i) - pi(j) in U on every assigned pair. Candidate
    sets are kept as bitmasks so the pruning is a pair of table lookups.
    """
    if dset.field != field:
        raise FieldMismatch("difference set built over a different modulus")
    p = field.p
    member = dset.indicator()
    full = (1 << p) - 1

    def rotations(mask: int) -> list[int]:
        return [((mask << w) | (mask >> (p - w))) & full for w in range(p)]

    # For an assigned value w, the values consistent with a forward
    # difference in U are w + U; with one outside U, w + (nonzero non-U).
    # Same split for backward differences via w - U.
    add_in = rotations(sum(1 << u for u in dset.elements))
    sub_in = rotations(sum(1 << (p - u) for u in dset.elements))
    add_out = [full & ~m & ~(1 << w) for w, m in enumerate(add_in)]
    sub_out = [full & ~m & ~(1 << w) for w, m in enumerate(sub_in)]

    solutions: list[tuple[int, ...]] = []
    img = [0] * p

    def extend(k: int, used: int, allowed: list[int]) -> None:
        mask = allowed[k] & ~used & full
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            img[k] = v
            if k + 1 == p:
                solutions.append(tuple(img))
                continue
            used_v = used | low
            nxt = allowed.copy()
            viable = True
            for t in range(k + 1, p):
                fwd = add_in[v] if member[t - k] else add_out[v]
                bwd = sub_in[v] if member[(k - t) % p] else sub_out[v]
                cut = nxt[t] & fwd & bwd
                if (cut & ~used_v) == 0:
                    viable = False
                    break
                nxt[t] = cut
            if viable:
                extend(k + 1, used_v, nxt)

    extend(0, 0, [1] + [full] * (p - 1))
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
    p = result.diff_set.field.p
    for q in result.automorphisms:
        if recognize_affine(q) is None:
            raise PropositionViolated(
                "difference-preserving permutation is not affine",
                payload={
                    "p": p,
                    "diff_set": list(result.diff_set.elements),
                    "permutation": list(q.images),
                },
            )
    expected = p * len(result.mult_stabilizer)
    if len(result.automorphisms) != expected:
        raise PropositionViolated(
            "automorphism count disagrees with p * |stabilizer|",
            payload={
                "p": p,
                "diff_set": list(result.diff_set.elements),
                "count": len(result.automorphisms),
                "expected": expected,
            },
        )


def all_diff_sets(field: PrimeField):
    """Every valid difference set mod p, in canonical (size, lex) order."""
    for size in range(1, field.p - 1):
        for combo in itertools.combinations(range(1, field.p), size):
            yield DiffSet(field, combo)


def _scan_one(args: tuple[int, tuple[int, ...]]) -> ScanRow:
    p, elements = args
    field = PrimeField(p)
    dset = DiffSet(field, elements)
    result = enumerate_diff_preserving(field, dset)
    assert_all_affine(result)
    return ScanRow(
        elements=dset.elements,
        size=len(dset),
        stabilizer_size=len(result.mult_stabilizer),
        automorphism_count=len(result.automorphisms),
        all_affine=result.all_affine,
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
