"""Slow, independent routes to facts the program computes another way.

Nothing in ``src/`` calls these; the tests compare the program against
them. ``tests/test_package_boundary.py`` sends code here that only tests
call.
"""

import itertools
import math
from collections import Counter
from itertools import zip_longest

import burnside.automorphisms
from burnside.automorphisms import (
    WALK_LENGTH,
    AutResult,
    ScanRow,
    assert_all_affine,
    canonical_subsets,
    check_preserves,
    mult_stabilizer,
)
from burnside.classifier import (
    DOUBLY_TRANSITIVE,
    NOT_TRANSITIVE,
    SOLVABLE_AFFINE,
    Classification,
)
from burnside.errors import BurnsideError, FieldMismatch, InputError
from burnside.fields import (
    DiffSet,
    PrimeField,
    _slot_width,
    binomial_mod_p,
    packed_powers,
    power_sums,
    require_ints,
    unpack_powers,
)
from burnside.groups import GroupSpec, is_doubly_transitive, is_transitive, orbit_of_point
from burnside.permutations import Perm, make_affine
from burnside.polynomials import (
    FpPoly,
    canonical,
    mul_coeffs,
    pow_coeffs,
    shift_coeffs,
)

# 8! = 40320 permutations; 11! would be about 40 million.
NAIVE_DEGREE_CAP = 8


def cycle_type(perm: Perm) -> tuple[int, ...]:
    """Sorted multiset of cycle lengths, fixed points included."""
    return tuple(sorted(len(c) for c in perm.cycles()))


def relabel_by_cycle_type(perm: Perm) -> Perm:
    """``relabel_to_translation`` in two walks: the full cycle type first,
    then the labels along the orbit of 0."""
    p = perm.field.p
    if cycle_type(perm) != (p,):
        raise InputError(f"relabeling requires a {p}-cycle, got {perm.cycle_string()}")
    labels = [0] * p
    x = 0
    for k in range(p):
        labels[x] = k
        x = perm.images[x]
    return Perm(perm.field, labels)


def conjugate(perm: Perm, by: Perm) -> Perm:
    """by * perm * by^-1, by two ``compose`` calls and an ``inverse``."""
    return by.compose(perm).compose(by.inverse())


def perm_order(perm: Perm) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*(len(c) for c in perm.cycles()))


def power(perm: Perm, k: int) -> Perm:
    """perm composed with itself k times, or its inverse -k times for
    k < 0, one ``compose`` at a time."""
    step = perm if k >= 0 else perm.inverse()
    result = Perm.identity(perm.field)
    for _ in range(abs(k)):
        result = result.compose(step)
    return result


def evaluate(poly: FpPoly, x: int) -> int:
    """poly(x) mod p, by Horner's rule."""
    p = poly.field.p
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * x + c) % p
    return acc


def indicator(dset: DiffSet) -> tuple[bool, ...]:
    """The membership table of the set, indexed by residue."""
    table = [False] * dset.field.p
    for u in dset.elements:
        table[u] = True
    return tuple(table)


def all_multipliers_stabilizer(dset: DiffSet) -> tuple[int, ...]:
    """Every a in 1..p-1 with a*U = U, tried one by one; the oracle for
    ``mult_stabilizer``'s period of U's word."""
    p = dset.field.p
    target = set(dset.elements)
    return tuple(
        a for a in range(1, p) if {a * u % p for u in target} == target
    )


def mult_stabilizer_by_quotients(dset: DiffSet) -> tuple[int, ...]:
    """Every a with a*U = U, from the |U| candidates u/u0 for the least u0
    in U (a*u0 must land in U); the search over quotients that the
    rotation of U's word replaced."""
    p = dset.field.p
    elements = dset.elements
    member = indicator(dset)
    inverse = pow(elements[0], -1, p)
    candidates = sorted(u * inverse % p for u in elements)
    return tuple(
        a for a in candidates if all(member[a * u % p] for u in elements)
    )


def multiplier_orbit(field: PrimeField, multipliers) -> tuple[int, ...]:
    """The orbit of 1 under the maps x -> a*x, by breadth-first search over
    their p-point permutations; the oracle for the group the multipliers
    generate, which the certificate reads off ``cyclic_table``."""
    spec = GroupSpec(field, tuple(make_affine((a, 0), field) for a in multipliers))
    return tuple(orbit_of_point(spec, 1))


def label_walk(field: PrimeField) -> tuple[list[DiffSet], list[int]]:
    """The orbit representatives and every set's orbit index, as
    ``walk_orbits`` finds them, with each set's mask over the labels
    bit u-1 for u and each orbit marked by summing the p-1 scaled label
    rows over a representative; the oracle for the walk over rotated
    words. Nothing is searched."""
    p = field.p
    full = (1 << p - 1) - 1
    # scaled[a-1][u] is the bit of a*u: the mask of aU is the sum over U.
    scaled = [[0, *(1 << a * u % p - 1 for u in range(1, p))] for a in range(1, p)]
    masks = map(sum, canonical_subsets(scaled[0][1:]))
    orbit_of = [None] * (full + 1)
    reps, orbits = [], []
    for mask, combo in zip(masks, canonical_subsets(field.nonzero())):
        orbit = orbit_of[mask]
        if orbit is None:
            orbit = len(reps)
            reps.append(DiffSet(field, combo))
            for row in scaled:
                image = sum(map(row.__getitem__, combo))
                orbit_of[image] = orbit_of[image ^ full] = orbit
        orbits.append(orbit)
    return reps, orbits


def preserves_by_pairs(perm: Perm, dset: DiffSet) -> bool:
    """Whether perm(j + u) - perm(j) is in U for every u in U and every j,
    one pair at a time through a membership table; the oracle for the
    byte-packed ``check_preserves``."""
    p = perm.field.p
    images = perm.images
    member = indicator(dset)
    for u in dset.elements:
        for j in range(p):
            if not member[(images[(j + u) % p] - images[j]) % p]:
                return False
    return True


def power_sum_identities_by_points(perm: Perm, dset: DiffSet) -> list[bool]:
    """The per-w verdicts of the power-sum identities, with both sides
    summed point by point from the packed rows; the oracle for the
    column sums of ``trace._power_sum_identities``.

    Unequal packed sums are unpacked and compared slot by slot mod p.
    """
    p = perm.field.p
    rows = packed_powers(p)
    images = perm.images * 2
    elements = dset.elements
    passed = [True] * (p - 1)
    for i in range(p):
        lhs = sum(rows[images[i + u]] for u in elements)
        base = images[i]
        rhs = sum(rows[base + u] for u in elements)
        if lhs != rhs:
            lhs, rhs = unpack_powers(lhs, p), unpack_powers(rhs, p)
            passed = [ok and a == b for ok, a, b in zip(passed, lhs, rhs)]
    return passed


def packed_powers_by_pow(p: int) -> tuple[int, ...]:
    """The packed power rows of ``fields.packed_powers``, each slot filled
    by its own ``pow(x, w, p)``; the oracle for the column-at-a-time build."""
    slot = _slot_width(p)
    rows = []
    for x in range(p):
        row = 0
        for w in range(p - 1, 0, -1):
            row = (row << slot) | pow(x, w, p)
        rows.append(row)
    return tuple(rows + rows)


def shifted_power_identities_by_memo(poly: FpPoly, dset: DiffSet, w: int,
                                     sums: tuple[int, ...]) -> tuple[bool, bool]:
    """(vanishing, binomial) as ``trace._shifted_power_identities`` gives
    them, with each base's power built by ``pow_coeffs`` once (a memo keyed
    on the canonical base) and both sums of |U| powers taken column by
    column; the oracle for the kernel that sums every linear power at once.
    """
    field, p, cs = poly.field, poly.field.p, poly.coeffs
    memo: dict[tuple[int, ...], list[int]] = {}

    def power(base: list[int]) -> list[int]:
        key = canonical(base, p)
        if key not in memo:
            memo[key] = pow_coeffs(key, w, p)
        return memo[key]

    # a power is shorter than the others only when its base is zero
    total = canonical(map(sum, zip_longest(
        *[power([(cs[0] if cs else 0) + u, *cs[1:]]) for u in dset.elements],
        fillvalue=0)), p)
    shifted = canonical(map(sum, zip_longest(
        *[power(shift_coeffs(cs, u)) for u in dset.elements], fillvalue=0)), p)
    expansion = [len(dset)]
    for k in range(1, w + 1):
        expansion = mul_coeffs(expansion, cs) or [0]
        expansion[0] += binomial_mod_p(w, k, field) * sums[(k - 1) % (p - 1)]
        expansion = [c % p for c in expansion]
    return shifted == total, canonical(expansion, p) == total


def naive_enumerate(field: PrimeField, dset: DiffSet) -> AutResult:
    """Filter all p! permutations for those preserving U's differences.

    Shares no code with the search: membership is read from a Python set,
    affinity from constant first differences and M(U) from
    ``all_multipliers_stabilizer``.
    """
    if dset.field != field:
        raise FieldMismatch("difference set built over a different modulus")
    p = field.p
    if p > NAIVE_DEGREE_CAP:
        raise InputError(
            f"naive enumeration is capped at degree {NAIVE_DEGREE_CAP}, got {p}"
        )
    inside = set(dset.elements)
    pairs = [(i, j) for i in range(p) for j in range(p) if (i - j) % p in inside]
    found = [
        Perm(field, images)
        for images in itertools.permutations(range(p))
        if all((images[i] - images[j]) % p in inside for i, j in pairs)
    ]
    all_affine = all(
        len({(q.images[(i + 1) % p] - q.images[i]) % p for i in range(p)}) == 1
        for q in found
    )
    return AutResult(dset, tuple(found), all_multipliers_stabilizer(dset), all_affine)


def elementary_symmetric_via_newton(dset: DiffSet, m: int) -> list[int]:
    """First m elementary symmetric functions of the set, from the
    program's ``power_sums``.

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

    Distinct nonzero entries make it nonzero; the tests assert that.
    """
    p = dset.field.p
    rows = [[pow(u, k, p) for u in dset.elements] for k in range(1, len(dset) + 1)]
    return _det_mod_p(rows, p)


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


def neighbour_keys(elements, cell, p: int) -> list[int]:
    """The refinement key (p-1)*out + in of every point x, with out and in
    counted by ``Counter``: the u in U with x + u in the cell, and those
    with x - u in it; the oracle for the packed keys of ``_refine``."""
    outs = Counter((w - u) % p for w in cell for u in elements)
    ins = Counter((w + u) % p for w in cell for u in elements)
    return [(p - 1) * outs[x] + ins[x] for x in range(p)]


def equitable_refinement(elements, p: int) -> list[list[int]]:
    """The coarsest equitable partition of Z_p finer than {0} | rest, each
    cell ascending, in ascending order: plain colour refinement, each
    point recoloured by its colour and the sorted colours of x + U and of
    x - U until the number of colours stops growing."""
    colour = [0] + [1] * (p - 1)
    while True:
        signature = [(colour[x], tuple(sorted(colour[(x + u) % p] for u in elements)),
                      tuple(sorted(colour[(x - u) % p] for u in elements))) for x in range(p)]
        names = {s: i for i, s in enumerate(sorted(set(signature)))}
        refined = list(map(names.__getitem__, signature))
        if len(set(refined)) == len(set(colour)):
            break
        colour = refined
    cells = {}
    for x in range(p):
        cells.setdefault(colour[x], []).append(x)
    return sorted(cells.values())


def walk_counts(elements, p: int, length: int) -> list[list[int]]:
    """Row k-1 holds out_k(x), the walks of length k from 0 to x, for
    x = 0..p-1 and k = 1..``length``: the sum of out_(k-1)(x - u) over u
    in U, counted point by point."""
    out = [1] + [0] * (p - 1)
    rows = []
    for _ in range(length):
        out = [sum(out[(x - u) % p] for u in elements) for x in range(p)]
        rows.append(out)
    return rows


def walk_vectors(elements, p: int, length: int) -> list[tuple[int, ...]]:
    """v(x) = (out_1(x), in_1(x), ..., out_k(x), in_k(x)) with
    in_k(x) = out_k(-x), for k up to ``length``."""
    rows = walk_counts(elements, p, length)
    return [tuple(c for row in rows for c in (row[x], row[-x % p])) for x in range(p)]


def walks_separate_full(elements, p: int, length: int = WALK_LENGTH) -> bool:
    """The vectors alone, with no early exit or packed rows: True when the
    p vectors of lengths 1..``length`` are pairwise distinct."""
    return len(set(walk_vectors(elements, p, length))) == p


def walk_decision_full(elements, p: int, order: int, length: int) -> bool:
    """``_walks_separate`` by its definition, with no guard, filter or
    packed rows: order 1 and distinct vectors, or some x0 != 0 (every one
    is tried) whose class of equal vectors holds ``order`` points and
    whose pairs (v(y), v(y - x0)) are pairwise distinct."""
    vectors = walk_vectors(elements, p, length)
    if order == 1 and len(set(vectors)) == p:
        return True
    sizes = Counter(vectors)
    return any(sizes[vectors[x0]] == order
               and len({(vectors[y], vectors[(y - x0) % p]) for y in range(p)}) == p
               for x0 in range(1, p))


def affine_by_loop(images, p: int):
    """(a, b) with images[i] = a*i + b mod p for every i, or None; one
    comparison per point."""
    b = images[0]
    a = (images[1] - b) % p
    for i in range(p):
        if images[i] != (a * i + b) % p:
            return None
    return (a, b)


def first_nonzero_power_sum(dset: DiffSet) -> int:
    """The least k with S(k) != 0, read off the whole unpacked vector."""
    return next(k for k, s in enumerate(power_sums(dset), start=1) if s)


def scan_row_by_perms(dset: DiffSet) -> ScanRow:
    """A scan row the long way: every difference-preserving map as a
    validated ``Perm`` (the p translates of each map fixing 0), checked
    by ``assert_all_affine`` and by the per-point affinity loop, with
    M(U) from ``mult_stabilizer`` and the power-sum index from the
    unpacked vector. Reads the maps fixing 0 through the module, so a
    patched search is seen."""
    field = dset.field
    p = field.p
    fixed = burnside.automorphisms._maps_fixing_zero(dset, mult_stabilizer(dset))
    perms = tuple(Perm(field, [(v + b) % p for v in s]) for s in fixed for b in range(p))
    result = AutResult(dset, perms, mult_stabilizer(dset), True)
    assert_all_affine(result)
    assert all(affine_by_loop(q.images, p) is not None for q in perms)
    return ScanRow(dset.elements, len(dset), len(result.mult_stabilizer), len(perms),
                   True, first_nonzero_power_sum(dset))


def verify_by_conjugates(spec: GroupSpec, classification) -> bool:
    """``verify_certificate`` the long way: each conjugated generator built
    as a ``Perm``, compared with the checked ``make_affine`` map of its
    claimed (a, b), and run through the byte-packed ``check_preserves``;
    the oracle for the table identity and the a*U = U check. A part of
    another degree fails through the ``FieldMismatch`` these raise."""
    try:
        field = spec.field
        p = field.p
        if not isinstance(classification, Classification) or classification.field != field:
            return False
        if classification.variant == NOT_TRANSITIVE:
            return not is_transitive(spec)
        if classification.variant == DOUBLY_TRANSITIVE:
            return is_doubly_transitive(spec)
        if classification.variant != SOLVABLE_AFFINE or not is_transitive(spec):
            return False
        lam = classification.relabeling
        dset = classification.diff_set
        embedding = classification.embedding
        if not (isinstance(lam, Perm) and isinstance(dset, DiffSet)
                and isinstance(embedding, (tuple, list)) and len(embedding) == len(spec.generators)
                and all(isinstance(c, (tuple, list)) and len(c) == 2 for c in embedding)):
            return False
        require_ints([v for c in embedding for v in c] + [classification.group_order],
                     "embedding and group_order")
        for g, coeffs in zip(spec.generators, embedding):
            conj = conjugate(g, lam)
            if conj != make_affine(coeffs, field) or not check_preserves(conj, dset):
                return False
        if 1 not in dset or p * len(dset) != classification.group_order:
            return False
        exponent = next(m for m in range(1, p) if all(pow(a, m, p) == 1 for a, _ in embedding))
        return classification.group_order == p * exponent
    except BurnsideError:
        return False
