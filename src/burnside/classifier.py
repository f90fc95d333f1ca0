"""Burnside's dichotomy as an algorithm.

A transitive permutation group of prime degree is doubly transitive or
solvable. Given generators, ``classify`` first tries to build a
solvability certificate: a relabeling turning some p-cycle into
translation by one and the affine coefficients of every (conjugated)
generator. The multipliers of those coefficients generate the invariant
difference set and give the group order, at most p(p-1)/2, which rules
out double transitivity: a doubly transitive group has order divisible
by p(p-1). Only a group without a certificate builds the orbit of one
ordered pair, which must then be full. ``verify_certificate`` re-checks
the certificate independently, in closed form: it never lists the group.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Optional

from .errors import BurnsideError, InputError, InternalInvariantViolation
from .fields import DiffSet, PrimeField, Value, _fill, cyclic_table, require_ints, subgroup_of_index
from .groups import GroupSpec, bfs_elements, is_doubly_transitive, is_transitive
from .permutations import (
    AffineCoeffs,
    Perm,
    conjugate_affine_coeffs,
    cycle_labels,
    relabel_to_translation,
)

NOT_TRANSITIVE = "NOT_TRANSITIVE"
DOUBLY_TRANSITIVE = "DOUBLY_TRANSITIVE"
SOLVABLE_AFFINE = "SOLVABLE_AFFINE"


class Classification(Value):
    """The verdict for one generated group, with its witness if solvable."""

    __slots__ = ("field", "variant", "relabeling", "diff_set", "embedding", "group_order")

    def __init__(self, field: PrimeField, variant: str, relabeling: Optional[Perm] = None,
                 diff_set: Optional[DiffSet] = None, embedding: Optional[tuple] = None,
                 group_order: Optional[int] = None) -> None:
        _fill(self, field, variant, relabeling, diff_set, embedding, group_order)

    def to_payload(self) -> dict:
        payload: dict = {"p": self.field.p, "variant": self.variant}
        if self.variant == SOLVABLE_AFFINE:
            payload["relabeling"] = list(self.relabeling.images)
            payload["diff_set"] = list(self.diff_set.elements)
            payload["embedding"] = [{"a": a, "b": b} for a, b in self.embedding]
            payload["group_order"] = self.group_order
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Classification":
        """Inverse of ``to_payload``; malformed payloads raise InputError.

        The variant must be one of the three verdict constants. Every
        number must be an int (not a bool): a float or a numeric string is
        rejected, never truncated or parsed.
        """
        try:
            field = PrimeField(payload["p"])
            variant = payload["variant"]
            if variant not in (NOT_TRANSITIVE, DOUBLY_TRANSITIVE, SOLVABLE_AFFINE):
                raise InputError(f"unknown classification variant {variant!r}")
            if variant != SOLVABLE_AFFINE:
                return cls(field, variant)
            embedding = tuple(AffineCoeffs(c["a"], c["b"]) for c in payload["embedding"])
            group_order = payload["group_order"]
            require_ints([v for c in embedding for v in c] + [group_order],
                         "embedding and group_order")
            return cls(
                field,
                variant,
                relabeling=Perm(field, tuple(payload["relabeling"])),
                diff_set=DiffSet(field, tuple(payload["diff_set"])),
                embedding=embedding,
                group_order=group_order,
            )
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed classification payload: {exc!r}") from exc


def classify(spec: GroupSpec) -> Classification:
    """Decide the dichotomy: NOT_TRANSITIVE, where it does not apply, else
    the certificate if there is one, else DOUBLY_TRANSITIVE, which the orbit
    of (1, 0) must confirm or InternalInvariantViolation is raised."""
    field = spec.field
    if not is_transitive(spec):
        return Classification(field, NOT_TRANSITIVE)
    certificate = _certificate(spec)
    if certificate is not None:
        return certificate
    if is_doubly_transitive(spec):
        return Classification(field, DOUBLY_TRANSITIVE)
    raise InternalInvariantViolation(
        "transitive group that is neither doubly transitive nor a proper "
        "subgroup of a conjugate of AGL(1, p)",
        payload={"p": field.p, "generators": [list(g.images) for g in spec.generators]},
    )


def _certificate(spec: GroupSpec) -> Optional[Classification]:
    """The SOLVABLE_AFFINE verdict of a transitive group, or None if it is
    not a proper subgroup of a conjugate of AGL(1, p).

    A non-identity affine map fixes at most one point, so a generator that
    fixes two or more, such as a transposition, rules the group out before
    any search. A proper subgroup T.A of AGL(1, p) has order
    p*|A| <= p(p-1)/2, so its first p-cycle is among that many elements of
    ``bfs_elements``. Relabelled by it, the group is T.A, with T the
    translations and A the group the multipliers a generate. The orbit of
    (1, 0) is {(a + b, b) : a in A}, so U, its differences, is A itself,
    the group order is p*|U|, and U = F_p* would make the group AGL(1, p).
    """
    field = spec.field
    p = field.p
    if any(2 <= sum(v == i for i, v in enumerate(g.images)) < p for g in spec.generators):
        return None
    elements = islice(bfs_elements(field, spec.generators), p * (p - 1) // 2)
    tau = next((g for g in elements if cycle_labels(g) is not None), None)
    if tau is None:
        return None
    lam = relabel_to_translation(tau)
    embedding = tuple(conjugate_affine_coeffs(g.images, lam.images, p) for g in spec.generators)
    if None in embedding:
        return None
    # A is <g**t> for F_p* = <g> and t the gcd of p-1 and each log_g(a).
    bits = cyclic_table(p).bits
    t = math.gcd(p - 1, *(bits[c.a].bit_length() - 1 for c in embedding))
    if t == 1:
        return None
    units = subgroup_of_index(p, t)
    return Classification(
        field,
        SOLVABLE_AFFINE,
        relabeling=lam,
        diff_set=DiffSet._trusted(field, units),
        embedding=embedding,
        group_order=p * len(units),
    )


def verify_certificate(spec: GroupSpec, classification: Classification) -> bool:
    """Re-derive everything a classification claims; True only if all holds.

    For the solvable branch: the group must be transitive, each generator
    g and its claimed (a, b) must satisfy L(g(j)) = a*L(j) + b mod p for
    every j, so that L*g*L^-1 is x -> a*x + b with a nonzero mod p, and
    a*U must be U, which for an affine map is the same as preserving U's
    differences; ``group_order`` must be an int, as ``from_payload``
    requires, equal to p*|A| for A the group the multipliers a_i generate.
    Affine conjugates put the group inside AGL(1, p), which is solvable;
    being transitive, it holds the translations, so its order is p*|A|
    (Dixon and Mortimer, Permutation Groups, 1996). F_p* is cyclic, so |A|
    is the least m <= p-1 with a_i**m = 1 for every i. U is a union of
    cosets of A, so 1 in U and p*|U| = group_order make U = A. A ``DiffSet``
    has at most p-2 elements, so that order is at most p(p-1)/2, and p(p-1)
    divides the order of a doubly transitive group: no pair orbit is
    needed. The relabeling must be a ``Perm`` and U a ``DiffSet``, both of
    the group's degree, and the embedding one pair (a, b) per generator,
    an ``AffineCoeffs`` or a plain pair. Never raises; any mismatch,
    malformed part or internal error yields False.
    """
    try:
        field = spec.field
        p = field.p
        if not isinstance(classification, Classification) or classification.field != field:
            return False
        if classification.variant == NOT_TRANSITIVE:
            return not is_transitive(spec)
        if classification.variant == DOUBLY_TRANSITIVE:
            return is_doubly_transitive(spec)
        if classification.variant != SOLVABLE_AFFINE:
            return False
        if not is_transitive(spec):
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
        if lam.field != field or dset.field != field:
            return False
        labels, units = lam.images, list(dset.elements)
        for g, (a, b) in zip(spec.generators, embedding):
            if conjugate_affine_coeffs(g.images, labels, p) != (a % p, b % p):
                return False
            if sorted(a * u % p for u in units) != units:
                return False
        if 1 not in dset or p * len(dset) != classification.group_order:
            return False
        exponent = next(m for m in range(1, p) if all(pow(a, m, p) == 1 for a, _ in embedding))
        return classification.group_order == p * exponent
    except BurnsideError:
        return False
