"""Burnside's dichotomy as an algorithm.

A transitive permutation group of prime degree is doubly transitive or
solvable. Given generators, ``classify`` either detects double
transitivity from the orbit of one ordered pair, or builds a solvability
certificate: a relabeling turning some p-cycle into translation by one
and the affine coefficients of every (conjugated) generator. The
multipliers of those coefficients generate the invariant difference set
and give the group order. ``verify_certificate`` re-checks the
certificate independently, in closed form: it never lists the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .automorphisms import check_preserves
from .errors import BurnsideError, InputError, InternalInvariantViolation
from .fields import DiffSet, PrimeField, require_ints
from .groups import GroupSpec, bfs_elements, orbit_of_point, transitivity_tests
from .permutations import AffineCoeffs, Perm, make_affine, recognize_affine, relabel_to_translation

NOT_TRANSITIVE = "NOT_TRANSITIVE"
DOUBLY_TRANSITIVE = "DOUBLY_TRANSITIVE"
SOLVABLE_AFFINE = "SOLVABLE_AFFINE"


@dataclass(frozen=True)
class Classification:
    """The verdict for one generated group, with its witness if solvable."""

    field: PrimeField
    variant: str
    relabeling: Optional[Perm] = None
    diff_set: Optional[DiffSet] = None
    embedding: Optional[tuple[AffineCoeffs, ...]] = None
    group_order: Optional[int] = None

    def to_payload(self) -> dict:
        payload: dict = {"p": self.field.p, "variant": self.variant}
        if self.variant == SOLVABLE_AFFINE:
            payload["relabeling"] = list(self.relabeling.images)
            payload["diff_set"] = list(self.diff_set.elements)
            payload["embedding"] = [{"a": c.a, "b": c.b} for c in self.embedding]
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
    """Decide the dichotomy for the generated group.

    Intransitive input gets its own verdict since the dichotomy does not
    apply. Otherwise the relabeling comes from the first p-cycle that
    ``bfs_elements`` yields, so the group is never listed whole. Relabelled,
    the group is T.A inside AGL(1, p), with T the translations and A the
    group the embedding's multipliers a generate. The orbit of (1, 0) is
    {(a + b, b) : a in A}, so its differences are A itself: U is the orbit
    of 1 under x -> a*x, and the group order is p*|U|. A failure (no
    p-cycle among the first p(p-1) elements, a conjugated generator that
    is not affine, or A = F_p*, which would make the group AGL(1, p) and
    doubly transitive) would contradict the theorem and raises
    InternalInvariantViolation.
    """
    field = spec.field
    p = field.p
    transitive, doubly = transitivity_tests(spec)
    if not transitive:
        return Classification(field, NOT_TRANSITIVE)
    if doubly:
        return Classification(field, DOUBLY_TRANSITIVE)

    elements = islice(bfs_elements(field, spec.generators), p * (p - 1))
    tau = next((g for g in elements if g.cycle_type() == (p,)), None)
    if tau is None:
        raise InternalInvariantViolation(
            "transitive, not doubly transitive group with no p-cycle among "
            "its first p(p-1) elements",
            payload={"p": p, "generators": [list(g.images) for g in spec.generators]},
        )

    lam = relabel_to_translation(tau)
    conjugated = tuple(g.conjugate(lam) for g in spec.generators)
    embedding = []
    for g in conjugated:
        coeffs = recognize_affine(g)
        if coeffs is None:
            raise InternalInvariantViolation(
                "conjugated generator of a non-doubly-transitive group "
                "is not affine",
                payload={"p": p, "permutation": list(g.images)},
            )
        embedding.append(coeffs)

    multipliers = GroupSpec(field, tuple(make_affine((c.a, 0), field) for c in embedding))
    units = orbit_of_point(multipliers, 1)
    if len(units) == p - 1:
        raise InternalInvariantViolation(
            "the embedding's multipliers generate all of F_p* although the "
            "group is not doubly transitive",
            payload={"p": p, "embedding": [{"a": c.a, "b": c.b} for c in embedding]},
        )
    return Classification(
        field,
        SOLVABLE_AFFINE,
        relabeling=lam,
        diff_set=DiffSet(field, tuple(units)),
        embedding=tuple(embedding),
        group_order=p * len(units),
    )


def verify_certificate(spec: GroupSpec, classification: Classification) -> bool:
    """Re-derive everything a classification claims; True only if all holds.

    For the solvable branch: the conjugated generators must equal their
    claimed affine maps and preserve the witness set's differences, and
    ``group_order`` must be an int, as ``from_payload`` requires, and equal
    p*|A|. Affine conjugates put the group inside AGL(1, p), which is
    solvable, so no derived series is needed. Being transitive, it holds
    the translations, so its order is p*|A| for A the group its
    multipliers a_i generate (Dixon and Mortimer, Permutation Groups,
    1996). F_p* is cyclic, so |A| is the least m with a_i**m = 1 for
    every i; each a_i is nonzero, as its affine map is a bijection, so
    some m <= p-1 qualifies. U is a union of cosets of A, so 1 in U and
    p*|U| = group_order = p*|A| make U = A. Never raises; any mismatch
    or internal error yields False.
    """
    try:
        field = spec.field
        p = field.p
        if classification.field != field:
            return False
        transitive, doubly = transitivity_tests(spec)

        if classification.variant == NOT_TRANSITIVE:
            return not transitive
        if classification.variant == DOUBLY_TRANSITIVE:
            return doubly
        if classification.variant != SOLVABLE_AFFINE:
            return False

        if not transitive or doubly:
            return False
        lam = classification.relabeling
        dset = classification.diff_set
        embedding = classification.embedding
        if lam is None or dset is None or embedding is None:
            return False
        if len(embedding) != len(spec.generators):
            return False
        for g, coeffs in zip(spec.generators, embedding):
            conj = g.conjugate(lam)
            if conj != make_affine(coeffs, field):
                return False
            if not check_preserves(conj, dset):
                return False
        require_ints([classification.group_order], "group_order")
        if 1 not in dset or p * len(dset) != classification.group_order:
            return False
        exponent = next(m for m in range(1, p) if all(pow(c.a, m, p) == 1 for c in embedding))
        return classification.group_order == p * exponent
    except BurnsideError:
        return False
