"""Burnside's dichotomy as an algorithm.

A transitive permutation group of prime degree is doubly transitive or
solvable. Given generators, ``classify`` either detects double
transitivity from the orbit of one ordered pair, or builds a solvability
certificate: a relabeling turning some order-p element into translation
by one, the invariant difference set carved out by the pair orbit, and
the affine coefficients of every (conjugated) generator. The certificate
is cheap to re-check independently, which ``verify_certificate`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automorphisms import check_preserves
from .errors import BurnsideError, CapExceeded, InputError, InternalInvariantViolation
from .fields import DiffSet, PrimeField
from .groups import (
    GroupSpec,
    derived_series,
    enumerate_group,
    orbit_of_pair,
    transitivity_tests,
)
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

        Every number must be an int (not a bool): a float or a numeric
        string is rejected, never truncated or parsed.
        """
        try:
            field = PrimeField(payload["p"])
            variant = payload["variant"]
            if variant != SOLVABLE_AFFINE:
                return cls(field, variant)
            return cls(
                field,
                variant,
                relabeling=Perm(field, tuple(payload["relabeling"])),
                diff_set=DiffSet(field, tuple(payload["diff_set"])),
                embedding=tuple(
                    AffineCoeffs(_int(c["a"]), _int(c["b"]))
                    for c in payload["embedding"]
                ),
                group_order=_int(payload["group_order"]),
            )
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed classification payload: {exc!r}") from exc


def _int(value) -> int:
    """The value itself; InputError unless it is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(
            f"malformed classification payload: {value!r} is not an integer"
        )
    return value


def extract_difference_set(spec: GroupSpec) -> DiffSet:
    """Differences realized by the orbit of (1, 0) under the group.

    Meant for groups containing translation by one and known not to be
    doubly transitive; then the orbit is exactly the pairs whose
    difference lies in the returned set, which is non-empty and proper.
    """
    p = spec.field.p
    pairs = orbit_of_pair(spec, (1, 0))
    diffs = sorted({(i - j) % p for i, j in pairs})
    if len(diffs) == p - 1:
        raise InternalInvariantViolation(
            "pair orbit touches every difference class despite the group "
            "not being doubly transitive",
            payload={"p": p, "differences": diffs},
        )
    return DiffSet(spec.field, tuple(diffs))


def classify(spec: GroupSpec) -> Classification:
    """Decide the dichotomy for the generated group.

    Intransitive input gets its own verdict since the dichotomy does not
    apply. In the solvable branch every internal failure (enumeration cap
    p(p-1) exceeded, a conjugated generator that is not affine) would
    contradict the theorem and raises InternalInvariantViolation.
    """
    field = spec.field
    p = field.p
    transitive, doubly = transitivity_tests(spec)
    if not transitive:
        return Classification(field, NOT_TRANSITIVE)
    if doubly:
        return Classification(field, DOUBLY_TRANSITIVE)

    cap = p * (p - 1)
    try:
        enum = enumerate_group(spec, cap)
    except CapExceeded as exc:
        raise InternalInvariantViolation(
            "group is not doubly transitive yet exceeds order p(p-1)",
            payload={
                "p": p,
                "cap": exc.cap,
                "partial_count": exc.partial_count,
                "generators": [list(g.images) for g in spec.generators],
            },
        ) from exc

    tau = next((g for g in enum.elements if g.order() == p), None)
    if tau is None:
        raise InternalInvariantViolation(
            "transitive group of degree p with no element of order p",
            payload={"p": p, "order": enum.order},
        )

    lam = relabel_to_translation(tau)
    conjugated = tuple(g.conjugate(lam) for g in spec.generators)
    dset = extract_difference_set(GroupSpec(field, conjugated))

    embedding = []
    for g in conjugated:
        coeffs = recognize_affine(g)
        if coeffs is None:
            raise InternalInvariantViolation(
                "conjugated generator of a non-doubly-transitive group "
                "is not affine",
                payload={
                    "p": p,
                    "permutation": list(g.images),
                    "diff_set": list(dset.elements),
                },
            )
        embedding.append(coeffs)

    return Classification(
        field,
        SOLVABLE_AFFINE,
        relabeling=lam,
        diff_set=dset,
        embedding=tuple(embedding),
        group_order=enum.order,
    )


def verify_certificate(spec: GroupSpec, classification: Classification) -> bool:
    """Re-derive everything a classification claims; True only if all holds.

    For the solvable branch: the conjugated generators must equal their
    claimed affine maps, preserve the witness set's differences, and the
    enumerated group's derived series must reach the trivial group. Never
    raises; any mismatch or internal error yields False.
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
        enum = enumerate_group(spec, cap=p * (p - 1))
        if classification.group_order != enum.order:
            return False
        return derived_series(enum)[-1] == 1
    except BurnsideError:
        return False
