"""Shared helpers for the test suite."""

import concurrent.futures
import functools
import itertools
import random

import pytest

import burnside.automorphisms
from burnside import DiffSet, PrimeField
from burnside.permutations import Perm
from burnside.polynomials import FpPoly


def qr_set(field: PrimeField) -> DiffSet:
    """The nonzero quadratic residues mod p as a difference set."""
    p = field.p
    return DiffSet(field, tuple(sorted({i * i % p for i in range(1, p)})))


def poly_from_roots(field: PrimeField, roots) -> FpPoly:
    """The monic product of (X - r) over the roots, by FpPoly products."""
    out = FpPoly.one(field)
    for r in roots:
        out = out * FpPoly(field, (-r, 1))
    return out


@functools.cache
def exhaustive_report_rows(p: int) -> list[dict]:
    """The rows of a scan report mod p, from ``scan_all_subsets``; shared, so
    read-only."""
    return [
        {"diff_set": list(r.elements), "size": r.size,
         "stabilizer_size": r.stabilizer_size,
         "automorphism_count": r.automorphism_count,
         "all_affine": r.all_affine, "min_power_index": r.min_power_index}
        for r in burnside.automorphisms.scan_all_subsets(PrimeField(p))
    ]


def all_perms(field: PrimeField):
    """Every permutation of F_p, in lexicographic image order."""
    for images in itertools.permutations(range(field.p)):
        yield Perm(field, images)


def random_perm(field: PrimeField, rng: random.Random) -> Perm:
    images = list(range(field.p))
    rng.shuffle(images)
    return Perm(field, tuple(images))


def random_p_cycle(field: PrimeField, rng: random.Random) -> Perm:
    """A uniformly random permutation with a single cycle of length p."""
    points = list(range(field.p))
    rng.shuffle(points)
    images = [0] * field.p
    for a, b in zip(points, points[1:]):
        images[a] = b
    images[points[-1]] = points[0]
    return Perm(field, tuple(images))


class FakePool:
    """Stands in for ProcessPoolExecutor: maps in this process, starts none."""

    def __init__(self, max_workers, started):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def fake_pool(monkeypatch):
    """Patch the scan's process pool; returns max_workers of each pool made."""
    started = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: FakePool(max_workers, started),
    )
    return started
