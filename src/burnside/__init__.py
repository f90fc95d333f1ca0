"""Burnside's dichotomy for prime-degree permutation groups, mechanized.

Classify a generated group as doubly transitive or produce an affine
solvability certificate; exhaustively enumerate the difference-preserving
permutations of F_p and confirm they are affine; and replay the identity
chain behind that fact as a checkable trace.

The package root exports the eight names of the README's library example;
every other name is imported from the module that defines it.
"""

from .automorphisms import enumerate_diff_preserving
from .classifier import classify, verify_certificate
from .fields import DiffSet, PrimeField
from .groups import GroupSpec
from .permutations import make_affine
from .trace import run_trace

__version__ = "0.1.0"

__all__ = [
    "DiffSet",
    "GroupSpec",
    "PrimeField",
    "classify",
    "enumerate_diff_preserving",
    "make_affine",
    "run_trace",
    "verify_certificate",
]
