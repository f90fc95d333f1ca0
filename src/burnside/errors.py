"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: ``InputError`` (and its
subclasses) mean the caller handed us something invalid and exit with 1;
``InternalInvariantViolation`` means a mathematical impossibility was
observed, which can only be a bug, and exits with 2.
"""


class BurnsideError(Exception):
    """Base class for all package-specific errors."""


class InputError(BurnsideError, ValueError):
    """Invalid user-supplied input (bad modulus, malformed file, ...)."""


class FieldMismatch(InputError):
    """Operands built over different prime moduli were combined."""


class CapExceeded(BurnsideError):
    """A bounded group enumeration outgrew its element cap, ``cap``."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class InternalInvariantViolation(BurnsideError):
    """A theorem-backed invariant failed, i.e. the code has a bug.

    ``payload`` holds a JSON-serializable counterexample (the offending
    permutation, difference set, or count) so the failure can be replayed.
    """

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


class PropositionViolated(InternalInvariantViolation):
    """Exhaustive search produced a difference-preserving permutation that
    is not affine, contradicting a proven statement."""
