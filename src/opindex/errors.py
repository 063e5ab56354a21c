"""Exception hierarchy.

The CLI maps these onto exit codes: usage problems are raised by argparse
itself (exit 2), ``InconclusiveError`` and ``NonConvergenceError`` map to
exit 3, and failed verifications (residual above threshold) map to exit 1.
"""


class OpIndexError(Exception):
    """Base class for all library errors."""


class ShapeError(OpIndexError):
    """Operand has the wrong shape (non-square trace, size mismatch...)."""


class HermitianityError(OpIndexError):
    """A Hermitian-flagged matrix failed its symmetry check."""


class EigensolverError(OpIndexError):
    """The dense eigen/SVD solver did not converge."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class DomainError(OpIndexError):
    """Input outside the documented admissible range."""


class WindowSizingError(OpIndexError):
    """Lattice window too small to guarantee exact interior products."""


class SymbolVanishingError(OpIndexError):
    """Symbol modulus fell below the winding-number floor."""


class UndersamplingError(OpIndexError):
    """Phase increments too large to unwrap reliably."""


class InconclusiveError(OpIndexError):
    """A numerical procedure could not certify its answer.

    Carries whatever partial evidence was available in ``detail``.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class NonConvergenceError(OpIndexError):
    """No plateau found; carries the full curve for inspection."""

    def __init__(self, message, t_samples=None, values=None):
        super().__init__(message)
        self.t_samples = t_samples
        self.values = values


class InsufficientDecayError(OpIndexError):
    """Perturbation profile lacks the decay needed for a tail bound."""


class IntegrationError(OpIndexError):
    """ODE stepping failed its accuracy self-test."""


class RangeError(OpIndexError):
    """A curve does not cover the required parameter range."""


class ConstructionError(OpIndexError):
    """A derived object violates the identity it was built to satisfy."""
