"""Exception hierarchy.

Every library error derives from ``OpIndexError``.  The CLI maps them onto
exit codes: argparse usage errors and ``DomainError`` (an input out of range,
a non-Hermitian profile value, an operator over the dense memory budget)
exit 2; ``InconclusiveError`` and ``NonConvergenceError`` exit 3; failed
verifications (residual above threshold) and every other library error exit 1.
"""


class OpIndexError(Exception):
    """Base class for all library errors."""


class ShapeError(OpIndexError):
    """Operand has the wrong shape (non-square trace, size mismatch...)."""


class EigensolverError(OpIndexError):
    """The dense eigensolver did not converge."""

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
