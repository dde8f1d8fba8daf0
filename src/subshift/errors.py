"""Exception types raised across the package."""


class SubshiftError(Exception):
    """Base class for every error this package raises deliberately."""


class MalformedInput(SubshiftError):
    """Input text or argument does not follow the documented format."""


class ZeroRow(SubshiftError):
    """A symbol has no successor, so the shift would not be everywhere defined."""


class SymbolOutOfRange(SubshiftError):
    """A symbol lies outside the alphabet {1, ..., n} of the matrix."""


class InadmissibleWord(SubshiftError):
    """A word or sequence junction uses a pair (a, b) with no edge a -> b."""


class NoPath(SubshiftError):
    """No admissible path connects the requested symbols."""


class DepthZero(SubshiftError):
    """A cylinder depth of at least 1 is required."""


class ShallowerDepth(SubshiftError):
    """Refinement target depth is smaller than the current depth."""


class TooShort(SubshiftError):
    """A word is too short to determine the value of a cylinder function."""


class MatrixMismatch(SubshiftError):
    """Operands were built over different adjacency matrices."""


class DomainMismatch(SubshiftError):
    """Weights live on different clopen domains."""


class SupportViolation(SubshiftError):
    """A function is nonzero on a cylinder outside the weight's domain."""


class NotTransfer(SubshiftError):
    """An abstract operator failed a linearity or transfer-identity spot check."""


class NegativeWeight(SubshiftError):
    """A weight takes a negative value inside its domain."""


class NotTransitive(SubshiftError):
    """The directed graph of the matrix is not transitive."""


class GraphIsCycle(SubshiftError):
    """Every symbol has exactly one successor, so the graph is a cycle."""


class BadExponents(SubshiftError):
    """Shift exponents must satisfy 0 <= i < j."""


class CertificateInvalid(SubshiftError):
    """A certificate failed re-verification."""


class WorkLimitExceeded(SubshiftError):
    """A request would build more certificate data than the documented limit."""
