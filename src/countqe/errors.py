"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`CountQEError`, so
callers (notably the CLI) can separate our diagnostics from genuine bugs.
"""


class CountQEError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CountQEError):
    """A matrix, vector or point has an incompatible shape."""


class SingularMatrixError(CountQEError):
    """A square matrix required to be invertible has determinant zero."""


class DegenerateInputError(CountQEError):
    """An input is degenerate for the requested operation (e.g. all-zero
    values passed to a positive-lcm computation)."""


class ParameterError(CountQEError):
    """A numeric parameter is outside its documented range."""


class UnboundVariableError(CountQEError):
    """Evaluation hit a free variable with no assigned value."""


class UnsupportedPresentationError(CountQEError):
    """A presentation does not meet an operation's structural precondition
    (typically: a component whose periods are linearly dependent)."""


class ContractError(CountQEError):
    """A caller-level contract was violated (missing assertion flags,
    domain mismatch, clashing variable names, ...)."""

