"""Exception types shared across the package.

Expected negative decisions (a pair is not strongly cospectral, a state is
fixed, ...) are raised as structured exceptions carrying the offending data,
so callers can turn them into machine-readable refusal codes.
"""


class PstwalkError(Exception):
    """Base class for all package errors."""


class InvalidSizeError(PstwalkError, ValueError):
    """A graph/family size parameter is out of range."""


class GraphError(PstwalkError, ValueError):
    """Malformed graph input (self-loop, duplicate edge, bad weight, ...)."""


class MalformedDocumentError(PstwalkError):
    """A JSON input document does not have the shape of a graph, state or
    matrix document (a state that is not a flat list of numbers, ...)."""


class PatternMismatchError(PstwalkError, ValueError):
    """A custom Hamiltonian is asymmetric or violates the graph zero pattern."""


class InvalidStateError(PstwalkError, ValueError):
    """A state vector is zero, has the wrong dimension, or is otherwise unusable."""


class InvalidPairError(PstwalkError, ValueError):
    """A state pair violates the norm-equality or y != +-x contract."""


class FixedStateError(PstwalkError):
    """The state is an eigenvector (support size one); it cannot transfer."""


class NotCospectralError(PstwalkError):
    """Strong cospectrality fails; carries the first violating eigenvalue."""

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = eigenvalue
        super().__init__(message or f"not strongly cospectral at eigenvalue {eigenvalue}")


class AmbiguousCospectralityError(NotCospectralError):
    """Both sign residuals at the carried eigenvalue are within ten times the
    support tolerance, so its sign is not numerically determined."""


class NotApplicableError(PstwalkError):
    """Preconditions of a check (e.g. entrywise nonnegativity) do not hold."""


class NumericFailureError(PstwalkError):
    """The underlying numerical routine (eigensolver) failed."""


class SynthesisError(PstwalkError, ValueError):
    """Invalid synthesis request (infeasible sizes or degenerate pair)."""
