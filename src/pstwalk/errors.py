"""Exception types shared across the package.

An exception is for a request the package cannot answer: bad input, a fixed
state asked for a partner, or a numeric failure. A decision is a value, never
an exception: NonPeriodic, NotCospectral or PstVerdict.
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


class NotApplicableError(PstwalkError):
    """Preconditions of a check (e.g. entrywise nonnegativity) do not hold."""


class NumericFailureError(PstwalkError):
    """The underlying numerical routine (eigensolver) failed."""


class SynthesisError(PstwalkError, ValueError):
    """Invalid synthesis request (infeasible sizes or degenerate pair)."""
