"""Exception types shared across the toolkit."""


class IMSolveError(Exception):
    """Base class for every error raised by this package."""


class GraphError(IMSolveError):
    """Invalid graph construction or query."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class TooLargeError(IMSolveError):
    """Input exceeds the configured cap of an exhaustive computation."""


class PreconditionViolatedError(IMSolveError):
    """An internal structural guarantee did not hold; indicates a bug."""


class ParseError(IMSolveError):
    """Malformed instance file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InconsistentHeaderError(ParseError):
    """Instance file body disagrees with its header."""


class InvalidSpecError(IMSolveError):
    """Malformed or contradictory generator specification."""


class NotACliqueError(IMSolveError):
    pass


class AcyclicError(IMSolveError):
    pass
