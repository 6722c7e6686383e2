"""Exception hierarchy shared by all fconn modules."""


class FconnError(Exception):
    """Base class for all errors raised by fconn."""


class InputFormatError(FconnError):
    """A file could not be parsed.

    Carries the offending path and, when known, the 1-based line number.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class ValidationError(FconnError):
    """Input parsed but violates a semantic requirement (self-loop, negative weight, ...)."""


class DomainError(FconnError):
    """A scalar function was evaluated outside its domain (e.g. resolvent pole inside spectrum)."""


class ConvergenceError(FconnError):
    """An iteration failed to reach its tolerance within the allowed number of steps."""

    def __init__(self, message, residual=None, iterations=None):
        self.residual = residual
        self.iterations = iterations
        extra = []
        if residual is not None:
            extra.append(f"residual={residual:.3e}")
        if iterations is not None:
            extra.append(f"iterations={iterations}")
        if extra:
            message = message + " (" + ", ".join(extra) + ")"
        super().__init__(message)


class ExhaustedSearchSpaceError(FconnError):
    """No candidate edges are available for the requested operation."""
