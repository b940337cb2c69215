"""Exception taxonomy shared by every qtheta module."""


class QThetaError(Exception):
    """Base class for all qtheta errors."""


class PrecisionError(QThetaError):
    """A coefficient or construction was requested beyond tracked precision."""


class SeriesZeroDivision(QThetaError, ZeroDivisionError):
    """Division or inversion of a series that is zero to its precision."""


class DomainError(QThetaError):
    """An argument outside an operation's mathematical domain."""


class FormalDivergenceError(QThetaError):
    """An infinite sum whose term-order lower bound does not tend to infinity."""


class DegenerateParameterError(QThetaError):
    """A parameter binding makes a required denominator vanish."""


class EliminationError(QThetaError):
    """The series linear system is singular to working precision."""


def line_of(text, pos):
    """The 1-based line of offset pos in text."""
    return text.count("\n", 0, pos) + 1


class ParseError(QThetaError):
    """Lex or syntax error in DSL text, with a source position.  Text read
    from a file, named by where, reports "where:line:col: message"."""

    def __init__(self, message, pos=None, text=None, where=None):
        self.pos = pos
        if pos is not None and text is not None:
            line = line_of(text, pos)
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            if where is None:
                message = "%s (line %d, col %d)" % (message, line, col)
            else:
                message = "%s:%d:%d: %s" % (where, line, col, message)
        super().__init__(message)


class SortError(ParseError):
    """A series-sort expression appeared in an integer-sort position."""


class UnknownNameError(ParseError):
    """A name that is neither a builtin, q, inf, nor a parameter."""


class EvalError(QThetaError):
    """Runtime evaluation failure, annotated with the offending node."""

    def __init__(self, message, pos=None):
        self.pos = pos
        self.message = message
        if pos is not None:
            message = "%s (at offset %d)" % (message, pos)
        super().__init__(message)


class BoundViolationError(EvalError):
    """A sum's declared order bound failed to reach the target precision."""


class SamplingError(QThetaError):
    """No admissible parameter binding found within the attempt budget."""


class RegistryError(QThetaError):
    """Malformed identity file or duplicate identity name."""
