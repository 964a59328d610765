"""Shared exception types. The CLI maps these onto exit codes."""


class ValidationError(ValueError):
    """Malformed or contract-violating input (CLI exit code 3)."""


class ParseError(ValidationError):
    """Syntax error in an input file; its message names the line and column."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class CapExceededError(ValidationError):
    """Instance exceeds the size cap of an exhaustive routine."""


class BudgetExceededError(RuntimeError):
    """Search budget ran out; distinct from a negative answer (CLI exit code 4)."""
