"""The error model: every failure the package reports carries a stable
reason code and the exit code the CLI ends with (1 for a domain error,
2 for malformed input, 74 for output that could not be written).  The
README lists every code.
"""

from functools import update_wrapper


class TropmapsError(ValueError):
    """A failure with a reason code.  It is a ValueError, so callers that
    catch ValueError keep working."""
    code = "domain-error"
    exit_code = 1

    def __init__(self, detail, code=None):
        super().__init__(detail)
        if code is not None:
            self.code = code


class DomainError(TropmapsError):
    """Well-formed input outside the domain of an operation (exit 1)."""


class InputError(TropmapsError):
    """Malformed input: unreadable, of the wrong shape or unparsable (exit 2)."""
    code = "invalid-input"
    exit_code = 2


class OutputError(TropmapsError):
    """A write to stdout failed, to a full disk say (exit 74, sysexits' EX_IOERR)."""
    code = "output-error"
    exit_code = 74


def decoder(fn):
    """Wrap a decoder so that a KeyError, TypeError, OSError, RecursionError or
    uncoded ValueError becomes an InputError with its message; coded errors pass."""
    def decode(*args):
        try:
            return fn(*args)
        except TropmapsError:
            raise
        except (KeyError, TypeError, ValueError, OSError, RecursionError) as exc:
            detail = exc.args[0] if isinstance(exc, KeyError) else exc
            raise InputError(str(detail)) from exc
    return update_wrapper(decode, fn)
