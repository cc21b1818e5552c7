"""The package's two errors, one for each error exit code of the command line.

SchemaError (exit 2) is an input error: a descriptor or artifact that breaks its schema, a value of the
wrong type or outside its group, a filter whose periodicity does not fit its level.  LcaError (exit 3) is a
precondition violation: a parameter out of range, a construction or check that does not apply to the group,
an uncertified level, a desk-scale limit.  The class a site raises is its exit code, and `cli.main` alone
maps classes to codes.  SchemaError derives from LcaError (a ValueError), so catching LcaError catches both.
"""

from contextlib import contextmanager


class LcaError(ValueError):
    """A precondition violation (exit 3)."""


class SchemaError(LcaError):
    """An input error (exit 2): a value that is not one its reader reads."""


def require(cond: bool, path: str, message: str):
    """SchemaError naming the descriptor path of a part that fails its condition."""
    if not cond:
        raise SchemaError(f"{path}: {message}")


def require_object(obj, path: str, keys) -> dict:
    """obj when it is a JSON object with no key outside keys, the ones its reader reads; SchemaError otherwise."""
    require(isinstance(obj, dict), path, "must be an object")
    if extra := set(obj).difference(keys):  # the message is formatted only for a refusal, since loads call this often
        raise SchemaError(f"{path}.{min(extra)}: unknown key; the keys read here are {list(keys)}")
    return obj


def require_int(value, what: str) -> int:
    """value when it is an int, not a bool; otherwise SchemaError, since a wrong type is an input error."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


@contextmanager
def _malformed(what: str):
    """Report the errors a malformed JSON value raises as SchemaError, prefixed by `what`.

    A SchemaError gets the prefix, any other LcaError passes through with its
    own meaning, and a builtin error becomes a SchemaError.
    """
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    except LcaError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"{what}: {exc!r}") from exc
