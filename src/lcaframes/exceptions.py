"""Error types raised across the package.

Everything derives from LcaError (a ValueError) so callers can catch broadly,
while tests and the CLI can distinguish the specific failure.
"""

from contextlib import contextmanager


class LcaError(ValueError):
    """Base class for library-specific errors."""


class VariantMismatchError(LcaError):
    """Group/element or group/dual variants do not fit together."""


class DomainParameterError(LcaError):
    """A constructor parameter is outside its admissible range."""


class IndexRangeError(LcaError):
    """A level index falls outside the chain's index set."""


class UnboundedWindowError(LcaError):
    """An enumeration window is unbounded on an infinite lattice."""


class SplittingError(LcaError):
    """The fundamental-domain splitting between consecutive levels fails."""


class UnsupportedIndexError(LcaError):
    """The spline construction needs index-2 lattice nesting (d_k = 2)."""


class UnsupportedOrderError(LcaError):
    """No wavelet masks ship for this spline order (odd orders >= 3)."""


class UnsupportedRepresentationError(LcaError):
    """No finite time-domain representation exists on this group."""


class ProperSubsetError(LcaError):
    """The bandlimited construction needs a proper subset at this level."""


class FilterVariantError(LcaError):
    """Operation applies to a different filter variant."""


class PeriodicityMismatchError(LcaError):
    """Filter periodicity lattice does not match the chain level."""


class EmptySamplingPlanError(LcaError):
    """A verification was asked to run over zero sample points."""


class UnsupportedVerificationError(LcaError):
    """This verification is out of desk scale for the given group."""


class UncertifiedLevelError(LcaError):
    """A level-coupling identity was requested below an uncertified level."""


class ResourceLimitError(LcaError):
    """Requested computation exceeds the configured desk-scale limits."""


class SchemaError(LcaError):
    """A JSON descriptor or artifact violates its schema."""


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

    Other library errors pass through with their own meaning; a filter
    periodicity that does not fit the chain, a value that is not an element
    of its group, or one beyond the float range, is a schema error too.
    """
    try:
        yield
    except (SchemaError, PeriodicityMismatchError, VariantMismatchError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    except LcaError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"{what}: {exc!r}") from exc
