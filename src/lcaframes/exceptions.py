"""Error types raised across the package.

Everything derives from LcaError (a ValueError) so callers can catch broadly,
while tests and the CLI can distinguish the specific failure.
"""


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
