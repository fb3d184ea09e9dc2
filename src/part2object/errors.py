"""Exception types shared across the package.

Loaders raise ``FormatError`` subclasses so callers can distinguish a broken
file from a missing one (plain ``FileNotFoundError``).
"""


class FormatError(ValueError):
    """An on-disk artifact violates its declared format or invariants."""


class CorruptHeader(FormatError):
    pass


class DimensionMismatch(FormatError):
    pass


class NonFinite(FormatError):
    pass


class CorruptRLE(FormatError):
    pass


class NonOrthonormalPose(FormatError):
    pass


class InconsistentMaskFeatureDim(FormatError):
    pass


class IndexOutOfRange(FormatError):
    pass


class AllZeroFeatures(ValueError):
    """Feature fusion received only zero vectors."""


class EmptyCloud(ValueError):
    """An operation that needs points received none."""
