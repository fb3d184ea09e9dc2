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


class OverlappingGroundTruth(ValueError):
    """Two ground-truth instances of one scene (numbered from 0) share a point id."""

    def __init__(self, point_id, scene):
        super().__init__(f"ground-truth instances must be pairwise disjoint: "
                         f"point id {point_id} is in more than one")
        self.point_id = point_id
        self.scene = scene
