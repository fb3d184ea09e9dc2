"""Exception types shared across the package.

Loaders raise ``FormatError``, whose message names the file, so callers can
tell a broken file from a missing one (plain ``FileNotFoundError``).
"""


class FormatError(ValueError):
    """An on-disk artifact violates its declared format or invariants."""


class OverlappingGroundTruth(ValueError):
    """Two ground-truth instances of one scene (numbered from 0) share a point id."""

    def __init__(self, point_id, scene):
        super().__init__(f"ground-truth instances must be pairwise disjoint: "
                         f"point id {point_id} is in more than one")
        self.point_id = point_id
        self.scene = scene
