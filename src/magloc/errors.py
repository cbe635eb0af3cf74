"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid scenario, rig, world, or solver configuration."""


class OutOfMapError(Exception):
    """A field query fell outside the mapped region.

    Carries the offending query point; the estimator treats this as a
    divergence signal rather than a hard failure.
    """

    def __init__(self, point):
        self.point = tuple(float(v) for v in point)
        super().__init__(f"query point {self.point} outside mapped region")


class DegenerateQueryError(ValueError):
    """Field query coincides (within tolerance) with a singular source."""


class MapFormatError(ValueError):
    """Map file is malformed or its header disagrees with the payload."""


class DatasetSchemaError(ValueError):
    """Dataset file violates the frame schema (field count, monotonicity)."""


class DegenerateTrainingError(ValueError):
    """Regression training set is unusable (empty, unparsable, non-finite,
    off one plane, or too large a basis for its lengthscale)."""


class AlignmentError(ValueError):
    """Trajectory alignment is underdetermined (too few / collinear points)."""
