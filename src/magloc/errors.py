"""Exception types shared across the package, and the one rule every
configuration number is checked by."""

import numbers


class ConfigurationError(ValueError):
    """Invalid scenario, rig, world, or solver configuration."""


def check_number(name: str, value, *, integer: bool = False, above=None,
                 at_least=None, allow_inf: bool = False) -> None:
    """Raise ConfigurationError naming `name` unless `value` is a real
    number, not a bool (JSON true would pass as 1) and not NaN: an integer
    if `integer`, finite unless `allow_inf`, `> above` and `>= at_least`."""
    if not (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool) and value == value
            and (allow_inf or abs(value) < float("inf"))
            and (above is None or value > above)
            and (at_least is None or value >= at_least)):
        kind = "an integer" if integer else "a number" if allow_inf else "a finite number"
        bound = (f" > {above}" if above is not None else
                 f" >= {at_least}" if at_least is not None else "")
        raise ConfigurationError(f"{name} must be {kind}{bound}, got {value!r}")


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
