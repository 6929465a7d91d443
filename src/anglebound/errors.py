"""Exception hierarchy shared by all modules, and the checkers of arguments.

Every exception below signals a violated precondition or an input outside
the supported regime; the CLI maps them to exit code 2. Anything else that
escapes is an internal failure (exit code 1). Each kind of argument has one
checker: `check_int` for whole numbers, `check_real` for reals, and
`geometry._float_rows` and `geometry._check_unit_rows` for arrays and unit rows.
"""

import math
import numbers


class PreconditionError(Exception):
    """Base class for caller errors: bad arguments or unmet preconditions."""


class DegenerateTriple(PreconditionError):
    """Angle requested at a vertex that coincides with one of its rays' endpoints."""


class OutOfRange(PreconditionError):
    """Numeric argument outside the domain of the requested quantity."""


class DegenerateSimplex(PreconditionError):
    """Simplex vertices are affinely dependent beyond tolerance."""


class NotInHull(PreconditionError):
    """Point is not contained in the convex hull of the given set."""


class NotInterior(PreconditionError):
    """Point lies on or outside the boundary where a strict interior point is required."""


class NotConvexPosition(PreconditionError):
    """Operation requires every point to be a vertex of the set's convex hull."""


class DegenerateHull(PreconditionError):
    """Convex hull is not full-dimensional in the ambient space."""


class NotHemispherical(PreconditionError):
    """Spherical points do not fit in an open hemisphere, so no cap of radius < pi/2 exists."""


class CapTooSmall(PreconditionError):
    """Requested cap half-angle cannot contain the rays at some vertex."""

    def __init__(self, vertex_index: int, required_radius: float, allowed: float):
        self.vertex_index = vertex_index
        self.required_radius = required_radius
        self.allowed = allowed
        super().__init__(
            f"rays at vertex {vertex_index} need cap radius "
            f"{required_radius:.12g} > allowed {allowed:.12g}"
        )


class CoverageFailed(PreconditionError):
    """A line cover was not built or not certified: the deepest-hole insertions hit their
    cap or the facet budget, or the hull re-check failed."""


class ScaleExhausted(PreconditionError):
    """Doubling construction could not certify the angle bound within float geometry."""


class ColoringFailed(PreconditionError):
    """Some segment direction is not within the tolerance angle of any line."""


class HypothesisViolated(PreconditionError):
    """Counting hypothesis of the monochromatic odd-cycle lemma does not hold."""


def check_int(value, message: str, least=None) -> int:
    """int(value) for a whole number (an integral float counts) of at least
    `least`, if given; anything else, nan, inf, 2.5 or a string, raises
    OutOfRange(message.format(value)) where int() would truncate or fail. A
    numpy scalar is formatted as the Python number it holds (_shown)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not whole or least is not None and value < least:
        raise OutOfRange(message.format(_shown(value)))
    return int(value)


def check_real(value, message: str, gt=None, lt=None, ge=-math.inf, le=math.inf) -> float:
    """float(value) for a real number x with ge <= x <= le, and gt < x and x <
    lt where given; anything else, nan, a string or None, raises
    OutOfRange(message.format(value)) as check_int does."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not ge <= x <= le or gt is not None and x <= gt or lt is not None and x >= lt:
        raise OutOfRange(message.format(_shown(value)))
    return x


def _shown(value):  # a numpy scalar as the Python number it holds: np.int64(0) reads 0
    return value.item() if isinstance(value, numbers.Number) and hasattr(value, "item") else value
