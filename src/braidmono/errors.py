"""Exception types shared across the package, and the size-limit check."""


class BraidMonoError(Exception):
    """Base class for all errors raised by this package."""


class MalformedWordError(BraidMonoError):
    """A word contains a zero letter or a letter out of range."""


class DimensionMismatchError(BraidMonoError):
    """Two objects that must agree on strand count or rank do not."""


class DegenerateMotionError(BraidMonoError):
    """A motion has colliding points or an endpoint mismatch."""


class TieError(BraidMonoError):
    """Simultaneous crossings could not be separated into layers."""


class GeometryError(BraidMonoError):
    """A motion builder was given geometrically inconsistent data."""


class ParseError(BraidMonoError):
    """A curve expression could not be parsed."""


class ImproperProjectionError(BraidMonoError):
    """The leading y-coefficient vanishes somewhere on the loop."""


class CriticalFiberError(BraidMonoError):
    """A fiber on the loop has fewer distinct roots than the y-degree."""


class TrackingFailureError(BraidMonoError):
    """Root matching between fibers could not be certified."""


class CapacityError(BraidMonoError):
    """An enumeration exceeds the supported size limits."""


class GroupTableError(BraidMonoError):
    """A multiplication table fails the group axioms."""


def check_limit(what: str, value: int, limit: int) -> None:
    """Refuse an input whose size `value` is over `limit`, before any work grows with it.
    A value of more than 40 digits is named by its digit count."""
    if value > limit:
        shown = "%d" % value if value < 10**40 else "a %d-digit number" % _digits(value)
        raise CapacityError("%s is %s, over the limit of %d" % (what, shown, limit))


def _digits(value: int) -> int:
    """The decimal digits of a positive int, counted without str(), which
    refuses more than sys.get_int_max_str_digits()."""
    d = (value.bit_length() - 1) * 3 // 10  # 10^d <= 2^(bits - 1) <= value
    while 10 ** (d + 1) <= value:
        d += 1
    return d + 1
