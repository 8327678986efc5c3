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
    """A motion builder, a LoopSpec or lefschetz_braid was given inconsistent data."""


class ParseError(BraidMonoError):
    """Unreadable input: curve, rational, braid or complex-number text, a fixture id or a
    CLI flag combination; also a fixture whose words and expected relations differ in rank."""


class ImproperProjectionError(BraidMonoError):
    """The projection to x is not proper: a factor without y or with a vertical-line
    component, or a leading y-coefficient that vanishes somewhere on the loop."""


class CriticalFiberError(BraidMonoError):
    """A fiber on the loop has fewer distinct roots than the y-degree, or a curve factor
    is repeated, not squarefree, or shares a component with another factor."""


class TrackingFailureError(BraidMonoError):
    """Root matching between fibers could not be certified."""


class CapacityError(BraidMonoError):
    """An input over a size limit (check_limit), a too-long braid image, or an n-tangency
    n outside 2..6."""


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
