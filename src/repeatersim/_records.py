"""The records' one way to check their fields, and to refuse a value
outside its interval, a non-integer value, or a closed form that leaves the
float range."""

import math
import numbers


class Checked:
    """First base of a namedtuple record that sets ``__slots__ = ()`` and
    defines ``_check``.  A namedtuple's ``_make``, and with it ``_replace``,
    skips the subclass's ``__new__``; here both build through it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _bounds(interval: str) -> tuple:
    """``(low, high, low closed, high closed)`` of an interval written as
    "[0, inf)": a square bracket closes its end."""
    low, high = map(float, interval[1:-1].split(", "))
    return low, high, interval[0] == "[", interval[-1] == "]"


# the intervals a value is checked against; "[-inf, inf]" refuses a NaN alone
_INTERVALS = {interval: _bounds(interval) for interval in (
    "[0, 1]", "(0, 1]", "(0, inf)", "(1, inf)", "[0, inf)", "[0, inf]", "(-inf, inf)",
    "[-inf, inf]")}


def check_in(interval: str, name: str, value):
    """Refuse ``value`` outside ``interval``, one of ``_INTERVALS``, by its
    ``name``; a NaN fails every comparison.  One value a call, compared here:
    keyword arguments or a comparison function cost a closed form more."""
    low, high, low_closed, high_closed = _INTERVALS[interval]
    if not ((low <= value if low_closed else low < value)
            and (value <= high if high_closed else value < high)):
        raise ValueError(f"{name} = {value} outside {interval}")


def check_int(**values):
    """Refuse by name a value that is not an integer: a float, even an
    integral one, or a bool.  A NumPy integer is an integer."""
    for name, value in values.items():
        # a plain int passes without the slower abstract-class check
        if type(value) is not int and (isinstance(value, bool)
                                       or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class FloatRangeError(OverflowError, ValueError):
    """A closed form left the float range: the scan skips its row as an
    ``OverflowError``, and a refusal of bad input catches a ``ValueError``."""


def in_float_range(what: str, compute, **inputs):
    """``compute()``, refused by name where it is not finite or raises
    ``OverflowError`` or ``ZeroDivisionError`` (an underflowed denominator)."""
    try:
        value = compute()
        if -math.inf < value < math.inf:
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    at = ", ".join(f"{name} = {arg!r}" for name, arg in inputs.items())
    raise FloatRangeError(f"{what} overflows a float at {at}")
