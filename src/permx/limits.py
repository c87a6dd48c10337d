"""Desk-scale search limits, and the one argument contract.

The length limits and the ceilings are fixed; raise one by editing it
here.  Per call, a caller sets only the node budget (``budget``, or
the --budget flag in the CLI).

Every public function checks its arguments with three validators
before any work:

* :func:`valid_size`: a length, width, weight or count is an
  ``int``, never a ``bool``; an integral float is refused like any
  other float.
* :func:`valid_budget`: a node budget is a positive ``int``.
* :func:`valid_real`: a real constant is an ``int``, ``float`` or
  ``Fraction``, never a ``bool`` or a ``str``, that a double holds
  finitely.

``valid_real(integral=True)`` refuses a real constant with a
fractional part by the one integrality rule, :func:`is_integral`: a
finite real equal to ``int(value)``, so ``2``, ``2.0`` and
``Fraction(2)`` are all integral.  ``bounds`` decides by the same rule
which constants take its exact paths.

Each returns its value, or raises ``PreconditionViolated`` (a value
outside the domain) or ``ResourceLimit`` (a size over its ceiling).
"""

import math

from .errors import PreconditionViolated, ResourceLimit

DEFAULT_NODE_BUDGET = 10 ** 8

# length caps, calibrated on patterns of length 4 or less.  The avoider
# counts and the avoidance backtrackers share the count limit; at n = 17
# the costliest count of length 4, 1324's (no cheaper member of its Wilf
# class), takes about 8 s and 130 MB on a 2 vCPU VM.  The count limit
# does not depend on the pattern's length, and a longer pattern costs
# far more: 24513's count took 87 s and 687 MB at n = 15, and 355 s and
# 2.47 GB at n = 16, so a count of a pattern of length 5 or more should
# pass a node budget (--budget), which stops it with exit 3.  The merge
# count and the JV inclusion check both walk merge states, which grow
# about 4x per n, so they share the merge-count limit; at n = 11 the
# costliest merge count of two length-3 patterns, (213, 231)'s, takes
# about 4 s and 100 MB there.
DEFAULT_COUNT_LENGTH_LIMIT = 17
DEFAULT_MERGE_COUNT_LENGTH_LIMIT = 11
OVER_LENGTH = "n={} exceeds the configured limit {}"

# the width of a host row, which is one bitmask
MAX_WIDTH = 64
OVER_WIDTH = "width {} exceeds the {}-bit row limit"

# bulk steps of a bound schedule: the count grows like c^2 * a * log2(k),
# and every step is a state in the report.  The heaviest documented grid
# point (k = 2^40, a = 3, c = 6) needs 19802.
MAX_SCHEDULE_STEPS = 30_000

# decompositions that blockable_decompositions lists, counted before any
# is built; the identity of length 26 has C(25, 12), about 5.2 million,
# into 13 blocks
MAX_DECOMPOSITIONS = 10_000

# decimal digits of the largest exact integer a report prints; CPython's
# default int-to-str conversion stops at 4300
MAX_REPORT_DIGITS = 4300


def valid_size(value, name: str, least=0, most=None, over=None) -> int:
    """``value``, once it is an ``int`` (not a ``bool``) of at least
    ``least``; ``least=None`` checks the type alone.

    With ``over``, a value above ``most`` is a ``ResourceLimit`` worded
    by the format ``over`` of the value and ``most``.  Without it,
    ``most`` is part of the domain, and a value outside
    ``least..most`` is refused naming both ends.  A type refusal names
    the argument by ``name`` ("block count c"), a range refusal by its
    last word ("c").
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionViolated(f"{name} must be an integer, got {value!r}")
    if over is None and most is not None and not least <= value <= most:
        raise PreconditionViolated(
            f"need {least} <= {_symbol(name)} <= {most}, got {shown(value)}")
    if least is not None and value < least:
        raise PreconditionViolated(f"need {_symbol(name)} >= {least}, got {shown(value)}")
    if over is not None and value > most:
        raise ResourceLimit(over.format(shown(value), most))
    return value


def valid_budget(value) -> int:
    """``value``, once it is a positive ``int`` (not a ``bool``)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionViolated(f"budget must be a positive integer, got {value!r}")
    if value < 1:
        raise PreconditionViolated(f"budget must be a positive integer, got {shown(value)}")
    return value


def valid_real(value, name: str, least=None, above=None, integral=False):
    """``value``, once it is an ``int``, ``float`` or ``Fraction`` (not
    a ``bool``) that a double holds finitely.

    ``integral`` also refuses a value with a fractional part.  ``above``
    refuses a value not above it, and ``least`` one below it; with
    either, a value that is not finite is refused as outside that
    domain ("need finite a > 0"), else as not finite.  Names are shown
    as in :func:`valid_size`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        from fractions import Fraction  # loaded already wherever reals are read

        if not isinstance(value, Fraction):
            raise PreconditionViolated(f"{name} is not a rational constant: {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the double range
        raise PreconditionViolated(f"{name} overflows a double") from None
    if integral and not is_integral(value):
        raise PreconditionViolated(f"{name} must be an integer, got {shown(value)}")
    if above is not None and not (finite and value > above):
        raise PreconditionViolated(f"need finite {_symbol(name)} > {above}, got {shown(value)}")
    if not finite:
        raise PreconditionViolated(f"{name} must be finite, got {value!r}" if least is None
                                   else f"need finite {_symbol(name)}, got {value}")
    if least is not None and value < least:
        raise PreconditionViolated(f"need {_symbol(name)} >= {least}, got {shown(value)}")
    return value


def is_integral(value) -> bool:
    """Whether a real constant that a double holds finitely has no
    fractional part, whatever its type."""
    return math.isfinite(value) and value == int(value)


def shown(value) -> str:
    """A checked number as a refusal writes it: exactly, or, when it
    has a term past str()'s 4300-digit limit, as ~ and an estimate: an
    int's sign and greatest power of two not above its size
    ("~-2^16609"), a Fraction's double to six digits."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, int):
            return f"~{'-' * (value < 0)}2^{abs(value).bit_length() - 1}"
        return f"~{float(value):g}"


def _symbol(name: str) -> str:
    """The last word of an argument's name: "c" of "block count c"."""
    return name.rpartition(" ")[2]
