"""Desk-scale search limits.

The length limits and the ceilings are fixed; raise one by editing it
here.  Per call, a caller sets only the node budget (``budget``, or
the --budget flag in the CLI) and the row cap of the row-density
searches, up to its ceiling.
"""

DEFAULT_NODE_BUDGET = 10 ** 8

# length caps that keep worst-case runtimes in minutes, not hours.  The
# avoider counts and the avoidance backtrackers share the count limit.
# The merge count and the JV inclusion check both walk merge states,
# which grow about 4x per n, so they share the merge-count limit.
DEFAULT_COUNT_LENGTH_LIMIT = 14
DEFAULT_MERGE_COUNT_LENGTH_LIMIT = 10

# row-search caps for the row-density searches; width is bitmask-bound.
# A capped search builds a witness of n_cap rows, so n_cap has a ceiling.
DEFAULT_ROW_CAP = 64
MAX_ROW_CAP = 10_000
MAX_WIDTH = 64

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
