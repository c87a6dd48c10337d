"""Avoidance-class counting and enumeration, growth-rate estimates, and
two-color merge membership.

Counting builds permutations left to right and describes a prefix by
the number r of unused values and, for each pattern prefix pvals[:j]
(j < k), the set of its occurrences in the prefix, recorded in gap
coordinates: the gap of an entry is the number of unused values below
it.  Appending the u-th smallest unused value (u = 0..r-1) lowers every
gap above u by one and puts the new entry in gap u; it extends an
occurrence exactly when each entry that must lie below it has gap <= u
and each entry that must lie above it has gap > u.  The count of
completions depends on the prefix only through that state, so equal
states are merged with their multiplicities, one length at a time.
Three exact reductions keep the state sets small:

* projection: an occurrence keeps only the entries that are the value
  neighbours of some later pattern value, the only ones a future entry
  is compared with;
* liveness: an occurrence is dropped once it cannot complete, because
  too few values are left or a value it still needs lies outside the
  unused ones;
* dominance: among occurrences of one length only the Pareto-minimal
  gap tuples stay, one dominating another when its lower-bound gaps are
  no larger and its upper-bound gaps no smaller, since every completion
  of the other is then one of it too.

A counting node is one distinct state expanded.  Enumeration
(:func:`avoiders`) stays a plain prefix-pruned backtracker, so the two
check each other.

The merge searcher 2-colors host entries left to right and prunes a
branch the moment either color class contains its forbidden pattern.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    Permutation,
    _occurrence_plan,
    _pareto_min,
    completes_at_end,
    direct_sum,
)
from .errors import EmptyPattern, PreconditionViolated, ResourceLimit
from .limits import (
    DEFAULT_COUNT_LENGTH_LIMIT,
    DEFAULT_MERGE_COUNT_LENGTH_LIMIT,
    DEFAULT_MERGE_LENGTH_LIMIT,
    DEFAULT_NODE_BUDGET,
)


# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwEstimate:
    """Finite-length growth estimate count**(1/n) for one length."""

    n: int
    count: int
    value: float


@dataclass(frozen=True)
class MergeQuery:
    """Host permutation plus the two forbidden patterns, one per color."""

    host: Permutation
    red_pattern: Permutation
    blue_pattern: Permutation

    def __post_init__(self):
        if self.red_pattern.n == 0 or self.blue_pattern.n == 0:
            raise EmptyPattern("merge patterns must be nonempty")


@dataclass(frozen=True)
class JvInclusionReport:
    """Result of checking that every avoider of the three-part sum splits
    into a red part avoiding part1+part2 and a blue part avoiding
    part2+part3."""

    parts: tuple[Permutation, Permutation, Permutation]
    n: int
    combined: Permutation
    red_pattern: Permutation
    blue_pattern: Permutation
    checked: int
    holds: bool
    counterexample: Permutation | None

    def to_jsonable(self) -> dict:
        return {
            "parts": [str(p) for p in self.parts],
            "n": self.n,
            "combined": str(self.combined),
            "red_pattern": str(self.red_pattern),
            "blue_pattern": str(self.blue_pattern),
            "checked": self.checked,
            "holds": self.holds,
            "counterexample": (
                None if self.counterexample is None else str(self.counterexample)
            ),
        }


@dataclass(frozen=True)
class MergeCountReport:
    """Mergeable-permutation count at length n against two right-hand
    sides.

    ``rhs`` is the plain product form sum_i C(n,i)*|red_i|*|blue_(n-i)|;
    picking which i positions are red independently of which values land
    there needs the square of the binomial, so ``rhs_refined`` uses
    C(n,i)^2 and is the side that is always an upper bound.  ``rhs`` can
    genuinely fall below the left side at moderate n.
    """

    red_pattern: Permutation
    blue_pattern: Permutation
    n: int
    lhs: int
    rhs: int
    rhs_refined: int
    holds: bool
    holds_refined: bool

    def to_jsonable(self) -> dict:
        return {
            "red_pattern": str(self.red_pattern),
            "blue_pattern": str(self.blue_pattern),
            "n": self.n,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "rhs_refined": str(self.rhs_refined),
            "holds": self.holds,
            "holds_refined": self.holds_refined,
        }


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_avoiders(
    pattern: Permutation,
    n: int,
    *,
    max_n: int = DEFAULT_COUNT_LENGTH_LIMIT,
    node_budget: int | None = None,
) -> int:
    """Exact number of length-n permutations avoiding ``pattern``.

    Counted as a sum over prefix states (see the module docstring), not
    by visiting avoiders.  ``node_budget`` caps the number of distinct
    states expanded, a count that depends only on the pattern and n."""
    if pattern.n == 0:
        raise EmptyPattern("avoidance is defined for nonempty patterns")
    if n < 0:
        raise PreconditionViolated(f"need n >= 0, got {n}")
    if n > max_n:
        raise ResourceLimit(f"n={n} exceeds the configured limit {max_n}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    return _count_states(pattern.entries, n, budget)


def _count_states(pvals, n, budget):
    """|Av_n(pvals)| by merging equal prefix states, one length at a time."""
    k = len(pvals)
    plan = _occurrence_plan(pvals)
    last_lo, last_hi = plan[-1][:2]

    def extends(t, lo, hi, u):
        return (lo < 0 or t[lo] <= u) and (hi < 0 or u < t[hi])

    def reduce(tuples, lows, ups, left):
        # gaps grow with value along a tuple, so liveness needs only the
        # highest lower bound and the lowest upper bound
        live = {
            t for t in tuples
            if (not lows or t[lows[-1]] < left) and (not ups or t[ups[0]])
        }
        return _pareto_min(live, lows, ups)

    # state: one set of gap tuples per prefix length 0..k-1, with the
    # empty occurrence always present; states merge with their multiplicity
    empty = frozenset()
    layer = {(frozenset([()]),) + (empty,) * (k - 1): 1}
    nodes = 0
    for r in range(n, 0, -1):
        following = {}
        for state, mult in layer.items():
            nodes += 1
            if nodes > budget:
                raise ResourceLimit(f"node budget {budget} exhausted")
            for u in range(r):
                if any(extends(t, last_lo, last_hi, u) for t in state[k - 1]):
                    continue
                shift = [g - (g > u) for g in range(r + 1)]
                child = [state[0]]
                for j in range(1, k):
                    if r - 1 < k - j:  # too few values left to complete
                        child.append(empty)
                        continue
                    lo, hi, src, lows, ups = plan[j - 1]
                    tuples = [tuple([shift[g] for g in t]) for t in state[j]]
                    tuples += [
                        tuple([u if i < 0 else shift[t[i]] for i in src])
                        for t in state[j - 1] if extends(t, lo, hi, u)
                    ]
                    child.append(reduce(tuples, lows, ups, r - 1))
                child = tuple(child)
                following[child] = following.get(child, 0) + mult
        layer = following
    return sum(layer.values())


def avoiders(
    pattern: Permutation,
    n: int,
    *,
    max_n: int = DEFAULT_COUNT_LENGTH_LIMIT,
    node_budget: int | None = None,
):
    """Yield every length-n avoider of ``pattern`` as a value tuple, in
    lexicographic order."""
    if pattern.n == 0:
        raise EmptyPattern("avoidance is defined for nonempty patterns")
    if n < 0:
        raise PreconditionViolated(f"need n >= 0, got {n}")
    if n > max_n:
        raise ResourceLimit(f"n={n} exceeds the configured limit {max_n}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    pvals = pattern.entries
    used = bytearray(n + 1)
    prefix = []
    nodes = 0

    def rec(depth):
        nonlocal nodes
        if depth == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            nodes += 1
            if nodes > budget:
                raise ResourceLimit(f"node budget {budget} exhausted")
            if completes_at_end(prefix, v, pvals):
                continue
            used[v] = 1
            prefix.append(v)
            yield from rec(depth + 1)
            prefix.pop()
            used[v] = 0

    yield from rec(0)


def sw_estimate_sequence(
    pattern: Permutation,
    n_max: int,
    *,
    max_n: int = DEFAULT_COUNT_LENGTH_LIMIT,
    node_budget: int | None = None,
) -> list[SwEstimate]:
    """Exact counts with count**(1/n) growth estimates for n = 1..n_max."""
    if n_max < 1:
        raise PreconditionViolated(f"need n_max >= 1, got {n_max}")
    out = []
    for n in range(1, n_max + 1):
        count = count_avoiders(pattern, n, max_n=max_n, node_budget=node_budget)
        value = float(count) ** (1.0 / n) if count > 0 else 0.0
        out.append(SwEstimate(n, count, value))
    return out


# ---------------------------------------------------------------------------
# merges
# ---------------------------------------------------------------------------

def merge_coloring(
    q: MergeQuery,
    *,
    max_n: int = DEFAULT_MERGE_LENGTH_LIMIT,
    node_budget: int | None = None,
) -> tuple[str, ...] | None:
    """A per-entry ("red"/"blue") coloring whose red subsequence avoids
    the red pattern and blue subsequence avoids the blue pattern, or
    None if no such coloring exists."""
    n = q.host.n
    if n > max_n:
        raise ResourceLimit(f"host length {n} exceeds the configured limit {max_n}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    hvals = q.host.entries
    rvals, bvals = q.red_pattern.entries, q.blue_pattern.entries
    red, blue = [], []
    color = [""] * n
    nodes = 0

    def rec(i):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ResourceLimit(f"node budget {budget} exhausted")
        if i == n:
            return True
        v = hvals[i]
        if not completes_at_end(red, v, rvals):
            red.append(v)
            color[i] = "red"
            if rec(i + 1):
                return True
            red.pop()
        if not completes_at_end(blue, v, bvals):
            blue.append(v)
            color[i] = "blue"
            if rec(i + 1):
                return True
            blue.pop()
        return False

    if rec(0):
        return tuple(color)
    return None


def merge_member(
    q: MergeQuery,
    *,
    max_n: int = DEFAULT_MERGE_LENGTH_LIMIT,
    node_budget: int | None = None,
) -> bool:
    """True iff the host's entries 2-color so that red avoids the red
    pattern and blue avoids the blue pattern."""
    return merge_coloring(q, max_n=max_n, node_budget=node_budget) is not None


def verify_jv_inclusion(
    a: Permutation,
    b: Permutation,
    c: Permutation,
    n: int,
    *,
    max_n: int = DEFAULT_COUNT_LENGTH_LIMIT,
    node_budget: int | None = None,
) -> JvInclusionReport:
    """Check, for every length-n avoider of a+b+c (direct sum), that it
    merges from an avoider of a+b and an avoider of b+c.

    Exhaustive at desk scale; reports the first counterexample if the
    inclusion ever failed (none is expected).
    """
    if a.n == 0 or b.n == 0 or c.n == 0:
        raise EmptyPattern("all three parts must be nonempty")
    combined = direct_sum(direct_sum(a, b), c)
    red_pattern = direct_sum(a, b)
    blue_pattern = direct_sum(b, c)
    checked = 0
    counterexample = None
    for values in avoiders(combined, n, max_n=max_n, node_budget=node_budget):
        checked += 1
        q = MergeQuery(Permutation(values), red_pattern, blue_pattern)
        if not merge_member(q, node_budget=node_budget):
            counterexample = Permutation(values)
            break
    return JvInclusionReport(
        parts=(a, b, c),
        n=n,
        combined=combined,
        red_pattern=red_pattern,
        blue_pattern=blue_pattern,
        checked=checked,
        holds=counterexample is None,
        counterexample=counterexample,
    )


def merge_count_upper_check(
    red_pattern: Permutation,
    blue_pattern: Permutation,
    n: int,
    *,
    max_n: int = DEFAULT_MERGE_COUNT_LENGTH_LIMIT,
    node_budget: int | None = None,
) -> MergeCountReport:
    """Count mergeable length-n permutations and compare against the
    binomial-sum right-hand sides (see :class:`MergeCountReport`)."""
    if red_pattern.n == 0 or blue_pattern.n == 0:
        raise EmptyPattern("merge patterns must be nonempty")
    if n < 0:
        raise PreconditionViolated(f"need n >= 0, got {n}")
    if n > max_n:
        raise ResourceLimit(f"n={n} exceeds the configured limit {max_n}")
    lhs = 0
    for values in itertools.permutations(range(1, n + 1)):
        q = MergeQuery(Permutation(values), red_pattern, blue_pattern)
        if merge_member(q, node_budget=node_budget):
            lhs += 1
    red_counts = [
        count_avoiders(red_pattern, i, node_budget=node_budget) for i in range(n + 1)
    ]
    blue_counts = [
        count_avoiders(blue_pattern, i, node_budget=node_budget) for i in range(n + 1)
    ]
    rhs = sum(
        math.comb(n, i) * red_counts[i] * blue_counts[n - i] for i in range(n + 1)
    )
    rhs_refined = sum(
        math.comb(n, i) ** 2 * red_counts[i] * blue_counts[n - i]
        for i in range(n + 1)
    )
    return MergeCountReport(
        red_pattern=red_pattern,
        blue_pattern=blue_pattern,
        n=n,
        lhs=lhs,
        rhs=rhs,
        rhs_refined=rhs_refined,
        holds=lhs <= rhs,
        holds_refined=lhs <= rhs_refined,
    )
