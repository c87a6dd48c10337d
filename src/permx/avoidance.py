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
Four exact reductions keep the state sets small:

* projection: an occurrence keeps only the entries that are the value
  neighbours of some later pattern value, the only ones a future entry
  is compared with;
* liveness: an occurrence is dropped once it cannot complete, because
  too few values are left or a value it still needs lies outside the
  unused ones;
* dominance: among occurrences of one length only the Pareto-minimal
  gap tuples stay, one dominating another when its lower-bound gaps are
  no larger and its upper-bound gaps no smaller, since every completion
  of the other is then one of it too.  A gap that is both a lower and
  an upper bound must be equal, so the tuples are grouped on those
  gaps; every pattern of length at most 4 leaves at most two other
  gaps, and a group's minima then come from one sort and a sweep with a
  running best.  Only three or more free gaps (patterns of length 5 and
  up) fall back to comparing pairs;
* the forbidden-gap mask: occurrences of the pattern's first k - 1
  entries are never extended, they only forbid the gaps where the next
  entry would complete the pattern, so that level is kept as one int
  whose bit g is set iff gap g is forbidden.  Prefixes whose
  occurrences forbid the same gaps then share a state, which dominance
  cannot give, since it merges one tuple into another, never a set of
  intervals into their union.  A step at gap u drops bit u and moves
  the bits above it down by one, and ORs in the interval of each
  occurrence the new entry completes to length k - 1; a completing
  entry is one bit test.

The step itself is :func:`core._perm_states`, memoised as
:func:`core._memo_step` describes.  A counting node is one distinct
state expanded.  After i gap choices of a length-n sum the
multiplicities total C(n, i) |Av_i|, so one sum gives every count up
to n: the growth estimates and the merge right sides take one sum per
pattern.  Enumeration (:func:`avoiders`) stays a
plain prefix-pruned backtracker, so the two check each other: it drops
an entry when :func:`core.completes_at_end`, the core containment
search pinned to the new entry, finds an occurrence ending there.

A merge is a permutation whose entries colour red and blue so that each
colour avoids its own pattern.  Merges are counted on the same states:
a merge state is the set of (red state, blue state) pairs of the
colourings still alive, both colours in gap coordinates of the one
shared set of unused values.  Appending gap u sends each pair to a red
child, where the new entry joins the red occurrences and only shifts the
blue gaps, and to a blue child, and drops a child whose joining colour
completes its pattern.  A pair is dropped when another pair of the set
is no more constrained in both colours (each of its partial occurrences
is one of the first pair's or dominated by one, and its forbidden-gap
mask is included in the first pair's), since every colouring
of the rest that works from the first works from the other too.  The
count sums multiplicities over distinct pair sets, one length at a time.
The JV inclusion check runs the same
layered sum over the product of the three-part sum's avoider state and
the merge state of the two-part sums, and fails iff some avoider is
left with an empty pair set; only then does a descent that re-sums from
each child in gap order find the first failing avoider.  Single hosts
(:func:`merge_coloring`) are 2-coloured by a backtracker that prunes a
branch the moment either colour class contains its forbidden pattern,
found by the same pinned search on the entry just coloured.

Every memo the merge and JV models keep is a :class:`_Lazy` table, so a
hit is one subscript: each colour's step and the JV host's and merge
steps over interned states, each colour's dominance lookups, and the
merge step's pair children, kept for one layer at a time.  A merge
count's right sides sum over each colour's own step table, reusing the
steps its merge sum took.
"""

from __future__ import annotations

import math

from .core import (
    Permutation,
    _dominated,
    _occurrence_plan,
    _perm_states,
    completes_at_end,
    direct_sum,
)
from .errors import PreconditionViolated, ResourceLimit
from .limits import (
    DEFAULT_COUNT_LENGTH_LIMIT,
    DEFAULT_MERGE_COUNT_LENGTH_LIMIT,
    DEFAULT_NODE_BUDGET,
)
from .record import Record


# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------

class SwEstimate(Record):
    """Finite-length growth estimate count**(1/n) for one length."""

    n: int
    count: int
    value: float

    _keys = {"value": "estimate"}
    _text = ("count",)


class JvInclusionReport(Record):
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


class MergeCountReport(Record):
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

    _text = ("lhs", "rhs", "rhs_refined")


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_avoiders(
    pattern: Permutation,
    n: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Exact number of length-n permutations avoiding ``pattern``.

    Counted as a sum over prefix states (see the module docstring), not
    by visiting avoiders.  ``budget`` caps the number of distinct
    states expanded, a count that depends only on the pattern and n."""
    if pattern.n == 0:
        raise PreconditionViolated("avoidance is defined for nonempty patterns")
    _check_length(n, DEFAULT_COUNT_LENGTH_LIMIT)
    root, step = _perm_states(pattern.entries)
    return sum(_sum_over_states(root, step, n, budget).values())


def _check_length(n, limit):
    if n < 0:
        raise PreconditionViolated(f"need n >= 0, got {n}")
    if n > limit:
        raise ResourceLimit(f"n={n} exceeds the configured limit {limit}")


def _sum_over_states(root, step, n, budget):
    """The states reached from ``root`` by length-n sequences of gap
    choices that ``step`` accepts, each with the number of sequences
    reaching it; equal states are merged with their multiplicities one
    length at a time.  ``step(state, u, r)`` returns None to reject."""
    for layer in _layers(root, step, n, budget):
        pass
    return layer


def _layers(root, step, n, budget):
    """The layers of :func:`_sum_over_states`: the states reached after
    0, 1, ..., n gap choices, each with its multiplicity."""
    layer = {root: 1}
    yield layer
    nodes = 0
    for r in range(n, 0, -1):
        following = {}
        for state, mult in layer.items():
            nodes += 1
            if nodes > budget:
                raise ResourceLimit(f"node budget {budget} exhausted")
            for u in range(r):
                child = step(state, u, r)
                if child is not None:
                    following[child] = following.get(child, 0) + mult
        layer = following
        yield layer


def _avoider_counts(root, step, n, budget):
    """|Av_i| for i = 0..n from one length-n sum over the avoider model
    ``(root, step)`` of a pattern.  After i gap choices the
    multiplicities count the avoiding i-entry prefixes of length-n
    permutations: i of the n values in an order whose pattern avoids,
    C(n, i) |Av_i| of them."""
    return [sum(layer.values()) // math.comb(n, i)
            for i, layer in enumerate(_layers(root, step, n, budget))]


def avoiders(
    pattern: Permutation,
    n: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
):
    """Yield every length-n avoider of ``pattern`` as a value tuple, in
    lexicographic order."""
    if pattern.n == 0:
        raise PreconditionViolated("avoidance is defined for nonempty patterns")
    _check_length(n, DEFAULT_COUNT_LENGTH_LIMIT)
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
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[SwEstimate]:
    """Exact counts with count**(1/n) growth estimates for n = 1..n_max,
    every count from one length-n_max sum (:func:`_avoider_counts`),
    which expands the states of :func:`count_avoiders` at n_max."""
    if n_max < 1:
        raise PreconditionViolated(f"need n_max >= 1, got {n_max}")
    _check_length(n_max, DEFAULT_COUNT_LENGTH_LIMIT)
    if pattern.n == 0:
        raise PreconditionViolated("avoidance is defined for nonempty patterns")
    counts = _avoider_counts(*_perm_states(pattern.entries), n_max, budget)
    return [SwEstimate(n, count, float(count) ** (1.0 / n) if count > 0 else 0.0)
            for n, count in enumerate(counts[1:], 1)]


# ---------------------------------------------------------------------------
# merges
# ---------------------------------------------------------------------------

def merge_coloring(
    host: Permutation,
    red_pattern: Permutation,
    blue_pattern: Permutation,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[str, ...] | None:
    """A per-entry ("red"/"blue") coloring whose red subsequence avoids
    the red pattern and blue subsequence avoids the blue pattern, or
    None if no such coloring exists."""
    if red_pattern.n == 0 or blue_pattern.n == 0:
        raise PreconditionViolated("merge patterns must be nonempty")
    n = host.n
    _check_length(n, DEFAULT_COUNT_LENGTH_LIMIT)
    hvals = host.entries
    rvals, bvals = red_pattern.entries, blue_pattern.entries
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
    host: Permutation,
    red_pattern: Permutation,
    blue_pattern: Permutation,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """True iff the host's entries 2-color so that red avoids the red
    pattern and blue avoids the blue pattern."""
    return merge_coloring(host, red_pattern, blue_pattern, budget=budget) is not None


def _interned(root, step):
    """``(states, steps)`` with the states of a ``(root, step)`` model
    numbered as they are met (the root is 0) and ``steps[i, *args]`` the
    number of ``step(states[i], *args)``, a :class:`_Lazy` table; None
    stays None."""
    states, ids = [root], {root: 0}

    def fill(key):
        child = step(states[key[0]], *key[1:])
        if child is None:
            return None
        if child not in ids:
            ids[child] = len(states)
            states.append(child)
        return ids[child]

    return states, _Lazy(fill)


class _Lazy(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it,
    so that a hit is one subscript, with no Python-level call."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def _colour(pvals):
    """One colour of a merge as ``(states, steps, covered, weaker)``
    over interned prefix states (:func:`_interned`): one colour's state
    recurs across many pairs and pair sets.

    ``covered(q, p)`` asks whether state q is no more constrained than
    state p: each partial occurrence of q, at each prefix length below
    k - 1, is one of p's or dominated by one, and q's forbidden-gap mask
    at level k - 1 is included in p's.  Then every continuation that
    avoids the pattern from p avoids it from q too.  ``weaker[i, j]`` is
    ``covered`` on the interned states i and j, computed at the first
    lookup; the merge step looks up only i != j."""
    states, steps = _interned(*_perm_states(pvals))
    bounds = [(lows, ups) for _, _, _, lows, ups in _occurrence_plan(pvals)]
    last = len(pvals) - 1

    def covered(q, p):
        if last and q[last] & ~p[last]:
            return False
        return all(_dominated(t, p[j], *bounds[j - 1])
                   for j in range(1, last) for t in q[j] - p[j])

    return states, steps, covered, _Lazy(lambda ij: covered(states[ij[0]], states[ij[1]]))


def _merge_states(red, blue):
    """The prefix-state model of merges of two colours built by
    :func:`_colour`, as ``(root, step)``.

    A state is the set of (red state, blue state) pairs of the colourings
    of the prefix still alive, both in gap coordinates of the one shared
    set of unused values.  ``step(pairs, u, r)`` sends each pair to a red
    child, where the new entry joins red and only shifts blue's gaps, and
    a blue child, dropping a child whose joining colour completes its
    pattern.  A pair is dropped when another pair of the set is no more
    constrained in both colours; equally constrained pairs are equal, so
    the reduced set is canonical.  Returns None when no pair is left.

    Pairs recur across the pair sets of one layer, so the step memoises
    each pair's children on (pair, u) in a :class:`_Lazy` table.  The
    children depend on r, which is not in the key; the table is cleared
    whenever r changes, so it holds one layer at most."""
    _, red_steps, _, red_weaker = red
    _, blue_steps, _, blue_weaker = blue

    def children_of(key):
        (rs, bs), u = key
        out = []
        child = red_steps[rs, u, layer, True]
        if child is not None:
            out.append((child, blue_steps[bs, u, layer, False]))
        child = blue_steps[bs, u, layer, True]
        if child is not None:
            out.append((red_steps[rs, u, layer, False], child))
        return out

    kids, layer = _Lazy(children_of), None

    def undominated(children):
        # a pair sharing a colour's state with another needs no lookup there
        out = []
        for p in children:
            pr, pb = p
            for q in children:
                qr, qb = q
                if (q is not p and (qr == pr or red_weaker[qr, pr])
                        and (qb == pb or blue_weaker[qb, pb])):
                    break
            else:
                out.append(p)
        return frozenset(out)

    def step(pairs, u, r):
        nonlocal layer
        if r != layer:
            kids.clear()
            layer = r
        children = set()
        for pair in pairs:
            children.update(kids[pair, u])
        if not children:
            return None
        return undominated(children)

    return frozenset([(0, 0)]), step


def _jv_search(hvals, rvals, bvals, n, budget):
    """``(checked, holds, counterexample)`` for the claim that every
    length-n avoider of ``hvals`` merges from an avoider of ``rvals`` and
    one of ``bvals``.

    A sum over products of the host pattern's prefix state and the merge
    state (None once no colouring is left): the claim fails iff some
    avoider ends on None.  ``checked`` is the number of avoiders, or on
    failure the 1-based rank of the lexicographically first failing one,
    found by a descent that re-sums from each child in gap order (gap
    order is value order).  The re-sums expand only states the first sum
    expanded, so a node is one distinct product state expanded."""
    _, host_steps = _interned(*_perm_states(hvals))
    _, merge_steps = _interned(*_merge_states(_colour(rvals), _colour(bvals)))

    def step(state, u, r):
        host, pairs = state
        child = host_steps[host, u, r, True]
        if child is None:
            return None
        return child, None if pairs is None else merge_steps[pairs, u, r]

    def fails(layer):
        return any(pairs is None for _, pairs in layer)

    layer = _sum_over_states((0, 0), step, n, budget)
    if not fails(layer):
        return sum(layer.values()), True, None
    state, rank = (0, 0), 0
    unused, values = list(range(1, n + 1)), []
    for r in range(n, 0, -1):
        for u in range(r):
            child = step(state, u, r)
            if child is not None:
                layer = _sum_over_states(child, step, r - 1, budget)
                if fails(layer):
                    break
                rank += sum(layer.values())
        values.append(unused.pop(u))
        state = child
    return rank + 1, False, Permutation(tuple(values))


def verify_jv_inclusion(
    a: Permutation,
    b: Permutation,
    c: Permutation,
    n: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> JvInclusionReport:
    """Check, for every length-n avoider of a+b+c (direct sum), that it
    merges from an avoider of a+b and an avoider of b+c.

    Runs as a search over prefix states (see the module docstring), not
    by visiting avoiders.  ``checked`` is the number of avoiders, or,
    when the inclusion fails, the lexicographic rank of the first failing
    avoider, which is reported as the counterexample (none is expected).
    ``budget`` caps the number of distinct states expanded.
    """
    if a.n == 0 or b.n == 0 or c.n == 0:
        raise PreconditionViolated("all three parts must be nonempty")
    # its product states carry a merge state, so it takes the merge limit
    _check_length(n, DEFAULT_MERGE_COUNT_LENGTH_LIMIT)
    combined = direct_sum(direct_sum(a, b), c)
    red_pattern = direct_sum(a, b)
    blue_pattern = direct_sum(b, c)
    checked, holds, counterexample = _jv_search(
        combined.entries, red_pattern.entries, blue_pattern.entries, n, budget
    )
    return JvInclusionReport(
        parts=(a, b, c),
        n=n,
        combined=combined,
        red_pattern=red_pattern,
        blue_pattern=blue_pattern,
        checked=checked,
        holds=holds,
        counterexample=counterexample,
    )


def merge_count_upper_check(
    red_pattern: Permutation,
    blue_pattern: Permutation,
    n: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> MergeCountReport:
    """Count mergeable length-n permutations and compare against the
    binomial-sum right-hand sides (see :class:`MergeCountReport`).

    The count is a sum over merge states (see the module docstring), not
    a test of each host.  The avoider counts of each colour, for every
    length up to n, come from one length-n sum (:func:`_avoider_counts`)
    over that colour's own step table, which expands the states of the
    length-n count and reuses the steps the merge sum took.  ``budget``
    caps the number of distinct states expanded, by the count and by
    each colour's sum separately."""
    if red_pattern.n == 0 or blue_pattern.n == 0:
        raise PreconditionViolated("merge patterns must be nonempty")
    _check_length(n, DEFAULT_MERGE_COUNT_LENGTH_LIMIT)
    red, blue = _colour(red_pattern.entries), _colour(blue_pattern.entries)
    lhs = sum(_sum_over_states(*_merge_states(red, blue), n, budget).values())

    def counts(colour):
        steps = colour[1]
        return _avoider_counts(0, lambda i, u, r: steps[i, u, r, True], n, budget)

    red_counts, blue_counts = counts(red), counts(blue)
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
