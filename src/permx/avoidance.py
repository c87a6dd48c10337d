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
Five exact reductions keep the state sets small:

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
  entry is one bit test;
* canonical states: after each layer of a count, an occurrence of
  length k - 2 is dropped when, at every gap the mask allows and that
  would extend it, the interval its completion would forbid lies in
  the mask already (:func:`states._perm_canonical`, with the proof that
  the children and so the continuations are unchanged).  Prefixes whose
  occurrences differ only in such ones are then one state: 1324 at
  n = 9 expands 314 canonical states against 696 raw ones.

The expansion itself is :func:`states._perm_states`: a state is expanded
once over all its gaps, each of its levels looked up once in a memo of
per-gap rows, and each prefix's reduction is built once per occurrence
plan entry for its dominance shape.  A counting node is one distinct
canonical state expanded.  After i gap choices of a length-n sum the
multiplicities total C(n, i) |Av_i|, so one sum gives every count up
to n: the growth estimates and the merge right sides take one sum per
pattern.  Enumeration (:func:`avoiders`) stays a
plain prefix-pruned backtracker, so the two check each other: it drops
an entry when :func:`core.completes_at_end`, the core containment
search pinned to the new entry, finds an occurrence ending there.

Patterns of one Wilf class have equal counts but not equal state sets:
at n = 13, 1423's sum expands 6,582 canonical states and 2413's
14,648.  So
:func:`count_avoiders` and :func:`sw_estimate_sequence` sum over the
cheapest member of a pattern's proven Wilf class when the pattern has
length at most 4 (:data:`_WILF_CLASSES`), and a node budget caps that
member's states.  Merges and the JV check sum over each pattern's own
raw states, since a merge of two patterns is not a merge of their
representatives, and canonical colour states would weaken the
domination order below: (213, 231) at n = 10 would expand 37,191
merge states instead of 25,682.

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
of the rest that works from the first works from the other too.

That test is one AND-NOT.  Each colour state is named by its downset
code (:func:`_colour`), an int holding its forbidden-gap mask and, per
tuple level, the set of gap tuples its occurrences dominate, so one
state is no more constrained than another iff its code is a bit-subset
of the other's, and distinct states have distinct codes.  A pair is the
int ``red << width | blue`` of its colours' codes.  A bit-subset is
numerically smaller, so an ascending sort of a child set is a linear
extension of the dominance order, and one pass keeps a pair iff no pair
kept before it is a subset of it (the maxima sweep of Kung, Luccio and
Preparata).  The reduced sets are the ones pairwise comparison gives, so
a node is still one distinct merge state expanded.  The count sums
multiplicities over distinct pair sets, one length at a time.
The JV inclusion check runs the same
layered sum over the product of the three-part sum's avoider state and
the merge state of the two-part sums, and fails iff some avoider is
left with an empty pair set; only then does a descent that re-sums from
each child in gap order find the first failing avoider.  Single hosts
(:func:`merge_coloring`) are 2-coloured by a backtracker that prunes a
branch the moment either colour class contains its forbidden pattern,
found by the same pinned search on the entry just coloured.

Every model feeds the layered sum the same way, by expanding a state
over all its gaps at once.  Every memo the merge and JV models keep is
a :class:`_Lazy` table, so a hit is one subscript: each colour's and
the JV host's and merge expansions over interned states, each colour's
boxes of dominated tuples, and the merge expansion's pair children,
kept for one layer at a time.  A merge count's right sides sum over each
colour's own expansion table, reusing the expansions its merge sum
took.
"""

from __future__ import annotations

import functools
import math

from .core import (
    Permutation,
    complement,
    completes_at_end,
    direct_sum,
    inverse,
    reverse,
)
from .errors import PreconditionViolated, ResourceLimit
from .limits import (DEFAULT_COUNT_LENGTH_LIMIT, DEFAULT_MERGE_COUNT_LENGTH_LIMIT,
                     DEFAULT_NODE_BUDGET, OVER_LENGTH, valid_budget, valid_size)
from .record import Record
from .states import _occurrence_plan, _perm_canonical, _perm_states


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

    Counted as a sum over canonical prefix states (see the module
    docstring), not by visiting avoiders, on the cheapest member of the
    pattern's proven Wilf class (:func:`_representative`) for a pattern
    of length at most 4, and on the pattern itself for a longer one.
    ``budget`` caps the number of distinct canonical states of that
    member expanded, a count that depends only on the member and n."""
    if pattern.n == 0:
        raise PreconditionViolated("avoidance is defined for nonempty patterns")
    valid_size(n, "n", 0, DEFAULT_COUNT_LENGTH_LIMIT, OVER_LENGTH)
    valid_budget(budget)
    return _own_count(_representative(pattern), n, budget)


def _own_count(pvals, n, budget):
    """|Av_n| of the pattern ``pvals`` summed over its own canonical
    prefix states, whatever its Wilf class."""
    return sum(_sum_over_states(*_perm_states(pvals), n, budget,
                                _perm_canonical(pvals)).values())


# The proven Wilf classes of the patterns of length at most 4, each as
# its representative and the least image of every symmetry class in it.
# The representative is the member whose sum expands the fewest distinct
# states, ties going to the lexicographically least; the tests pin that
# choice at n = 9 and 12.
_WILF_CLASSES = (
    ("1", "1"),
    ("12", "12"),
    # Knuth (1968), Simion and Schmidt (1985): both are counted by the
    # Catalan numbers
    ("123", "123 132"),
    # Backelin, West and Xin (2007): 12...k + t ~ k...1 + t, with + the
    # direct sum, gives 1234 ~ 2134, 1243 ~ 2143 and 1234 ~ 3214, and
    # 2134 and 3214 are images of 1243 and 1432
    ("1234", "1234 1243 2143 1432"),
    # Stankova (1994); 1423 is an image of 1342
    ("1423", "1342 2413"),
    ("1324", "1324"),
)


@functools.cache
def _wilf_table():
    """:data:`_WILF_CLASSES` as a dict from the least image of each
    symmetry class to its representative, built at the first count."""
    return {tuple(map(int, key)): tuple(map(int, rep))
            for rep, keys in _WILF_CLASSES for key in keys.split()}


def _representative(pattern):
    """The entries of the pattern that :func:`count_avoiders` sums over
    for ``pattern``: its Wilf class's representative when it has length
    at most 4, else itself.  A pattern is looked up by its least image
    under reverse, complement and inverse."""
    images = [pattern, inverse(pattern)]
    images += [reverse(q) for q in images]
    images += [complement(q) for q in images]
    return _wilf_table().get(min(q.entries for q in images), pattern.entries)


def _sum_over_states(root, expand, n, budget, canonical=None):
    """The states reached from ``root`` by length-n sequences of gap
    choices that leave a child, each with the number of sequences
    reaching it; equal states are merged with their multiplicities one
    length at a time.  ``expand(state, r)`` yields ``(u, child)`` for
    each gap u of the r that leaves one; ``canonical``, if given, is
    applied to each layer as in :func:`_layers`."""
    for layer in _layers(root, expand, n, budget, canonical):
        pass
    return layer


def _layers(root, expand, n, budget, canonical=None):
    """The layers of :func:`_sum_over_states`: the states reached after
    0, 1, ..., n gap choices, each with its multiplicity.  A node is one
    state of a layer expanded.  ``canonical(layer, r)``, if given, maps
    each new layer, whose states have r unused values, to its canonical
    states with equal ones merged (:func:`states._perm_canonical`), so a
    node is then one canonical state."""
    layer = {root: 1}
    yield layer
    nodes = 0
    for r in range(n, 0, -1):
        following = {}
        count = following.get
        for state, mult in layer.items():
            nodes += 1
            if nodes > budget:
                raise ResourceLimit(f"node budget {budget} exhausted")
            for _, child in expand(state, r):
                following[child] = count(child, 0) + mult
        layer = following if canonical is None else canonical(following, r - 1)
        yield layer


def _avoider_counts(root, expand, n, budget, canonical=None):
    """|Av_i| for i = 0..n from one length-n sum over the avoider model
    ``(root, expand)`` of a pattern, its layers made canonical by
    ``canonical`` if given (:func:`_layers`).  After i gap choices the
    multiplicities count the avoiding i-entry prefixes of length-n
    permutations: i of the n values in an order whose pattern avoids,
    C(n, i) |Av_i| of them."""
    return [sum(layer.values()) // math.comb(n, i)
            for i, layer in enumerate(_layers(root, expand, n, budget, canonical))]


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
    valid_size(n, "n", 0, DEFAULT_COUNT_LENGTH_LIMIT, OVER_LENGTH)
    valid_budget(budget)
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
    every count from one length-n_max sum (:func:`_avoider_counts`)
    over the canonical states of the pattern :func:`count_avoiders`
    sums over, which expands the states of its count at n_max."""
    valid_size(n_max, "n_max", 1, DEFAULT_COUNT_LENGTH_LIMIT, OVER_LENGTH)
    valid_budget(budget)
    if pattern.n == 0:
        raise PreconditionViolated("avoidance is defined for nonempty patterns")
    pvals = _representative(pattern)
    counts = _avoider_counts(*_perm_states(pvals), n_max, budget, _perm_canonical(pvals))
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
    valid_size(n, "n", 0, DEFAULT_COUNT_LENGTH_LIMIT, OVER_LENGTH)
    valid_budget(budget)
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


def _interned(root, expand, name=None):
    """``(states, steps)`` over the states of a ``(root, expand)`` model,
    each named by ``name(state)``, or by default numbered as it is met
    (the root is 0): ``states`` maps each name to its state, and
    ``steps[i, *args]`` is the expansion ``expand(states[i], *args)`` as a
    dict from each gap that leaves a child to the child's name, a
    :class:`_Lazy` table."""
    states, names = {}, {}
    if name is None:
        name = lambda state: len(states)

    def fill(key):
        row = {}
        for u, child in expand(states[key[0]], *key[1:]):
            i = names.get(child)
            if i is None:
                i = names[child] = name(child)
                states[i] = child
            row[u] = i
        return row

    names[root] = name(root)
    states[names[root]] = root
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


def _colour(pvals, n):
    """One colour of a length-n merge as ``(states, steps, width)`` over
    its prefix states (:func:`_interned`), each named by its downset
    code, a ``width``-bit int: one colour's state recurs across many
    pairs and pair sets.

    A state with tuples or a mask is reached by a step, so it has at most
    n - 1 unused values: its gaps lie in [0, n - 1] and its mask's bits
    below n.  The code's low n bits are the state's forbidden-gap mask.
    Above them each tuple level j = 1..k-2 of width w owns n^w bits, one
    per gap tuple of [0, n - 1]^w, and sets those of the tuples that one
    of its occurrences dominates: a box, an interval per position,
    [g, n - 1] at a lower bound g, [0, g] at an upper bound and {g} at
    both.  A tuple dominates itself, so state q is no more constrained
    than state p (each partial occurrence of q is dominated by one of
    p's and q's mask is included in p's, so every continuation that
    avoids the pattern from p avoids it from q too) iff q's code is a
    bit-subset of p's.  A reduced level is the antichain of its
    downset's maximal tuples, so distinct states have distinct codes,
    and the root's is 0."""
    plan = _occurrence_plan(pvals)
    last = len(pvals) - 1
    offsets, width = [None], n
    for j in range(1, last):
        offsets.append(width)
        width += n ** len(plan[j - 1][2])

    def box(key):
        # the points of the box in mixed radix n, each position's
        # interval a geometric series times the boxes of the positions
        # before it
        j, t = key
        lows, ups = plan[j - 1][3:5]
        cells, stride = 1, 1
        for i, g in enumerate(t):
            a = g if i in lows else 0
            b = g if i in ups else n - 1
            cells *= ((1 << (b - a + 1) * stride) - 1) // ((1 << stride) - 1) << a * stride
            stride *= n
        return cells << offsets[j]

    boxes = _Lazy(box)

    def code(state):
        c = state[last] if last else 0
        for j in range(1, last):
            for t in state[j]:
                c |= boxes[j, t]
        return c

    return *_interned(*_perm_states(pvals), code), width


def _merge_states(red, blue):
    """The prefix-state model of merges of two colours built by
    :func:`_colour`, as ``(root, expand)``.

    A state is the set of (red state, blue state) pairs of the colourings
    of the prefix still alive, both in gap coordinates of the one shared
    set of unused values, each pair the int ``red << width | blue`` of
    its colours' codes.  At gap u each pair goes to a red child, where
    the new entry joins red and only shifts blue's gaps, and a blue
    child, dropping a child whose joining colour completes its pattern.
    A pair is dropped when another pair of the set is no more
    constrained in both colours, that is when the other's int is a
    bit-subset of its own.  A bit-subset is numerically smaller, so after
    one ascending sort a pair stays iff no pair kept before it is a
    subset of it; codes are distinct, so the reduced set is canonical.
    ``expand(pairs, r)`` yields ``(u, children)`` for each gap u that
    leaves a pair.

    Pairs recur across the pair sets of one layer, so the expansion
    memoises each pair's children at every gap, read from the colours'
    expansions, in a :class:`_Lazy` table.  The children depend on r,
    which is not in the key; the table is cleared whenever r changes, so
    it holds one layer at most."""
    _, red_steps, _ = red
    _, blue_steps, width = blue
    low = (1 << width) - 1

    def children_of(pair):
        rs, bs = pair >> width, pair & low
        out = [[] for _ in range(layer)]
        shifted = blue_steps[bs, layer, False]
        for u, child in red_steps[rs, layer, True].items():
            out[u].append(child << width | shifted[u])
        shifted = red_steps[rs, layer, False]
        for u, child in blue_steps[bs, layer, True].items():
            out[u].append(shifted[u] << width | child)
        return out

    kids, layer = _Lazy(children_of), None

    def undominated(children):
        kept = []
        for p in sorted(children):
            outside = ~p
            for q in kept:
                if not q & outside:
                    break
            else:
                kept.append(p)
        return frozenset(kept)

    def expand(pairs, r):
        nonlocal layer
        if r != layer:
            kids.clear()
            layer = r
        for u, lists in enumerate(zip(*[kids[pair] for pair in pairs])):
            children = set().union(*lists)
            if children:
                yield u, undominated(children)

    return frozenset([0]), expand


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
    _, merge_steps = _interned(*_merge_states(_colour(rvals, n), _colour(bvals, n)))

    def expand(state, r):
        host, pairs = state
        merged = {} if pairs is None else merge_steps[pairs, r]
        for u, child in host_steps[host, r].items():
            yield u, (child, merged.get(u))

    def fails(layer):
        return any(pairs is None for _, pairs in layer)

    layer = _sum_over_states((0, 0), expand, n, budget)
    if not fails(layer):
        return sum(layer.values()), True, None
    state, rank = (0, 0), 0
    unused, values = list(range(1, n + 1)), []
    for r in range(n, 0, -1):
        for u, child in expand(state, r):
            layer = _sum_over_states(child, expand, r - 1, budget)
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
    valid_size(n, "n", 0, DEFAULT_MERGE_COUNT_LENGTH_LIMIT, OVER_LENGTH)
    valid_budget(budget)
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
    valid_size(n, "n", 0, DEFAULT_MERGE_COUNT_LENGTH_LIMIT, OVER_LENGTH)
    valid_budget(budget)
    red, blue = _colour(red_pattern.entries, n), _colour(blue_pattern.entries, n)
    lhs = sum(_sum_over_states(*_merge_states(red, blue), n, budget).values())

    def counts(colour):
        steps = colour[1]
        return _avoider_counts(0, lambda i, r: steps[i, r, True].items(), n, budget)

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
