"""Exact search for extremal quantities of 0-1 matrices that avoid a
permutation-matrix pattern.

exfn_exact maximizes ones in an n x n host; fpts_exact maximizes the
row count of a width-t host with at least s ones per row; gpts_exact is
the column analog, computed through a quarter-turn rotation.  On top of
the searches sit two certifiers that compare exact values against the
closed-form bounds from the bounds module, which they import when
called, so the searches alone never load it.  Both lemmas assume the
linear extremal hypothesis ex_P(n) <= k^a * n; both certifiers check it
by exfn_exact for n = 1 .. _HYPOTHESIS_N, after their argument checks
and before any row search, on their one node budget.

Both searches grow hosts one row (a column bitmask) at a time and merge
hosts with equal row states (states._row_states: the pattern's partial
occurrences keyed by host column, and for its longest proper prefix
the mask of the columns a next row may not use, state[-1]).  A row
is allowed when it avoids that mask.  exfn_exact is a memoised max-ones
recursion over (rows left, state), fpts_exact a longest path from the
empty state.  For a k x k pattern f(t, s) splits in two.  With
s < k and s <= t it is infinite: one row of s ones (s = 0 included)
repeats forever, since an occurrence needs k columns, so fpts_exact
answers it without a search.  With s >= k it is at most
(k - 1) * C(t, k), the pigeonhole bound of Marcus and Tardos (more
rows than that repeat some k-set of ones k times, a k x k block of
ones).  So no weight-s row
leaves a state unchanged, else it could repeat forever: the row graph
is acyclic, and the node budget is fpts_exact's only stop.

exfn_exact searches a state's distinct children, not its rows.  After
the full allowed row, which it searches under first, a sweep over the
allowed columns, left to right, builds them: from the empty row's
child it joins one column at a time to every partial child so far,
keeping for each partial child its best row, the one with the most
ones, ties going to the larger mask.  A one at column x extends only
the state's own occurrences, never ones the same row made, so the
row's child is the fold of these one-column joins, each the row
model's step of a one-column row (states._row_states).  Rows with one
partial child have the same completions, so the best row of each
child is the best of all rows reaching it.  No row adds fewer
occurrences than the empty one, so no child's rest has more ones than
the empty row's: the children are searched under in descending order
of their best rows, the empty row's child first among them, and the
first whose best row and that cap cannot beat the best so far ends the
state.  fpts_exact tries only the rows of exactly s ones, in
descending numeric order, since a weight-s subset of a heavier row
avoids the pattern wherever the row does.

The row model's step is memoised as states._row_states describes, and
its memo belongs to the model each search builds, so it lasts one
search and is freed when the search returns.

What a process keeps across searches is their result records: one
table of at most 128 finished searches, keyed by pattern and sizes,
the least recently used leaving first.  A call checks its arguments
first, and returns a kept record in place of a search only when the
search would return an identical one.  A depth-first run that meets
no stop condition does not depend on the node budget, once that is at
least its node count, so a record is reused at any budget of at least
its nodes_explored.  The certifiers stop an fpts_exact run at its
first host of a given length; a proven run whose value is below that
length never meets the stop, so its record answers them too.
Budget-exhausted and stopped runs are not kept.  A reused record's
nodes_explored counts the search that produced it, not work done by
the call that returns it.

An exfn_exact node is one sweep cell: a state's full row, its empty
row's child, or one column joined to one partial child, so the budget
bounds all work.  An fpts_exact node is one candidate row visited from
one distinct state.  Witnesses are read back from the memo as the
first optimal host in candidate order, the one a depth-first search
over the rows in descending numeric order finds first: an exfn_exact
state keeps the row under which the host holds the most ones, ties
going to the larger mask, so the empty row wins only when it is
strictly best.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

from .core import (
    BinaryMatrix,
    PermutationMatrix,
    count_block_decompositions,
    from_matrix,
    matrix_occurrence_masks,
    rotate90,
)
from .errors import PreconditionViolated, ResourceLimit
from .limits import DEFAULT_NODE_BUDGET, MAX_WIDTH, OVER_WIDTH, valid_budget, valid_size
from .record import Record
from .states import _row_states


class ExtremalResult(Record):
    """Outcome of a search.  When proven_optimal is False the value is
    the best found before the node budget ran out.  An infinite
    fpts/gpts value (s < k) is None, proven.  The certifiers' private
    runs may also stop at their first host of a given length: the value
    is then that length, not proven, and the witness is None, which no
    public search returns."""

    value: int | None
    witness: BinaryMatrix | None
    nodes_explored: int
    proven_optimal: bool


class _Stop(Exception):
    """Ends a search early: budget spent, or a host of `stop` rows found."""


# the sub-search of check_lemma22 stops at its first host of this many
# rows; that length then stands in for f_sub, as for an infinite f_sub
_SUB_STOP = 64

# both certifiers check ex_P(n) <= k^a * n for n = 1 .. this
_HYPOTHESIS_N = 4

# finished searches, least recently used first: ("exfn", masks, n) and
# ("fpts", masks, t, s), masks being the pattern's row masks
_finished: dict = {}


def _recall(key, budget: int):
    """The record kept under key, if the budget covers its search."""
    res = _finished.get(key)
    if res is None or res.nodes_explored > budget:
        return None
    _finished[key] = _finished.pop(key)
    return res


def _keep(key, res):
    """Keep the record of a finished search and return it."""
    _finished[key] = res
    if len(_finished) > 128:
        del _finished[next(iter(_finished))]
    return res


def exfn_exact(
    P: PermutationMatrix, n: int, budget: int = DEFAULT_NODE_BUDGET
) -> ExtremalResult:
    """Maximum number of ones in an n x n matrix avoiding P.

    best(r, state) = max over the rows the state allows of the row's
    ones plus best(r - 1, state after it), memoised; the last row takes
    every allowed column.  The full allowed row is searched under first.
    Then a column sweep (module docstring) gives each distinct child
    with its best row; an empty row adds no occurrence, so no child's
    rest holds more ones than the empty row's, cap = best(r - 1, state
    after the empty row).  The children are searched under in
    descending order of their best rows, the empty row's child first,
    until a child's best row's ones + cap cannot beat the best so far.
    The full row and each sweep cell count one node each, so the budget
    bounds all work.
    Budget exhaustion returns the best host completed on the search
    stack, flagged not proven.  A finished search is run once per
    process (see the module docstring).
    """
    valid_size(n, "n", 1, MAX_WIDTH, OVER_WIDTH)
    valid_budget(budget)
    return _exfn(P, n, budget)


def _exfn(P: PermutationMatrix, n: int, budget: int) -> ExtremalResult:
    """The body of :func:`exfn_exact` on checked arguments; a budget
    below 1 returns at once, unproven."""
    key = ("exfn", P.matrix.masks, n)
    kept = _recall(key, budget)
    if kept is not None:
        return kept
    root, step = _row_states(P, n)
    full, one = (1 << n) - 1, 1 << n
    memo = {}  # (rows left, state) -> (most ones, first best row, state after it)
    stack: list[int] = []
    best_value, best_rows = 0, [0] * n
    nodes = 0

    def sweep(state, r):
        # the empty row's child, then each allowed column, left to right,
        # joined to every partial child so far: the distinct children,
        # each with its best row as ones << n | row, so larger is better
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Stop
        empty = step(state, 0, r - 1)
        rows = {empty: 0}
        cols = full & ~state[-1]
        while cols:
            bit = cols & -cols
            cols ^= bit
            for partial, row in list(rows.items()):
                nodes += 1
                if nodes > budget:
                    raise _Stop
                child = step(state, bit, r - 1, partial)
                row += one + bit
                if rows.get(child, -1) < row:
                    rows[child] = row
        return empty, rows

    def best(r, state):
        nonlocal best_value, best_rows, nodes
        if r == 0:
            ones = sum(m.bit_count() for m in stack)
            if ones > best_value:
                best_value, best_rows = ones, list(stack)
            return 0
        key = (r, state)
        if key in memo:
            return memo[key][0]
        # the full row first, so a host is completed before any sweep
        nodes += 1
        if nodes > budget:
            raise _Stop
        m = full & ~state[-1]
        first = step(state, m, r - 1) if r > 1 else None
        stack.append(m)
        rest = best(r - 1, first)
        stack.pop()
        top, after = (m.bit_count() + rest << n) + m, first
        if r > 1 and m:
            # then the empty row's child, whose rest caps every child's:
            # in descending order, once a child's best row with the cap
            # cannot beat the best so far, no later one can
            empty, rows = sweep(state, r)
            cap = rest if first == empty else None
            order = sorted(rows, key=rows.get, reverse=True)[1:]  # [0] is first's
            if cap is None:
                order.remove(empty)
                order.insert(0, empty)
            for child in order:
                row = rows[child]
                if cap is not None and row + (cap << n) <= top:
                    break
                stack.append(row & full)
                rest = best(r - 1, child)
                stack.pop()
                if cap is None:
                    cap = rest
                if row + (rest << n) > top:
                    top, after = row + (rest << n), child
        memo[key] = (top >> n, top & full, after)
        return top >> n

    try:
        value = best(n, root)
    except _Stop:
        return ExtremalResult(best_value, BinaryMatrix(best_rows, n), nodes, False)
    host, state = [], root
    for r in range(n, 0, -1):
        _, m, state = memo[(r, state)]
        host.append(m)
    return _keep(key, ExtremalResult(value, BinaryMatrix(host, n), nodes, True))


def exfn_enumerate(P: PermutationMatrix, n: int) -> int:
    """Independent oracle: sweep all 2^(n^2) matrices.  Desk scale only."""
    if valid_size(n, "n", 1) ** 2 > 16:
        raise ResourceLimit(f"enumeration over 2^{n * n} matrices refused")
    if P.k == 1:
        return 0
    pat_masks = P.matrix.masks
    best = 0
    for code in range(1 << (n * n)):
        if code.bit_count() <= best:
            continue
        rows = [(code >> (n * i)) & ((1 << n) - 1) for i in range(n)]
        if matrix_occurrence_masks(rows, n, pat_masks, P.k) is None:
            best = code.bit_count()
    return best


def _weight_submasks(allowed: int, s: int):
    """The submasks of ``allowed`` with exactly s bits, in descending
    numeric order: combinations of its bits taken highest first.  There
    are none when s exceeds the bit count, however large s is."""
    bits = [1 << c for c in range(allowed.bit_length() - 1, -1, -1) if allowed >> c & 1]
    return map(sum, combinations(bits, min(s, len(bits) + 1)))


def fpts_exact(
    P: PermutationMatrix, t: int, s: int, budget: int = DEFAULT_NODE_BUDGET
) -> ExtremalResult:
    """Maximum N such that some N x t matrix with at least s ones per
    row avoids P.

    For s < k with s <= t it is infinite, proven without a search: value
    None, no nodes, and the witness is the one row of the s highest
    columns (the zero row when s = 0), which repeats forever, since an
    occurrence needs k columns.  Otherwise it is the longest path from
    the empty state, memoised.  Candidate rows are the allowed masks of
    exactly s ones, in descending numeric order.  Deleting ones never
    creates an occurrence, so trimming each row of an avoiding host to s
    of its ones keeps it avoiding: heavier rows never reach further.
    With fewer than s allowed columns there is no candidate, so s > t
    gives the empty host, proven.  With s >= k the row graph is acyclic
    (see the module docstring), so the node budget is the only stop: its
    exhaustion returns the deepest host on the search stack flagged not
    proven.  A node costs more as t and k grow: about 70 us for 2413 at
    t = 64, s = 4 and 1.7 ms for 24153 at t = 64, s = 5 (2 vCPU VM), so
    at the default budget such a search runs hours to days; pass a
    budget of 10^4 to 10^5 for a best-so-far in seconds.  A finished
    search is run once per process (see the module docstring).
    """
    valid_size(t, "t", 1, MAX_WIDTH, OVER_WIDTH)
    valid_size(s, "s")
    valid_budget(budget)
    return _fpts(P, t, s, budget)


def _fpts(
    P: PermutationMatrix, t: int, s: int, budget: int, stop: float = math.inf
) -> ExtremalResult:
    """The body of :func:`fpts_exact` on checked arguments; a budget
    below 1 returns at once, unproven.  The certifiers pass a stop: the
    search then ends at the first host of `stop` rows it finds, and
    returns value `stop`, not proven, with no witness (None)."""
    if s < P.k and s <= t:
        return ExtremalResult(None, BinaryMatrix((((1 << s) - 1) << t - s,), t), 0, True)
    key = ("fpts", P.matrix.masks, t, s)
    kept = _recall(key, budget)
    if kept is not None and kept.value < stop:
        return kept
    root, step = _row_states(P, t)

    def candidates(state):
        return _weight_submasks(((1 << t) - 1) & ~state[-1], s)

    memo = {}  # state -> most rows that can follow it
    stack: list[int] = []  # the host's rows; stack + [m] is a host
    deepest: list[int] = []
    # depth first, one frame per state on the host's path, so a host may
    # outgrow the interpreter's recursion limit: the state, its untried
    # rows, and the most rows found so far to follow it
    frames = [[root, candidates(root), 0]]
    nodes = 0
    try:
        while frames:
            frame = frames[-1]
            state, rows, value = frame
            for m in rows:
                nodes += 1
                if nodes > budget or len(stack) + 1 >= stop:
                    raise _Stop
                child = step(state, m)
                more = memo.get(child)
                if more is None:
                    frame[2] = value
                    stack.append(m)
                    if len(stack) > len(deepest):
                        deepest = list(stack)
                    frames.append([child, candidates(child), 0])
                    break
                # a child searched from here never reaches the stop, but
                # one searched from a shorter host may
                if len(stack) + 1 + more >= stop:
                    raise _Stop
                if more >= value:
                    value = more + 1
            else:
                frames.pop()
                memo[state] = value
                if frames:
                    stack.pop()
                    frames[-1][2] = max(frames[-1][2], value + 1)
    except _Stop:
        if nodes > budget:
            return ExtremalResult(len(deepest), BinaryMatrix(deepest, t), nodes, False)
        return ExtremalResult(stop, None, nodes, False)
    value = memo[root]
    host, state = [], root
    for rest in range(value - 1, -1, -1):
        # the first row in candidate order that `rest` more rows can follow
        for m in candidates(state):
            child = step(state, m)
            if memo[child] >= rest:
                break
        host.append(m)
        state = child
    return _keep(key, ExtremalResult(value, BinaryMatrix(host, t), nodes, True))


def gpts_exact(
    P: PermutationMatrix, t: int, s: int, budget: int = DEFAULT_NODE_BUDGET
) -> ExtremalResult:
    """Column analog: maximum N such that some t x N matrix with at
    least s ones per column avoids P.  A quarter turn maps such hosts
    to row-weighted hosts of the rotated pattern, so this is
    fpts_exact(rotate90(P), t, s), with its node costs: pass a budget
    for wide hosts of a k >= 4 pattern."""
    return fpts_exact(rotate90(P), t, s, budget)


def _rows_within(P: PermutationMatrix, t: int, s: int, bound: Fraction, budget: int):
    """Decide f(t, s) <= bound by one search stopped at the first host
    of floor(bound) + 1 rows: (lhs, holds, nodes).  A proven finite
    value is below the stop, so the bound holds; a stopped search shows
    f >= stop > bound, and lhs is the stop; an infinite f (s < k),
    decided without a search, fails with lhs None.  Budget exhaustion
    raises ResourceLimit.  t and s are checked, and the budget is what
    the caller has left."""
    res = _fpts(P, t, s, budget, bound.numerator // bound.denominator + 1)
    if not res.proven_optimal and res.witness is not None:
        raise ResourceLimit("budget exhausted before the search completed")
    return res.value, res.proven_optimal and res.value is not None, res.nodes_explored


def _hypothesis(P: PermutationMatrix, ka: tuple[int, int], budget: int) -> int:
    """Check the lemmas' linear extremal hypothesis ex_P(n) <= k^a * n
    for n = 1 .. _HYPOTHESIS_N, k^a given as an exact integer ratio, by
    exfn_exact on what the caller has left of its budget: the nodes
    used.  A value over k^a * n raises PreconditionViolated, budget
    exhaustion ResourceLimit."""
    kn, kd = ka
    nodes = 0
    for n in range(1, _HYPOTHESIS_N + 1):
        res = _exfn(P, n, budget - nodes)
        nodes += res.nodes_explored
        if not res.proven_optimal:
            raise ResourceLimit(f"budget exhausted while verifying ex at n={n}")
        if res.value * kd > kn * n:
            raise PreconditionViolated(
                f"ex(n={n}) = {res.value} exceeds k^a*n = {kn / kd * n:g}"
            )
    return nodes


class Lemma21Report(Record):
    """Exact row count versus the closed-form row bound."""

    k: int
    a: float
    t: int
    s: int
    lhs_value: int | None
    rhs_bound: Fraction
    holds: bool
    nodes_explored: int
    hypothesis_checked_upto: int

    _keys = {"lhs_value": "lhs", "rhs_bound": "rhs", "holds": "pass", "nodes_explored": "nodes"}
    _text = ("rhs_bound",)


def check_lemma21(
    P: PermutationMatrix, a, t: int, s: int, budget: int = DEFAULT_NODE_BUDGET
) -> Lemma21Report:
    """Certify fpts_exact(P, t, s) <= k^a * t / (s - k^a).

    After the argument checks it verifies the linear extremal hypothesis
    ex_P(n) <= k^a * n for 1 <= n <= _HYPOTHESIS_N (4) via exfn_exact
    (PreconditionViolated otherwise), then decides the bound with one
    search stopped just above it (_rows_within): the bound holds exactly
    when that search proves a finite value, and a failing verdict's lhs
    is the stop it reached, a lower bound on f, or None where f is
    infinite (s < k).  The hypothesis searches and the final one share
    the one node budget.  A t over MAX_WIDTH is refused (ResourceLimit)
    before the bound is evaluated.
    """
    from .bounds import _lemma21_side  # only the certifiers need bounds

    valid_budget(budget)
    valid_size(t, "t", None, MAX_WIDTH, OVER_WIDTH)
    valid_size(s, "s", None)
    k = P.k
    bound, ka = _lemma21_side(k, a, t, s)
    nodes = _hypothesis(P, ka, budget)
    lhs, holds, used = _rows_within(P, t, s, bound, budget - nodes)
    return Lemma21Report(k, a, t, s, lhs, bound, holds, nodes + used, _HYPOTHESIS_N)


@functools.lru_cache(maxsize=64, typed=True)
def _blockable(masks: tuple[int, ...], c: int) -> bool:
    """Whether the permutation matrix with these row masks decomposes
    into c blocks, decided once per (masks, c), the key form of the kept
    search records; typed, so a float c is refused as it is uncached."""
    return count_block_decompositions(from_matrix(BinaryMatrix(masks, len(masks))), c) > 0


class Lemma22Report(Record):
    """Exact row count versus one step of the sectioning recursion.
    f_sub_capped marks a shrunken instance whose value is at least 64,
    infinite included: f_sub_value is then 64, a lower bound on it."""

    k: int
    a: float
    c: int
    t: int
    s: int
    x: float
    y: float
    shrunk_t: int
    shrunk_s: int
    f_sub_value: int
    f_sub_capped: bool
    lhs_value: int | None
    rhs_value: Fraction
    holds: bool
    nodes_explored: int

    _keys = {"lhs_value": "lhs", "rhs_value": "rhs", "holds": "pass", "nodes_explored": "nodes",
             "f_sub_value": "f_sub"}
    _text = ("rhs_value",)


def check_lemma22(
    P: PermutationMatrix,
    a,
    c: int,
    t: int,
    s: int,
    x,
    y,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Lemma22Report:
    """Certify one recursion step: the exact value at (t, s) is at most
    binom(c, floor(xc)) times the exact value at the shrunken instance
    plus the closed-form remainder.

    P must decompose into c blocks for the sectioning argument to apply.
    After the argument checks it verifies the linear extremal hypothesis
    ex_P(n) <= k^a * n for 1 <= n <= _HYPOTHESIS_N (4) via exfn_exact,
    as check_lemma21 does, with the same refusal.  f_sub is the
    sub-search's value; a sub-search stops at its first host of 64 rows,
    and 64 also stands in for an infinite value (f_sub_capped).  That
    only lowers the right side, so a pass stays sound, but a fail is
    then unproven and raises ResourceLimit (verdict open).  The left
    side is decided with one search stopped just above the right side
    (_rows_within): the bound holds exactly when that search proves a
    finite value, and a failing verdict's lhs is the stop it reached, a
    lower bound on f, or None where f is infinite (s < k).  The
    hypothesis searches, the sub-search and the search for the left side
    share the one node budget.  A t over MAX_WIDTH is refused
    (ResourceLimit) before the constants are validated.  The right side
    is built once, with the validation, and evaluated at f_sub, since it
    is affine in f_sub.
    """
    from .bounds import _lemma22_side  # only the certifiers need bounds

    valid_budget(budget)
    valid_size(t, "t", None, MAX_WIDTH, OVER_WIDTH)
    valid_size(s, "s", None)
    k = P.k
    if not _blockable(P.matrix.masks, c):
        raise PreconditionViolated(f"pattern admits no {c}-block decomposition")
    # validates constants and the denominator before any search runs
    rhs_of, fxc, (yn, yd), ka = _lemma22_side(k, a, c, t, s, x, y, 0)
    shrunk_t = t * fxc // c
    shrunk_s = s * yn // yd
    if shrunk_s == 0:
        raise PreconditionViolated("floor(s*y) = 0 makes the shrunken search unbounded")
    nodes = _hypothesis(P, ka, budget)
    sub = _fpts(P, shrunk_t, shrunk_s, budget - nodes, _SUB_STOP)
    nodes += sub.nodes_explored
    f_sub = _SUB_STOP if sub.value is None else sub.value
    capped = f_sub == _SUB_STOP
    rhs = rhs_of(f_sub)
    lhs, holds, used = _rows_within(P, t, s, rhs, budget - nodes)
    if capped and not holds:
        raise ResourceLimit(
            f"f_sub >= {_SUB_STOP} and f exceeds the right side at {_SUB_STOP}; verdict open")
    return Lemma22Report(
        k, a, c, t, s, x, y, shrunk_t, shrunk_s, f_sub, capped,
        lhs, rhs, holds, nodes + used,
    )
