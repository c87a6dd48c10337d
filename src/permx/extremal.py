"""Exact search for extremal quantities of 0-1 matrices that avoid a
permutation-matrix pattern.

exfn_exact maximizes ones in an n x n host; fpts_exact maximizes the
row count of a width-t host with at least s ones per row; gpts_exact is
the column analog, computed through a quarter-turn rotation.  On top of
the searches sit two certifiers that compare exact values against the
closed-form bounds from the bounds module, which they import when
called, so the searches alone never load it.

Both searches grow hosts one row (a column bitmask) at a time and merge
hosts with equal row states (core._row_states: the pattern's partial
occurrences keyed by host column, and for its longest proper prefix
the mask of the columns a next row may not use, state[-1]).  A row
is allowed when it avoids that mask.  exfn_exact is a memoised max-ones
recursion over (rows left, state), fpts_exact a longest path from the
empty state.  Rows only add occurrences, so states grow along a host:
the row graph is acyclic apart from rows that leave the state unchanged,
which can repeat forever and are reported as reaching the row cap.
exfn_exact tries every allowed row; fpts_exact only the rows of exactly
s ones, since a weight-s subset of a heavier row avoids the pattern
wherever the row does.  Both try their rows in descending numeric order.

The row model's step is memoised as core._memo_step describes, and
its memo belongs to the model each search builds, so it lasts one
search and is freed when the search returns.

What a process keeps across searches is their result records: one
table of at most 128 finished searches, keyed by pattern and sizes,
the least recently used leaving first.  A call returns a kept record
in place of a search only when the search would return an identical
one.  A depth-first run that meets no stop condition depends neither
on the node budget, once that is at least its node count, nor on a row
cap above every row count it compares with the cap, and in a proven
fpts_exact run those counts are host lengths, at most its value.  So a
record is reused at any budget of at least its nodes_explored, a
proven fpts_exact record at any n_cap above its value, and a capped one
only at its own n_cap, where the same run stops at the same node.
Budget-exhausted records, and records of more than DEFAULT_ROW_CAP
witness rows, are not kept.  A reused record's nodes_explored counts
the search that produced it, not work done by the call that returns it.

A search node is one candidate row tried from one distinct state.
Witnesses are read back from the memo as the first optimal host in
candidate order, the one a depth-first search in that order finds first.
A row that leaves the state unchanged keeps winning until the rows still
needed fall to what a row before it reaches, so its whole run is written
at once: a capped witness costs a step per distinct state, not per row.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations

from .core import (
    BinaryMatrix,
    PermutationMatrix,
    _row_states,
    count_block_decompositions,
    from_matrix,
    matrix_occurrence_masks,
    rotate90,
)
from .errors import PreconditionViolated, ResourceLimit
from .limits import DEFAULT_NODE_BUDGET, DEFAULT_ROW_CAP, MAX_ROW_CAP, MAX_WIDTH
from .record import Record


class ExtremalResult(Record):
    """Outcome of a search.  When proven_optimal is False the value is
    the best found before the node budget ran out."""

    value: int
    witness: BinaryMatrix
    nodes_explored: int
    proven_optimal: bool


class FptsResult(ExtremalResult):
    """Outcome of an fpts/gpts search.  hit_row_cap marks searches that
    reached the row cap, so the true value may exceed `value`."""

    hit_row_cap: bool


class _Stop(Exception):
    """Ends a search early: budget spent, or a host of n_cap rows found."""


# finished searches, least recently used first: ("exfn", masks, n), and
# ("fpts", masks, t, s) for a proven record or ("fpts", masks, t, s,
# n_cap) for a capped one, masks being the pattern's row masks
_finished: dict = {}


def _recall(key, budget: int):
    """The record kept under key, if the budget covers its search."""
    res = _finished.get(key)
    if res is None or res.nodes_explored > budget:
        return None
    _finished[key] = _finished.pop(key)
    return res


def _keep(key, res):
    """Keep the record of a finished search, unless its witness is long,
    and return it."""
    if res.witness.rows <= DEFAULT_ROW_CAP:
        _finished[key] = res
        if len(_finished) > 128:
            del _finished[next(iter(_finished))]
    return res


def _submasks(allowed: int):
    """Every submask of ``allowed``, in descending numeric order."""
    m = allowed
    yield m
    while m:
        m = (m - 1) & allowed
        yield m


def _refuse_wide_host(t: int) -> None:
    """Host rows are t-bit masks; a wider host is a resource limit."""
    if t > MAX_WIDTH:
        raise ResourceLimit(f"width {t} exceeds the {MAX_WIDTH}-bit row limit")


def exfn_exact(
    P: PermutationMatrix, n: int, budget: int = DEFAULT_NODE_BUDGET
) -> ExtremalResult:
    """Maximum number of ones in an n x n matrix avoiding P.

    best(r, state) = max over the rows the state allows of the row's
    ones plus best(r - 1, state after it), memoised; the last row takes
    every allowed column.  Rows are tried in descending numeric order,
    every submask of the allowed columns down to the empty row.  Budget
    exhaustion returns the best host completed on the search stack,
    flagged not proven.  A finished search is run once per process (see
    the module docstring).
    """
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    _refuse_wide_host(n)
    key = ("exfn", P.matrix.masks, n)
    kept = _recall(key, budget)
    if kept is not None:
        return kept
    root, step = _row_states(P, n)
    memo = {}  # (rows left, state) -> (most ones, first best row, state after it)
    stack: list[int] = []
    best_value, best_rows = 0, [0] * n
    nodes = 0

    def best(r, state):
        nonlocal best_value, best_rows, nodes
        if r == 0:
            ones = sum(m.bit_count() for m in stack)
            if ones > best_value:
                best_value, best_rows = ones, list(stack)
            return 0
        key = (r, state)
        if key not in memo:
            allowed = ((1 << n) - 1) & ~state[-1]
            entry = (-1, 0, None)
            for m in [allowed] if r == 1 else _submasks(allowed):
                nodes += 1
                if nodes > budget:
                    raise _Stop
                child = step(state, m, r - 1) if r > 1 else None
                stack.append(m)
                value = m.bit_count() + best(r - 1, child)
                stack.pop()
                if value > entry[0]:
                    entry = (value, m, child)
            memo[key] = entry
        return memo[key][0]

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
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    if n * n > 16:
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
    P: PermutationMatrix,
    t: int,
    s: int,
    n_cap: int = DEFAULT_ROW_CAP,
    budget: int = DEFAULT_NODE_BUDGET,
) -> FptsResult:
    """Maximum N such that some N x t matrix with at least s ones per
    row avoids P: the longest path from the empty state, memoised.

    Candidate rows are the allowed masks of exactly s ones, in
    descending numeric order.  Deleting ones never creates an
    occurrence, so trimming each row of an avoiding host to s of its
    ones keeps it avoiding: heavier rows never reach further.  With
    fewer than s allowed columns there is no candidate, so s > t gives
    the empty host, proven.  Reaching n_cap, which includes finding a
    row that leaves the state unchanged and so can repeat forever, sets
    hit_row_cap (the true value may be larger); budget exhaustion
    returns the deepest host on the search stack flagged not proven.
    The witness writes a run of such a state-preserving row at once, so
    its cost does not grow with n_cap.  A finished search is run once
    per process (see the module docstring).
    """
    if t < 1:
        raise PreconditionViolated(f"need t >= 1, got {t}")
    _refuse_wide_host(t)
    if s < 0:
        raise PreconditionViolated(f"need s >= 0, got {s}")
    if s == 0:
        raise PreconditionViolated("s = 0 admits unlimited all-zero rows; refusing")
    if n_cap < 1:
        raise PreconditionViolated(f"need n_cap >= 1, got {n_cap}")
    if n_cap > MAX_ROW_CAP:
        raise ResourceLimit(f"row cap {n_cap} exceeds the {MAX_ROW_CAP}-row limit")
    key = ("fpts", P.matrix.masks, t, s)
    kept = _recall(key, budget)
    if kept is None or kept.value >= n_cap:
        kept = _recall(key + (n_cap,), budget)
    if kept is not None:
        return kept
    root, step = _row_states(P, t)

    def candidates(state):
        return _weight_submasks(((1 << t) - 1) & ~state[-1], s)

    def follow(state, need):
        # the first `need` rows, in candidate order, that can follow state.
        # A row that leaves the state unchanged wins again until the need
        # falls to what a row before it reaches, so its run is one extend
        out = []
        while len(out) < need:
            reach = 0  # the most rows a candidate passed over reaches
            for m in candidates(state):
                child = step(state, m)
                if child == state or memo[child] >= need - len(out) - 1:
                    break
                reach = max(reach, 1 + memo[child])
            out += [m] * (need - len(out) - reach if child == state else 1)
            state = child
        return out

    memo = {}  # state -> most rows that can follow it, always < n_cap
    stack: list[int] = []
    deepest: list[int] = []
    capped = None
    nodes = 0

    def longest(state):
        # stops at the first host of n_cap rows in candidate order: the
        # stack, one more row, and the best continuation after it
        nonlocal capped, deepest, nodes
        value = 0
        for m in candidates(state):
            nodes += 1
            if nodes > budget:
                raise _Stop
            child = step(state, m)
            if child == state or len(stack) + 1 >= n_cap:
                more = n_cap
            else:
                more = memo.get(child)
            if more is None:
                stack.append(m)
                if len(stack) > len(deepest):
                    deepest = list(stack)
                more = longest(child)
                stack.pop()
            if len(stack) + 1 + more >= n_cap:
                capped = stack + [m] + follow(child, n_cap - len(stack) - 1)
                raise _Stop
            value = max(value, 1 + more)
        memo[state] = value
        return value

    try:
        value = longest(root)
    except _Stop:
        if capped is not None:
            res = FptsResult(n_cap, BinaryMatrix(capped, t), nodes, False, True)
            return _keep(key + (n_cap,), res)
        return FptsResult(len(deepest), BinaryMatrix(deepest, t), nodes, False, False)
    return _keep(key, FptsResult(value, BinaryMatrix(follow(root, value), t), nodes, True, False))


def gpts_exact(
    P: PermutationMatrix,
    t: int,
    s: int,
    n_cap: int = DEFAULT_ROW_CAP,
    budget: int = DEFAULT_NODE_BUDGET,
) -> FptsResult:
    """Column analog: maximum N such that some t x N matrix with at
    least s ones per column avoids P.  A quarter turn maps such hosts
    to row-weighted hosts of the rotated pattern, so this is
    fpts_exact(rotate90(P), t, s)."""
    return fpts_exact(rotate90(P), t, s, n_cap, budget)


def _rows_within(
    P: PermutationMatrix, t: int, s: int, bound: Fraction, budget: int
) -> FptsResult:
    """Decide f(t, s) <= bound by one fpts_exact search capped at
    min(DEFAULT_ROW_CAP, floor(bound) + 1).  A proven value is below the
    cap, so the bound holds; reaching a cap above the bound shows
    f >= cap > bound, so it fails; anything else raises ResourceLimit."""
    floor = bound.numerator // bound.denominator
    cap = min(DEFAULT_ROW_CAP, floor + 1)
    res = fpts_exact(P, t, s, cap, budget)
    if res.hit_row_cap and cap <= floor:
        raise ResourceLimit("row cap reached below the bound; verdict open")
    if not res.proven_optimal and not res.hit_row_cap:
        raise ResourceLimit("budget exhausted before the search completed")
    return res


class Lemma21Report(Record):
    """Exact row count versus the closed-form row bound."""

    k: int
    a: float
    t: int
    s: int
    lhs_value: int
    rhs_bound: Fraction
    holds: bool
    nodes_explored: int
    hypothesis_checked_upto: int

    _keys = {"lhs_value": "lhs", "rhs_bound": "rhs", "holds": "pass", "nodes_explored": "nodes"}
    _text = ("rhs_bound",)


def check_lemma21(
    P: PermutationMatrix,
    a,
    t: int,
    s: int,
    hypothesis_n: int = 4,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Lemma21Report:
    """Certify fpts_exact(P, t, s) <= k^a * t / (s - k^a).

    First verifies the linear extremal hypothesis ex_P(n) <= k^a * n
    for 1 <= n <= hypothesis_n via exfn_exact (PreconditionViolated
    otherwise; hypothesis_n below 1 is refused), then decides the bound
    with one search capped just above it (_rows_within): the bound holds
    exactly when that search is proven, and a failing verdict's lhs is
    the cap it reached, a lower bound on f.  The hypothesis searches and
    the final one share the one node budget.  A t over MAX_WIDTH is
    refused (ResourceLimit) before any search.
    """
    from .bounds import _pow_ka, lemma21_bound  # only the certifiers need bounds

    k = P.k
    bound = lemma21_bound(k, a, t, s)
    ka = _pow_ka(k, a, s)
    if hypothesis_n < 1:
        raise PreconditionViolated(f"need hypothesis_n >= 1, got {hypothesis_n}")
    if hypothesis_n > MAX_WIDTH:
        raise ResourceLimit(
            f"hypothesis width {hypothesis_n} exceeds the {MAX_WIDTH}-bit row limit"
        )
    _refuse_wide_host(t)
    nodes = 0
    for n in range(1, hypothesis_n + 1):
        res = exfn_exact(P, n, budget - nodes)
        nodes += res.nodes_explored
        if not res.proven_optimal:
            raise ResourceLimit(f"budget exhausted while verifying ex at n={n}")
        if Fraction(res.value) > ka * n:
            raise PreconditionViolated(
                f"ex(n={n}) = {res.value} exceeds k^a*n = {float(ka) * n:g}"
            )
    fres = _rows_within(P, t, s, bound, budget - nodes)
    nodes += fres.nodes_explored
    return Lemma21Report(
        k, a, t, s, fres.value, bound, fres.proven_optimal, nodes, hypothesis_n
    )


@functools.lru_cache(maxsize=64, typed=True)
def _blockable(P: PermutationMatrix, c: int) -> bool:
    """Whether P decomposes into c blocks, decided once per (P, c);
    typed, so a float c is refused as it is uncached."""
    return count_block_decompositions(from_matrix(P), c) > 0


class Lemma22Report(Record):
    """Exact row count versus one step of the sectioning recursion.
    f_sub_capped marks a sub-search that stopped at the row cap, so
    f_sub_value is a lower bound on the shrunken instance's value."""

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
    lhs_value: int
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

    P must decompose into c blocks for the sectioning argument to
    apply.  f_sub is the sub-search's value, which may be capped
    (f_sub_capped); that only lowers the right side, so a pass stays
    sound.  The left side is decided with one search capped just above
    the right side (_rows_within): the bound holds exactly when that
    search is proven, and a failing verdict's lhs is the cap it reached,
    a lower bound on f.  The sub-search and the search for the left side
    share the one node budget.  A t over MAX_WIDTH is refused
    (ResourceLimit) once the constants are validated, before the
    sub-search.  The right side is built once, with the validation, and
    evaluated at f_sub, since it is affine in f_sub.
    """
    from .bounds import _as_fraction, _lemma22_side  # only the certifiers need bounds

    k = P.k
    if not _blockable(P, c):
        raise PreconditionViolated(f"pattern admits no {c}-block decomposition")
    # validates constants and the denominator before any search runs
    rhs_of = _lemma22_side(k, a, c, t, s, x, y, 0)
    xf = _as_fraction(x, "x")
    yf = _as_fraction(y, "y")
    fxc = int(xf * c)
    shrunk_t = t * fxc // c
    shrunk_s = int(Fraction(s) * yf)
    if shrunk_s == 0:
        raise PreconditionViolated("floor(s*y) = 0 makes the shrunken search unbounded")
    _refuse_wide_host(t)
    sub = fpts_exact(P, shrunk_t, shrunk_s, DEFAULT_ROW_CAP, budget)
    rhs = rhs_of(sub.value)
    lhs_res = _rows_within(P, t, s, rhs, budget - sub.nodes_explored)
    nodes = sub.nodes_explored + lhs_res.nodes_explored
    return Lemma22Report(
        k, a, c, t, s, x, y, shrunk_t, shrunk_s, sub.value, sub.hit_row_cap,
        lhs_res.value, rhs, lhs_res.proven_optimal, nodes,
    )
