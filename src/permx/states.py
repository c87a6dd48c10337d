"""Partial occurrences, shared by the permutation and 0-1 matrix searches.

Both searches grow a host one step at a time (an entry of a permutation,
a row of a matrix) and describe what has been built by its partial
occurrences: for each pattern prefix pvals[:j], the host coordinates
of the entries an occurrence of it still needs to compare against.
For permutations pvals is the pattern itself and the coordinates are
gaps (_perm_states); for a permutation matrix it is col_of_row(), with
host rows as positions and host columns as values (_row_states).  Both
models keep one state format: tuples reduced by their occurrence-plan
entry's reducer (_reducer) for the prefixes of length j < k - 1, and
for the longest prefix, whose occurrences are never extended, one int,
the mask of the coordinates that a next entry may not take.  Level j
of a child depends only on levels j - 1 and j of its state and on the
new entry, so both models memoise levels on (j, parent level, own
level): the permutation model looks each up once per state and gets a
row over the gaps, the row model once per row or one-column join.

This module imports only the standard library: the counting and
extremal searches load it, and a containment query, which needs only
``core``, never compiles it.  ``_row_states`` takes a
``core.PermutationMatrix``, named only in an annotation that is never
evaluated.
"""

from __future__ import annotations

import functools
import itertools
import operator

_EMPTY = frozenset()


def _neighbours(head, q):
    """Greatest value of ``head`` below q and least above it (None if absent)."""
    return (
        max((v for v in head if v < q), default=None),
        min((v for v in head if v > q), default=None),
    )


@functools.lru_cache(maxsize=64)
def _occurrence_plan(pvals):
    """Per prefix length j = 1..k: how an occurrence of pvals[:j-1] takes
    the new entry as its j-th one, and which entries of pvals[:j] a
    partial occurrence keeps.  ``pvals`` is a tuple; the plan is cached
    per pattern, as a tuple of tuples, so every model of one pattern
    shares one plan that none can change.

    Entry j is ``(lo, hi, src, lows, ups, reduce)``: lo/hi are the tuple
    positions of the value-neighbours of pvals[j-1] in the parent tuple
    (-1 when absent); src maps each kept entry to its parent position
    (-1 for the new entry); lows/ups are the positions kept as a lower/
    upper bound of some later pattern value, and reduce is
    :func:`_reducer` of them.  Position order is pattern-value order."""
    k = len(pvals)
    bounds = [[_neighbours(pvals[:j], q) for q in pvals[j:]] for j in range(k)]
    kept = [sorted({v for pair in b for v in pair if v is not None}) for b in bounds]
    kept.append([])
    plan = []
    for j in range(1, k + 1):
        parent, cur = kept[j - 1], kept[j]
        lo, hi = bounds[j - 1][0]
        later = bounds[j] if j < k else []
        lows = tuple(i for i, v in enumerate(cur) if any(b[0] == v for b in later))
        ups = tuple(i for i, v in enumerate(cur) if any(b[1] == v for b in later))
        plan.append((
            -1 if lo is None else parent.index(lo),
            -1 if hi is None else parent.index(hi),
            tuple(-1 if v == pvals[j - 1] else parent.index(v) for v in cur),
            lows,
            ups,
            _reducer(lows, ups),
        ))
    return tuple(plan)


def _dominated(t, among, lows, ups):
    """Whether some tuple of ``among`` dominates the partial occurrence t:
    its lower-bound entries are no larger and its upper-bound entries no
    smaller, so every completion of t is one of it too.  A tuple
    dominates itself."""
    return any(all(s[i] <= t[i] for i in lows) and all(s[i] >= t[i] for i in ups)
               for s in among)


def _reducer(lows, ups):
    """``reduce(tuples, top)``, the partial occurrences among ``tuples``
    that can still complete and that no other one dominates
    (:func:`_dominated`), as a frozenset, built for the dominance shape
    of (lows, ups).

    Host coordinates run from 0 to top - 1 and grow with value along a
    tuple, so a tuple is live when its highest lower bound lies below
    top - 1 and its lowest upper bound above 0: some free coordinate is
    left above every lower bound and below every upper one.

    A position that is both a lower and an upper bound must be equal, so
    the tuples fall into groups on those positions; every other position
    is free, and oriented so that smaller is better.  With no free
    position each tuple stands alone, and with one a group keeps its
    least tuple.  With two, a sort on (group, first, second) puts every
    dominator first, and a tuple stays iff its second coordinate beats
    the best of its group so far (the maxima-of-vectors sweep of Kung,
    Luccio and Preparata).  Three or more free positions, which only
    patterns of length 5 and up have, fall back to comparing each tuple
    with every one kept."""
    eq = [i for i in lows if i in ups]
    free = [(i, 1) for i in lows if i not in ups] + [(i, -1) for i in ups if i not in lows]
    group = operator.itemgetter(*eq) if eq else (lambda t: 0)
    high = lows[-1] if lows else None
    low = ups[0] if ups else None
    if lows and ups:
        live = lambda tuples, top: [t for t in tuples if t[high] < top - 1 and t[low]]
    elif lows:
        live = lambda tuples, top: [t for t in tuples if t[high] < top - 1]
    elif ups:
        live = lambda tuples, top: [t for t in tuples if t[low]]
    else:
        live = lambda tuples, top: tuples

    if not free:
        return lambda tuples, top: frozenset(live(tuples, top))
    if len(free) == 1:
        (a, sign), = free

        def reduce(tuples, top):
            least = {}
            for t in live(tuples, top):
                g = group(t)
                s = least.get(g)
                if s is None or (t[a] - s[a]) * sign < 0:
                    least[g] = t
            return frozenset(least.values())
    elif len(free) == 2:
        (a, sa), (b, sb) = free

        def reduce(tuples, top):
            out, current, best = [], None, 0
            for g, _, y, t in sorted([(group(t), sa * t[a], sb * t[b], t)
                                      for t in live(tuples, top)]):
                if g != current:
                    current, best = g, y
                    out.append(t)
                elif y < best:
                    best = y
                    out.append(t)
            return frozenset(out)
    else:
        def reduce(tuples, top):
            # sorting puts every dominator before what it dominates
            out = []
            for t in sorted(live(tuples, top),
                            key=lambda t: [t[i] for i in lows] + [-t[i] for i in ups]):
                if not _dominated(t, out, lows, ups):
                    out.append(t)
            return frozenset(out)
    return reduce


def _mask_bounds(plan):
    """Where the bounds of the forbidden-gap intervals come from in a
    parent occurrence at level k - 2, the one the new entry completes to
    length k - 1, as ``(mask_lo, mask_hi)``: the position in its tuple,
    -1 for the new entry, None when the pattern's last value has no
    neighbour on that side."""
    last_src = plan[-2][2] if len(plan) >= 2 else ()
    return tuple(None if i < 0 else last_src[i] for i in plan[-1][:2])


def _perm_states(pvals):
    """The prefix-state model of permutations avoiding ``pvals``, as
    ``(root, expand)``: the empty prefix's state and the expansion of a
    state by one more entry.

    Coordinates are gaps: the gap of an entry is the number of unused
    values below it.  ``expand(state, r, join=True)`` yields ``(u,
    child)``, in gap order, for each u = 0..r-1 at which appending the
    u-th smallest of the r unused values leaves a child: every gap above
    u drops by one, and when ``join`` is true the new entry, in gap u,
    also extends each occurrence t with t[lo] <= u < t[hi], and leaves
    no child when it completes the pattern.  With ``join`` false the
    entry is one of some other sequence drawn from the same values, as
    in a two-colour merge, and leaves a child at every gap.

    A state holds, per pattern prefix of length j < k, what is kept of
    its partial occurrences: for j < k - 1 their tuples, reduced by the
    plan entry's reducer, and for k >= 2 level k - 1, one int, the
    forbidden mask: bit g is set iff a next entry at gap g completes the
    pattern.  Those occurrences are never extended, only forbid gaps, so
    prefixes whose occurrences forbid the same gaps are one state.  A
    step at gap u drops bit u and moves the bits above it down by one,
    which turns each forbidden interval [lo, hi) into its shifted image
    whether or not u lay inside it, and ORs in the interval of each
    occurrence the new entry completes to length k - 1.  The root holds
    the empty occurrence alone; for k = 1 that forbids every gap.  An
    empty mask is 0, and every other empty level is ``_EMPTY``.

    Level j of a child is empty when level j - 1 of the state (the
    parent, whose occurrences the new entry may extend; empty when not
    joining) and level j (its own, carried over) both are, or when fewer
    than k - j values are left after the entry: an occurrence of the
    prefix needs k - j more.  Otherwise it is a function of those two
    levels and u, so an expansion looks each such level up once in a
    memo on (j, parent, own), whose value is a row over the gaps filled
    at a gap when a child there is first built: states that share both
    levels share the row, and a state fills it only at the gaps it
    allows.  The memo also maps each level to itself, so equal levels
    are one object.  Rows and levels depend on r, which is not in the
    key: the memo and the gap shift lists are rebuilt whenever r
    changes, so they hold one layer at most."""
    k = len(pvals)
    plan = _occurrence_plan(pvals)
    mask_lo, mask_hi = _mask_bounds(plan)
    empty = (_EMPTY,) * (k - 1) + (0,)

    def fill(j, parent, own, row, gaps):
        # level j of the child at each gap u of the mask ``gaps``, into
        # row[u]; a parent occurrence t is extended at the gaps L <= u < H
        lo, hi, src, _, _, reduce = plan[j - 1]
        spans = [(t[lo] if lo >= 0 else 0, t[hi] if hi >= 0 else top, t) for t in parent]
        while gaps:
            bit = gaps & -gaps
            gaps ^= bit
            u = bit.bit_length() - 1
            shift = shifts[u]
            if j == k - 1:
                below = bit - 1
                out = (own & below) | (own >> 1 & ~below) if own else 0
                for L, H, t in spans:
                    if L <= u < H:
                        a = 0 if mask_lo is None else u if mask_lo < 0 else shift[t[mask_lo]]
                        b = top - 1 if mask_hi is None else u if mask_hi < 0 else shift[t[mask_hi]]
                        if a < b:
                            out |= (1 << b) - (1 << a)
            else:
                tuples = [tuple([shift[g] for g in t]) for t in own]
                tuples += [tuple([u if i < 0 else shift[t[i]] for i in src])
                           for L, H, t in spans if L <= u < H]
                out = reduce(tuples, top) or _EMPTY
            row[u] = memo.setdefault(out, out)

    def expand(state, r, join=True):
        nonlocal top, shifts
        if join and k == 1:
            return ()
        if r != top:
            memo.clear()
            flags_of.clear()
            top = r
            shifts = [[g - (g > v) for g in range(r + 1)] for v in range(r)]
        parents = state if join else blank
        forbidden = state[-1] if join else 0
        allowed = ~forbidden & ((1 << r) - 1)
        # one column per level, whose u-th entry is the child's level at
        # gap u: a row of the memo, or the empty level repeated
        columns = [itertools.repeat(state[0], r)]
        for j in range(1, k):
            parent, own = parents[j - 1], state[j]
            if not (parent or own) or r <= k - j:
                columns.append(itertools.repeat(empty[j], r))
                continue
            key = (j, parent, own)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = [0, [None] * r]
            # entry[0] is the mask of the gaps its row holds
            missing = allowed & ~entry[0]
            if missing:
                entry[0] |= missing
                fill(j, parent, own, entry[1], missing)
            columns.append(entry[1])
        children = enumerate(zip(*columns))
        if not forbidden:
            return children
        flags = flags_of.get(forbidden)
        if flags is None:
            flags = flags_of[forbidden] = [not forbidden >> u & 1 for u in range(r)]
        return itertools.compress(children, flags)

    memo, flags_of, top, shifts = {}, {}, None, []
    blank = (_EMPTY,) * k
    return (frozenset([()]),) + empty[1:], expand


def _perm_canonical(pvals):
    """``canonical(layer, r)``, a layer of a layered sum over
    :func:`_perm_states` (a dict from states with r unused values to
    their multiplicities) with each state made canonical and equal
    states merged, their multiplicities added.

    A state is made canonical by dropping each occurrence t of level
    k - 2 that forbids nothing its mask does not: at every gap u the
    mask allows and at which t is extended (t[lo] <= u < t[hi]), the
    gaps the completed occurrence would forbid lie in the mask already.
    In the state's own gaps those are the interval [A, B) less u, A and
    B the gaps of t's entries that bound the pattern's last value (u + 1
    or u when the new entry is one, 0 or r when it has none), since an
    unused value with index i lies above an entry of gap g iff i >= g.

    Call two states with r unused values alike when they differ only in
    droppable occurrences of level k - 2; a state and its canonical form
    are alike.  Alike states have alike children at the same gaps:
    * the masks agree, since at a gap u the mask allows, a droppable t
      adds to the child's mask only gaps the shifted mask holds already
      (and the mask decides which gaps leave a child);
    * the levels below k - 2 agree, since none of them reads level k - 2;
    * a droppable t stays droppable once shifted.  In values rather than
      gaps, a step removes one unused value and only adds to the mask,
      so every value the shifted t is extended by at an allowed gap was
      one t was extended by at an allowed gap, and every value its
      completion would forbid then was forbidden already, so is now;
    * an occurrence dominated by a droppable one is droppable: its
      extending gaps and forbidden intervals lie in the other's.  So the
      child's level k - 2, reduced with or without the shifted droppable
      occurrences, keeps the same occurrences that are not droppable.
    At r = 0 every state has the one empty continuation, so by induction
    on r alike states have the same avoiding continuations.

    The test depends on the state only through level k - 2 and the
    mask, so each distinct pair is tested once per layer.  Each
    occurrence costs a few int operations over the allowed gaps that
    extend it.  When the new entry is an end of the interval, u lies
    outside it and the widest interval decides, at the least such u for
    a lower end and the greatest for an upper one.  A fixed interval
    leaves t droppable iff it holds no allowed gap, or holds one and
    that is the only allowed gap that extends t."""
    k = len(pvals)
    if k < 2:
        return lambda layer, r: layer
    plan = _occurrence_plan(pvals)
    lo, hi = plan[k - 2][:2]
    mask_lo, mask_hi = _mask_bounds(plan)

    def needed(t, allowed, r):
        # whether t's completion at some allowed gap forbids one the
        # mask allows: the allowed gaps in [A, B) other than u
        ext = allowed & ((1 << (t[hi] if hi >= 0 else r)) - (1 << (t[lo] if lo >= 0 else 0)))
        if not ext:
            return False
        a = 0 if mask_lo is None else t[mask_lo] if mask_lo >= 0 else (ext & -ext).bit_length()
        b = r if mask_hi is None else t[mask_hi] if mask_hi >= 0 else ext.bit_length() - 1
        if a >= b:
            return False
        free = ((1 << b) - (1 << a)) & allowed
        return bool(free) and (free != ext or bool(free & (free - 1)))

    def canonical(layer, r):
        full = (1 << r) - 1
        memo, out = {}, {}
        count = out.get
        for state, mult in layer.items():
            key = state[k - 2:]
            level = memo.get(key)
            if level is None:
                own, mask = key
                allowed = ~mask & full
                kept = [t for t in own if needed(t, allowed, r)]
                level = memo[key] = own if len(kept) == len(own) else frozenset(kept) or _EMPTY
            if level is not state[k - 2]:
                state = state[:k - 2] + (level, state[-1])
            out[state] = count(state, 0) + mult
        return out

    return canonical


def _row_states(P: PermutationMatrix, width: int):
    """The row-state model of width-``width`` hosts avoiding P, as
    ``(root, step)``: the empty host's state and the state after a row.

    Coordinates are host columns.  A one at column x extends an
    occurrence t when t[lo] < x < t[hi], strictly, since the ones of a
    pattern lie in distinct columns.  States take the format of
    :func:`_perm_states`, over columns, so a next row may use the columns
    outside ``state[-1]``.  Columns do not shift, so a row keeps the
    carried mask and ORs in the columns strictly between the bounds of
    each occurrence it completes to length k - 1.  For k = 1 there is no
    level 1, and the root forbids every column.

    ``step(state, row, rows_left=None, partial=None)`` builds child
    level j = 1..k-1 from level j - 1 of the state, whose occurrences
    the row may extend, and its own level j, carried over: the state's,
    or with ``partial`` the partial child's.  rows_left, when given, is
    how many rows may still follow, and level j is empty when rows_left
    < k - j or both its inputs are.  Otherwise it is looked up in a memo
    on (j, parent, own, row), and built on a miss; the memo also maps
    each level to itself, so equal levels are one object.  rows_left is
    not part of the key, since it only blanks levels before the lookup,
    and the width is fixed per model, so the memo lives in this call's
    closure: as long as one search holds the step.

    A one extends only the state's occurrences, never those of another
    one in its row.  A tuple level keeps the live occurrences that no
    other dominates, and the last level ORs masks, so reducing after
    each column changes nothing: a row's child is the empty row's child
    joined with the row's columns one at a time, ``partial =
    step(state, 1 << x, rows_left, partial)``.
    exfn_exact's column sweep builds a state's children that way."""
    k = P.k
    plan = _occurrence_plan(tuple(P.col_of_row()))
    last_lo, last_hi = plan[-1][:2]
    empty = (_EMPTY,) * (k - 1) + (0,)
    # dominance keeps only the lowest new column of an extension that
    # keeps it as a lower bound alone (or not at all), and only the
    # highest of one that keeps it as an upper bound alone
    keep = []
    for _, _, src, lows, ups, _ in plan:
        new = src.index(-1) if -1 in src else None
        keep.append("all" if new in lows and new in ups else "high" if new in ups else "low")

    def between(t, lo, hi):
        # columns strictly between the bounds at tuple positions lo and hi
        low = t[lo] + 1 if lo >= 0 else 0
        high = t[hi] if hi >= 0 else width
        return ((1 << high) - 1) ^ ((1 << low) - 1)

    def level(j, parent, own, row):
        lo, hi, src, _, _, reduce = plan[j - 1]
        low, high = keep[j - 1] == "low", keep[j - 1] == "high"
        tuples = set(own) if j < k - 1 else set()
        for t in parent:
            cols = row & between(t, lo, hi)
            if low:
                cols &= -cols
            elif high:
                cols = 1 << cols.bit_length() >> 1
            while cols:
                x = (cols & -cols).bit_length() - 1
                tuples.add(tuple([x if i < 0 else t[i] for i in src]))
                cols &= cols - 1
        if j < k - 1:
            return reduce(tuples, width) or _EMPTY
        return functools.reduce(
            operator.or_, (between(t, last_lo, last_hi) for t in tuples), own)

    def step(state, row, rows_left=None, partial=None):
        child = [state[0]]
        base = state if partial is None else partial
        for j in range(1, k):
            parent, own = state[j - 1], base[j]
            if not (parent or own) or (rows_left is not None and rows_left < k - j):
                child.append(empty[j])
                continue
            key = (j, parent, own, row)
            out = memo.get(key)
            if out is None:
                out = level(j, parent, own, row)
                out = memo[key] = memo.setdefault(out, out)
            child.append(out)
        return tuple(child)

    memo = {}
    root = (frozenset([()]),) + empty[1:] if k > 1 else ((1 << width) - 1,)
    return root, step
