"""Permutations, 0-1 matrices, containment, sums, and inflation.

Conventions fixed once, used everywhere:

* A permutation of length n is a tuple of the values 1..n in one-line
  notation; ``entries[i]`` is the image of position i+1.
* A 0-1 matrix is stored as its row bitmasks, row 1 (drawn at the top)
  first, with bit c-1 of a row set iff its column c holds a one.  Its
  cells (row, col), 1-indexed, and its JSON cell list are derived.
* A permutation p of length k corresponds to the permutation matrix with
  ones at cells (k + 1 - p[j], j+1), so the dot plot read bottom-up
  matches one-line notation.  ``to_matrix``/``from_matrix`` implement
  exactly this correspondence and nothing else relies on a drawing.

The containment kernels at the bottom operate on raw value sequences and
the row bitmasks; the domain types wrap them.  Callers in hot loops
(enumeration, search) use the kernels directly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator

from .errors import PreconditionViolated, ResourceLimit
from .limits import MAX_DECOMPOSITIONS
from .record import Record, _set

_LOW = -(1 << 60)
_HIGH = 1 << 60


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class Permutation(Record):
    """A bijection on {1..n} in one-line notation."""

    entries: tuple[int, ...]

    def __init__(self, entries):
        entries = tuple(entries)
        _set(self, "entries", entries)
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise PreconditionViolated(f"not a bijection on 1..{len(entries)}: {entries!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        if self.n == 0:
            return "()"
        if all(v <= 9 for v in self.entries):
            return "".join(str(v) for v in self.entries)
        return " ".join(str(v) for v in self.entries)

    to_jsonable = __str__


def _bits(mask: int):
    """The 0-based indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BinaryMatrix(Record):
    """A 0-1 matrix with ``cols`` columns stored as its row bitmasks, top
    row first: bit c-1 of ``masks[r-1]`` is set iff cell (r, c) is a one.
    The row count, the cells and the JSON form are read off the masks."""

    masks: tuple[int, ...]
    cols: int

    def __init__(self, masks, cols):
        masks = tuple(masks)
        _set(self, "masks", masks)
        _set(self, "cols", cols)
        if cols < 0 or not all(0 <= m < 1 << cols for m in masks):
            raise PreconditionViolated(f"need row masks in [0, 2**cols), cols >= 0: "
                                       f"{masks!r}, cols={cols}")

    @property
    def rows(self) -> int:
        return len(self.masks)

    @property
    def ones(self) -> frozenset[tuple[int, int]]:
        """The one-cells (row, col), 1-indexed."""
        return frozenset((r, c + 1) for r, m in enumerate(self.masks, 1) for c in _bits(m))

    @classmethod
    def from_strings(cls, rows: list[str]) -> "BinaryMatrix":
        """Build from rows of '0'/'1' characters, e.g. ["01", "10"].

        The rows must be nonempty 0/1 strings of one length; anything
        else raises ``PreconditionViolated`` naming the rows joined by
        commas, as the CLI's matrix text gives them."""
        text = ",".join(rows)
        if not all(rows):
            raise PreconditionViolated(f"matrix rows must not be empty: {text!r}")
        if any(ch not in "01" for row in rows for ch in row):
            raise PreconditionViolated(f"matrix rows must be 0/1 strings: {text!r}")
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise PreconditionViolated(f"matrix rows must all have the same length: {text!r}")
        # the first character is column 1, the lowest bit
        return cls(tuple(int(row[::-1], 2) for row in rows), ncols)

    def count_ones(self) -> int:
        return sum(m.bit_count() for m in self.masks)

    def to_jsonable(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "ones": sorted([r, c] for r, c in self.ones),
        }

    def __str__(self) -> str:
        # a bit above the last column fixes the width; the reversal drops it
        return "\n".join(format(m | 1 << self.cols, "b")[:0:-1] for m in self.masks)


class PermutationMatrix(Record):
    """A square 0-1 matrix with exactly one 1 per row and per column."""

    matrix: BinaryMatrix

    def __init__(self, matrix):
        _set(self, "matrix", matrix)
        m = matrix
        if m.rows != m.cols:
            raise PreconditionViolated(f"not square: {m.rows}x{m.cols}")
        if sorted(m.masks) != [1 << c for c in range(m.cols)]:
            raise PreconditionViolated("needs exactly one 1 per row and per column")

    @property
    def k(self) -> int:
        return self.matrix.rows

    @classmethod
    def identity(cls, k: int) -> "PermutationMatrix":
        return cls(BinaryMatrix(tuple(1 << i for i in range(k)), k))

    def col_of_row(self) -> list[int]:
        """0-based column of the one in each 0-based row, top to bottom."""
        return [m.bit_length() - 1 for m in self.matrix.masks]


class Occurrence(Record):
    """Witness of a containment: host positions (or host cells) chosen
    in pattern order."""

    positions: tuple

    def __init__(self, positions):
        _set(self, "positions", tuple(positions))


class BlockDecomposition(Record):
    """A skeleton permutation plus the blocks that inflate back to the
    decomposed permutation."""

    skeleton: Permutation
    blocks: tuple[Permutation, ...]

    def __init__(self, skeleton, blocks):
        blocks = tuple(blocks)
        _set(self, "skeleton", skeleton)
        _set(self, "blocks", blocks)
        if skeleton.n != len(blocks):
            raise PreconditionViolated(
                f"skeleton length {skeleton.n} != {len(blocks)} blocks"
            )
        if skeleton.n < 1:
            raise PreconditionViolated("need at least one block")
        if any(b.n == 0 for b in blocks):
            raise PreconditionViolated("blocks must be nonempty")


# ---------------------------------------------------------------------------
# parsing and normal forms
# ---------------------------------------------------------------------------

def parse_permutation(text: str) -> Permutation:
    """Parse whitespace-separated decimal tokens ("10 2 1"), or a compact
    digit string when every value is a single digit ("42153").

    Both paths accept only ``str.isdecimal`` text, not all that ``int``
    reads: no sign, no "_" separator, no superscript ("²") or circled
    ("①") digit.  Every failure is a ``PreconditionViolated``."""
    text = text.strip()
    if not text:
        raise PreconditionViolated("empty permutation text")
    if any(ch.isspace() for ch in text):
        tokens = text.split()
        try:
            if not all(map(str.isdecimal, tokens)):
                raise ValueError(text)
            values = tuple(map(int, tokens))  # fails past int's digit limit
        except ValueError:
            raise PreconditionViolated(f"non-integer token in {text!r}") from None
    else:
        if not text.isdecimal():
            raise PreconditionViolated(f"not a digit string: {text!r}")
        values = tuple(map(int, text))
    return Permutation(values)


def pattern_of(values) -> tuple[int, ...]:
    """Relative order of a sequence of distinct values, as values 1..m."""
    ranking = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(ranking[v] for v in values)


# ---------------------------------------------------------------------------
# permutation containment
# ---------------------------------------------------------------------------

def _occurrence_ending(hvals, pvals, ends):
    """The first occurrence of the pattern ``pvals`` in the value
    sequence ``hvals`` whose last entry is ``hvals[end]`` for an end of
    ``ends``, as 0-based host indices, or None.

    This is the one permutation-containment search.  Ends are tried in
    the order given; for each, pattern positions 0..k-2 are filled left
    to right from ``hvals[:end]``, each entry strictly inside the window
    that ``hvals[end]`` and the entries already placed leave for it, and
    the first fill found is returned.  So among the occurrences ending at
    the first end that has one, the witness is the lexicographically
    first.  Each pattern position keeps its own cursor into the host, so
    no pattern length reaches the recursion limit.
    """
    k = len(pvals)
    if k == 0:
        raise PreconditionViolated("containment is defined for nonempty patterns")
    last = k - 1
    # vals holds the placed host values in pattern order, the end's value
    # at ``last`` and the two open bounds after it; below[j] and above[j]
    # index the value neighbours of pvals[j] among pvals[:j] and the last
    # pattern value, the only entries that bound position j's window
    vals = [0] * k + [_LOW, _HIGH]
    slot = {pvals[last]: last}
    placed = [pvals[last]]
    below, above = [], []
    for j in range(last):
        q = pvals[j]
        at = bisect.bisect(placed, q)
        below.append(slot[placed[at - 1]] if at else k)
        above.append(slot[placed[at]] if at < len(placed) else k + 1)
        placed.insert(at, q)
        slot[q] = j
    chosen = [0] * k
    for end in ends:
        vals[last] = hvals[end]
        chosen[last] = end
        j = i = 0
        while j >= 0:
            if j == last:
                return tuple(chosen)
            lo, hi = vals[below[j]], vals[above[j]]
            # leave room before the end for positions j+1..k-2
            stop = end - last + j + 1
            while i < stop:
                w = hvals[i]
                if lo < w < hi:
                    chosen[j], vals[j] = i, w
                    j += 1
                    break
                i += 1
            else:
                # position j is exhausted: move position j-1 on
                j -= 1
                i = chosen[j]
            i += 1
    return None


def contains_values(hvals, pvals) -> bool:
    """Whether the pattern ``pvals`` occurs in the value sequence
    ``hvals``: an occurrence ending at some host entry, tried from the
    earliest entry that can end one."""
    return _occurrence_ending(hvals, pvals, range(len(pvals) - 1, len(hvals))) is not None


def completes_at_end(prefix, v, pvals) -> bool:
    """Does appending value ``v`` to ``prefix`` complete an occurrence of
    ``pvals`` whose last element is the new entry?

    This is the incremental step used by avoidance enumeration and merge
    coloring: a previously avoiding sequence can only start containing
    the pattern through an occurrence that ends at the new entry.  It is
    the shared search :func:`_occurrence_ending` with the single end of
    ``[*prefix, v]``.
    """
    return _occurrence_ending([*prefix, v], pvals, (len(prefix),)) is not None


def contains(host: Permutation, pattern: Permutation) -> bool:
    """True iff some subsequence of the host has the same relative order
    as the pattern: the shared search :func:`_occurrence_ending` tries
    to end an occurrence at each host entry in turn."""
    return contains_values(host.entries, pattern.entries)


def find_occurrence(host: Permutation, pattern: Permutation) -> Occurrence | None:
    """Like :func:`contains` but returns 1-based witness positions: of
    the occurrences whose last entry comes earliest in the host, the
    lexicographically first.  The witness is the minimum of all
    occurrences by (last position, positions)."""
    idx = _occurrence_ending(host.entries, pattern.entries, range(pattern.n - 1, host.n))
    if idx is None:
        return None
    return Occurrence(tuple(i + 1 for i in idx))


def avoids(host: Permutation, pattern: Permutation) -> bool:
    return not contains(host, pattern)


# ---------------------------------------------------------------------------
# matrix containment
# ---------------------------------------------------------------------------

def _greedy_transversal(col_masks):
    """Strictly increasing column choice with one column per entry of
    ``col_masks``; returns chosen 0-based columns or None."""
    cols = []
    c = -1
    for mask in col_masks:
        m = mask >> (c + 1)
        if m == 0:
            return None
        c += 1 + ((m & -m).bit_length() - 1)
        cols.append(c)
    return cols


def matrix_occurrence_masks(host_masks, host_cols, pat_masks, pat_cols):
    """Submatrix containment on raw bitmask rows.

    Returns (row_selection, col_selection) in 0-based indices, or None.
    Extra ones in the host are allowed; a host 1 is required wherever the
    pattern has one.

    Pattern rows take host rows depth first, in increasing order, so the
    first witness has the lexicographically first row subset.  Each
    partial choice keeps, per pattern column, the AND of the host rows
    chosen for the pattern rows with a one there; later rows only narrow
    these masks, so a choice is dropped as soon as they admit no
    increasing column transversal.
    """
    hk, pk = len(host_masks), len(pat_masks)
    if pk > hk or pat_cols > host_cols:
        return None
    # per pattern row, the pattern columns where it requires a one
    need = [list(_bits(m)) for m in pat_masks]
    # masks[j]: the per-column masks of the first j chosen rows
    masks = [[(1 << host_cols) - 1] * pat_cols]
    cols = _greedy_transversal(masks[0])
    chosen = []
    r = 0
    while len(chosen) < pk:
        j = len(chosen)
        if r > hk - pk + j:  # too few host rows left for the pattern rows
            if not chosen:
                return None
            r = chosen.pop() + 1
            masks.pop()
            continue
        narrowed = masks[j].copy()
        for b in need[j]:
            narrowed[b] &= host_masks[r]
        found = _greedy_transversal(narrowed)
        if found is not None:
            chosen.append(r)
            masks.append(narrowed)
            cols = found
        r += 1
    return chosen, cols


def _matrix_occurrence(host: BinaryMatrix, pattern: BinaryMatrix):
    if not any(pattern.masks):
        raise PreconditionViolated("matrix containment needs a pattern with at least one 1")
    return matrix_occurrence_masks(host.masks, host.cols, pattern.masks, pattern.cols)


def matrix_contains(host: BinaryMatrix, pattern: BinaryMatrix) -> bool:
    """True iff some order-preserving row/column selection of the host
    dominates the pattern's ones."""
    return _matrix_occurrence(host, pattern) is not None


def find_matrix_occurrence(host: BinaryMatrix, pattern: BinaryMatrix) -> Occurrence | None:
    """Witness cells, one per pattern one (pattern ones in sorted order)."""
    sel = _matrix_occurrence(host, pattern)
    if sel is None:
        return None
    rows_sel, cols_sel = sel
    return Occurrence(tuple((rows_sel[a] + 1, cols_sel[b] + 1)
                            for a, row in enumerate(pattern.masks) for b in _bits(row)))


def matrix_avoids(host: BinaryMatrix, pattern: BinaryMatrix) -> bool:
    return not matrix_contains(host, pattern)


# ---------------------------------------------------------------------------
# partial occurrences, shared by the permutation and 0-1 matrix searches
# ---------------------------------------------------------------------------
#
# Both searches grow a host one step at a time (an entry of a permutation,
# a row of a matrix) and describe what has been built by its partial
# occurrences: for each pattern prefix pvals[:j], the host coordinates
# of the entries an occurrence of it still needs to compare against.
# For permutations pvals is the pattern itself and the coordinates are
# gaps (_perm_states); for a permutation matrix it is col_of_row(), with
# host rows as positions and host columns as values (_row_states).  Both
# models build their states with the one memoised step of _memo_step, in
# one state format: tuples reduced by dominance for the prefixes of
# length j < k - 1, and for the longest prefix, whose occurrences are
# never extended, one int, the mask of the coordinates that a next entry
# may not take.

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

    Entry j is ``(lo, hi, src, lows, ups)``: lo/hi are the tuple positions
    of the value-neighbours of pvals[j-1] in the parent tuple (-1 when
    absent); src maps each kept entry to its parent position (-1 for the
    new entry); lows/ups are the positions kept as a lower/upper bound of
    some later pattern value.  Position order is pattern-value order."""
    k = len(pvals)
    bounds = [[_neighbours(pvals[:j], q) for q in pvals[j:]] for j in range(k)]
    kept = [sorted({v for pair in b for v in pair if v is not None}) for b in bounds]
    kept.append([])
    plan = []
    for j in range(1, k + 1):
        parent, cur = kept[j - 1], kept[j]
        lo, hi = bounds[j - 1][0]
        later = bounds[j] if j < k else []
        plan.append((
            -1 if lo is None else parent.index(lo),
            -1 if hi is None else parent.index(hi),
            tuple(-1 if v == pvals[j - 1] else parent.index(v) for v in cur),
            tuple(i for i, v in enumerate(cur) if any(b[0] == v for b in later)),
            tuple(i for i, v in enumerate(cur) if any(b[1] == v for b in later)),
        ))
    return tuple(plan)


def _dominated(t, among, lows, ups):
    """Whether some tuple of ``among`` dominates the partial occurrence t:
    its lower-bound entries are no larger and its upper-bound entries no
    smaller, so every completion of t is one of it too.  A tuple
    dominates itself."""
    return any(all(s[i] <= t[i] for i in lows) and all(s[i] >= t[i] for i in ups)
               for s in among)


@functools.lru_cache(maxsize=None)
def _dominance_shape(lows, ups):
    """The positions both bounds share, and every other position with
    the sign that makes smaller better."""
    return (tuple(i for i in lows if i in ups),
            tuple((i, 1) for i in lows if i not in ups)
            + tuple((i, -1) for i in ups if i not in lows))


def _pareto_min(tuples, lows, ups):
    """The partial occurrences no other one dominates (:func:`_dominated`).

    A position that is both a lower and an upper bound must be equal, so
    the tuples fall into groups on those positions; every other position
    is free.  With no free position each tuple stands alone.  With one or
    two, a sort on (group, first, second), each free coordinate oriented
    so that smaller is better, puts every dominator first, and a tuple
    stays iff its second coordinate beats the best of its group so far
    (the maxima-of-vectors sweep of Kung, Luccio and Preparata); with
    one, only the first of each group stays.  Three or more free
    positions, which only patterns of length 5 and up have, fall back to
    comparing each tuple with every one kept."""
    if len(tuples) < 2:
        return frozenset(tuples)
    eq, free = _dominance_shape(lows, ups)
    if not free:
        return frozenset(tuples)
    if len(free) <= 2:
        # with one free position the second coordinate is a constant 0
        (a, sa), (b, sb) = (free + ((0, 0),))[:2]
        out, group, best = [], None, 0
        for g, _, y, t in sorted([([t[i] for i in eq], sa * t[a], sb * t[b], t)
                                  for t in tuples]):
            if g != group:
                group, best = g, y
                out.append(t)
            elif y < best:
                best = y
                out.append(t)
        return frozenset(out)
    # sorting puts every dominator before what it dominates
    order = sorted(tuples, key=lambda t: [t[i] for i in lows] + [-t[i] for i in ups])
    out = []
    for t in order:
        if not _dominated(t, out, lows, ups):
            out.append(t)
    return frozenset(out)


def _live_minima(tuples, lows, ups, top):
    """The Pareto minima of the tuples that can still complete.  Host
    coordinates run from 0 to top - 1 and grow with value along a tuple,
    so a tuple is live when its highest lower bound lies below top - 1
    and its lowest upper bound above 0: some free coordinate is left
    above every lower bound and below every upper one."""
    return _pareto_min(
        {t for t in tuples if (not lows or t[lows[-1]] < top - 1) and (not ups or t[ups[0]])},
        lows, ups,
    )


def _memo_step(k, level, memo):
    """The root state and the memoised step both state models share, as
    ``(root, step)``.

    A state holds, per pattern prefix of length j < k, what ``level``
    builds from its partial occurrences.  For j < k - 1 that is their
    tuples reduced by :func:`_live_minima`.  Level k - 1, for k >= 2, is
    one int, the forbidden mask: bit x is set iff a next entry at
    coordinate x completes the pattern.  Those occurrences are never
    extended, only forbid coordinates, so states whose occurrences forbid
    the same ones are one state.  The root holds the empty occurrence
    alone.  An empty mask is 0, and every other empty level is ``_EMPTY``.
    ``step(state, tail, left=None, parents=None)`` builds child level
    j = 1..k-1 as ``level(j, parent, own, tail)``: ``parent`` is level
    j - 1 of ``parents``, whose occurrences the new entry may extend, and
    ``own`` is level j of ``state``, carried over.  ``parents`` defaults
    to ``state``; a step whose entry joins no occurrence passes all-empty
    levels.  ``tail`` is the rest of what the model's level reads.
    ``left``, when given, is how many entries may still follow.

    Level j is empty when both of its inputs are, or when left < k - j:
    an occurrence of the prefix needs k - j more entries.  Otherwise it
    is looked up in ``memo`` on (j, parent, own, tail), and built on a
    miss.  The memo also maps each level to itself, so equal levels are
    one object for as long as the memo lives.  Anything else ``level``
    reads must stay fixed that long; the model decides when to clear the
    memo."""
    # the empty value of each level j >= 1: the mask's is 0
    empty = (_EMPTY,) * (k - 1) + (0,)

    def step(state, tail, left=None, parents=None):
        if parents is None:
            parents = state
        child = [state[0]]
        for j in range(1, k):
            parent, own = parents[j - 1], state[j]
            if not (parent or own) or (left is not None and left < k - j):
                child.append(empty[j])
                continue
            key = (j, parent, own, tail)
            out = memo.get(key)
            if out is None:
                out = level(j, parent, own, tail) or empty[j]
                out = memo[key] = memo.setdefault(out, out)
            child.append(out)
        return tuple(child)

    return (frozenset([()]),) + empty[1:], step


def _perm_states(pvals):
    """The prefix-state model of permutations avoiding ``pvals``, as
    ``(root, step)``: the empty prefix's state and the state after one
    more entry.

    Coordinates are gaps: the gap of an entry is the number of unused
    values below it.  ``step(state, u, r, join=True)`` appends the u-th
    smallest of the r unused values: every gap above u drops by one, and
    when ``join`` is true the new entry, in gap u, also extends each
    occurrence t with t[lo] <= u < t[hi].  It returns None when a joining
    entry completes the pattern.  A step with ``join`` false is an entry
    of some other sequence drawn from the same values, as in a two-colour
    merge.

    Level k - 1 is :func:`_memo_step`'s forbidden mask, over gaps.  A
    step at gap u drops bit u and moves the bits above it down by one,
    which turns each forbidden interval [lo, hi) into its shifted image
    whether or not u lay inside it, and ORs in the interval of each
    occurrence the new entry completes to length k - 1.  For k = 1
    level 0 is the root, which forbids every gap.

    The levels come from :func:`_memo_step` with tail u and r - 1 values
    left.  They also depend on r, which is not in the key: the memo and
    the gap shift lists are rebuilt whenever r changes, so they hold one
    layer at most."""
    k = len(pvals)
    plan = _occurrence_plan(pvals)
    # where the bounds of the mask's intervals come from in a parent
    # occurrence at level k - 2: None when the pattern's last value has
    # no neighbour on that side, -1 for the new entry
    last_src = plan[k - 2][2] if k >= 2 else ()
    mask_lo, mask_hi = (None if i < 0 else last_src[i] for i in plan[-1][:2])

    def extends(t, lo, hi, u):
        return (lo < 0 or t[lo] <= u) and (hi < 0 or u < t[hi])

    def level(j, parent, own, u):
        lo, hi, src, lows, ups = plan[j - 1]
        shift = shifts[u]
        if j == k - 1:
            below = (1 << u) - 1
            mask = (own & below) | (own >> 1 & ~below) if own else 0
            for t in parent:
                if extends(t, lo, hi, u):
                    a = 0 if mask_lo is None else u if mask_lo < 0 else shift[t[mask_lo]]
                    b = top - 1 if mask_hi is None else u if mask_hi < 0 else shift[t[mask_hi]]
                    if a < b:
                        mask |= (1 << b) - (1 << a)
            return mask
        tuples = [tuple([shift[g] for g in t]) for t in own]
        tuples += [
            tuple([u if i < 0 else shift[t[i]] for i in src])
            for t in parent if extends(t, lo, hi, u)
        ]
        return _live_minima(tuples, lows, ups, top)

    def step(state, u, r, join=True):
        nonlocal top, shifts
        if join and (k == 1 or state[-1] >> u & 1):
            return None
        if r != top:
            memo.clear()
            top = r
            shifts = [[g - (g > v) for g in range(r + 1)] for v in range(r)]
        return shared(state, u, r - 1, None if join else blank)

    memo, top, shifts = {}, None, []
    root, shared = _memo_step(k, level, memo)
    blank = (_EMPTY,) * k
    return root, step


def _row_states(P: PermutationMatrix, width: int):
    """The row-state model of width-``width`` hosts avoiding P, as
    ``(root, step)``: the empty host's state and the state after a row.

    Coordinates are host columns.  A one at column x extends an
    occurrence t when t[lo] < x < t[hi], strictly, since the ones of a
    pattern lie in distinct columns.  Level k - 1 is :func:`_memo_step`'s
    forbidden mask, over columns, so a next row may use the columns
    outside ``state[-1]``.  Columns do not shift, so a row keeps the
    carried mask and ORs in the columns strictly between the bounds of
    each occurrence it completes to length k - 1.  For k = 1 there is no
    level 1, and the root forbids every column.
    ``step(state, row, rows_left=None)``
    is :func:`_memo_step`'s step with the row as tail, and rows_left,
    when given, is how many rows may still follow.  rows_left is not part
    of the key, since it only blanks levels before the lookup, and the
    width is fixed per model, so the memo lives in this call's closure:
    as long as one search holds the step."""
    k = P.k
    plan = _occurrence_plan(tuple(P.col_of_row()))
    last_lo, last_hi = plan[-1][:2]
    # dominance keeps only the lowest new column of an extension that
    # keeps it as a lower bound alone (or not at all), and only the
    # highest of one that keeps it as an upper bound alone
    keep = []
    for _, _, src, lows, ups in plan:
        new = src.index(-1) if -1 in src else None
        keep.append("all" if new in lows and new in ups else "high" if new in ups else "low")

    def between(t, lo, hi):
        # columns strictly between the bounds at tuple positions lo and hi
        low = t[lo] + 1 if lo >= 0 else 0
        high = t[hi] if hi >= 0 else width
        return ((1 << high) - 1) ^ ((1 << low) - 1)

    def level(j, parent, own, row):
        lo, hi, src, lows, ups = plan[j - 1]
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
            return _live_minima(tuples, lows, ups, width)
        return functools.reduce(
            operator.or_, (between(t, last_lo, last_hi) for t in tuples), own)

    root, step = _memo_step(k, level, {})
    return (root if k > 1 else ((1 << width) - 1,)), step


# ---------------------------------------------------------------------------
# permutation <-> matrix
# ---------------------------------------------------------------------------

def to_matrix(p: Permutation) -> PermutationMatrix:
    """Permutation matrix with ones at (k + 1 - p[j], j+1)."""
    k = p.n
    masks = [0] * k
    for j, v in enumerate(p.entries):
        masks[k - v] = 1 << j
    return PermutationMatrix(BinaryMatrix(masks, k))


def from_matrix(m: PermutationMatrix | BinaryMatrix) -> Permutation:
    """Inverse of :func:`to_matrix`; validates the one-per-row/column
    invariant first."""
    if isinstance(m, BinaryMatrix):
        m = PermutationMatrix(m)
    k = m.k
    values = [0] * k
    for r, c in enumerate(m.col_of_row()):
        values[c] = k - r
    return Permutation(tuple(values))


def rotate90(m):
    """Quarter turn: cell (i, j) of an m x n matrix goes to (j, m+1-i) of
    the n x m result.  Accepts and returns PermutationMatrix unchanged in
    kind."""
    if isinstance(m, PermutationMatrix):
        return PermutationMatrix(rotate90(m.matrix))
    # column j becomes row j, read bottom row first
    masks = [0] * m.cols
    for i, row in enumerate(reversed(m.masks)):
        for c in _bits(row):
            masks[c] |= 1 << i
    return BinaryMatrix(masks, m.rows)


# ---------------------------------------------------------------------------
# symmetries and sums
# ---------------------------------------------------------------------------

def reverse(p: Permutation) -> Permutation:
    return Permutation(tuple(reversed(p.entries)))


def complement(p: Permutation) -> Permutation:
    n = p.n
    return Permutation(tuple(n + 1 - v for v in p.entries))


def inverse(p: Permutation) -> Permutation:
    out = [0] * p.n
    for i, v in enumerate(p.entries):
        out[v - 1] = i + 1
    return Permutation(tuple(out))


def direct_sum(p: Permutation, q: Permutation) -> Permutation:
    """q's values placed above p's, positions after p's."""
    if p.n == 0 or q.n == 0:
        raise PreconditionViolated("direct sum needs nonempty operands")
    return Permutation(p.entries + tuple(v + p.n for v in q.entries))


def skew_sum(p: Permutation, q: Permutation) -> Permutation:
    """p's values placed above q's, positions before q's."""
    if p.n == 0 or q.n == 0:
        raise PreconditionViolated("skew sum needs nonempty operands")
    return Permutation(tuple(v + q.n for v in p.entries) + q.entries)


# ---------------------------------------------------------------------------
# inflation and block structure
# ---------------------------------------------------------------------------

def inflate(skeleton: Permutation, blocks) -> Permutation:
    """Replace entry i of the skeleton by an interval order-isomorphic to
    blocks[i]; intervals are arranged like the skeleton."""
    blocks = list(blocks)
    if len(blocks) != skeleton.n:
        raise PreconditionViolated(f"{skeleton.n} skeleton entries, {len(blocks)} blocks")
    if any(b.n == 0 for b in blocks):
        raise PreconditionViolated("inflation blocks must be nonempty")
    sizes = [b.n for b in blocks]
    # value offset of segment i = total size of segments ranked below it
    offsets = [0] * len(blocks)
    for i, rank in enumerate(skeleton.entries):
        offsets[i] = sum(sizes[j] for j, rk in enumerate(skeleton.entries) if rk < rank)
    out = []
    for i, b in enumerate(blocks):
        out.extend(offsets[i] + v for v in b.entries)
    return Permutation(tuple(out))


def _block_counts(entries, c: int) -> tuple[int, list[bytes], list[bytes]]:
    """Cuts of ``entries`` into contiguous segments of consecutive
    values: ``(count, starts, suffix_cuts)``.

    ``count`` is the number of cuts into exactly c segments.  Byte d of
    ``starts[i]`` is 1 iff ``entries[i:i + d + 1]`` is such a segment
    (its max - min equals d).  Byte i of ``suffix_cuts[m]`` is 1 iff
    ``entries[i:]`` cuts into exactly m of them, for m <= c.  The suffix
    counts for m segments sum those for m - 1 over the ends of each
    first segment, one layer per m: O(n^2 c) time, O(n^2) flag bytes.
    """
    n = len(entries)
    starts = []
    for i in range(n):
        seg = entries[i:]
        spans = map(operator.sub, itertools.accumulate(seg, max), itertools.accumulate(seg, min))
        starts.append(bytes(map(operator.eq, spans, itertools.count())))
    ways = [0] * n + [1]
    suffix_cuts = [bytes(map(bool, ways))]
    for _ in range(c):
        prev = ways
        ways = [sum(itertools.compress(prev[i + 1:], starts[i])) for i in range(n)] + [0]
        suffix_cuts.append(bytes(map(bool, ways)))
    return ways[0], starts, suffix_cuts


def _check_block_count(c, n):
    if not isinstance(c, int):
        raise PreconditionViolated(f"block count c must be an integer, got {c}")
    if not 1 <= c <= n:
        raise PreconditionViolated(f"need 1 <= c <= {n}, got {c}")


def count_block_decompositions(p: Permutation, c: int) -> int:
    """The number of decompositions :func:`blockable_decompositions`
    would return, counted without building them."""
    _check_block_count(c, p.n)
    return _block_counts(p.entries, c)[0]


def blockable_decompositions(p: Permutation, c: int) -> list[BlockDecomposition]:
    """All ways to cut the positions of ``p`` into exactly ``c``
    contiguous segments whose value sets are contiguous intervals, in
    lexicographic order of the cut positions.

    Counts them first and raises ResourceLimit above
    ``MAX_DECOMPOSITIONS``; otherwise walks only interval segments that
    can be completed.  Empty list means ``p`` is not c-blockable.  Every
    returned decomposition round-trips through :func:`inflate`.
    """
    n = p.n
    _check_block_count(c, n)
    entries = p.entries
    total, starts, suffix_cuts = _block_counts(entries, c)
    if total > MAX_DECOMPOSITIONS:
        raise ResourceLimit(
            f"{total} decompositions into {c} blocks exceed the limit {MAX_DECOMPOSITIONS}"
        )
    # each cut tuple is extended in increasing order by the segments whose
    # remainder still cuts into the blocks left, so the order stays
    # lexicographic and every tuple kept has a completion; the last
    # segment is the whole remainder
    cuts = [(0,)]
    for left in range(c - 1, 0, -1):
        fits = suffix_cuts[left]
        cuts = [
            (*b, j)
            for b in cuts
            for j in itertools.compress(itertools.count(b[-1] + 1), starts[b[-1]])
            if fits[j]
        ]
    found = []
    for b in cuts:
        bounds = (*b, n)
        segments = [entries[bounds[i]:bounds[i + 1]] for i in range(c)]
        skeleton = Permutation(pattern_of([min(seg) for seg in segments]))
        blocks = tuple(Permutation(pattern_of(seg)) for seg in segments)
        found.append(BlockDecomposition(skeleton, blocks))
    return found
