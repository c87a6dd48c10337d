"""Reference answers that share no code with permx.

Every function here is written from the definition, by a different
algorithm than the library's fast path where one exists: containment of
monotone patterns by patience sorting, other permutation patterns by a
value-ordered search, matrix containment column-subset first, block
decompositions and inflations by direct construction.  The brute-force
functions at the bottom check these references on small inputs in
``perfbench/tests``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction


def pattern_of(values):
    """Relative order of distinct values, as 1..m."""
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(ranks[v] for v in values)


def is_witness(host, pattern, positions) -> bool:
    """Are ``positions`` (0-based) increasing indices of ``host`` whose
    values are order-isomorphic to ``pattern``?"""
    if len(positions) != len(pattern):
        return False
    if any(not 0 <= p < len(host) for p in positions):
        return False
    if any(a >= b for a, b in zip(positions, positions[1:])):
        return False
    return pattern_of([host[p] for p in positions]) == tuple(pattern)


def longest_monotone(values, increasing: bool = True) -> int:
    """Length of the longest increasing (or decreasing) subsequence, by
    patience sorting."""
    tops: list[int] = []
    for v in values:
        key = v if increasing else -v
        i = bisect.bisect_left(tops, key)
        if i == len(tops):
            tops.append(key)
        else:
            tops[i] = key
    return len(tops)


def find_perm_occurrence(host, pattern):
    """0-based positions of one occurrence of ``pattern`` in ``host``, or
    None.  Monotone patterns are decided by patience sorting first;
    otherwise pattern entries are placed in increasing order of their
    values, each inside the position gap its placed neighbours allow."""
    k, n = len(pattern), len(host)
    if k > n:
        return None
    if pattern == tuple(range(1, k + 1)) and longest_monotone(host, True) < k:
        return None
    if pattern == tuple(range(k, 0, -1)) and longest_monotone(host, False) < k:
        return None
    by_value = sorted(range(k), key=lambda j: pattern[j])
    pos = [-1] * k

    def place(t, floor_value):
        j = by_value[t]
        lo = max((pos[i] for i in range(j) if pos[i] >= 0), default=-1)
        hi = min((pos[i] for i in range(j + 1, k) if pos[i] >= 0), default=n)
        for p in range(lo + 1, hi):
            if host[p] > floor_value:
                pos[j] = p
                if t == k - 1 or place(t + 1, host[p]):
                    return True
                pos[j] = -1
        return False

    return tuple(pos) if place(0, 0) else None


def matrix_contains(host_rows, pattern_rows) -> bool:
    """Does some order-preserving choice of host rows and columns carry a
    one wherever the pattern has one?  Rows are '0'/'1' strings.

    Column subsets are enumerated; for each, pattern rows are matched to
    the earliest host row that covers them, which is optimal because
    every pattern row only needs some later host row."""
    pr, pc = len(pattern_rows), len(pattern_rows[0])
    hr, hc = len(host_rows), len(host_rows[0])
    if pr > hr or pc > hc:
        return False
    need = [[j for j in range(pc) if row[j] == "1"] for row in pattern_rows]
    for cols in itertools.combinations(range(hc), pc):
        r = 0
        for a in range(pr):
            wanted = [cols[j] for j in need[a]]
            while r < hr and any(host_rows[r][c] != "1" for c in wanted):
                r += 1
            if r == hr:
                break
            r += 1
        else:
            return True
    return False


def direct_sum(p, q):
    return tuple(p) + tuple(v + len(p) for v in q)


def skew_sum(p, q):
    return tuple(v + len(q) for v in p) + tuple(q)


def inflate(skeleton, blocks):
    """Entry i of the skeleton becomes an interval shaped like blocks[i]."""
    sizes = {rank: len(b) for rank, b in zip(skeleton, blocks)}
    out = []
    for rank, block in zip(skeleton, blocks):
        base = sum(sizes[r] for r in range(1, rank))
        out.extend(base + v for v in block)
    return tuple(out)


def block_decompositions(perm, c: int):
    """Every (skeleton, blocks) cutting ``perm`` into c contiguous
    segments whose values form intervals."""
    n = len(perm)
    found = []
    for cuts in itertools.combinations(range(1, n), c - 1):
        edges = (0, *cuts, n)
        segments = [perm[edges[i]:edges[i + 1]] for i in range(c)]
        if all(max(s) - min(s) + 1 == len(s) for s in segments):
            skeleton = pattern_of([min(s) for s in segments])
            found.append((skeleton, tuple(pattern_of(s) for s in segments)))
    return found


def alpha(a: float, c: float) -> float:
    """Theorem 2.4 exponent 2a + 8c^2 + 32ac^2 ln c."""
    return 2.0 * a + 8.0 * c * c + 32.0 * a * c * c * math.log(c)


def exact(text: str) -> Fraction:
    """The rational value of a CLI number argument as the user typed it."""
    return Fraction(str(float(text)))


def lemma21_bound(k: str, a: str, t: str, s: str) -> Fraction:
    """k^a t / (s - k^a), for integral a."""
    ka = exact(k) ** int(float(a))
    return ka * exact(t) / (exact(s) - ka)


def lemma22_rhs(k, a, c, t, s, x, y, f_sub) -> Fraction:
    """binom(c, floor(xc)) f_sub + k^a t / (s (1 - y(c-1)/floor(xc)) c - k^a c)."""
    c = int(c)
    fxc = math.floor(exact(x) * c)
    ka = exact(k) ** int(float(a))
    denom = exact(s) * (1 - exact(y) * Fraction(c - 1, fxc)) * c - ka * c
    return math.comb(c, fxc) * int(f_sub) + ka * exact(t) / denom


def schedule_steps(k: float, a: float, c: int) -> float:
    """Unrounded bulk step count 1 + (ln c + ln(sqrt(beta k))) / (ln y_b -
    ln sqrt(x_b)) with x_b = (c-1)/c, y_b = (16c^2-8c-1)/(16c^2) and
    beta k = 2c k^a."""
    x_b = (c - 1) / c
    y_b = (16 * c * c - 8 * c - 1) / (16 * c * c)
    log_beta_k = math.log(2 * c) + a * math.log(k)
    return 1.0 + (math.log(c) + 0.5 * log_beta_k) / (math.log(y_b) - 0.5 * math.log(x_b))


# ---------------------------------------------------------------------------
# brute force, for checking the references above on small inputs
# ---------------------------------------------------------------------------

def brute_contains(host, pattern) -> bool:
    pattern = tuple(pattern)
    return any(
        pattern_of([host[p] for p in combo]) == pattern
        for combo in itertools.combinations(range(len(host)), len(pattern))
    )


def brute_matrix_contains(host_rows, pattern_rows) -> bool:
    pr, pc = len(pattern_rows), len(pattern_rows[0])
    for rows in itertools.combinations(range(len(host_rows)), pr):
        for cols in itertools.combinations(range(len(host_rows[0])), pc):
            if all(
                host_rows[rows[a]][cols[b]] == "1"
                for a in range(pr)
                for b in range(pc)
                if pattern_rows[a][b] == "1"
            ):
                return True
    return False


def brute_mergeable_count(red, blue, n: int) -> int:
    """Permutations of length n whose entries 2-colour so that the red
    entries avoid ``red`` and the blue ones avoid ``blue``, by trying
    every colouring."""
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            reds = [v for i, v in enumerate(perm) if mask >> i & 1]
            blues = [v for i, v in enumerate(perm) if not mask >> i & 1]
            if not brute_contains(reds, red) and not brute_contains(blues, blue):
                total += 1
                break
    return total


def brute_avoiders(pattern, n: int) -> int:
    return sum(
        1
        for perm in itertools.permutations(range(1, n + 1))
        if not brute_contains(perm, pattern)
    )
