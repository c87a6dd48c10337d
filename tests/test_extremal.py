"""Exact extremal searches and the inequality certifiers.

Oracle note: f(t, s) is finite exactly when s >= k (for k >= 2, s <= t).
With s < k one row of s ones repeats forever without ever supplying the
k distinct columns an occurrence needs, so f is infinite, answered as a
proven None.  With s >= k, f <= (k - 1) * C(t, k): more rows repeat
some k-set of ones k times, a k x k block of ones (Marcus and Tardos).
"""

import csv
import gc
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permx import extremal
from permx.bounds import BoundParams, lemma22_rhs, theorem24_alpha
from permx.core import (
    BinaryMatrix,
    Permutation,
    PermutationMatrix,
    blockable_decompositions,
    count_block_decompositions,
    matrix_avoids,
    matrix_occurrence_masks,
    parse_permutation,
    rotate90,
    to_matrix,
)
from permx.errors import PreconditionViolated, ResourceLimit
from permx.extremal import (
    _weight_submasks,
    check_lemma21,
    check_lemma22,
    exfn_enumerate,
    exfn_exact,
    fpts_exact,
    gpts_exact,
)
from permx.limits import DEFAULT_NODE_BUDGET
from permx.states import _row_states
from test_core import least_budget

I2 = PermutationMatrix.identity(2)
I3 = PermutationMatrix.identity(3)


def pm(text: str) -> PermutationMatrix:
    return to_matrix(parse_permutation(text))


def vflip(P: PermutationMatrix) -> PermutationMatrix:
    k = P.k
    return PermutationMatrix(BinaryMatrix(P.matrix.masks[::-1], k))


def ceiling(k: int, t: int) -> int:
    """The pigeonhole bound (k - 1) * C(t, k) on f(P; t, s) for s >= k."""
    return (k - 1) * math.comb(t, k)


def oracle_fpts(P: PermutationMatrix, t: int, s: int, cap: int) -> int:
    """Independent row-sequence enumeration using the generic
    containment routine after every append; stops once a host reaches
    the cap, since nothing can beat it."""
    pat = P.matrix.masks
    cands = [m for m in range(1, 1 << t) if m.bit_count() >= s]
    best = 0

    def rec(rows):
        nonlocal best
        best = max(best, len(rows))
        if len(rows) == cap:
            return
        for m in cands:
            if best == cap:
                return
            new = rows + [m]
            if matrix_occurrence_masks(new, t, pat, P.k) is None:
                rec(new)

    rec([])
    return best


class TestExfn:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity2_law(self, n):
        assert exfn_exact(I2, n).value == 2 * n - 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_enumeration(self, n):
        for text in ("1", "12", "21", "123", "132", "321"):
            P = pm(text)
            assert exfn_exact(P, n).value == exfn_enumerate(P, n)

    def test_identity2_matches_enumeration_n4(self):
        assert exfn_exact(I2, 4).value == exfn_enumerate(I2, 4)

    def test_single_cell_pattern(self):
        single = PermutationMatrix.identity(1)
        assert exfn_exact(single, 3).value == 0

    @pytest.mark.parametrize("text", ["12", "21", "123", "2413"])
    def test_one_by_one_host(self, text):
        assert exfn_exact(pm(text), 1).value == 1

    def test_monotone_in_n(self):
        for text in ("12", "123", "213"):
            P = pm(text)
            values = [exfn_exact(P, n).value for n in range(1, 5)]
            assert values == sorted(values)

    def test_witness_is_valid(self):
        for text, n in itertools.product(("12", "21", "132"), (2, 3, 4)):
            P = pm(text)
            res = exfn_exact(P, n)
            assert res.proven_optimal
            assert res.witness.count_ones() == res.value
            assert res.witness.rows == res.witness.cols == n
            assert matrix_avoids(res.witness, P.matrix)

    def test_budget_exhaustion_flags(self):
        res = exfn_exact(I2, 4, budget=50)
        assert not res.proven_optimal
        assert res.value <= 7

    def test_budget_exhaustion_witness_is_valid(self):
        res = exfn_exact(I2, 4, budget=50)
        assert not res.proven_optimal
        assert res.witness.count_ones() == res.value
        assert matrix_avoids(res.witness, I2.matrix)

    def test_pinned_witness(self):
        # the first optimum in cell order, setting a cell before clearing it
        res = exfn_exact(pm("132"), 4)
        assert res.value == 12
        assert list(res.witness.masks) == [15, 15, 12, 12]

    def test_wide_host_budget_pinned(self):
        # a 64-column host grows row states far larger than any count at
        # n <= 10 does, so dominance runs on large grouped tuple sets
        res = exfn_exact(pm("2413"), 64, budget=100)
        assert (res.value, res.proven_optimal, res.nodes_explored) == (375, False, 101)
        assert res.witness.count_ones() == 375

    @pytest.mark.parametrize("text, n, value, nodes, rows", [
        ("2413", 6, 27, 4925, [63, 63, 63, 35, 35, 35]),
        ("1342", 7, 33, 16728, [127, 127, 127, 112, 112, 112, 112]),
    ])
    def test_frontier_searches_pinned(self, text, n, value, nodes, rows):
        # 4 x 4 patterns, beyond the length-3 tables in artifacts/
        res = exfn_exact(pm(text), n)
        assert (res.value, res.nodes_explored, res.proven_optimal) == (value, nodes, True)
        assert list(res.witness.masks) == rows
        assert matrix_avoids(res.witness, pm(text).matrix)

    def test_bad_n(self):
        with pytest.raises(PreconditionViolated):
            exfn_exact(I2, 0)
        with pytest.raises(PreconditionViolated, match="need n >= 1, got 0"):
            exfn_enumerate(I2, 0)

    def test_enumerate_refuses_large(self):
        with pytest.raises(ResourceLimit):
            exfn_enumerate(I2, 5)

    def test_marcus_tardos_consistency(self):
        from permx.bounds import marcus_tardos_bound

        for text in ("12", "21", "123", "321"):
            P = pm(text)
            cap = marcus_tardos_bound(P.k)
            for n in range(1, 5):
                assert exfn_exact(P, n).value <= cap * n

    def test_deterministic(self):
        a = exfn_exact(pm("132"), 4)
        b = exfn_exact(pm("132"), 4)
        assert a == b


def test_row_state_memo_lasts_one_search():
    # the level memo lives in one search's row model, so a search leaves
    # nothing behind once it returns; the warm-up runs each pattern at a
    # smaller size first, so the measured searches build levels it never saw
    exfn_exact(pm("2413"), 4)
    fpts_exact(pm("123"), 5, 3)
    gc.collect()
    tracemalloc.start()
    try:
        for search in (lambda: exfn_exact(pm("2413"), 6), lambda: fpts_exact(pm("123"), 9, 3)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            search()
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
            assert peak - before > 200_000  # the search did build a memo
            assert current - before < 20_000
    finally:
        tracemalloc.stop()


class TestFpts:
    def test_width2_weight2(self):
        assert fpts_exact(I2, 2, 2).value == 1

    def test_spec_witness_shape(self):
        res = fpts_exact(I2, 3, 2)
        assert res.value == 2
        assert list(res.witness.masks) == [6, 3]  # rows {2,3} then {1,2}

    def test_infeasible_weight_is_zero(self):
        res = fpts_exact(I2, 3, 5)
        assert res.value == 0 and res.proven_optimal

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_interval_packing_law(self, t):
        for s in range(2, t + 1):
            assert fpts_exact(I2, t, s).value == (t - 1) // (s - 1)

    def test_witness_properties(self):
        for text, t in itertools.product(("12", "21", "123"), (2, 3, 4)):
            P = pm(text)
            for s in range(P.k, t + 1):
                res = fpts_exact(P, t, s)
                assert res.proven_optimal
                w = res.witness
                assert w.rows == res.value and w.cols == t
                assert all(m.bit_count() == s for m in w.masks)
                assert res.value == 0 or matrix_avoids(w, P.matrix)

    def test_matches_oracle(self):
        for text in ("12", "21", "123", "231"):
            P = pm(text)
            for t in range(P.k, 5):
                for s in range(P.k, t + 1):
                    got = fpts_exact(P, t, s)
                    assert got.proven_optimal
                    assert got.value == oracle_fpts(P, t, s, cap=8), (text, t, s)

    def test_low_weight_zone_is_proven_infinite(self):
        # s < k: the thin row of the highest column repeats forever,
        # proven without a search; the brute force reaches any cap
        res = fpts_exact(I2, 3, 1)
        assert (res.value, res.proven_optimal, res.nodes_explored) == (None, True, 0)
        assert list(res.witness.masks) == [4]
        assert oracle_fpts(I2, 3, 1, cap=6) == 6

    def test_monotone_in_t(self):
        for s in (2, 3):
            values = [fpts_exact(I2, t, s).value for t in range(s, 7)]
            assert values == sorted(values)

    def test_antitone_in_s(self):
        for t in (4, 5):
            values = [fpts_exact(I2, t, s).value for s in range(2, t + 1)]
            assert values == sorted(values, reverse=True)

    def test_row_reversal_symmetry(self):
        # reversing host rows bijects avoiders of P with avoiders of the
        # vertically flipped pattern
        for text in ("12", "123", "132", "213"):
            P = pm(text)
            Q = vflip(P)
            for t in range(P.k, 5):
                for s in range(P.k, t + 1):
                    assert fpts_exact(P, t, s).value == fpts_exact(Q, t, s).value

    def test_budget_exhaustion_flags(self):
        res = fpts_exact(I3, 5, 3, budget=10)
        assert not res.proven_optimal

    def test_budget_exhaustion_witness_is_valid(self):
        res = fpts_exact(I3, 5, 3, budget=10)
        assert not res.proven_optimal
        w = res.witness
        assert w.rows == res.value >= 1
        assert all(m.bit_count() == 3 for m in w.masks)
        assert matrix_avoids(w, I3.matrix)

    def test_pinned_witnesses(self):
        # the first longest host with rows tried in descending numeric order
        res = fpts_exact(pm("123"), 6, 3)
        assert (res.value, res.proven_optimal) == (8, True)
        assert list(res.witness.masks) == [7, 13, 25, 49, 35, 38, 44, 56]
        res = gpts_exact(pm("132"), 6, 3)
        assert (res.value, res.proven_optimal) == (8, True)
        assert list(res.witness.masks) == [56, 56, 44, 44, 38, 38, 35, 35]
        res = fpts_exact(pm("12"), 3, 1)
        assert (res.value, list(res.witness.masks)) == (None, [4])

    @settings(deadline=None)
    @given(st.data())
    def test_small_cases_match_oracle(self, data):
        # s < k: one row repeats forever, so the brute force reaches its
        # cap and the search answers a proven infinity; s >= k: the brute
        # force's value, within the pigeonhole ceiling
        k = data.draw(st.integers(1, 3))
        P = to_matrix(Permutation(tuple(data.draw(st.permutations(range(1, k + 1))))))
        t = data.draw(st.integers(1, 4))
        s = data.draw(st.integers(1, t))
        res = fpts_exact(P, t, s)
        expected = oracle_fpts(P, t, s, cap=6)
        assert res.proven_optimal
        assert all(m.bit_count() == s for m in res.witness.masks)
        if s < k:
            assert (res.value, expected, res.witness.rows) == (None, 6, 1)
        else:
            assert res.value == expected <= ceiling(k, t)
            assert res.witness.rows == res.value
            assert res.value == 0 or matrix_avoids(res.witness, P.matrix)

    def test_frontier_search_pinned(self):
        res = fpts_exact(pm("123"), 9, 3)
        assert (res.value, res.nodes_explored, res.proven_optimal) == (14, 1428, True)
        assert list(res.witness.masks) == [
            7, 13, 25, 49, 97, 193, 385, 259, 262, 268, 280, 304, 352, 448]

    def test_wide_host_pinned(self):
        # 20 columns, s = 3: C(20, 3) candidate rows per state; the
        # interval-packing law gives (20 - 1) // (3 - 1) = 9
        res = fpts_exact(I2, 20, 3)
        assert (res.value, res.nodes_explored, res.proven_optimal) == (9, 5016, True)
        assert list(res.witness.masks) == [
            917504, 229376, 57344, 14336, 3584, 896, 224, 56, 14]
        assert matrix_avoids(res.witness, I2.matrix)

    def test_width8_is_proven(self):
        res = fpts_exact(pm("123"), 8, 3)
        assert (res.value, res.proven_optimal) == (12, True)
        assert all(m.bit_count() == 3 for m in res.witness.masks)
        assert matrix_avoids(res.witness, pm("123").matrix)

    def test_host_deeper_than_the_recursion_limit(self):
        # the first dive of f(I_32; 64, 32) grows a host of 1023 rows,
        # more than the interpreter's frames; the search keeps its path
        # in a list, so only the budget ends it
        res = fpts_exact(PermutationMatrix.identity(32), 64, 32, budget=1100)
        assert (res.value, res.nodes_explored, res.proven_optimal) == (1023, 1101, False)
        assert res.witness.rows == res.value > sys.getrecursionlimit()
        assert all(m.bit_count() == 32 for m in res.witness.masks)

    def test_validation_errors(self):
        with pytest.raises(PreconditionViolated):
            fpts_exact(I2, 0, 1)
        with pytest.raises(PreconditionViolated):
            fpts_exact(I2, 3, -1)
        with pytest.raises(ResourceLimit):
            fpts_exact(I2, 200, 2)

    @given(st.permutations(list(range(1, 4))))
    def test_single_row_hosts_always_allowed(self, values):
        # one full row never contains a pattern needing two host rows
        P = to_matrix(parse_permutation(" ".join(map(str, values))))
        assert fpts_exact(P, 3, 3).value >= 1


class TestClosedForms:
    """Exact values known in closed form; they share no code with the
    searches."""

    @staticmethod
    def check(P, n, value):
        res = exfn_exact(P, n)
        assert (res.value, res.proven_optimal) == (value, True)
        assert res.witness.count_ones() == value
        assert matrix_avoids(res.witness, P.matrix)

    @pytest.mark.parametrize("text", ["123", "132", "213", "231", "312", "321"])
    def test_three_by_three(self, text):
        # Tardos (2005): ex(n, P) = 4n - 4 for every 3 x 3 permutation matrix
        self.check(pm(text), 6, 4 * 6 - 4)

    @pytest.mark.parametrize("n", [6, 7])
    def test_identity4(self, n):
        # Fueredi-Hajnal (1992): ex(n, I_k) = 2(k-1)n - (k-1)^2; the matrix
        # of 1234 is I_4 reflected, which leaves ex unchanged
        self.check(pm("1234"), n, 2 * 3 * n - 3 ** 2)

    def test_identity2_n10(self):
        self.check(pm("12"), 10, 2 * 10 - 1)


ROT_INVARIANT = PermutationMatrix(BinaryMatrix((0b10, 0b1000, 0b1, 0b100), 4))


def gpts_direct(P: PermutationMatrix, t: int, s: int, cap: int) -> int:
    """Slow column-by-column oracle for the rotation identity; grows the
    host one column at a time and re-checks containment from scratch.
    Shares no search code with ``gpts_exact``."""
    if t < 1:
        raise PreconditionViolated(f"need t >= 1, got {t}")
    if s < 0:
        raise PreconditionViolated(f"need s >= 0, got {s}")
    if s == 0:
        raise PreconditionViolated("s = 0 admits unlimited all-zero columns; refusing")
    if s > t or P.k == 1:
        return 0
    pat_masks = P.matrix.masks
    candidates = [m for m in range((1 << t) - 1, 0, -1) if m.bit_count() >= s]
    best = 0

    def avoids(col_masks) -> bool:
        width = len(col_masks)
        rows = [
            sum(((col_masks[j] >> i) & 1) << j for j in range(width))
            for i in range(t)
        ]
        return matrix_occurrence_masks(rows, width, pat_masks, P.k) is None

    def rec(cols):
        nonlocal best
        if len(cols) > best:
            best = len(cols)
        if len(cols) == cap:
            return
        for m in candidates:
            if avoids(cols + [m]):
                rec(cols + [m])

    rec([])
    return best


class TestGpts:
    def test_reference_value(self):
        assert gpts_exact(I2, 3, 2).value == 2

    def test_infeasible_weight(self):
        assert gpts_exact(I2, 3, 7).value == 0

    def test_direct_oracle_agrees(self):
        for text in ("12", "21", "123", "213"):
            P = pm(text)
            for t in range(P.k, 5):
                for s in range(P.k, t + 1):
                    assert gpts_exact(P, t, s).value == gpts_direct(
                        P, t, s, 6
                    ), (text, t, s)

    def test_rotation_invariant_pattern(self):
        assert rotate90(ROT_INVARIANT).matrix.ones == ROT_INVARIANT.matrix.ones
        f = fpts_exact(ROT_INVARIANT, 5, 4)
        g = gpts_exact(ROT_INVARIANT, 5, 4)
        assert f.value == g.value

    def test_frontier_search_pinned(self):
        # the row model merges hosts whose finished occurrences forbid the
        # same columns, which brings this search to about 10^5 nodes
        res = gpts_exact(pm("132"), 12, 3)
        assert (res.value, res.nodes_explored, res.proven_optimal) == (20, 109538, True)
        assert list(res.witness.masks) == [
            3584, 3584, 2816, 2816, 2432, 2432, 2240, 2240, 2144, 2144,
            2096, 2096, 2072, 2072, 2060, 2060, 2054, 2054, 2051, 2051]
        assert matrix_avoids(res.witness, rotate90(pm("132")).matrix)

    def test_validation(self):
        with pytest.raises(PreconditionViolated, match="s = 0 admits unlimited all-zero columns"):
            gpts_direct(I2, 3, 0, 4)


class TestCheckLemma21:
    def test_reference_case(self):
        rep = check_lemma21(I2, 1, 3, 3)
        assert rep.holds
        assert rep.lhs_value == 1
        assert rep.rhs_bound == 6

    def test_wider_case(self):
        rep = check_lemma21(I2, 1, 4, 3)
        assert rep.holds
        assert rep.rhs_bound == 8
        assert rep.lhs_value <= 8

    def test_precondition_s_at_most_ka(self):
        with pytest.raises(PreconditionViolated):
            check_lemma21(I2, 1, 4, 2)

    def test_hypothesis_failure(self):
        # ex(2) = 3 > 2 * sqrt(2), so a = 0.5 cannot be verified
        with pytest.raises(PreconditionViolated, match=r"ex\(n=2\) = 3 exceeds k\^a\*n"):
            check_lemma21(I2, 0.5, 3, 3)

    def test_one_budget_for_every_search(self):
        # the hypothesis searches and the final one draw on one budget,
        # so the reported total is exactly the budget that suffices
        nodes = check_lemma21(I2, 1, 5, 4).nodes_explored
        assert check_lemma21(I2, 1, 5, 4, budget=nodes).holds
        with pytest.raises(ResourceLimit):
            check_lemma21(I2, 1, 5, 4, budget=nodes - 1)
        with pytest.raises(ResourceLimit, match="budget exhausted while verifying ex at n=2"):
            check_lemma21(I2, 1, 5, 4, budget=2)

    def test_failing_verdict_reports_the_stop(self, monkeypatch):
        # with the hypothesis checked at n = 1 alone, a = 0.01 passes it;
        # the bound is 1.52..., so the search stops at its first host of
        # 2 rows, and two rows of three ones avoid 123: f >= 2 refutes it
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        rep = check_lemma21(pm("123"), 0.01, 3, 3)
        assert (rep.holds, rep.lhs_value, rep.nodes_explored) == (False, 2, 3)
        assert rep.rhs_bound < 2
        assert rep.hypothesis_checked_upto == 1

    def test_infinite_left_side_fails_without_a_search(self, monkeypatch):
        # s = 2 < k = 3: f is infinite, so any finite bound fails; only
        # the hypothesis search (ex at n = 1, one node) runs
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        rep = check_lemma21(pm("123"), 0.5, 10, 2)
        assert (rep.holds, rep.lhs_value, rep.nodes_explored) == (False, None, 1)
        assert 64 < rep.rhs_bound < 65
        assert rep.to_jsonable()["lhs"] is None

    def test_infinite_left_side_at_the_full_hypothesis_depth(self):
        # 6^a = 4 exactly in doubles, and ex(123456, n) = n^2 <= 4n up to
        # n = 4, so the hypothesis holds (36 nodes); s = 5 < k = 6 makes
        # f infinite, which refutes the bound 32 without a row search
        a = math.log(4, 6)
        assert 6.0 ** a == 4
        rep = check_lemma21(pm("123456"), a, 8, 5)
        assert (rep.holds, rep.lhs_value, rep.nodes_explored) == (False, None, 36)
        assert rep.rhs_bound == 32
        assert rep.hypothesis_checked_upto == 4

    def test_report_shape(self):
        data = check_lemma21(I2, 1, 5, 4).to_jsonable()
        assert set(data) >= {"lhs", "rhs", "pass", "nodes"}
        assert "wall_ms" not in data
        assert data["pass"] is True


P12 = pm("12")


def _random_masks(seed):
    rng = random.Random(seed)
    for _ in range(3000):
        width = rng.randint(0, 10)
        allowed = rng.getrandbits(width)
        subs = sorted((m for m in range(1 << width) if m & ~allowed == 0), reverse=True)
        yield rng, width, allowed, subs


def test_rows_put_the_empty_row_second():
    # oracle: every submask found by brute force over the mask's width,
    # sorted in descending order, with the empty row moved up to second
    for _, _, allowed, subs in _random_masks(23):
        assert list(_rows(allowed)) == subs[:1] + subs[1:][-1:] + subs[1:-1], allowed


def test_weight_submasks_match_sorted_filter():
    # oracle: the descending submasks filtered to exactly s bits
    # (s past the mask's weight, however large, leaves nothing)
    for rng, width, allowed, subs in _random_masks(29):
        s = rng.randint(0, width + 1)
        assert list(_weight_submasks(allowed, s)) == [
            m for m in subs if m.bit_count() == s], (allowed, s)
        assert list(_weight_submasks(allowed, 10**20)) == []


class _Stop(Exception):
    pass


ALL_PATTERNS_TO_4 = [
    "".join(map(str, p)) for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))
]


@pytest.mark.parametrize("text", ALL_PATTERNS_TO_4)
def test_row_density_dichotomy(text):
    # s < k, s = 0 included: a proven infinity in no nodes, whose one
    # row, stacked k times, avoids the pattern.  s >= k: a proven value within the
    # pigeonhole ceiling, and below its node count a search that runs
    # out of budget returns a shorter avoiding host.  gpts_exact is
    # fpts_exact on the rotated pattern, which has the same k
    P = pm(text)
    k = P.k
    for t in range(1, 7):
        for s in range(t + 1):
            for search, Q in ((fpts_exact, P), (gpts_exact, rotate90(P))):
                res = fresh(search, P, t, s)
                assert res.proven_optimal
                rows = list(res.witness.masks)
                assert res.witness.cols == t and all(m.bit_count() == s for m in rows)
                if s < k:
                    assert (res.value, res.nodes_explored) == (None, 0)
                    assert rows == [sum(1 << c for c in range(t - s, t))]
                    assert matrix_avoids(BinaryMatrix(rows * k, t), Q.matrix)
                    continue
                assert res.value == len(rows) <= ceiling(k, t)
                assert res.value == 0 or matrix_avoids(res.witness, Q.matrix)
                for budget in {1, 7, 30, res.nodes_explored - 1}:
                    if 1 <= budget < res.nodes_explored:
                        cut = fresh(search, P, t, s, budget)
                        assert (cut.proven_optimal, cut.nodes_explored) == (False, budget + 1)
                        assert cut.witness.rows == cut.value <= res.value
                        assert all(m.bit_count() == s for m in cut.witness.masks)
                        assert cut.value == 0 or matrix_avoids(cut.witness, Q.matrix)


def recursive_fpts(P, t, s, budget, stop):
    """fpts_exact for s >= k as a recursion with one frame per host row,
    checking the stop after every candidate, with the witness read back
    one row at a time: the reference of the differential test.
    (value, witness rows or None, nodes, proven)."""
    root, step = _row_states(P, t)

    def candidates(state):
        return _weight_submasks(((1 << t) - 1) & ~state[-1], s)

    memo, stack, deepest, nodes = {}, [], [], 0

    def longest(state):
        nonlocal deepest, nodes
        value = 0
        for m in candidates(state):
            nodes += 1
            if nodes > budget or len(stack) + 1 >= stop:
                raise _Stop
            child = step(state, m)
            more = memo.get(child)
            if more is None:
                stack.append(m)
                if len(stack) > len(deepest):
                    deepest = list(stack)
                more = longest(child)
                stack.pop()
            if len(stack) + 1 + more >= stop:
                raise _Stop
            value = max(value, 1 + more)
        memo[state] = value
        return value

    try:
        value = longest(root)
    except _Stop:
        if nodes > budget:
            return (len(deepest), deepest, nodes, False)
        return (stop, None, nodes, False)
    host, state = [], root
    while len(host) < value:
        for m in candidates(state):
            child = step(state, m)
            if memo[child] >= value - len(host) - 1:
                break
        host.append(m)
        state = child
    return (value, host, nodes, True)


@pytest.mark.parametrize("text", ALL_PATTERNS_TO_4)
def test_search_matches_recursive_walk(text):
    # the search keeps its path in a list of frames and checks the stop
    # after a memoised child only; value, witness, node count and flag
    # are the recursion's, at stops the certifiers may pass and at
    # budgets that run out.  gpts_exact is fpts_exact on the rotation
    for Q in (pm(text), rotate90(pm(text))):
        for t in range(1, 8):
            for s in range(Q.k, t + 1):
                for stop, budget in [(stop, DEFAULT_NODE_BUDGET) for stop in (1, 2, 3, 5, 9)] + [
                        (math.inf, budget) for budget in (1, 7, 30, DEFAULT_NODE_BUDGET)]:
                    res = fresh(extremal._fpts, Q, t, s, budget, stop)
                    rows = None if res.witness is None else list(res.witness.masks)
                    assert (res.value, rows, res.nodes_explored, res.proven_optimal) == (
                        recursive_fpts(Q, t, s, budget, stop)), (t, s, stop, budget)


def test_proven_values_in_the_table_are_within_the_ceiling():
    # every f and g of artifacts/f_values.csv has s >= k and is proven
    path = Path(__file__).resolve().parent.parent / "artifacts" / "f_values.csv"
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        k, t, s = len(row["pattern"]), int(row["t"]), int(row["s"])
        assert s >= k
        assert int(row["f"]) <= ceiling(k, t) and int(row["g"]) <= ceiling(k, t), row


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_heavy_rows_change_every_state(data):
    # with s >= k no row of s ones leaves a reachable state unchanged, so
    # the row graph the search walks is acyclic.  Candidates are every
    # mask of s ones clear of the state's forbidden columns
    k = data.draw(st.integers(2, 5))
    P = to_matrix(Permutation(tuple(data.draw(st.permutations(range(1, k + 1))))))
    t = data.draw(st.integers(k, 8))
    s = data.draw(st.integers(k, t))
    root, step = _row_states(P, t)
    state = root
    for _ in range(data.draw(st.integers(0, 12))):
        rows = [m for m in range(1 << t) if m.bit_count() == s and not m & state[-1]]
        for m in rows:
            assert step(state, m) != state, (m, state)
        if not rows:
            break
        state = step(state, data.draw(st.sampled_from(rows)))


def _rows(allowed: int):
    """Every submask of ``allowed``: itself, then the empty row, then the
    rest in descending numeric order."""
    yield allowed
    if allowed:
        yield 0
        m = allowed
        while m := (m - 1) & allowed:
            yield m


def submask_exfn(P, n, budget):
    """exfn_exact as a search over every submask of a state's allowed
    columns, in _rows order, a row skipped when its ones and the empty
    row's rest cannot beat the best so far.  The reference of the
    differential test; (value, witness rows, nodes, proven), a node
    being one row visited."""
    root, step = _row_states(P, n)
    memo, stack, found, nodes = {}, [], [0, [0] * n], 0

    def best(r, state):
        nonlocal nodes
        if r == 0:
            ones = sum(m.bit_count() for m in stack)
            if ones > found[0]:
                found[:] = ones, list(stack)
            return 0
        if (r, state) not in memo:
            allowed = ((1 << n) - 1) & ~state[-1]
            entry, cap, empty = (-1, 0, None), -1, None
            for m in [allowed] if r == 1 else _rows(allowed):
                nodes += 1
                if nodes > budget:
                    raise _Stop
                if m and m.bit_count() + cap <= entry[0]:
                    continue
                child = step(state, m, r - 1) if r > 1 else None
                stack.append(m)
                value = m.bit_count() + best(r - 1, child)
                stack.pop()
                if not m:
                    cap, empty = value, child
                elif value > entry[0]:
                    entry = (value, m, child)
            memo[(r, state)] = entry if entry[0] >= cap else (cap, 0, empty)
        return memo[(r, state)][0]

    try:
        value = best(n, root)
    except _Stop:
        return (found[0], found[1], nodes, False)
    host, state = [], root
    for r in range(n, 0, -1):
        _, m, state = memo[(r, state)]
        host.append(m)
    return (value, host, nodes, True)


DIFFERENTIAL_CASES = (
    [(text, n) for text in ALL_PATTERNS_TO_4 for n in range(1, 7)]
    + [(text, 7) for text in ALL_PATTERNS_TO_4 if len(text) == 3]
    + [("".join(map(str, p)), 5) for p in itertools.permutations(range(1, 6))][::8])


@pytest.mark.parametrize("text, n", DIFFERENTIAL_CASES)
def test_exfn_matches_submask_search(text, n):
    # the sweep keeps each distinct child's best row, so value, witness
    # and flag are the submask search's.  nodes_explored is the least
    # budget that proves the value; a search that runs out of budget
    # returns a completed host that avoids P
    P = pm(text)
    want = submask_exfn(P, n, DEFAULT_NODE_BUDGET)
    got = fresh(exfn_exact, P, n)
    assert (got.value, list(got.witness.masks), got.proven_optimal) == (
        want[0], want[1], want[3])
    assert fresh(exfn_exact, P, n, got.nodes_explored) == got
    for budget in {got.nodes_explored - 1, 10, 100, 1000, 10**4}:
        if 1 <= budget < got.nodes_explored:
            res = fresh(exfn_exact, P, n, budget)
            assert (res.proven_optimal, res.nodes_explored) == (False, budget + 1), budget
            assert res.witness.count_ones() == res.value <= got.value
            assert matrix_avoids(res.witness, P.matrix)


def test_infinite_answer_builds_no_row_model(monkeypatch):
    # s < k is decided from k alone: no row model is built and no
    # record kept
    def no_model(P, width):
        raise AssertionError("built a row model")

    monkeypatch.setattr(extremal, "_row_states", no_model)
    extremal._finished.clear()
    P = pm("1234")
    for t in range(1, 9):
        for s in range(1, min(t, 3) + 1):
            for search in (fpts_exact, gpts_exact):
                assert search(P, t, s).value is None
    assert extremal._finished == {}


@pytest.mark.parametrize("c", [2.0, 2.5])
@pytest.mark.parametrize("run", [
    lambda c: count_block_decompositions(parse_permutation("2143"), c),
    lambda c: blockable_decompositions(parse_permutation("2143"), c),
    lambda c: check_lemma22(pm("123"), 1, c, 8, 5, 0.6, 0.3),
    lambda c: lemma22_rhs(3, 1, c, 9, 9, 0.75, 0.3, 0),
    lambda c: BoundParams(10**6, 1, c),
], ids=["count-blocks", "blockable", "lemma22", "lemma22-rhs", "bound-params"])
def test_non_integer_block_count_is_refused(run, c):
    # refused before any work, where it once ended in a TypeError
    with pytest.raises(PreconditionViolated, match="block count c must be an integer"):
        run(c)


def test_alpha_keeps_integral_float_block_counts():
    assert theorem24_alpha(1, 2.0) == theorem24_alpha(1, 2)


@pytest.mark.parametrize("text", ALL_PATTERNS_TO_4)
def test_both_certifiers_refuse_exactly_where_the_hypothesis_fails(text):
    # the ex values come from full enumeration, which shares no code with
    # exfn_exact: the first n <= 4 with ex(n) > k^a * n, if any, is
    # refused by check_lemma21 and, for a 2-blockable pattern, by
    # check_lemma22, with one message; otherwise both return a verdict
    P = pm(text)
    k = P.k
    ex = {n: exfn_enumerate(P, n) for n in range(1, 5)}
    blockable = k >= 2 and count_block_decompositions(parse_permutation(text), 2) > 0
    for a in (0.01, 0.3, 0.5, 0.8, 1, 1.5):
        ka = k ** a if isinstance(a, int) else float(k) ** a  # the certifiers' k^a
        over = [n for n in ex if ex[n] > Fraction(ka) * n]
        runs = [lambda: check_lemma21(P, a, 20, 20)]
        if blockable:
            runs.append(lambda: check_lemma22(P, a, 2, 20, 20, 0.6, 0.5))
        for run in runs:
            if over:
                n = over[0]
                with pytest.raises(PreconditionViolated) as info:
                    run()
                assert str(info.value) == (
                    f"ex(n={n}) = {ex[n]} exceeds k^a*n = {float(Fraction(ka)) * n:g}")
            else:
                assert run().nodes_explored > 0


class TestCheckLemma22:
    def test_one_budget_for_both_searches(self):
        # the hypothesis searches (101 nodes), the sub-search and the
        # left side draw on one budget, so the reported total is exactly
        # the budget that suffices.  The sub-instance (s = 1 < k = 3) is
        # infinite, decided in no nodes
        P, args = pm("123"), (1, 2, 8, 5, 0.6, 0.3)
        nodes = check_lemma22(P, *args).nodes_explored
        assert nodes == 445
        assert check_lemma22(P, *args, budget=nodes).holds
        with pytest.raises(ResourceLimit):
            check_lemma22(P, *args, budget=nodes - 1)

    def test_reference_case(self):
        rep = check_lemma22(P12, 1, 2, 5, 5, 0.6, 0.5)
        assert rep.holds
        assert rep.lhs_value == 1
        assert rep.rhs_value == 12
        assert (rep.shrunk_t, rep.shrunk_s) == (2, 2)
        assert (rep.f_sub_value, rep.f_sub_capped) == (1, False)

    def test_grid_of_valid_constants(self):
        checked = 0
        for t in range(2, 6):
            for s in range(2, t + 1):
                for x in (0.6, 0.75, 0.9):
                    for y in (0.3, 0.4, 0.5):
                        try:
                            rep = check_lemma22(P12, 1, 2, t, s, x, y)
                        except PreconditionViolated:
                            continue
                        checked += 1
                        assert rep.holds, (t, s, x, y)
        assert checked >= 4

    def test_failing_verdict_reports_the_stop(self, monkeypatch):
        # with the hypothesis checked at n = 1 alone (one node), a = 0.01
        # passes it; rhs = 2.92... with f_sub = 0, so the left search
        # stops at its first host of 3 rows
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        rep = check_lemma22(pm("1234"), 0.01, 2, 8, 8, 0.6, 0.7)
        assert (rep.holds, rep.lhs_value, rep.f_sub_value) == (False, 3, 0)
        assert rep.nodes_explored == 4
        assert 2 < rep.rhs_value < 3

    def test_capped_sub_search_only_raises_the_right_side(self, monkeypatch):
        # s = 1 < k = 2 at the shrunken instance: the one-column row
        # repeats forever, so f_sub is infinite, decided in no nodes, and
        # 64 stands in for it.  a = 0.1 passes the hypothesis at n = 1
        # alone (one node)
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        rep = check_lemma22(pm("21"), 0.1, 2, 3, 3, 0.6, 0.5)
        assert (rep.holds, rep.lhs_value, rep.f_sub_value) == (True, 1, 64)
        assert rep.f_sub_capped
        assert rep.nodes_explored == 2
        assert rep.rhs_value > 128

    def test_capped_sub_search_leaves_a_thin_left_side_open(self, monkeypatch):
        # s = 3 < k = 4 on both sides: f and f_sub are both infinite, so
        # the inequality holds, yet f_sub = 64 puts a finite right side
        # under an infinite left one: no fail can be proven.  a = 0.1
        # passes the hypothesis at n = 1 alone
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        with pytest.raises(ResourceLimit, match="verdict open"):
            check_lemma22(pm("1234"), 0.1, 2, 8, 3, 0.6, 0.34)

    def test_capped_sub_search_leaves_a_wide_left_side_open(self, monkeypatch):
        # s = 4 >= k = 3 while f(123; 4, 1) is infinite.  With f_sub
        # standing in at 1 the right side is 4.26..., and the left search
        # reaches its stop of 5 rows: f > rhs(1) proves nothing about
        # rhs(f_sub).  a = 0.01 passes the hypothesis at n = 1 alone
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        monkeypatch.setattr(extremal, "_SUB_STOP", 1)
        with pytest.raises(ResourceLimit, match="verdict open"):
            check_lemma22(pm("123"), 0.01, 2, 8, 4, 0.6, 0.3)
        monkeypatch.setattr(extremal, "_SUB_STOP", 64)
        rep = check_lemma22(pm("123"), 0.01, 2, 8, 4, 0.6, 0.3)
        assert (rep.holds, rep.f_sub_value, rep.f_sub_capped) == (True, 64, True)

    @pytest.mark.parametrize("stop, f_sub, nodes", [(5, 4, 141), (4, 4, 141), (3, 3, 133),
                                                     (1, 1, 122)])
    def test_sub_search_stops_at_its_first_long_host(self, monkeypatch, stop, f_sub, nodes):
        # f(12; 5, 2) = 4 is proven below a stop of 5; a stop of at most 4
        # ends the sub-search at its first host of that many rows, which
        # then stands in for f_sub, flagged.  The nodes include the one
        # of the hypothesis search at n = 1
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        monkeypatch.setattr(extremal, "_SUB_STOP", stop)
        extremal._finished.clear()
        rep = check_lemma22(P12, 1, 2, 10, 7, 0.6, 0.3)
        assert (rep.shrunk_t, rep.shrunk_s, rep.f_sub_value, rep.f_sub_capped) == (
            5, 2, f_sub, stop <= 4)
        assert (rep.holds, rep.lhs_value, rep.nodes_explored) == (True, 1, nodes)

    def test_not_blockable(self):
        with pytest.raises(PreconditionViolated, match="admits no 2-block decomposition"):
            check_lemma22(pm("2413"), 1, 2, 5, 5, 0.6, 0.5)

    def test_x_at_boundary(self):
        with pytest.raises(PreconditionViolated, match="need x > 1/c"):
            check_lemma22(P12, 1, 2, 5, 5, 0.5, 0.5)

    def test_shrunken_weight_zero(self):
        with pytest.raises(PreconditionViolated, match=r"floor\(s\*y\) = 0"):
            check_lemma22(P12, 1, 2, 5, 5, 0.6, 0.1)

    def test_report_shape(self):
        data = check_lemma22(P12, 1, 2, 5, 5, 0.6, 0.5).to_jsonable()
        assert set(data) >= {"lhs", "rhs", "pass", "nodes", "f_sub", "f_sub_capped"}
        assert "wall_ms" not in data
        assert data["rhs"] == "12"

    def test_blockability_decided_once_per_pattern_and_c(self, monkeypatch):
        counted = []

        def counting(p, c):
            counted.append((p, c))
            return count_block_decompositions(p, c)

        monkeypatch.setattr(extremal, "count_block_decompositions", counting)
        extremal._blockable.cache_clear()
        for _ in range(2):
            check_lemma22(P12, 1, 2, 5, 5, 0.6, 0.5)
            with pytest.raises(PreconditionViolated, match="admits no 2-block decomposition"):
                check_lemma22(pm("2413"), 1, 2, 5, 5, 0.6, 0.5)
            # 2.0 == 2 and hashes alike, yet is refused after a c = 2 call
            with pytest.raises(PreconditionViolated, match="block count c must be an integer"):
                check_lemma22(P12, 1, 2.0, 5, 5, 0.6, 0.5)
        assert len(counted) == 4


# -- finished searches kept per process --------------------------------------

def fresh(search, *args):
    # the record a search returns with no kept record to stand in for it
    extremal._finished.clear()
    return search(*args)


def fpts_stopped(P, t, s, stop, budget=DEFAULT_NODE_BUDGET):
    # the certifiers' search, ended at its first host of `stop` rows
    return extremal._fpts(P, t, s, budget, stop)


def gpts_stopped(P, t, s, stop, budget=DEFAULT_NODE_BUDGET):
    return extremal._fpts(rotate90(P), t, s, budget, stop)


def test_kept_records_equal_fresh_searches(monkeypatch):
    # in two shuffled orders every call returns the record the same call
    # returns on an empty table; stops straddle the kept values and
    # budgets each search's node count.  Each pattern's calls are
    # shuffled among themselves, so many find a kept record, and the
    # table fills to its bound
    expected = {}
    for text in ("12", "21", "123", "132", "213", "2413"):
        P = pm(text)
        expected[text] = calls = {}
        for t in range(1, 7):
            runs = [(exfn_exact, P, t)] + [
                run for s in range(1, t + 1) for run in
                [(fpts_exact, P, t, s), (gpts_exact, P, t, s)] + [
                    (search, P, t, s, stop)
                    for stop in (1, 2, 3, 64) for search in (fpts_stopped, gpts_stopped)]]
            for run in runs:
                nodes = fresh(*run).nodes_explored
                for budget in (nodes - 1, nodes, DEFAULT_NODE_BUDGET):
                    if budget >= 1:  # a budget below 1 is refused
                        calls[run + (budget,)] = fresh(*run, budget)
    searches = 0

    def counting_row_states(P, width):
        nonlocal searches
        searches += 1
        return _row_states(P, width)

    monkeypatch.setattr(extremal, "_row_states", counting_row_states)
    for seed in (1, 2):
        rng = random.Random(seed)
        extremal._finished.clear()
        searches, largest, made = 0, 0, 0
        for calls in expected.values():
            order = list(calls)
            rng.shuffle(order)
            for call in order:
                assert call[0](*call[1:]) == calls[call], call
                largest = max(largest, len(extremal._finished))
            made += len(order)
        assert largest == 128
        # a third of the calls run out of budget, which no kept record
        # answers; more calls than that find one
        assert made - searches > made // 3


def test_budget_below_a_kept_search_runs_out_as_a_fresh_one():
    # one node fewer than the kept searches took still runs out: the
    # first least_budget call keeps both records, the second finds them
    P, args = pm("123"), (1, 2, 8, 5, 0.6, 0.3)
    for _ in range(2):
        assert least_budget(lambda b: check_lemma22(P, *args, budget=b), 445).holds
    for _ in range(2):
        rep = least_budget(lambda b: check_lemma21(P, 1, 5, 4, budget=b), 117)
        assert rep.holds
    res = fpts_exact(P, 8, 5)
    assert fpts_exact(P, 8, 5, budget=res.nodes_explored) is res
    assert fpts_exact(P, 8, 5, budget=res.nodes_explored - 1) == fresh(
        fpts_exact, P, 8, 5, res.nodes_explored - 1)


def test_stop_at_or_below_a_kept_value_searches_afresh():
    # a proven record answers a stopped call only when its value is
    # below the stop, where the stopped run never stops; stopped runs
    # are not kept, and they build no witness
    P = pm("123")
    at_stops = {stop: fresh(fpts_stopped, P, 6, 3, stop) for stop in range(1, 10)}
    fresh(fpts_stopped, P, 6, 3, 8)
    assert extremal._finished == {}
    proven = fpts_exact(P, 6, 3)
    assert proven.proven_optimal and proven.value == 8
    for stop, res in at_stops.items():
        again = fpts_stopped(P, 6, 3, stop)
        assert again == res
        assert (res.witness is None) == (stop <= 8) == (again is not proven)
        if stop <= 8:
            assert (res.value, res.proven_optimal) == (stop, False)
    # every argument check runs before the lookup
    with pytest.raises(PreconditionViolated, match="budget"):
        fpts_exact(P, 6, 3, 0)

