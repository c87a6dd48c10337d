"""Exact extremal searches and the inequality certifiers.

Oracle note: f(t, s) is finite exactly when s >= k (for k >= 2, s <= t).
With s < k some mask of weight in [s, k) repeats forever without ever
supplying the k distinct columns an occurrence needs, so searches in
that zone must cap out flagged rather than report a value as proven.
"""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permx import extremal
from permx.bounds import BoundParams, lemma22_rhs, theorem24_alpha
from permx.core import (
    BinaryMatrix,
    Permutation,
    PermutationMatrix,
    _row_states,
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
    _submasks,
    _weight_submasks,
    check_lemma21,
    check_lemma22,
    exfn_enumerate,
    exfn_exact,
    fpts_exact,
    gpts_exact,
)
from permx.limits import DEFAULT_NODE_BUDGET, DEFAULT_ROW_CAP, MAX_ROW_CAP
from test_core import least_budget

I2 = PermutationMatrix.identity(2)
I3 = PermutationMatrix.identity(3)


def pm(text: str) -> PermutationMatrix:
    return to_matrix(parse_permutation(text))


def vflip(P: PermutationMatrix) -> PermutationMatrix:
    k = P.k
    return PermutationMatrix(BinaryMatrix(P.matrix.masks[::-1], k))


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
        ("2413", 6, 27, 38032, [63, 63, 63, 35, 35, 35]),
        ("1342", 7, 33, 72573, [127, 127, 127, 112, 112, 112, 112]),
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
    # smaller size first, so the measured searches build levels it never saw.
    # Each search must run, so no earlier test's kept record may stand in
    extremal._finished.clear()
    exfn_exact(pm("2413"), 4)
    fpts_exact(pm("123"), 5, 3)
    gc.collect()
    tracemalloc.start()
    try:
        for search in (lambda: exfn_exact(pm("2413"), 5), lambda: fpts_exact(pm("123"), 9, 3)):
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
                    got = fpts_exact(P, t, s, n_cap=8)
                    assert got.proven_optimal
                    assert got.value == oracle_fpts(P, t, s, cap=8), (text, t, s)

    def test_low_weight_zone_caps_out(self):
        # s < k: some thin row repeats forever, so the cap must be hit
        res = fpts_exact(I2, 3, 1, n_cap=6)
        assert res.hit_row_cap and not res.proven_optimal
        assert res.value == 6
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
        assert not res.proven_optimal and not res.hit_row_cap
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
        res = fpts_exact(pm("12"), 3, 1, n_cap=6)
        assert res.hit_row_cap
        assert list(res.witness.masks) == [4, 4, 4, 4, 4, 4]

    @settings(deadline=None)
    @given(st.data())
    def test_small_cases_match_oracle(self, data):
        # includes s < k, where some row repeats forever and the cap is hit
        k = data.draw(st.integers(1, 3))
        P = to_matrix(Permutation(tuple(data.draw(st.permutations(range(1, k + 1))))))
        t = data.draw(st.integers(1, 4))
        s = data.draw(st.integers(1, t))
        res = fpts_exact(P, t, s, n_cap=6)
        expected = oracle_fpts(P, t, s, cap=6)
        assert (res.value, res.hit_row_cap) == (expected, expected == 6)
        assert res.witness.rows == res.value
        assert all(m.bit_count() == s for m in res.witness.masks)
        assert res.value == 0 or matrix_avoids(res.witness, P.matrix)

    def test_frontier_search_pinned(self):
        res = fpts_exact(pm("123"), 9, 3)
        assert (res.value, res.nodes_explored, res.proven_optimal, res.hit_row_cap) == (
            14, 1428, True, False)
        assert list(res.witness.masks) == [
            7, 13, 25, 49, 97, 193, 385, 259, 262, 268, 280, 304, 352, 448]

    def test_wide_host_pinned(self):
        # 20 columns, s = 3: C(20, 3) candidate rows per state; the
        # interval-packing law gives (20 - 1) // (3 - 1) = 9
        res = fpts_exact(I2, 20, 3)
        assert (res.value, res.nodes_explored, res.proven_optimal, res.hit_row_cap) == (
            9, 5016, True, False)
        assert list(res.witness.masks) == [
            917504, 229376, 57344, 14336, 3584, 896, 224, 56, 14]
        assert matrix_avoids(res.witness, I2.matrix)

    def test_width8_is_proven(self):
        res = fpts_exact(pm("123"), 8, 3)
        assert (res.value, res.proven_optimal, res.hit_row_cap) == (12, True, False)
        assert all(m.bit_count() == 3 for m in res.witness.masks)
        assert matrix_avoids(res.witness, pm("123").matrix)

    def test_validation_errors(self):
        with pytest.raises(PreconditionViolated):
            fpts_exact(I2, 0, 1)
        with pytest.raises(PreconditionViolated):
            fpts_exact(I2, 3, -1)
        with pytest.raises(PreconditionViolated, match="s = 0 admits unlimited all-zero rows"):
            fpts_exact(I2, 3, 0)
        with pytest.raises(PreconditionViolated):
            fpts_exact(I2, 3, 2, n_cap=0)
        with pytest.raises(ResourceLimit):
            fpts_exact(I2, 200, 2)

    @given(st.permutations(list(range(1, 4))))
    def test_single_row_hosts_always_allowed(self, values):
        # one full row never contains a pattern needing two host rows
        P = to_matrix(parse_permutation(" ".join(map(str, values))))
        assert fpts_exact(P, 3, 3, n_cap=4).value >= 1


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


def gpts_direct(P: PermutationMatrix, t: int, s: int, n_cap: int) -> int:
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
        if len(cols) == n_cap:
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
                    assert gpts_exact(P, t, s, n_cap=6).value == gpts_direct(
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
        assert (res.value, res.nodes_explored, res.proven_optimal, res.hit_row_cap) == (
            20, 109538, True, False)
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

    @pytest.mark.parametrize("hypothesis_n", [0, -5])
    def test_hypothesis_n_below_one(self, hypothesis_n, monkeypatch):
        # an empty hypothesis range would certify nothing; refused before
        # any search
        import permx.extremal

        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(permx.extremal, "exfn_exact", no_search)
        monkeypatch.setattr(permx.extremal, "fpts_exact", no_search)
        with pytest.raises(PreconditionViolated, match="hypothesis_n >= 1"):
            check_lemma21(I2, 1, 5, 3, hypothesis_n)

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

    def test_failing_verdict_reports_the_cap(self):
        # the bound is 1.52..., so the search is capped at 2 rows, and
        # two rows of three ones avoid 123: f >= 2 refutes the bound
        rep = check_lemma21(pm("123"), 0.01, 3, 3, hypothesis_n=1)
        assert (rep.holds, rep.lhs_value, rep.nodes_explored) == (False, 2, 3)
        assert rep.rhs_bound < 2

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


def test_submasks_match_sorted_countdown():
    # oracle: every submask found by brute force over the mask's width,
    # sorted in descending order
    for _, _, allowed, subs in _random_masks(23):
        assert list(_submasks(allowed)) == subs, allowed


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


def per_row_fpts(P, t, s, n_cap, budget=DEFAULT_NODE_BUDGET):
    """fpts_exact with the witness read back one row at a time: for each
    row, follow reruns the candidates and the step, also for a row that
    leaves the state unchanged and so wins again.  The reference walk of
    the differential witness test."""
    root, step = _row_states(P, t)

    def candidates(state):
        return _weight_submasks(((1 << t) - 1) & ~state[-1], s)

    def follow(state, need):
        out = []
        while len(out) < need:
            for m in candidates(state):
                child = step(state, m)
                if child == state or memo[child] >= need - len(out) - 1:
                    break
            out.append(m)
            state = child
        return out

    memo = {}
    stack, deepest, capped, nodes = [], [], None, 0

    def longest(state):
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
            return (n_cap, capped, nodes, False, True)
        return (len(deepest), deepest, nodes, False, False)
    return (value, follow(root, value), nodes, True, False)


def fpts_fields(res):
    return (res.value, list(res.witness.masks), res.nodes_explored,
            res.proven_optimal, res.hit_row_cap)


ALL_PATTERNS_TO_4 = [
    "".join(map(str, p)) for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))
]


# per_row_fpts outcomes by (pattern masks, t, s, cap, budget); the
# patterns of length <= 4 are closed under rotation, so each gpts case
# reuses the walk of an fpts case
PER_ROW = {}


@pytest.mark.parametrize("text", ALL_PATTERNS_TO_4)
def test_capped_witness_matches_per_row_walk(text):
    # a repeating row's run is written in one step; value, witness, node
    # count and flags are those of the walk that writes it row by row.
    # gpts_exact is fpts_exact on the rotated pattern
    P = pm(text)
    for t in range(1, 8):
        for s in range(1, t + 1):
            for cap, budget in [(cap, DEFAULT_NODE_BUDGET) for cap in (1, 2, 3, 5, 9, 64)] + [
                    (64, budget) for budget in (1, 7, 30)]:
                for search, Q in ((fpts_exact, P), (gpts_exact, rotate90(P))):
                    key = (Q.matrix.masks, t, s, cap, budget)
                    if key not in PER_ROW:
                        PER_ROW[key] = per_row_fpts(Q, t, s, cap, budget)
                    assert fpts_fields(search(P, t, s, cap, budget)) == PER_ROW[key], (
                        search.__name__, t, s, cap, budget)


def test_capped_search_steps_once_per_state(monkeypatch):
    # the row model's step runs for each distinct state the search and
    # the witness visit, not once per row of the cap.  Each search must
    # run, so no earlier test's kept record may stand in
    extremal._finished.clear()
    calls = 0

    def counting_row_states(P, width):
        root, step = _row_states(P, width)

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        return root, counted

    monkeypatch.setattr(extremal, "_row_states", counting_row_states)
    counts = []
    for cap in (64, MAX_ROW_CAP):
        calls = 0
        res = fpts_exact(pm("123"), 5, 2, cap)
        assert (res.value, res.hit_row_cap, res.witness.rows) == (cap, True, cap)
        counts.append(calls)
    assert counts[0] == counts[1]


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


class TestCheckLemma22:
    def test_one_budget_for_both_searches(self):
        # the sub-search and the left side draw on one budget, so the
        # reported total is exactly the budget that suffices
        P, args = pm("123"), (1, 2, 8, 5, 0.6, 0.3)
        nodes = check_lemma22(P, *args).nodes_explored
        assert nodes == 346
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

    def test_failing_verdict_reports_the_cap(self):
        # rhs = 2.92... with f_sub = 0, so the left search is capped at 3
        # rows and reaches it: a too-small a shows as a failing verdict
        rep = check_lemma22(pm("1234"), 0.01, 2, 8, 8, 0.6, 0.7)
        assert (rep.holds, rep.lhs_value, rep.f_sub_value) == (False, 3, 0)
        assert rep.nodes_explored == 3
        assert 2 < rep.rhs_value < 3

    def test_capped_sub_search_only_raises_the_right_side(self):
        # s = 1 < k = 2 at the shrunken instance: the one-column row
        # repeats forever, so f_sub is the row cap 64, not a proven value
        rep = check_lemma22(pm("21"), 0.1, 2, 3, 3, 0.6, 0.5)
        assert (rep.holds, rep.lhs_value, rep.f_sub_value) == (True, 1, 64)
        assert rep.f_sub_capped
        assert rep.nodes_explored == 2
        assert rep.rhs_value > 128

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
        assert len(counted) == 2


# -- finished searches kept per process --------------------------------------

def fresh(search, *args):
    # the record a search returns with no kept record to stand in for it
    extremal._finished.clear()
    return search(*args)


def test_kept_records_equal_fresh_searches(monkeypatch):
    # in two shuffled orders every call returns the record the same call
    # returns on an empty table; caps straddle the kept values and budgets
    # each search's node count.  Each pattern's calls are shuffled among
    # themselves, so many find a kept record, and the table fills to its
    # bound
    expected = {}
    for text in ("12", "123", "132", "2413"):
        P = pm(text)
        expected[text] = calls = {}
        for t in range(1, 7):
            runs = [(exfn_exact, P, t)] + [
                (search, P, t, s, cap)
                for s in range(1, t + 1) for cap in (1, 2, 3, 64)
                for search in (fpts_exact, gpts_exact)]
            for run in runs:
                nodes = fresh(*run).nodes_explored
                for budget in (nodes - 1, nodes, DEFAULT_NODE_BUDGET):
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
    extremal._finished.clear()
    for _ in range(2):
        assert least_budget(lambda b: check_lemma22(P, *args, budget=b), 346).holds
    for _ in range(2):
        rep = least_budget(lambda b: check_lemma21(P, 1, 5, 4, hypothesis_n=3, budget=b), 56)
        assert rep.holds
    res = fpts_exact(P, 8, 5)
    assert fpts_exact(P, 8, 5, budget=res.nodes_explored) is res
    assert fpts_exact(P, 8, 5, budget=res.nodes_explored - 1) == fresh(
        fpts_exact, P, 8, 5, 64, res.nodes_explored - 1)


def test_cap_at_or_below_a_kept_value_searches_afresh():
    P = pm("123")
    at_caps = {cap: fresh(fpts_exact, P, 6, 3, cap) for cap in range(1, 10)}
    extremal._finished.clear()
    proven = fpts_exact(P, 6, 3)
    assert proven.proven_optimal and proven.value == 8
    for cap, res in at_caps.items():
        assert fpts_exact(P, 6, 3, cap) == res
        assert res.hit_row_cap == (cap <= 8)
        assert (fpts_exact(P, 6, 3, cap) is proven) == (cap > 8)
    # every argument check runs before the lookup
    with pytest.raises(ResourceLimit, match="row cap"):
        fpts_exact(P, 6, 3, MAX_ROW_CAP + 1)
    with pytest.raises(PreconditionViolated, match="n_cap"):
        fpts_exact(P, 6, 3, 0)


def test_capped_record_is_reused_only_at_its_cap():
    # s = 2 < k = 3: a two-column row repeats forever, so every cap is hit
    P = pm("123")
    extremal._finished.clear()
    at5 = fpts_exact(P, 5, 2, 5)
    assert (at5.value, at5.hit_row_cap) == (5, True)
    assert fpts_exact(P, 5, 2, 5) is at5
    at6 = fpts_exact(P, 5, 2, 6)
    assert (at6.value, at6.hit_row_cap) == (6, True)
    assert fpts_exact(P, 5, 2, 6) is at6 and fpts_exact(P, 5, 2, 5) is at5
    # a witness of more than DEFAULT_ROW_CAP rows is not kept
    kept = len(extremal._finished)
    long = fpts_exact(P, 5, 2, DEFAULT_ROW_CAP + 1)
    assert long.witness.rows == DEFAULT_ROW_CAP + 1
    assert len(extremal._finished) == kept
    assert fpts_exact(P, 5, 2, DEFAULT_ROW_CAP + 1) is not long
