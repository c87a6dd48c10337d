"""Avoidance counting against the naive filter, growth estimates, and
merge membership."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permx import avoidance
from permx.avoidance import (
    _avoider_counts,
    _colour,
    _jv_search,
    _layers,
    _merge_states,
    _own_count,
    _representative,
    _sum_over_states,
    avoiders,
    count_avoiders,
    merge_coloring,
    merge_member,
    merge_count_upper_check,
    sw_estimate_sequence,
    verify_jv_inclusion,
)
from permx.core import (
    Permutation,
    avoids,
    complement,
    contains,
    direct_sum,
    inverse,
    parse_permutation,
    reverse,
)
from permx.errors import PreconditionViolated, ResourceLimit
from permx.limits import DEFAULT_NODE_BUDGET
from permx.states import _dominated, _occurrence_plan, _perm_canonical, _perm_states
from test_core import least_budget

THREE_PATTERNS = ["123", "132", "213", "231", "312", "321"]
# every pattern of length at most 4, the ones count_avoiders routes
SHORT_PATTERNS = ["".join(map(str, p)) for k in range(1, 5)
                  for p in itertools.permutations(range(1, k + 1))]


def perm(text):
    return parse_permutation(text)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def naive_count(pattern, n):
    return sum(
        1
        for values in itertools.permutations(range(1, n + 1))
        if avoids(Permutation(values), pattern)
    )


@st.composite
def permutations_upto(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    return Permutation(tuple(draw(st.permutations(tuple(range(1, n + 1))))))


# -- counting ---------------------------------------------------------------

def test_count_known_values():
    assert count_avoiders(perm("123"), 4) == 14
    assert count_avoiders(perm("132"), 5) == 42
    assert count_avoiders(perm("1"), 3) == 0
    for n in range(1, 7):
        assert count_avoiders(perm("12"), n) == 1


def test_count_trivial_lengths():
    assert count_avoiders(perm("123"), 0) == 1
    assert count_avoiders(perm("123"), 2) == 2
    assert count_avoiders(perm("4231"), 3) == 6


def own_counts(pattern, n):
    """|Av_i| for i = 0..n on the pattern's own canonical states,
    unrouted."""
    pvals = pattern.entries
    return _avoider_counts(*_perm_states(pvals), n, DEFAULT_NODE_BUDGET, _perm_canonical(pvals))


def own_states(pattern, n):
    """The distinct canonical states a length-n sum over the pattern's
    own states expands, the least budget of that sum."""
    pvals = pattern.entries
    return sum(len(layer) for i, layer in enumerate(
        _layers(*_perm_states(pvals), n, DEFAULT_NODE_BUDGET, _perm_canonical(pvals))) if i < n)


def raw_count(pvals, n, budget):
    """|Av_n| summed over the raw states of ``pvals``, none made
    canonical: the sum a merge colour runs."""
    return sum(_sum_over_states(*_perm_states(pvals), n, budget).values())


@pytest.mark.parametrize("text", THREE_PATTERNS)
def test_catalan_all_three_patterns(text):
    assert own_counts(perm(text), 8) == [catalan(n) for n in range(9)]
    for n in range(0, 9):
        assert count_avoiders(perm(text), n) == catalan(n)


@pytest.mark.parametrize("text", SHORT_PATTERNS)
def test_count_matches_naive_filter(text):
    # the routed count against the factorial filter and against the
    # pattern's own states, so every pattern's own kernel stays checked
    pattern = perm(text)
    counts = [count_avoiders(pattern, n) for n in range(11)]
    assert counts[:8] == [naive_count(pattern, n) for n in range(8)]
    assert counts == own_counts(pattern, 10)


def raw_counts(pvals, n):
    """|Av_i| for i = 0..n from the raw layers of ``pvals``, none made
    canonical."""
    return _avoider_counts(*_perm_states(pvals), n, DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_canonical_sums_equal_raw_sums(k):
    # every pattern of length k, to n = 9: each length's count from the
    # canonical sum against the raw one, which drops no occurrence
    for pvals in itertools.permutations(range(1, k + 1)):
        assert own_counts(Permutation(pvals), 9) == raw_counts(pvals, 9), pvals


@pytest.mark.parametrize("pvals", random.Random(6).sample(
    list(itertools.permutations(range(1, 7))), 12), ids=lambda p: "".join(map(str, p)))
def test_canonical_sums_equal_raw_sums_length_six(pvals):
    assert own_counts(Permutation(pvals), 8) == raw_counts(pvals, 8)


def forbids_nothing_more(expand, state, t, r):
    """Whether the level-(k - 2) occurrence t adds nothing to the mask of
    any child of ``state``: its children with t alone at that level have
    the masks of its children with that level empty.  Built by the
    model's own step, not by the canonicaliser's test."""
    with_t = state[:-2] + (frozenset([t]), state[-1])
    without = state[:-2] + (frozenset(), state[-1])
    return ([(u, child[-1]) for u, child in expand(with_t, r)]
            == [(u, child[-1]) for u, child in expand(without, r)])


@pytest.mark.parametrize("pvals", [
    (1, 2), (1, 3, 2), (2, 1, 3), (1, 3, 2, 4), (1, 4, 2, 3), (2, 4, 1, 3), (1, 2, 3, 4),
    (2, 1, 4, 3), (1, 3, 5, 2, 4), (2, 5, 3, 1, 4), (1, 4, 2, 5, 3),
], ids=lambda p: "".join(map(str, p)))
def test_dropped_occurrences_stay_droppable_in_every_child(pvals):
    # over every state a raw length-n sum reaches: the canonicaliser
    # drops exactly the occurrences that forbid nothing more, by the
    # model's own step, and each dropped one, shifted, forbids nothing
    # more in every child either
    k = len(pvals)
    root, expand = _perm_states(pvals)
    canonical = _perm_canonical(pvals)
    dropped = 0
    for n in range(1, 9):
        layers = list(_layers(root, expand, n, DEFAULT_NODE_BUDGET))
        for r, layer in zip(range(n, 0, -1), layers):
            for state in layer:
                (kept,) = canonical({state: 1}, r)
                assert kept[:-2] + kept[-1:] == state[:-2] + state[-1:]
                for t in state[-2]:
                    droppable = t not in kept[-2]
                    assert droppable == forbids_nothing_more(expand, state, t, r), (state, t)
                    if not droppable:
                        continue
                    dropped += 1
                    for u, child in expand(state, r):
                        shifted = tuple(g - (g > u) for g in t)
                        assert forbids_nothing_more(expand, child, shifted, r - 1)
    assert dropped


@pytest.mark.parametrize("n", [9, 12])
def test_representatives_expand_the_fewest_states_of_their_class(n):
    # the proven Wilf classes of length at most 4 are exactly the
    # patterns with equal counts; each class routes to the member whose
    # own sum expands the fewest states, ties to the lexicographically
    # least, and that member's states are the routed count's least budget
    classes = {}
    for text in SHORT_PATTERNS:
        pattern = perm(text)
        classes.setdefault(tuple(own_counts(pattern, 8)), []).append(pattern)
    assert len(classes) == 1 + 1 + 1 + 3
    for members in classes.values():
        cheapest = min((own_states(p, n), p.entries) for p in members)
        assert {_representative(p) for p in members} == {cheapest[1]}
        assert least_budget(lambda b: count_avoiders(members[-1], n, budget=b),
                            cheapest[0]) == own_counts(members[-1], n)[n]


def test_longer_patterns_are_counted_as_given():
    for text in ("12345", "54321", "13524", "214365"):
        assert _representative(perm(text)) == perm(text).entries


def symmetry_images(p):
    """The images of p under the eight symmetries of the square."""
    images = [p, inverse(p)]
    images += [reverse(q) for q in images]
    return images + [complement(q) for q in images]


@pytest.mark.parametrize("text", ["".join(map(str, p))
                                  for p in itertools.permutations(range(1, 5))])
def test_count_symmetry_invariance(text):
    # each symmetry maps the avoiders of p onto those of its image, so
    # the counts agree; the last level's mask is open at the top, open
    # at the bottom or closed on both sides as the image's last entry is
    # its largest, its smallest or neither.  Each image is counted on its
    # own states, since count_avoiders sums over one member of the class
    images = {q.entries: q for q in symmetry_images(perm(text))}
    counts = {str(q): own_counts(q, 8) for q in images.values()}
    assert len({tuple(c) for c in counts.values()}) == 1, counts


@pytest.mark.parametrize("pvals", random.Random(5).sample(
    list(itertools.permutations(range(1, 6))), 24), ids=lambda p: "".join(map(str, p)))
def test_count_length_five_sample_matches_naive_filter(pvals):
    pattern = Permutation(pvals)
    for n in range(7):
        assert count_avoiders(pattern, n) == naive_count(pattern, n)


def test_count_validation():
    with pytest.raises(PreconditionViolated, match="nonempty patterns"):
        count_avoiders(Permutation(()), 3)
    with pytest.raises(PreconditionViolated):
        count_avoiders(perm("123"), -1)
    with pytest.raises(ResourceLimit, match="n=18 exceeds the configured limit 17"):
        count_avoiders(perm("123"), 18)
    with pytest.raises(ResourceLimit):
        count_avoiders(perm("123"), 9, budget=10)
    with pytest.raises(ResourceLimit):
        count_avoiders(perm("1324"), 10, budget=100)
    with pytest.raises(PreconditionViolated, match="nonempty patterns"):
        next(avoiders(Permutation(()), 3))
    with pytest.raises(ResourceLimit, match="node budget 10 exhausted"):
        list(avoiders(perm("123"), 9, budget=10))


# every entry point as (length, budget) -> result; merge_coloring takes
# its length from its host, so it is checked on budgets alone
SIZED_ENTRY_POINTS = {
    "count_avoiders": lambda n, b: count_avoiders(perm("132"), n, budget=b),
    "avoiders": lambda n, b: list(avoiders(perm("132"), n, budget=b)),
    "sw_estimate_sequence": lambda n, b: sw_estimate_sequence(perm("132"), n, budget=b),
    "merge_count_upper_check":
        lambda n, b: merge_count_upper_check(perm("12"), perm("21"), n, budget=b),
    "verify_jv_inclusion":
        lambda n, b: verify_jv_inclusion(perm("1"), perm("12"), perm("21"), n, budget=b),
}
ENTRY_POINTS = dict(
    SIZED_ENTRY_POINTS,
    merge_coloring=lambda n, b: merge_coloring(perm("2143"), perm("12"), perm("21"), budget=b),
)


def refuse_work(monkeypatch):
    # every entry point starts its work in one of these
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(avoidance, "_perm_states", refuse)
    monkeypatch.setattr(avoidance, "completes_at_end", refuse)


@pytest.mark.parametrize("n", [4.0, 4.5, True, False, "4", None], ids=repr)
@pytest.mark.parametrize("name", SIZED_ENTRY_POINTS)
def test_non_integer_lengths_are_refused_before_any_work(monkeypatch, name, n):
    refuse_work(monkeypatch)
    with pytest.raises(PreconditionViolated, match="must be an integer"):
        SIZED_ENTRY_POINTS[name](n, DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("budget", [0, -1, 2.5, 10.0, True, None, "10"], ids=repr)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_budgets_below_one_or_not_integers_are_refused_before_any_work(
        monkeypatch, name, budget):
    refuse_work(monkeypatch)
    with pytest.raises(PreconditionViolated, match="budget must be a positive integer"):
        ENTRY_POINTS[name](4, budget)


@pytest.mark.parametrize("pattern, n, budget, count", [
    ("2413", 8, 341, 15485),
    ("1234", 9, 249, 94359),
    ("1324", 9, 696, 94776),
    ("2413", 9, 867, 91245),
    ("132", 10, 363, 16796),
    ("312", 10, 363, 16796),
    ("213", 10, 420, 16796),
])
def test_count_budget_counts_states(pattern, n, budget, count):
    # a counting node is one distinct prefix state expanded, so whether a
    # budget suffices depends only on the pattern, n and the budget; the
    # smallest sufficient budget pins how many distinct reduced states the
    # step builds, and repeating it shows no memo leaks between calls.
    # 1234, 1324 and 213 end on their largest value, so the forbidden
    # gaps of their last level are one interval open at the top, which
    # dominance already kept as one tuple: their pins are the controls.
    # These are the pattern's own raw states, summed unrouted, as a
    # merge colour sums them
    pvals = perm(pattern).entries
    for _ in range(2):
        assert raw_count(pvals, n, budget) == count
        with pytest.raises(ResourceLimit):
            raw_count(pvals, n, budget - 1)


@pytest.mark.parametrize("pattern, n, budget, count", [
    ("2413", 8, 220, 15485),
    ("1234", 9, 188, 94359),
    ("1324", 9, 314, 94776),
    ("2413", 9, 505, 91245),
    ("132", 10, 334, 16796),
    ("312", 10, 334, 16796),
    ("213", 10, 276, 16796),
])
def test_own_count_budget_counts_canonical_states(pattern, n, budget, count):
    # the cases above on canonical states: a node is one canonical state
    # expanded, and each pin is below the raw one
    pvals = perm(pattern).entries
    for _ in range(2):
        assert least_budget(lambda b: _own_count(pvals, n, b), budget) == count


@pytest.mark.parametrize("pattern, n, budget, count", [
    ("2413", 8, 178, 15485),
    ("1234", 9, 188, 94359),
    ("1324", 9, 314, 94776),
    ("2413", 9, 361, 91245),
    ("132", 10, 138, 16796),
    ("312", 10, 138, 16796),
    ("213", 10, 138, 16796),
])
def test_routed_count_budget_counts_the_representatives_states(pattern, n, budget, count):
    # the cases above through count_avoiders: 2413 is summed on 1423's
    # canonical states and every pattern of length 3 on 123's
    for _ in range(2):
        assert least_budget(lambda b: count_avoiders(perm(pattern), n, budget=b),
                            budget) == count


# -- closed forms that share no code with the counter -----------------------

def gessel_1234(n):
    """|Av_n(1234)| by Gessel (1990)."""
    total = sum(
        Fraction(
            math.comb(2 * k, k) * math.comb(n, k) ** 2
            * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
            (k + 1) ** 2 * (k + 2) * (n - k + 1),
        )
        for k in range(n + 1)
    )
    return 2 * total


def bona_1342(n):
    """|Av_n(1342)| for n >= 1 by Bona (1997)."""
    total = Fraction((-1) ** (n - 1) * (7 * n * n - 3 * n - 2), 2)
    for i in range(2, n + 1):
        total += (
            3 * (-1) ** (n - i)
            * Fraction(2 ** (i + 1) * math.factorial(2 * i - 4),
                       math.factorial(i) * math.factorial(i - 2))
            * math.comb(n - i + 2, 2)
        )
    return total


def test_gessel_1234_closed_form():
    pattern = perm("1234")
    for n in range(0, 8):
        assert gessel_1234(n) == naive_count(pattern, n)
    assert gessel_1234(12) == 24792705
    for n in range(0, 18):
        assert count_avoiders(pattern, n) == gessel_1234(n)


@pytest.mark.parametrize("text", ["1342", "2413"])
def test_bona_1342_closed_form(text):
    # Stankova (1994): Av(2413) and Av(1342) are equinumerous.  The
    # public call sums over 1423's states, to n = 17 in one sum; each
    # pattern's own states are checked to n = 13
    pattern = perm(text)
    for n in range(1, 8):
        assert bona_1342(n) == naive_count(pattern, n)
    assert bona_1342(11) == 3475090
    assert own_counts(pattern, 13)[1:] == [bona_1342(n) for n in range(1, 14)]
    assert [e.count for e in sw_estimate_sequence(pattern, 17)] == [
        bona_1342(n) for n in range(1, 18)]


def test_count_1324_oeis():
    # A061552 (Marinov and Radoicic 2003 for n <= 20)
    assert count_avoiders(perm("1324"), 11) == 3824112
    assert [e.count for e in sw_estimate_sequence(perm("1324"), 15)][10:] == [
        3824112, 25431452, 173453058, 1209639642, 8604450011]


@given(permutations_upto(6, min_n=4), st.integers(0, 7))
@settings(max_examples=25)
def test_count_long_patterns_match_filter_and_enumeration(pattern, n):
    count = count_avoiders(pattern, n)
    assert count == naive_count(pattern, n)
    assert count == len(list(avoiders(pattern, n)))


def test_avoiders_enumeration():
    found = list(avoiders(perm("21"), 3))
    assert found == [(1, 2, 3)]
    found = list(avoiders(perm("123"), 4))
    assert len(found) == 14
    assert found == sorted(found)
    for values in found:
        assert avoids(Permutation(values), perm("123"))


@given(permutations_upto(4, min_n=2), st.integers(0, 5))
@settings(max_examples=30)
def test_avoiders_agree_with_count(pattern, n):
    listed = list(avoiders(pattern, n))
    assert len(listed) == count_avoiders(pattern, n)
    assert len(set(listed)) == len(listed)


# -- growth estimates -------------------------------------------------------

def test_sw_estimates_catalan():
    seq = sw_estimate_sequence(perm("123"), 5)
    assert [e.count for e in seq] == [1, 2, 5, 14, 42]
    assert seq[-1].value == pytest.approx(42 ** 0.2, rel=1e-9)
    assert seq[0].value == 1.0


def test_sw_estimates_monotone_pattern():
    seq = sw_estimate_sequence(perm("12"), 5)
    assert all(e.value == 1.0 for e in seq)


def test_sw_estimates_zero_counts():
    seq = sw_estimate_sequence(perm("1"), 3)
    assert all(e.count == 0 and e.value == 0.0 for e in seq)


def test_sw_estimates_validation():
    with pytest.raises(PreconditionViolated):
        sw_estimate_sequence(perm("123"), 0)


def test_sw_estimate_checks_length_before_counting(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("counted before checking the length limit")

    monkeypatch.setattr(avoidance, "_perm_states", refuse)
    with pytest.raises(ResourceLimit):
        sw_estimate_sequence(perm("2413"), 18)


def test_sw_estimate_refusals_keep_their_order():
    # n_max < 1, then the length limit, then the empty pattern
    with pytest.raises(PreconditionViolated, match="n_max"):
        sw_estimate_sequence(Permutation(()), 0)
    with pytest.raises(ResourceLimit):
        sw_estimate_sequence(Permutation(()), 18)
    with pytest.raises(PreconditionViolated, match="nonempty"):
        sw_estimate_sequence(Permutation(()), 3)


def counting_models(monkeypatch):
    # the number of permutation models built, one per _perm_states call
    calls = []

    def model(pvals):
        calls.append(pvals)
        return _perm_states(pvals)

    monkeypatch.setattr(avoidance, "_perm_states", model)
    return calls


def test_sw_estimate_builds_one_model(monkeypatch):
    # of the pattern's Wilf representative, 1423 for 1342
    want = [count_avoiders(perm("1342"), n) for n in range(1, 9)]
    calls = counting_models(monkeypatch)
    assert [e.count for e in sw_estimate_sequence(perm("1342"), 8)] == want
    assert calls == [(1, 4, 2, 3)]


def test_merge_count_builds_one_model_per_colour(monkeypatch):
    # the right sides sum over the colours' own step tables
    calls = counting_models(monkeypatch)
    report = merge_count_upper_check(perm("123"), perm("132"), 8)
    assert (report.lhs, report.rhs, report.rhs_refined) == (40245, 61748, 2749244)
    assert calls == [(1, 2, 3), (1, 3, 2)]


@pytest.mark.parametrize("text, n, nodes", [
    ("12", 7, 28), ("123", 9, 100), ("1342", 9, 407),
    ("2413", 9, 505), ("12354", 8, 164), ("4321", 8, 117),
])
def test_sw_estimate_keeps_the_least_budget_of_its_longest_count(text, n, nodes):
    # the one sum over all lengths against the length-n count, both on
    # the pattern's own canonical states, unrouted
    pvals = perm(text).entries
    count = least_budget(lambda b: _own_count(pvals, n, b), nodes)
    counts = least_budget(
        lambda b: _avoider_counts(*_perm_states(pvals), n, b, _perm_canonical(pvals)), nodes)
    assert counts[-1] == count


@pytest.mark.parametrize("text, n, nodes", [
    ("1", 6, 1), ("12", 7, 28), ("21", 7, 28), ("123", 9, 100), ("1342", 9, 361),
    ("2413", 9, 361), ("12354", 8, 164), ("4321", 8, 117),
])
def test_routed_sw_estimate_keeps_the_least_budget_of_its_longest_count(text, n, nodes):
    # both public calls sum over the same representative's states
    pattern = perm(text)
    count = least_budget(lambda b: count_avoiders(pattern, n, budget=b), nodes)
    seq = least_budget(lambda b: sw_estimate_sequence(pattern, n, budget=b), nodes)
    assert seq[-1].count == count


@given(permutations_upto(3, min_n=2), st.integers(1, 6))
@settings(max_examples=25)
def test_sw_estimate_at_least_one_when_nonempty(pattern, n):
    seq = sw_estimate_sequence(pattern, n)
    for e in seq:
        if e.count >= 1:
            assert e.value >= 1.0


# -- merge membership -------------------------------------------------------

def test_merge_known_negative():
    assert not merge_member(perm("123"), perm("12"), perm("12"))


def test_merge_known_positive_with_witness():
    host = perm("2143").entries
    coloring = merge_coloring(perm("2143"), perm("12"), perm("12"))
    assert coloring is not None
    red = [v for v, col in zip(host, coloring) if col == "red"]
    blue = [v for v, col in zip(host, coloring) if col == "blue"]
    assert not contains_seq(red, (1, 2))
    assert not contains_seq(blue, (1, 2))


def contains_seq(values, pvals):
    from permx.core import contains_values

    return contains_values(tuple(values), pvals)


def test_merge_all_red_shortcut():
    assert merge_member(perm("321"), perm("12"), perm("123"))
    assert merge_member(perm("321"), perm("12"), perm("1"))


def test_merge_single_pattern_blocks_everything():
    assert not merge_member(perm("1"), perm("1"), perm("1"))
    assert merge_member(Permutation(()), perm("1"), perm("1"))


def test_merge_validation():
    with pytest.raises(PreconditionViolated, match="merge patterns must be nonempty"):
        merge_member(perm("1"), Permutation(()), perm("1"))
    with pytest.raises(PreconditionViolated, match="merge patterns must be nonempty"):
        merge_coloring(perm("1"), perm("1"), Permutation(()))
    with pytest.raises(PreconditionViolated, match="merge patterns must be nonempty"):
        merge_count_upper_check(Permutation(()), perm("1"), 3)
    with pytest.raises(ResourceLimit, match="node budget 2 exhausted"):
        merge_coloring(perm("2143"), perm("12"), perm("12"), budget=2)
    with pytest.raises(ResourceLimit):
        merge_member(Permutation(tuple(range(1, 19))), perm("12"), perm("21"))


def oracle_merge(host, red_p, blue_p):
    n = host.n
    for mask in range(1 << n):
        red = [v for i, v in enumerate(host.entries) if mask >> i & 1]
        blue = [v for i, v in enumerate(host.entries) if not mask >> i & 1]
        if not contains_seq(red, red_p.entries) and not contains_seq(
            blue, blue_p.entries
        ):
            return True
    return False


@given(permutations_upto(5), permutations_upto(3), permutations_upto(3))
@settings(max_examples=40)
def test_merge_matches_coloring_oracle(host, red_p, blue_p):
    assert merge_member(host, red_p, blue_p) == oracle_merge(host, red_p, blue_p)


@given(permutations_upto(5, min_n=2), permutations_upto(3), permutations_upto(3))
@settings(max_examples=30)
def test_merge_closed_under_entry_deletion(host, red_p, blue_p):
    if not merge_member(host, red_p, blue_p):
        return
    from permx.core import pattern_of

    for i in range(host.n):
        smaller = Permutation(
            pattern_of(host.entries[:i] + host.entries[i + 1:])
        )
        assert merge_member(smaller, red_p, blue_p)


# -- inclusion verifier -----------------------------------------------------

def test_jv_inclusion_triple_ones():
    report = verify_jv_inclusion(perm("1"), perm("1"), perm("1"), 5)
    assert report.holds
    assert report.checked == catalan(5)
    assert report.combined == perm("123")
    assert report.counterexample is None


def test_jv_inclusion_longer_first_part():
    report = verify_jv_inclusion(perm("12"), perm("1"), perm("1"), 4)
    assert report.holds
    assert report.combined == perm("1234")
    assert report.red_pattern == perm("123")
    assert report.blue_pattern == perm("12")


def test_jv_inclusion_validation():
    with pytest.raises(PreconditionViolated, match="all three parts must be nonempty"):
        verify_jv_inclusion(perm("1"), Permutation(()), perm("1"), 3)


def test_jv_inclusion_checks_length_before_searching(monkeypatch):
    # the product states carry merge states, so the merge-count limit
    # (11) applies, not the avoider-count limit (16)
    searched = []

    def search(combined, red, blue, n, budget):
        searched.append(n)
        return 0, True, None

    monkeypatch.setattr(avoidance, "_jv_search", search)
    verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 11)
    with pytest.raises(ResourceLimit, match="n=12 exceeds the configured limit 11"):
        verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 12)
    assert searched == [11]


def oracle_jv(host_p, red_p, blue_p, n):
    """(checked, holds, counterexample) by merging every avoider in turn."""
    checked = 0
    for values in avoiders(host_p, n):
        checked += 1
        host = Permutation(values)
        if not merge_member(host, red_p, blue_p):
            return checked, False, host
    return checked, True, None


@given(
    permutations_upto(4), permutations_upto(3), permutations_upto(3),
    st.integers(0, 6),
)
@example(perm("321"), perm("12"), perm("12"), 3)
@example(perm("321"), perm("12"), perm("12"), 6)
@example(perm("1234"), perm("21"), perm("12"), 5)
@example(perm("4321"), perm("123"), perm("12"), 6)
@settings(max_examples=60, deadline=None)
def test_jv_search_matches_avoider_loop(host_p, red_p, blue_p, n):
    # arbitrary triples, so the failing side is exercised too: 321 with
    # red = blue = 12 fails first at 123, the first avoider
    got = _jv_search(host_p.entries, red_p.entries, blue_p.entries, n, 10 ** 6)
    assert got == oracle_jv(host_p, red_p, blue_p, n)


def test_jv_search_failing_triple():
    assert _jv_search((3, 2, 1), (1, 2), (1, 2), 3, 100) == (1, False, perm("123"))


@pytest.mark.parametrize("parts", [("1", "12", "21"), ("21", "1", "12")])
def test_jv_inclusion_counts_every_avoider(parts):
    a, b, c = (perm(t) for t in parts)
    combined = direct_sum(direct_sum(a, b), c)
    for n in range(0, 8):
        report = verify_jv_inclusion(a, b, c, n)
        assert report.holds and report.counterexample is None
        assert report.checked == count_avoiders(combined, n)


def test_jv_report_serializes():
    report = verify_jv_inclusion(perm("1"), perm("1"), perm("1"), 3)
    data = report.to_jsonable()
    assert data["holds"] is True
    assert data["counterexample"] is None
    assert data["combined"] == "123"


# -- merge counting bound ---------------------------------------------------

def test_merge_count_small_example():
    report = merge_count_upper_check(perm("12"), perm("12"), 4)
    assert report.lhs == 14
    assert report.rhs == 16
    assert report.holds and report.holds_refined


def test_merge_count_identity_patterns():
    report = merge_count_upper_check(perm("123"), perm("123"), 3)
    assert report.lhs == 6


def test_merge_count_single_blockers():
    report = merge_count_upper_check(perm("1"), perm("1"), 2)
    assert report.lhs == 0


def test_merge_count_plain_rhs_can_fail():
    # at length 8 the plain product form drops below the true count; the
    # squared-binomial side stays above it
    report = merge_count_upper_check(perm("12"), perm("12"), 8)
    assert report.lhs == catalan(8)
    assert report.rhs == 2 ** 8
    assert not report.holds
    assert report.holds_refined


def atkinson_skew_merged(n):
    """Number of skew-merged permutations of length n, Atkinson (1998)."""
    return math.comb(2 * n, n) - sum(
        2 ** (n - m - 1) * math.comb(2 * m, m) for m in range(n)
    )


def test_merge_count_skew_merged_closed_form():
    # merges of an increasing and a decreasing sequence
    assert [atkinson_skew_merged(n) for n in range(12)] == [
        1, 1, 2, 6, 22, 86, 340, 1340, 5254, 20518, 79932, 311028,
    ]
    for n in range(0, 12):
        assert merge_count_upper_check(perm("12"), perm("21"), n).lhs == atkinson_skew_merged(n)


def test_merge_count_two_decreasing_is_catalan():
    # a union of two decreasing sequences is exactly a 123-avoider
    for n in range(0, 12):
        assert merge_count_upper_check(perm("12"), perm("12"), n).lhs == catalan(n)


def test_merge_count_limit():
    with pytest.raises(ResourceLimit):
        merge_count_upper_check(perm("12"), perm("21"), 12)
    with pytest.raises(PreconditionViolated):
        merge_count_upper_check(perm("12"), perm("21"), -1)


SMALL_PATTERNS = [
    Permutation(values)
    for k in (1, 2, 3)
    for values in itertools.permutations(range(1, k + 1))
]
ORACLE_HOSTS = [
    Permutation(values) for n in range(8) for values in itertools.permutations(range(1, n + 1))
]


def pair_images(red_p, blue_p):
    """The pattern pairs with the same merge counts: swap the colours, or
    apply one symmetry of the square to both patterns."""
    seen, todo = {(red_p, blue_p)}, [(red_p, blue_p)]
    while todo:
        r, b = todo.pop()
        for image in ((b, r), (reverse(r), reverse(b)), (complement(r), complement(b)),
                      (inverse(r), inverse(b))):
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def pair_classes():
    classes = {}
    for red_p in SMALL_PATTERNS:
        for blue_p in SMALL_PATTERNS:
            images = sorted(pair_images(red_p, blue_p),
                            key=lambda pair: (pair[0].entries, pair[1].entries))
            classes[images[0]] = images
    return [pytest.param(rep, images, id=f"{rep[0]}-{rep[1]}")
            for rep, images in sorted(classes.items(), key=lambda item: str(item[0]))]


@pytest.mark.parametrize("rep, images", pair_classes())
def test_merge_count_matches_host_loop(rep, images):
    # every ordered pair of patterns of length <= 3 against a loop of the
    # single-host backtracker over all n! hosts, run once per symmetry class
    red_p, blue_p = rep
    lhs = [0] * 8
    for host in ORACLE_HOSTS:
        if merge_member(host, red_p, blue_p):
            lhs[host.n] += 1
    for red_i, blue_i in images:
        for n in range(8):
            assert merge_count_upper_check(red_i, blue_i, n).lhs == lhs[n]


def test_merge_count_reports_pinned():
    # reports of the former host-by-host count, unchanged
    report = merge_count_upper_check(perm("123"), perm("132"), 8)
    assert (report.lhs, report.rhs, report.rhs_refined) == (40245, 61748, 2749244)
    assert report.holds and report.holds_refined
    report = merge_count_upper_check(perm("213"), perm("132"), 8)
    assert report.lhs == merge_count_upper_check(perm("132"), perm("213"), 8).lhs


def test_avoider_counts_of_every_length_from_one_sum():
    # after i steps of the length-n sum the multiplicities total
    # C(n, i) |Av_i|, so one sum gives every count up to n
    for text in ("1", "12", "1234", "2413", "12354"):
        pattern = perm(text)
        counts = [count_avoiders(pattern, i) for i in range(11)]
        for n in range(11):
            assert _avoider_counts(
                *_perm_states(pattern.entries), n, DEFAULT_NODE_BUDGET) == counts[:n + 1]


def test_merge_right_sides_keep_the_least_budget():
    # each colour's sum expands the states of its length-n count, the
    # largest of the counts it replaces; here that count, not the merge
    # count, sets the least budget: red's with blue 2143, blue's with 1423
    # count on the colour's own raw states, unrouted, as the merge's are
    red = [count_avoiders(perm("4321"), i) for i in range(7)]
    assert least_budget(lambda b: raw_count((4, 3, 2, 1), 6, b), 50) == red[6]
    for text, blue_nodes, nodes in (("2143", 47, 50), ("1423", 68, 68)):
        blue = [count_avoiders(perm(text), i) for i in range(7)]
        assert least_budget(
            lambda b: raw_count(perm(text).entries, 6, b), blue_nodes) == blue[6]
        report = least_budget(
            lambda b: merge_count_upper_check(perm("4321"), perm(text), 6, budget=b), nodes)
        assert report.lhs == 720
        assert report.rhs == sum(math.comb(6, i) * red[i] * blue[6 - i] for i in range(7))


@pytest.mark.parametrize("run", [
    lambda budget: merge_count_upper_check(perm("123"), perm("132"), 6, budget=budget),
    lambda budget: verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 6, budget=budget),
], ids=["merge-count", "jv"])
def test_merge_budget_counts_states(run):
    # a node is one distinct state expanded, so the smallest sufficient
    # budget is a property of the inputs alone
    lo, hi = 1, 10 ** 5
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except ResourceLimit:
            lo = mid + 1
    assert lo > 1
    first = run(lo)
    for _ in range(2):
        assert run(lo) == first
        with pytest.raises(ResourceLimit):
            run(lo - 1)


def test_merge_count_smallest_budget_pinned():
    # the node count of the merge sum before its step memoised pairs and
    # reductions, unchanged; the avoider counts of the right-hand sides
    # need fewer
    run = lambda budget: merge_count_upper_check(perm("123"), perm("132"), 8, budget=budget)
    assert run(1013).lhs == 40245
    with pytest.raises(ResourceLimit):
        run(1012)


def test_merge_count_peak_memory():
    # the step keeps one memo, each pair's children for the current
    # layer; a second memo of each child set's reduction made the peak
    # 4.6 MB here, against 2.3 MB without it
    tracemalloc.start()
    try:
        report = merge_count_upper_check(perm("132"), perm("312"), 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lhs == 362708
    assert peak < 3.5 * 2 ** 20, peak


def covered(pvals, q, p):
    """Whether prefix state q of ``pvals`` is no more constrained than
    state p, on the tuples themselves: each partial occurrence of q, at
    each prefix length below k - 1, is one of p's or dominated by one,
    and q's forbidden-gap mask at level k - 1 is included in p's."""
    bounds = [(lows, ups) for _, _, _, lows, ups, _ in _occurrence_plan(pvals)]
    last = len(pvals) - 1
    if last and q[last] & ~p[last]:
        return False
    return all(_dominated(t, p[j], *bounds[j - 1])
               for j in range(1, last) for t in q[j] - p[j])


def oracle_merge_step(red, blue, pairs, u, r):
    """The children of a merge state at gap u and their reduction, with
    no layer memo: every pair's children from each colour's expansion,
    and a pair dropped iff another child covers it in both colours, by
    :func:`covered` on the states themselves.  ``red`` and ``blue`` are
    ``(pattern, colour)``; the children are (red, blue) name pairs, and
    the reduction is a set of pair ints, as the expansion gives it."""
    (rvals, (red_states, red_steps, _)), (bvals, (blue_states, blue_steps, width)) = red, blue
    children = set()
    for pair in pairs:
        rs, bs = pair >> width, pair & ((1 << width) - 1)
        child = red_steps[rs, r, True].get(u)
        if child is not None:
            children.add((child, blue_steps[bs, r, False][u]))
        child = blue_steps[bs, r, True].get(u)
        if child is not None:
            children.add((red_steps[rs, r, False][u], child))
    kept = frozenset(
        pr << width | pb for pr, pb in children
        if not any((qr, qb) != (pr, pb)
                   and covered(rvals, red_states[qr], red_states[pr])
                   and covered(bvals, blue_states[qb], blue_states[pb])
                   for qr, qb in children)
    )
    return frozenset(children), kept or None


MERGE_WALK_PAIRS = [
    (red_p.entries, blue_p.entries) for red_p in SMALL_PATTERNS for blue_p in SMALL_PATTERNS
] + [((1, 2, 3), (1, 2, 4, 3))]  # the colours of the JV check on 1, 12, 21


@pytest.mark.parametrize("rvals, bvals", MERGE_WALK_PAIRS,
                         ids=lambda p: "".join(map(str, p)))
def test_merge_step_matches_memo_free_reduction(rvals, bvals):
    # seeded walks through the layers r = n..1, a dozen expansions per
    # layer drawn from a few states; within a layer the expansion answers
    # a repeated pair from its memo and reduces a repeated child set
    # again, and at every gap it must still give what the memo-free
    # filter gives
    rng = random.Random(repr((rvals, bvals)))
    red, blue = _colour(rvals, 7), _colour(bvals, 7)
    root, expand = _merge_states(red, blue)
    key_hits = set_hits = sets = 0
    for n in range(1, 8):
        layer = [root]
        for r in range(n, 0, -1):
            keys, child_sets, following = set(), set(), []
            for _ in range(12):
                pairs = rng.choice(layer)
                got = dict(expand(pairs, r))
                for u in range(r):
                    children, want = oracle_merge_step(
                        (rvals, red), (bvals, blue), pairs, u, r)
                    assert got.get(u) == want, (pairs, u, r)
                    if children:
                        sets += 1
                        set_hits += children in child_sets
                        child_sets.add(children)
                key_hits += any(pair in keys for pair in pairs)
                keys.update(pairs)
                following += got.values()
            layer = [rng.choice(following) for _ in range(12)] if following else [root]
    assert key_hits
    assert set_hits or not sets


@pytest.mark.parametrize("rvals, bvals, n", [
    *((rvals, bvals, 7) for rvals, bvals in MERGE_WALK_PAIRS),
    # three tuple levels, the widest of width 3: 216 and 270 states
    ((1, 3, 5, 2, 4), (2, 4, 1, 5, 3), 8),
    # the smallest grids: no gap, then gap 0 alone
    *(((1, 3, 2, 4), (2, 1, 4, 3), n) for n in range(4)),
], ids=lambda p: "".join(map(str, p)) if isinstance(p, tuple) else str(p))
def test_colour_codes_are_the_domination_order(rvals, bvals, n):
    # over every colour state a length-n merge sum reaches, one state's
    # code is a bit-subset of another's iff covered() says so, and each
    # name in a step row is the code of the one state the expansion gave;
    # every code fits the grid [0, n - 1]^w of each tuple level
    red, blue = _colour(rvals, n), _colour(bvals, n)
    _sum_over_states(*_merge_states(red, blue), n, DEFAULT_NODE_BUDGET)
    for pvals, (states, steps, width) in ((rvals, red), (bvals, blue)):
        _, expand = _perm_states(pvals)
        for (name, r, join), row in steps.items():
            assert dict(expand(states[name], r, join)) == {u: states[c] for u, c in row.items()}
        assert all(code < 1 << width for code in states)
        for q, p in itertools.product(states, repeat=2):
            assert (not q & ~p) == covered(pvals, states[q], states[p]), (pvals, q, p)


@pytest.mark.parametrize("run, nodes", [
    (lambda budget: verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 6,
                                        budget=budget), 62),
    # failing triples: the descent to the counterexample re-sums only
    # states the first sum expanded, so it costs no further nodes
    (lambda budget: _jv_search((3, 2, 1), (1, 2), (1, 2), 6, budget), 84),
    (lambda budget: _jv_search((4, 3, 2, 1), (1, 2, 3), (1, 2), 6, budget), 134),
    (lambda budget: _jv_search((1, 2, 3, 4), (2, 1), (1, 2), 5, budget), 54),
], ids=["holds", "321-12-12", "4321-123-12", "1234-21-12"])
def test_jv_smallest_budget_pinned(run, nodes):
    # the node counts of the former memoised search, unchanged
    run(nodes)
    with pytest.raises(ResourceLimit):
        run(nodes - 1)


@pytest.mark.parametrize("run, nodes, value", [
    (lambda b: _own_count((1, 3, 4, 2), 11, b), 2193, 3475090),
    (lambda b: count_avoiders(perm("1324"), 11, budget=b), 1306, 3824112),
    (lambda b: _own_count((2, 4, 1, 3), 10, b), 1165, 555662),
    (lambda b: count_avoiders(perm("13524"), 9, budget=b), 787, 260285),
    (lambda b: count_avoiders(perm("1342"), 11, budget=b), 1518, 3475090),
    (lambda b: count_avoiders(perm("2413"), 10, budget=b), 737, 555662),
    (lambda b: merge_count_upper_check(perm("132"), perm("312"), 8, budget=b).lhs, 1118, 40318),
    (lambda b: verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 8, budget=b).checked,
     538, 33324),
], ids=["1342@11", "1324@11", "2413@10", "13524@9", "routed-1342@11", "routed-2413@10",
        "merge-132-312@8", "jv-1-12-21@8"])
def test_larger_least_budgets_pinned(run, nodes, value):
    # least budgets, which count the distinct reduced states expanded,
    # at sizes where the state sets are large: any change to what a
    # state holds or how it is reduced moves them
    assert least_budget(run, nodes) == value


@given(
    st.integers(0, 5),
    permutations_upto(3),
    permutations_upto(3),
)
@settings(max_examples=20)
def test_merge_count_refined_is_upper_bound(n, red_p, blue_p):
    report = merge_count_upper_check(red_p, blue_p, n)
    assert report.lhs <= report.rhs_refined
