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
    _merge_states,
    _perm_states,
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
from test_core import least_budget

THREE_PATTERNS = ["123", "132", "213", "231", "312", "321"]


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


@pytest.mark.parametrize("text", THREE_PATTERNS)
def test_catalan_all_three_patterns(text):
    for n in range(0, 9):
        assert count_avoiders(perm(text), n) == catalan(n)


@pytest.mark.parametrize(
    "text",
    ["1", "12", "21", *THREE_PATTERNS, "1234", "1432", "2143", "3142", "2413", "4231"],
)
def test_count_matches_naive_filter(text):
    pattern = perm(text)
    for n in range(0, 7):
        assert count_avoiders(pattern, n) == naive_count(pattern, n)


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
    # its largest, its smallest or neither
    images = {q.entries: q for q in symmetry_images(perm(text))}
    for n in range(9):
        counts = {str(q): count_avoiders(q, n) for q in images.values()}
        assert len(set(counts.values())) == 1, (n, counts)


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
    with pytest.raises(ResourceLimit):
        count_avoiders(perm("123"), 15)
    with pytest.raises(ResourceLimit):
        count_avoiders(perm("123"), 9, budget=10)
    with pytest.raises(ResourceLimit):
        count_avoiders(perm("1324"), 10, budget=100)
    with pytest.raises(PreconditionViolated, match="nonempty patterns"):
        next(avoiders(Permutation(()), 3))
    with pytest.raises(ResourceLimit, match="node budget 10 exhausted"):
        list(avoiders(perm("123"), 9, budget=10))


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
    # dominance already kept as one tuple: their pins are the controls
    for _ in range(2):
        assert count_avoiders(perm(pattern), n, budget=budget) == count
        with pytest.raises(ResourceLimit):
            count_avoiders(perm(pattern), n, budget=budget - 1)


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
    for n in range(0, 15):
        assert count_avoiders(pattern, n) == gessel_1234(n)


@pytest.mark.parametrize("text", ["1342", "2413"])
def test_bona_1342_closed_form(text):
    # Stankova (1994): Av(2413) and Av(1342) are equinumerous
    pattern = perm(text)
    for n in range(1, 8):
        assert bona_1342(n) == naive_count(pattern, n)
    assert bona_1342(11) == 3475090
    for n in range(1, 14):
        assert count_avoiders(pattern, n) == bona_1342(n)


def test_count_1324_oeis():
    assert count_avoiders(perm("1324"), 11) == 3824112  # A061552


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
        sw_estimate_sequence(perm("2413"), 15)


def test_sw_estimate_refusals_keep_their_order():
    # n_max < 1, then the length limit, then the empty pattern
    with pytest.raises(PreconditionViolated, match="n_max"):
        sw_estimate_sequence(Permutation(()), 0)
    with pytest.raises(ResourceLimit):
        sw_estimate_sequence(Permutation(()), 15)
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
    want = [count_avoiders(perm("1342"), n) for n in range(1, 9)]
    calls = counting_models(monkeypatch)
    assert [e.count for e in sw_estimate_sequence(perm("1342"), 8)] == want
    assert calls == [(1, 3, 4, 2)]


def test_merge_count_builds_one_model_per_colour(monkeypatch):
    # the right sides sum over the colours' own step tables
    calls = counting_models(monkeypatch)
    report = merge_count_upper_check(perm("123"), perm("132"), 8)
    assert (report.lhs, report.rhs, report.rhs_refined) == (40245, 61748, 2749244)
    assert calls == [(1, 2, 3), (1, 3, 2)]


@pytest.mark.parametrize("text, n, nodes", [
    ("1", 6, 1), ("12", 7, 28), ("123", 9, 128), ("1342", 9, 738),
    ("2413", 9, 867), ("12354", 8, 197), ("4321", 8, 156),
])
def test_sw_estimate_keeps_the_least_budget_of_its_longest_count(text, n, nodes):
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
        merge_member(Permutation(tuple(range(1, 16))), perm("12"), perm("21"))


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
    # (10) applies, not the avoider-count limit (14)
    searched = []

    def search(combined, red, blue, n, budget):
        searched.append(n)
        return 0, True, None

    monkeypatch.setattr(avoidance, "_jv_search", search)
    verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 10)
    with pytest.raises(ResourceLimit, match="n=11 exceeds the configured limit 10"):
        verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 11)
    assert searched == [10]


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
    for n in range(0, 11):
        assert merge_count_upper_check(perm("12"), perm("21"), n).lhs == atkinson_skew_merged(n)


def test_merge_count_two_decreasing_is_catalan():
    # a union of two decreasing sequences is exactly a 123-avoider
    for n in range(0, 11):
        assert merge_count_upper_check(perm("12"), perm("12"), n).lhs == catalan(n)


def test_merge_count_limit():
    with pytest.raises(ResourceLimit):
        merge_count_upper_check(perm("12"), perm("21"), 11)
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
    red = [count_avoiders(perm("4321"), i) for i in range(7)]
    assert least_budget(lambda b: count_avoiders(perm("4321"), 6, budget=b), 50) == red[6]
    for text, blue_nodes, nodes in (("2143", 47, 50), ("1423", 68, 68)):
        blue = [count_avoiders(perm(text), i) for i in range(7)]
        assert least_budget(
            lambda b: count_avoiders(perm(text), 6, budget=b), blue_nodes) == blue[6]
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


def oracle_merge_step(red, blue, pairs, u, r):
    """The children of a merge state and their reduction, with no layer
    memo: every pair's children from each colour's step, and a pair
    dropped iff another child covers it in both colours, by ``covered``
    on the states themselves."""
    (red_states, red_step, red_covered, _), (blue_states, blue_step, blue_covered, _) = red, blue
    children = set()
    for rs, bs in pairs:
        child = red_step[rs, u, r, True]
        if child is not None:
            children.add((child, blue_step[bs, u, r, False]))
        child = blue_step[bs, u, r, True]
        if child is not None:
            children.add((red_step[rs, u, r, False], child))
    kept = frozenset(
        p for p in children
        if not any(q != p and red_covered(red_states[q[0]], red_states[p[0]])
                   and blue_covered(blue_states[q[1]], blue_states[p[1]])
                   for q in children)
    )
    return frozenset(children), kept or None


MERGE_WALK_PAIRS = [
    (red_p.entries, blue_p.entries) for red_p in SMALL_PATTERNS for blue_p in SMALL_PATTERNS
] + [((1, 2, 3), (1, 2, 4, 3))]  # the colours of the JV check on 1, 12, 21


@pytest.mark.parametrize("rvals, bvals", MERGE_WALK_PAIRS,
                         ids=lambda p: "".join(map(str, p)))
def test_merge_step_matches_memo_free_reduction(rvals, bvals):
    # seeded walks through the layers r = n..1, a dozen steps per layer
    # drawn from a few states; within a layer the step answers a repeated
    # (pair, u) from its memo and reduces a repeated child set again, and
    # it must still give what the memo-free filter gives
    rng = random.Random(repr((rvals, bvals)))
    red, blue = _colour(rvals), _colour(bvals)
    root, step = _merge_states(red, blue)
    key_hits = set_hits = sets = 0
    for n in range(1, 8):
        layer = [root]
        for r in range(n, 0, -1):
            keys, child_sets, following = set(), set(), []
            for _ in range(12):
                pairs, u = rng.choice(layer), rng.randrange(r)
                children, want = oracle_merge_step(red, blue, pairs, u, r)
                assert step(pairs, u, r) == want, (pairs, u, r)
                key_hits += any((pair, u) in keys for pair in pairs)
                keys.update((pair, u) for pair in pairs)
                if children:
                    sets += 1
                    set_hits += children in child_sets
                    child_sets.add(children)
                if want is not None:
                    following.append(want)
            layer = following or [root]
    assert key_hits
    assert set_hits or not sets


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


@given(
    st.integers(0, 5),
    permutations_upto(3),
    permutations_upto(3),
)
@settings(max_examples=20)
def test_merge_count_refined_is_upper_bound(n, red_p, blue_p):
    report = merge_count_upper_check(red_p, blue_p, n)
    assert report.lhs <= report.rhs_refined
