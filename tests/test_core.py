"""Core object tests: containment against a brute-force oracle, sums,
inflation round trips, and the matrix correspondence."""

import itertools
import math
import random
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permx
from permx.avoidance import (_sum_over_states, count_avoiders, merge_count_upper_check,
                             verify_jv_inclusion)
from permx.core import (
    BinaryMatrix,
    BlockDecomposition,
    Permutation,
    PermutationMatrix,
    avoids,
    blockable_decompositions,
    complement,
    completes_at_end,
    contains,
    count_block_decompositions,
    direct_sum,
    find_matrix_occurrence,
    find_occurrence,
    from_matrix,
    inflate,
    inverse,
    matrix_contains,
    matrix_occurrence_masks,
    parse_permutation,
    pattern_of,
    reverse,
    rotate90,
    skew_sum,
    to_matrix,
)
from permx.errors import PreconditionViolated, ResourceLimit
from permx.extremal import check_lemma21, exfn_exact, fpts_exact
from permx.limits import MAX_DECOMPOSITIONS
from permx.states import _occurrence_plan, _perm_states, _reducer, _row_states


def perm(text: str) -> Permutation:
    return parse_permutation(text)


# -- independent oracles ----------------------------------------------------

def oracle_contains(hvals, pvals):
    k = len(pvals)
    return any(
        pattern_of(combo) == tuple(pvals)
        for combo in itertools.combinations(hvals, k)
    )


def oracle_completes(prefix, v, pvals):
    k = len(pvals)
    if k - 1 > len(prefix):
        return False
    return any(
        pattern_of(combo + (v,)) == tuple(pvals)
        for combo in itertools.combinations(prefix, k - 1)
    )


def oracle_matrix_contains(host, pat):
    host_ones, pat_ones = host.ones, pat.ones
    for rsel in itertools.combinations(range(1, host.rows + 1), pat.rows):
        for csel in itertools.combinations(range(1, host.cols + 1), pat.cols):
            if all((rsel[a - 1], csel[b - 1]) in host_ones for a, b in pat_ones):
                return True
    return False


# -- strategies -------------------------------------------------------------

@st.composite
def permutations_upto(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    return Permutation(tuple(draw(st.permutations(tuple(range(1, n + 1))))))


@st.composite
def binary_matrices(draw, max_dim=4, min_dim=1):
    rows = draw(st.integers(min_dim, max_dim))
    cols = draw(st.integers(min_dim, max_dim))
    row = st.integers(0, (1 << cols) - 1)
    return BinaryMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols)


# -- construction and parsing ----------------------------------------------

def test_public_callables_resolve_their_type_hints():
    for name in permx.__all__:
        obj = getattr(permx, name)
        if callable(obj):
            typing.get_type_hints(obj)


def test_parse_compact_digits():
    assert perm("42153").entries == (4, 2, 1, 5, 3)


def test_parse_space_separated():
    assert parse_permutation("10 2 3 4 5 6 7 8 9 1").entries[0] == 10


def test_parse_rejects_repeats():
    with pytest.raises(PreconditionViolated, match="not a bijection"):
        parse_permutation("4 2 2 1")


def test_parse_rejects_garbage():
    with pytest.raises(PreconditionViolated, match="non-integer token"):
        parse_permutation("a b c")
    with pytest.raises(PreconditionViolated, match="empty permutation text"):
        parse_permutation("")
    with pytest.raises(PreconditionViolated, match="not a digit string"):
        parse_permutation("12x3")


@pytest.mark.parametrize("text", ["²", "1²", "①"])
def test_parse_rejects_digits_int_cannot_read(text):
    # str.isdigit accepts superscript and circled digits; int() does not
    with pytest.raises(PreconditionViolated, match="not a digit string"):
        parse_permutation(text)


@pytest.mark.parametrize("text", ["+2 1", "2 1_0 1", "1 ²", "1 " + "9" * 5000])
def test_parse_spaced_tokens_must_be_decimal(text):
    # int() reads "+2" and "1_0", which the compact path refuses; a token
    # past int's digit limit is refused too
    with pytest.raises(PreconditionViolated, match="non-integer token"):
        parse_permutation(text)


def test_parse_compact_decimal_digits_of_any_script():
    assert parse_permutation("١٢").entries == (1, 2)


def _parse_by_whitespace_scan(text):
    """parse_permutation with its form chosen by scanning the stripped
    text for a whitespace character: the oracle of the split rule."""
    text = text.strip()
    if not text:
        raise PreconditionViolated("empty permutation text")
    if any(ch.isspace() for ch in text):
        tokens = text.split()
        try:
            if not all(map(str.isdecimal, tokens)):
                raise ValueError(text)
            values = tuple(map(int, tokens))
        except ValueError:
            raise PreconditionViolated(f"non-integer token in {text!r}") from None
    else:
        if not text.isdecimal():
            raise PreconditionViolated(f"not a digit string: {text!r}")
        values = tuple(map(int, text))
    return Permutation(values)


def _outcome(parse, text):
    try:
        return parse(text)
    except PreconditionViolated as exc:
        return str(exc)


# tabs, newlines and the other ASCII separators, the NEL, and Unicode
# spaces and line and paragraph separators: all of it str.isspace
WHITESPACE = ("\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
              "\u1680\u2000\u2003\u2028\u2029\u202f\u205f\u3000")
# decimal digits of other scripts ("١٢"), digits only isdigit accepts
# ("²", "①"), and characters that look blank but are not whitespace
OTHER = "0123456789١٢²①\u200b\ufeffx_+-"


@st.composite
def permutation_texts(draw):
    """A permutation's entries joined by runs of whitespace, some empty,
    with whitespace around them."""
    gap = st.text(alphabet=WHITESPACE, max_size=2)
    entries = draw(permutations_upto(12)).entries
    parts = [draw(gap)]
    for v in entries:
        parts += [str(v), draw(gap)]
    return "".join(parts)


@given(st.text(alphabet=WHITESPACE + OTHER, max_size=12) | permutation_texts())
def test_parse_form_follows_whitespace_as_a_scan_would(text):
    # the same texts parse to the same permutations, and the same texts
    # fail with the same message
    assert _outcome(parse_permutation, text) == _outcome(_parse_by_whitespace_scan, text)


def test_permutation_validates():
    with pytest.raises(PreconditionViolated, match="not a bijection"):
        Permutation((1, 3))
    with pytest.raises(PreconditionViolated, match="not a bijection"):
        Permutation((0, 1))
    assert Permutation(()).n == 0


def test_str_roundtrip():
    assert str(perm("42153")) == "42153"
    big = Permutation(tuple(range(1, 11)))
    assert parse_permutation(str(big)) == big


# -- containment ------------------------------------------------------------

def test_contains_known_positive():
    assert contains(perm("42153"), perm("312"))


def test_contains_known_negative():
    assert avoids(perm("42153"), perm("123"))
    assert avoids(perm("42153"), perm("1234"))


def test_occurrence_witness_positions():
    occ = find_occurrence(perm("42153"), perm("312"))
    assert occ is not None
    hvals = perm("42153").entries
    chosen = tuple(hvals[i - 1] for i in occ.positions)
    assert pattern_of(chosen) == (3, 1, 2)
    assert occ.positions == tuple(sorted(occ.positions))


def test_witness_ends_earliest_then_lexicographic():
    # the lexicographically first occurrence overall would be (1, 2, 6)
    assert find_occurrence(perm("253146"), perm("123")).positions == (1, 3, 5)
    for n in range(8):
        for host in itertools.permutations(range(1, n + 1)):
            # per pattern, the least occurrence by (last position, positions)
            first = {}
            for k in range(1, 5):
                for combo in itertools.combinations(range(1, n + 1), k):
                    p = pattern_of([host[i - 1] for i in combo])
                    key = (combo[-1], combo)
                    if p not in first or key < first[p]:
                        first[p] = key
            for k in range(1, 5):
                for p in itertools.permutations(range(1, k + 1)):
                    occ = find_occurrence(Permutation(host), Permutation(p))
                    want = first[p][1] if p in first else None
                    assert (None if occ is None else occ.positions) == want, (host, p)


def test_occurrence_none_when_avoiding():
    assert find_occurrence(perm("321"), perm("123")) is None


def test_empty_pattern_rejected():
    with pytest.raises(PreconditionViolated, match="nonempty patterns"):
        contains(perm("1"), Permutation(()))
    with pytest.raises(PreconditionViolated, match="nonempty patterns"):
        completes_at_end([], 1, ())


def test_pattern_longer_than_host():
    assert avoids(perm("12"), perm("123"))


@given(permutations_upto(7), permutations_upto(4))
def test_contains_matches_oracle(host, pattern):
    assert contains(host, pattern) == oracle_contains(host.entries, pattern.entries)


@given(permutations_upto(7), permutations_upto(4))
def test_witness_induces_pattern(host, pattern):
    occ = find_occurrence(host, pattern)
    if occ is not None:
        chosen = tuple(host.entries[i - 1] for i in occ.positions)
        assert pattern_of(chosen) == pattern.entries


@given(permutations_upto(6), permutations_upto(4))
def test_containment_respects_symmetry(host, pattern):
    base = contains(host, pattern)
    assert contains(reverse(host), reverse(pattern)) == base
    assert contains(complement(host), complement(pattern)) == base
    assert contains(inverse(host), inverse(pattern)) == base


@given(permutations_upto(6, min_n=2), st.data())
def test_completes_at_end_matches_oracle(host, data):
    pattern = data.draw(permutations_upto(4))
    cut = data.draw(st.integers(1, host.n))
    prefix, v = list(host.entries[: cut - 1]), host.entries[cut - 1]
    assert completes_at_end(prefix, v, pattern.entries) == oracle_completes(
        tuple(prefix), v, pattern.entries
    )


def test_completes_at_end_all_three_patterns():
    # every length-3 pattern against a fixed prefix, checked by hand
    prefix = [2, 5, 1, 4]
    for pat in itertools.permutations((1, 2, 3)):
        for v in (3, 6):
            assert completes_at_end(prefix, v, pat) == oracle_completes(
                tuple(prefix), v, pat
            )


# -- symmetries -------------------------------------------------------------

def test_inverse_known():
    assert inverse(perm("42153")) == perm("32514")


def test_reverse_complement_known():
    assert reverse(perm("42153")) == perm("35124")
    assert complement(perm("42153")) == perm("24513")


@given(permutations_upto(8))
def test_symmetries_are_involutions(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert inverse(inverse(p)) == p


# -- sums -------------------------------------------------------------------

def test_direct_sum_known():
    assert direct_sum(perm("12"), perm("21")) == perm("1243")


def test_skew_sum_known():
    assert skew_sum(perm("12"), perm("21")) == perm("3421")


def test_sum_empty_operand():
    with pytest.raises(PreconditionViolated, match="direct sum needs nonempty operands"):
        direct_sum(perm("1"), Permutation(()))
    with pytest.raises(PreconditionViolated, match="skew sum needs nonempty operands"):
        skew_sum(Permutation(()), perm("1"))


@given(permutations_upto(5), permutations_upto(5))
def test_sums_have_expected_length(p, q):
    assert direct_sum(p, q).n == p.n + q.n
    assert skew_sum(p, q).n == p.n + q.n


@given(permutations_upto(4), permutations_upto(4))
def test_sum_contains_both_parts(p, q):
    s = direct_sum(p, q)
    assert contains(s, p) and contains(s, q)
    s = skew_sum(p, q)
    assert contains(s, p) and contains(s, q)


# -- inflation and block structure -----------------------------------------

def test_inflate_known_example():
    result = inflate(
        perm("2413"), [perm("1"), perm("132"), perm("321"), perm("12")]
    )
    assert result == perm("479832156")


def test_inflate_identity_blocks():
    p = perm("2413")
    assert inflate(p, [perm("1")] * 4) == p


def test_inflate_arity_mismatch():
    with pytest.raises(PreconditionViolated, match="2 skeleton entries, 1 blocks"):
        inflate(perm("21"), [perm("1")])


def test_inflate_empty_block():
    with pytest.raises(PreconditionViolated, match="inflation blocks must be nonempty"):
        inflate(perm("21"), [perm("1"), Permutation(())])


def test_blockable_simple_pattern():
    # no proper cuts exist for this one
    p = perm("2413")
    assert blockable_decompositions(p, 2) == []
    assert blockable_decompositions(p, 3) == []


def test_blockable_trivial_cuts():
    p = perm("2413")
    whole = blockable_decompositions(p, 1)
    assert len(whole) == 1 and whole[0].blocks == (p,)
    singletons = blockable_decompositions(p, 4)
    assert len(singletons) == 1 and singletons[0].skeleton == p


def test_blockable_recovers_inflation():
    p = perm("479832156")
    decs = blockable_decompositions(p, 4)
    expected = BlockDecomposition(
        perm("2413"), (perm("1"), perm("132"), perm("321"), perm("12"))
    )
    assert expected in decs


@pytest.mark.parametrize("skeleton, blocks, message", [
    ((2, 1), ((1,),), "skeleton length 2 != 1 blocks"),
    ((), (), "need at least one block"),
    ((1,), ((),), "blocks must be nonempty"),
])
def test_block_decomposition_refusals(skeleton, blocks, message):
    with pytest.raises(PreconditionViolated, match=message):
        BlockDecomposition(Permutation(skeleton), tuple(map(Permutation, blocks)))


def test_blockable_bad_c():
    for c in (0, 3):
        with pytest.raises(PreconditionViolated):
            blockable_decompositions(perm("21"), c)
        with pytest.raises(PreconditionViolated):
            count_block_decompositions(perm("21"), c)


def brute_decompositions(entries, c):
    """(skeleton, blocks) of every one of the C(n-1, c-1) cut sets whose
    segments are value intervals, in the order combinations yields them."""
    n = len(entries)
    out = []
    for cuts in itertools.combinations(range(1, n), c - 1):
        bounds = (0, *cuts, n)
        segments = [entries[bounds[i]:bounds[i + 1]] for i in range(c)]
        if all(max(seg) - min(seg) + 1 == len(seg) for seg in segments):
            out.append((pattern_of([min(seg) for seg in segments]),
                        tuple(pattern_of(seg) for seg in segments)))
    return out


def test_blockable_matches_cut_set_enumeration():
    # every permutation of length <= 7 and every c: same decompositions
    # in the same order, and the count agrees
    for n in range(1, 8):
        for entries in itertools.permutations(range(1, n + 1)):
            p = Permutation(entries)
            for c in range(1, n + 1):
                want = brute_decompositions(entries, c)
                got = [(d.skeleton.entries, tuple(b.entries for b in d.blocks))
                       for d in blockable_decompositions(p, c)]
                assert got == want, (entries, c)
                assert count_block_decompositions(p, c) == len(want), (entries, c)


def test_decomposition_ceiling():
    # the identity of length 26 cuts into 13 intervals in C(25, 12) ways
    identity = Permutation(tuple(range(1, 27)))
    assert count_block_decompositions(identity, 13) == math.comb(25, 12)
    assert count_block_decompositions(identity, 13) > MAX_DECOMPOSITIONS
    with pytest.raises(ResourceLimit):
        blockable_decompositions(identity, 13)
    # the largest identity whose 3-block count stays within the ceiling
    # still lists every decomposition
    n = next(n for n in itertools.count(2) if math.comb(n - 1, 2) > MAX_DECOMPOSITIONS) - 1
    ident = Permutation(tuple(range(1, n + 1)))
    assert len(blockable_decompositions(ident, 3)) == math.comb(n - 1, 2)


@given(permutations_upto(6), st.data())
def test_blockable_roundtrip(p, data):
    c = data.draw(st.integers(1, p.n))
    for dec in blockable_decompositions(p, c):
        assert inflate(dec.skeleton, dec.blocks) == p
        assert len(dec.blocks) == c


@given(permutations_upto(6))
def test_blockable_extremes(p):
    assert len(blockable_decompositions(p, p.n)) == 1
    assert len(blockable_decompositions(p, 1)) == 1


# -- matrices ---------------------------------------------------------------

def test_to_matrix_convention():
    assert to_matrix(perm("12")).matrix.ones == frozenset({(2, 1), (1, 2)})
    assert to_matrix(perm("21")).matrix.ones == frozenset({(1, 1), (2, 2)})


def test_from_matrix_roundtrip_known():
    p = perm("42153")
    assert from_matrix(to_matrix(p)) == p


@given(permutations_upto(8))
def test_matrix_roundtrip(p):
    assert from_matrix(to_matrix(p)) == p


def test_permutation_matrix_validation():
    one_per_line = "exactly one 1 per row and per column"
    for masks, cols, message in [
        ((0b11, 0b10), 2, one_per_line),  # two ones in a row
        ((0b01, 0b01), 2, one_per_line),  # a repeated column
        ((0b01, 0b10), 3, "not square: 2x3"),
        ((0b01, 0b00), 2, one_per_line),  # an empty row
    ]:
        with pytest.raises(PreconditionViolated, match=message):
            PermutationMatrix(BinaryMatrix(masks, cols))


def test_permutation_matrix_col_of_row():
    assert PermutationMatrix(BinaryMatrix((0b10, 0b01), 2)).col_of_row() == [1, 0]
    assert to_matrix(perm("132")).col_of_row() == [1, 2, 0]
    assert PermutationMatrix.identity(3).col_of_row() == [0, 1, 2]


def test_binary_matrix_bounds_check():
    for masks, cols in [
        ((0b100,), 2),  # a mask wider than cols
        ((-1,), 2),  # a negative mask
        ((), -1),  # negative cols
    ]:
        with pytest.raises(PreconditionViolated):
            BinaryMatrix(masks, cols)


def test_matrix_from_strings_and_str():
    m = BinaryMatrix.from_strings(["01", "10"])
    assert m.masks == (0b10, 0b01) and m.rows == 2
    assert m.ones == frozenset({(1, 2), (2, 1)})
    assert str(m) == "01\n10"


@given(binary_matrices())
def test_matrix_str_round_trips_through_from_strings(m):
    assert BinaryMatrix.from_strings(str(m).split("\n")) == m


@pytest.mark.parametrize("rows, message", [
    (["10", "1"], "same length"),
    (["1", ""], "must not be empty"),
    (["012"], "0/1 strings: '012'"),
])
def test_matrix_from_strings_rejects_malformed_rows(rows, message):
    with pytest.raises(PreconditionViolated, match=message):
        BinaryMatrix.from_strings(rows)


def test_matrix_json_roundtrip():
    m = BinaryMatrix.from_strings(["011", "100"])
    data = m.to_jsonable()
    assert (data["rows"], data["cols"]) == (2, 3)
    assert {tuple(cell) for cell in data["ones"]} == m.ones
    assert data["ones"] == sorted(data["ones"])


def test_matrix_contains_extra_ones_allowed():
    host = BinaryMatrix.from_strings(["11", "11"])
    pat = to_matrix(perm("12")).matrix
    assert matrix_contains(host, pat)


def test_matrix_contains_needs_order():
    host = BinaryMatrix.from_strings(["10", "01"])
    anti = BinaryMatrix.from_strings(["01", "10"])
    assert matrix_contains(host, host)
    assert not matrix_contains(host, anti)


def test_matrix_empty_pattern_rejected():
    host = BinaryMatrix.from_strings(["1"])
    for empty in (BinaryMatrix((0,), 1), BinaryMatrix((), 0)):
        with pytest.raises(PreconditionViolated, match="at least one 1"):
            matrix_contains(host, empty)
        with pytest.raises(PreconditionViolated, match="at least one 1"):
            find_matrix_occurrence(host, empty)


def test_matrix_occurrence_witness():
    host = BinaryMatrix.from_strings(["0110", "1001", "0110"])
    pat = BinaryMatrix.from_strings(["11"])
    occ = find_matrix_occurrence(host, pat)
    assert occ is not None
    (r1, c1), (r2, c2) = occ.positions
    assert r1 == r2 and c1 < c2
    assert (r1, c1) in host.ones and (r2, c2) in host.ones
    # the host's ones run down the diagonal, so the anti-diagonal is absent
    avoider = BinaryMatrix.from_strings(["10", "01"])
    assert find_matrix_occurrence(avoider, BinaryMatrix.from_strings(["01", "10"])) is None


def combinations_occurrence_masks(host_masks, host_cols, pat_masks, pat_cols):
    """Every row subset in lexicographic order, each with its greedy
    column choice: the first witness by row subset."""
    if len(pat_masks) > len(host_masks) or pat_cols > host_cols:
        return None
    for rows_sel in itertools.combinations(range(len(host_masks)), len(pat_masks)):
        allowed = [(1 << host_cols) - 1] * pat_cols
        for r, p in zip(rows_sel, pat_masks):
            for b in range(pat_cols):
                if p >> b & 1:
                    allowed[b] &= host_masks[r]
        cols, c = [], -1
        for mask in allowed:
            c = next((j for j in range(c + 1, host_cols) if mask >> j & 1), None)
            if c is None:
                break
            cols.append(c)
        else:
            return list(rows_sel), cols
    return None


def test_matrix_occurrence_masks_first_witness():
    rng = random.Random(18)
    hits = 0
    for _ in range(3000):
        hr, hc, pr, pc = rng.randint(0, 8), rng.randint(1, 8), rng.randint(0, 4), rng.randint(1, 4)
        host_p, pat_p = rng.random(), rng.random()
        host = [sum(1 << b for b in range(hc) if rng.random() < host_p) for _ in range(hr)]
        pat = [sum(1 << b for b in range(pc) if rng.random() < pat_p) for _ in range(pr)]
        want = combinations_occurrence_masks(host, hc, pat, pc)
        assert matrix_occurrence_masks(host, hc, pat, pc) == want, (host, hc, pat, pc)
        hits += want is not None
    assert 500 < hits < 2500  # both answers are well represented


@given(binary_matrices(), binary_matrices(max_dim=3))
def test_matrix_contains_matches_oracle(host, pat):
    if not pat.ones:
        return
    assert matrix_contains(host, pat) == oracle_matrix_contains(host, pat)


@given(permutations_upto(6), permutations_upto(3))
def test_matrix_and_permutation_containment_agree(host, pattern):
    assert contains(host, pattern) == matrix_contains(
        to_matrix(host).matrix, to_matrix(pattern).matrix
    )


def test_rotate90_quarter_turn():
    m = to_matrix(perm("12")).matrix
    assert rotate90(m).ones == frozenset({(1, 1), (2, 2)})


@given(binary_matrices(min_dim=0))
def test_rotate90_moves_each_cell_a_quarter_turn(m):
    # cell (i, j) of an m x n matrix goes to (j, m + 1 - i)
    rotated = rotate90(m)
    assert (rotated.rows, rotated.cols) == (m.cols, m.rows)
    assert rotated.ones == {(j, m.rows + 1 - i) for i, j in m.ones}


@given(binary_matrices(min_dim=0))
def test_rotate90_four_times_identity(m):
    out = m
    for _ in range(4):
        out = rotate90(out)
    assert out == m


@given(permutations_upto(6))
def test_rotate90_preserves_permutation_matrices(p):
    pm = to_matrix(p)
    rotated = rotate90(pm)
    assert isinstance(rotated, PermutationMatrix)
    assert rotated.k == pm.k


# -- reductions: liveness, grouping and sweep against the definitions -------

def oracle_pareto_min(tuples, lows, ups):
    def dominates(s, t):
        return all(s[i] <= t[i] for i in lows) and all(s[i] >= t[i] for i in ups)

    return frozenset(t for t in tuples if not any(s != t and dominates(s, t) for s in tuples))


# every (lows, ups) a pattern of length <= 5 uses, with its tuple width:
# 0 to 2 positions shared by both bounds and 0 to 3 free ones, plus the
# two one-sided shapes of two free positions no such pattern has
PARETO_SHAPES = sorted(
    {
        (lows, ups, len(src))
        for k in range(1, 6)
        for p in itertools.permutations(range(1, k + 1))
        for _, _, src, lows, ups, _ in _occurrence_plan(p)
    }
    | {((0, 1), (), 2), ((), (0, 1), 2)}
)


def test_pareto_shapes_reach_every_reducer():
    # no free position, one, two, and the pairwise fallback of three
    free = {len(set(lows) ^ set(ups)) for lows, ups, _ in PARETO_SHAPES}
    assert free == {0, 1, 2, 3}


@pytest.mark.parametrize("lows, ups, width", PARETO_SHAPES)
def test_pareto_min_matches_pairwise_definition(lows, ups, width):
    reduce = _reducer(lows, ups)
    rng = random.Random(repr((lows, ups)))
    for size in (0, 1, 2, 3, 5, 8, 20, 50, 120, 200):
        # coordinates 0..top-1 that grow along a tuple, as gaps and
        # columns do, with few distinct values, so that ties on every
        # coordinate and tuples that cannot complete are common: a live
        # one has every lower bound below top - 1 and every upper bound
        # above 0
        top = rng.choice((2, 3, 5, 10))
        tuples = [tuple(sorted(rng.randrange(top) for _ in range(width))) for _ in range(size)]
        live = {t for t in tuples
                if all(t[i] < top - 1 for i in lows) and all(t[i] > 0 for i in ups)}
        expected = oracle_pareto_min(live, lows, ups)
        assert reduce(set(tuples), top) == expected
        rng.shuffle(tuples)
        assert reduce(tuples, top) == expected
        # arbitrary tuples, all live, for dominance alone
        tuples = [tuple(rng.randint(1, top) for _ in range(width)) for _ in range(size)]
        assert reduce(tuples, top + 2) == oracle_pareto_min(set(tuples), lows, ups)


# -- level memo: one long-lived model against fresh ones --------------------

MEMO_PATTERNS = [
    p for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))
] + [(1, 3, 4, 2, 5), (2, 4, 1, 5, 3), (5, 3, 2, 4, 1)]


def checked_step(step, fresh_step, args, seen):
    # a fresh model has an empty memo, so every level it returns is built
    # from scratch; the long-lived one answers from its memo wherever a
    # (level, parent levels, tail) repeats, whatever was not in the key
    child = step(*args)
    assert child == fresh_step(*args)
    for lv in child or ():
        assert seen.setdefault(lv, lv) is lv
    return child


def walk_perm_model(pvals, rng):
    # the layers r = n..1 of a layered sum, a dozen seeded expansions
    # each, against a fresh model's; the long-lived model reads level rows
    # that earlier states filled, at the gaps they allowed, and its memo
    # lives one layer, so levels are one object within each
    root, expand = _perm_states(pvals)
    for n in range(1, 9):
        layer = [root]
        for r in range(n, 0, -1):
            seen, following = {}, []
            for _ in range(12):
                args = (rng.choice(layer), r, rng.random() < 0.75)
                children = list(expand(*args))
                assert children == list(_perm_states(pvals)[1](*args))
                assert [u for u, _ in children] == sorted({u for u, _ in children})
                for _, child in children:
                    for lv in child:
                        assert seen.setdefault(lv, lv) is lv
                following += [child for _, child in children]
            layer = following
            if not layer:
                break


def walk_row_model(pvals, rng):
    # seeded rows and rows_left; the memo lives as long as the model, so
    # levels are one object across the whole walk
    P = to_matrix(Permutation(pvals))
    for width in range(1, 9):
        root, step = _row_states(P, width)
        seen = {}
        for _ in range(12):
            state = root
            for _ in range(len(pvals) + 2):
                args = (state, rng.randrange(1 << width), rng.choice((None, None, 0, 1, 2, 3)))
                state = checked_step(step, _row_states(P, width)[1], args, seen)


@pytest.mark.parametrize("walk", [walk_perm_model, walk_row_model], ids=["perm", "row"])
@pytest.mark.parametrize("pvals", MEMO_PATTERNS, ids=lambda p: "".join(map(str, p)))
def test_state_memo_matches_fresh_models(walk, pvals):
    walk(pvals, random.Random(repr(pvals)))


# -- one occurrence plan per pattern ----------------------------------------

def test_occurrence_plan_is_cached_per_pattern():
    # a pure function of the pattern, built once and shared by every
    # model of it, as tuples that no model can change
    plan = _occurrence_plan((2, 4, 1, 3))
    assert plan is _occurrence_plan(tuple([2, 4, 1, 3]))
    assert type(plan) is tuple and all(type(entry) is tuple for entry in plan)
    assert 0 < _occurrence_plan.cache_info().maxsize <= 256
    # check_lemma21 builds a row model of 123 for each of the four
    # hypothesis widths and one for the row search
    _occurrence_plan.cache_clear()
    check_lemma21(to_matrix(Permutation((1, 2, 3))), 1, 5, 4)
    info = _occurrence_plan.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def least_budget(search, nodes):
    # nodes is the least budget that suffices: one fewer runs out, or
    # is refused when it is below 1
    result = search(nodes)
    with pytest.raises(ResourceLimit if nodes > 1 else PreconditionViolated):
        search(nodes - 1)
    return result


def test_models_on_cached_plans_keep_counts_and_nodes():
    # avoider counts (_perm_states), merge counts and the JV check
    # (avoidance._colour), exfn and fpts (_row_states): the values and
    # the least budgets pinned before the plan was cached, exfn's in
    # cells of its column sweep; the counts on each pattern's own raw
    # states, none made canonical
    perm = parse_permutation
    for text, count, nodes in (("123", 1430, 91), ("1342", 15485, 298), ("2413", 15485, 341)):
        assert least_budget(lambda b: sum(_sum_over_states(
            *_perm_states(perm(text).entries), 8, b).values()), nodes) == count
    for red, blue, lhs, nodes in (("12", "21", 340, 58), ("132", "213", 720, 67)):
        rep = least_budget(
            lambda b: merge_count_upper_check(perm(red), perm(blue), 6, budget=b), nodes)
        assert rep.lhs == lhs
    rep = least_budget(
        lambda b: verify_jv_inclusion(perm("1"), perm("12"), perm("21"), 6, budget=b), 62)
    assert (rep.checked, rep.holds) == (694, True)
    res = exfn_exact(to_matrix(perm("2413")), 5)
    assert (res.value, res.nodes_explored, res.proven_optimal) == (21, 410, True)
    res = fpts_exact(to_matrix(perm("132")), 7, 3)
    assert (res.value, res.nodes_explored, res.proven_optimal) == (10, 1680, True)


# -- the two models count the same permutations ----------------------------

@pytest.mark.parametrize("pvals", MEMO_PATTERNS, ids=lambda p: "".join(map(str, p)))
def test_row_model_counts_permutation_hosts(pvals):
    # a width-n host with one 1 per row and per column is a permutation,
    # and it avoids to_matrix(p) iff the permutation avoids p
    pattern = Permutation(pvals)
    for n in range(7):
        root, step = _row_states(to_matrix(pattern), n)

        def hosts(state, used, rows_left):
            if rows_left == 0:
                return 1
            free = ((1 << n) - 1) & ~used & ~state[-1]
            total = 0
            while free:
                bit = free & -free
                free ^= bit
                total += hosts(step(state, bit, rows_left - 1), used | bit, rows_left - 1)
            return total

        assert hosts(root, 0, n) == count_avoiders(pattern, n)


# -- the row model's last level against the row-subset search --------------

@pytest.mark.parametrize("pvals", MEMO_PATTERNS, ids=lambda p: "".join(map(str, p)))
def test_row_model_mask_forbids_exactly_the_completing_columns(pvals):
    # state[-1] forbids column x iff appending the single-one row 1 << x
    # makes matrix_occurrence_masks, which shares no code with the row
    # model, find the pattern; every walk takes allowed rows only
    P = to_matrix(Permutation(pvals))
    rng = random.Random(repr(pvals))
    for width in range(1, 7):
        root, step = _row_states(P, width)
        for _ in range(8):
            state, rows = root, []
            for _ in range(2 * len(pvals) + 2):
                completing = sum(
                    1 << x for x in range(width)
                    if matrix_occurrence_masks(rows + [1 << x], width, P.matrix.masks, P.k)
                    is not None
                )
                assert state[-1] == completing, (rows, width)
                allowed = ((1 << width) - 1) & ~completing
                row = rng.randrange(1 << width) & allowed
                rows.append(row)
                state = step(state, row)


# -- a row's child is the fold of its one-column joins ----------------------

PATTERNS_TO_5 = [p for k in range(1, 6) for p in itertools.permutations(range(1, k + 1))]


@given(st.data())
def test_row_step_is_the_fold_of_one_column_joins(data):
    # from a reachable state, the empty row's child joined with one
    # allowed column at a time, left to right, is the row's child: the
    # column sweep of exfn_exact.  Patterns of length 5 include those
    # whose reducer compares each tuple with every one kept
    pvals = data.draw(st.sampled_from(PATTERNS_TO_5), label="pattern")
    width = data.draw(st.integers(1, 8), label="width")
    P = to_matrix(Permutation(pvals))
    root, step = _row_states(P, width)
    state = root
    for row in data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=len(pvals) + 2),
                         label="rows"):
        state = step(state, row & ~state[-1])
    rows_left = data.draw(st.sampled_from([None, 0, 1, 2, 3, 4]), label="rows_left")
    row = data.draw(st.integers(0, (1 << width) - 1), label="row") & ~state[-1]
    partial = step(state, 0, rows_left)
    for x in range(width):
        if row >> x & 1:
            partial = step(state, 1 << x, rows_left, partial)
    # a fresh model shares no memo entry with the fold
    assert partial == _row_states(P, width)[1](state, row, rows_left)
