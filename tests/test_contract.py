"""The library's argument contract (README, "One argument contract").

Every public callable checks its sizes, budgets and real constants with
the three validators of ``permx.limits`` before any work, so a library
caller gets a result or a ``PermxError``, never a bare ``TypeError`` or
``OverflowError``.  The fuzz below draws those arguments from an edge
alphabet for every callable in ``permx.__all__``.

Domain-object arguments (``Permutation``, ``PermutationMatrix``,
``Schedule``, ...) stay in domain.  A wrong domain type, such as
``rotate90(Permutation(...))``, is outside the contract and not drawn.
"""

import inspect
import math
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permx
from permx import avoidance, core, extremal
from permx.errors import PermxError, PreconditionViolated, ResourceLimit


class Arg(NamedTuple):
    """An argument the contract checks, and its in-domain value."""

    kind: str  # "size", "budget" or "real"
    value: object


size, budget, real = (partial(Arg, kind) for kind in ("size", "budget", "real"))


def edges(arg):
    """The edge alphabet: the in-domain value first, so examples shrink
    toward it, then an integral float, a bool, a negative, zero, an int
    beyond the double range, ints past str()'s 4300-digit limit of
    either sign, a str and None; a real also draws nan and inf."""
    edge = (arg.value, float(arg.value), True, -1, 0, 10 ** 400, 10 ** 5000, -10 ** 5000,
            str(arg.value), None)
    return edge + (math.nan, math.inf) if arg.kind == "real" else edge


def perm(text):
    return permx.parse_permutation(text)


P12, P123 = permx.to_matrix(perm("12")), permx.to_matrix(perm("123"))
PARAMS = permx.BoundParams(4096, 1, 2)
SCHEDULE = permx.build_schedule(PARAMS)
TABLE = {1: 1, 2: 3, 3: 5, 4: 7}
SEARCH_BUDGET = budget(10 ** 5)


def copy(record):
    """A result record built anew from its fields: result records store
    what they are given, so they take no edge values."""
    return partial(type(record), *record._values())


# name -> (call, the arguments the contract checks, by keyword)
CALLS = {
    # core
    "BinaryMatrix": (partial(permx.BinaryMatrix, (1, 2)), {"cols": size(2)}),
    "BlockDecomposition": (
        partial(permx.BlockDecomposition, perm("12"), (perm("1"), perm("1"))), {}),
    "Occurrence": (partial(permx.Occurrence, (0, 1)), {}),
    "Permutation": (lambda entry: permx.Permutation((entry, 2)), {"entry": size(1)}),
    "PermutationMatrix": (partial(permx.PermutationMatrix, P12.matrix), {}),
    "avoids": (partial(permx.avoids, perm("2413"), perm("12")), {}),
    "blockable_decompositions": (
        partial(permx.blockable_decompositions, perm("2143")), {"c": size(2)}),
    "complement": (partial(permx.complement, perm("132")), {}),
    "contains": (partial(permx.contains, perm("2413"), perm("12")), {}),
    "direct_sum": (partial(permx.direct_sum, perm("1"), perm("21")), {}),
    "find_matrix_occurrence": (
        partial(permx.find_matrix_occurrence, P123.matrix, P12.matrix), {}),
    "find_occurrence": (partial(permx.find_occurrence, perm("2413"), perm("12")), {}),
    "from_matrix": (partial(permx.from_matrix, P123), {}),
    "inflate": (partial(permx.inflate, perm("21"), [perm("1"), perm("12")]), {}),
    "inverse": (partial(permx.inverse, perm("231")), {}),
    "matrix_avoids": (partial(permx.matrix_avoids, P123.matrix, P12.matrix), {}),
    "matrix_contains": (partial(permx.matrix_contains, P123.matrix, P12.matrix), {}),
    "parse_permutation": (partial(permx.parse_permutation, "2413"), {}),
    "reverse": (partial(permx.reverse, perm("132")), {}),
    "rotate90": (partial(permx.rotate90, P123), {}),
    "skew_sum": (partial(permx.skew_sum, perm("1"), perm("21")), {}),
    "to_matrix": (partial(permx.to_matrix, perm("132")), {}),
    # avoidance
    "avoiders": (partial(permx.avoiders, perm("123")), {"n": size(4), "budget": budget(10 ** 4)}),
    "count_avoiders": (
        partial(permx.count_avoiders, perm("123")), {"n": size(5), "budget": budget(10 ** 4)}),
    "merge_coloring": (
        partial(permx.merge_coloring, perm("2413"), perm("12"), perm("21")),
        {"budget": budget(10 ** 4)}),
    "merge_count_upper_check": (
        partial(permx.merge_count_upper_check, perm("12"), perm("21")),
        {"n": size(4), "budget": budget(10 ** 4)}),
    "merge_member": (
        partial(permx.merge_member, perm("2413"), perm("12"), perm("21")),
        {"budget": budget(10 ** 4)}),
    "sw_estimate_sequence": (
        partial(permx.sw_estimate_sequence, perm("123")),
        {"n_max": size(5), "budget": budget(10 ** 4)}),
    "verify_jv_inclusion": (
        partial(permx.verify_jv_inclusion, perm("1"), perm("1"), perm("1")),
        {"n": size(4), "budget": budget(10 ** 4)}),
    # extremal
    "exfn_exact": (partial(permx.exfn_exact, P12), {"n": size(3), "budget": SEARCH_BUDGET}),
    "fpts_exact": (partial(permx.fpts_exact, P12),
                   {"t": size(4), "s": size(2), "budget": SEARCH_BUDGET}),
    "gpts_exact": (partial(permx.gpts_exact, P123),
                   {"t": size(3), "s": size(2), "budget": SEARCH_BUDGET}),
    "check_lemma21": (partial(permx.check_lemma21, P12),
                      {"a": real(1), "t": size(5), "s": size(4), "budget": SEARCH_BUDGET}),
    "check_lemma22": (partial(permx.check_lemma22, P123),
                      {"a": real(1), "c": size(2), "t": size(8), "s": size(5), "x": real(0.6),
                       "y": real(0.3), "budget": SEARCH_BUDGET}),
    # bounds
    "BoundParams": (permx.BoundParams, {"k": real(4096), "a": real(1), "c": size(2)}),
    "build_schedule": (partial(permx.build_schedule, PARAMS), {}),
    "certify_schedule": (partial(permx.certify_schedule, SCHEDULE), {}),
    "crude_fpts_bound": (partial(permx.crude_fpts_bound, SCHEDULE), {}),
    "floored_states": (partial(permx.floored_states, SCHEDULE), {}),
    "fox_rhs": (partial(permx.fox_rhs, TABLE),
                {"t": size(3), "s": size(3), "f_val": size(1), "g_val": size(1), "n": size(2)}),
    "lemma21_bound": (permx.lemma21_bound,
                      {"k": real(2), "a": real(1), "t": real(5), "s": real(4)}),
    "lemma22_rhs": (permx.lemma22_rhs,
                    {"k": real(2), "a": real(1), "c": size(2), "t": real(8), "s": real(6),
                     "x": real(0.6), "y": real(0.5), "f_sub": size(3)}),
    "marcus_tardos_bound": (permx.marcus_tardos_bound, {"k": size(3)}),
    "theorem12_exponent": (permx.theorem12_exponent, {"a": real(1), "c": real(2)}),
    "theorem24_alpha": (permx.theorem24_alpha, {"a": real(1), "c": real(2)}),
    # result records and errors
    "CertCheck": (copy(permx.certify_schedule(SCHEDULE).checks[0]), {}),
    "CertReport": (copy(permx.certify_schedule(SCHEDULE)), {}),
    "ExtremalResult": (copy(permx.exfn_exact(P12, 2)), {}),
    "JvInclusionReport": (
        copy(permx.verify_jv_inclusion(perm("1"), perm("1"), perm("1"), 3)), {}),
    "Lemma21Report": (copy(permx.check_lemma21(P12, 1, 3, 3)), {}),
    "Lemma22Report": (copy(permx.check_lemma22(P12, 1, 2, 5, 5, 0.6, 0.5)), {}),
    "MergeCountReport": (copy(permx.merge_count_upper_check(perm("12"), perm("21"), 3)), {}),
    "Schedule": (copy(SCHEDULE), {}),
    "SwEstimate": (copy(permx.sw_estimate_sequence(perm("12"), 2)[0]), {}),
    "PermxError": (partial(permx.PermxError, "message"), {}),
    "PreconditionViolated": (partial(permx.PreconditionViolated, "message"), {}),
    "ResourceLimit": (partial(permx.ResourceLimit, "message"), {}),
}


def test_every_public_callable_is_in_the_table():
    # a new public function fails here until its arguments are listed
    assert sorted(CALLS) == permx.__all__


def call(name, **drawn):
    fn, _ = CALLS[name]
    result = fn(**drawn)
    if inspect.isgenerator(result):  # avoiders checks its arguments when first drawn from
        result = list(result)
    return result


@pytest.mark.parametrize("name", sorted(CALLS))
def test_edge_arguments_return_or_raise_a_permx_error(name, alarm_guard):
    checked = CALLS[name][1]
    arguments = st.fixed_dictionaries(
        {param: st.sampled_from(edges(arg)) for param, arg in checked.items()})

    @settings(max_examples=100 if checked else 1, deadline=None, derandomize=True)
    @given(arguments)
    def check(drawn):
        with alarm_guard((name, drawn)):
            try:
                call(name, **drawn)
            except PermxError:
                pass

    check()


@pytest.fixture
def refuse_work(monkeypatch):
    # every search and count starts its work in one of these models
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(extremal, "_row_states", refuse)
    monkeypatch.setattr(avoidance, "_perm_states", refuse)
    monkeypatch.setattr(avoidance, "completes_at_end", refuse)


# one call per refusal: each once returned a wrong answer or ended in a
# bare TypeError, AttributeError or OverflowError
REFUSED = [
    "exfn_exact(P, 4.0)",
    "fpts_exact(P, 4.0, 2)",
    "fpts_exact(P, 4, 2.0)",
    "gpts_exact(P, 4, 2.0)",
    "check_lemma21(P, 1, 5.0, 4)",
    "check_lemma21(P, 1, 5, 4.0)",
    "exfn_enumerate(P, 2.0)",
    "marcus_tardos_bound(3.0)",
    "exfn_exact(P, True)",
    "fpts_exact(I2, 3, True)",
    "marcus_tardos_bound(True)",
    'count_block_decompositions(perm("12"), True)',
    "theorem24_alpha(True, 2)",
    "exfn_exact(P, 4, -1)",
    "exfn_exact(P, 4, 0)",
    "exfn_exact(P, 4, 2.5)",
    "fpts_exact(P, 4, 2, budget=-5)",
    "lemma22_rhs(2, 1, 2, 8, 5, 0.6, 0.3, f_sub=1.5)",
    "fox_rhs({0: 0, 1: 1, 2: 3}, 2, 1, 0.5, 0, 2)",
    "BoundParams(10 ** 400, 1, 2)",
    'lemma21_bound("2", 1, 5, 4)',
    'marcus_tardos_bound("3")',
    'theorem24_alpha("1", 2)',
    'check_lemma21(P, "1", 5, 4)',
    "Permutation((1.0, 2.0))",
    "Permutation((True,))",
    "BinaryMatrix((1,), True)",
    "BinaryMatrix((1,), 1.0)",
    "BinaryMatrix((1.0,), 1)",
    "PermutationMatrix.identity(2.0)",
]
NAMES = {**{name: getattr(permx, name) for name in permx.__all__},
         "P": P12, "I2": permx.PermutationMatrix.identity(2), "perm": perm,
         "exfn_enumerate": extremal.exfn_enumerate,
         "count_block_decompositions": core.count_block_decompositions}


@pytest.mark.parametrize("text", REFUSED)
def test_refused_before_any_work(refuse_work, text):
    with pytest.raises(PreconditionViolated):
        eval(text, NAMES)


@pytest.mark.parametrize("refused, message", [
    (lambda: permx.exfn_exact(P12, 4.0), "n must be an integer, got 4.0"),
    (lambda: permx.exfn_exact(P12, 4, 0), "budget must be a positive integer, got 0"),
    (lambda: permx.Permutation((1.0, 2.0)), "permutation entry must be an integer, got 1.0"),
    (lambda: permx.BinaryMatrix((1,), True), "cols must be an integer, got True"),
    (lambda: permx.lemma22_rhs(2, 1, 2, 8, 5, 0.6, 0.3, f_sub=1.5),
     "f_sub must be an integer, got 1.5"),
    (lambda: permx.lemma21_bound("2", 1, 5, 4), "k is not a rational constant: '2'"),
    (lambda: permx.theorem24_alpha(True, 2), "a is not a rational constant: True"),
    (lambda: permx.BoundParams(10 ** 400, 1, 2), "k overflows a double"),
], ids=["size", "budget", "entry", "cols", "f_sub", "real", "bool-real", "wide-real"])
def test_refusals_name_the_argument(refuse_work, refused, message):
    with pytest.raises(PreconditionViolated) as info:
        refused()
    assert str(info.value) == message


@pytest.mark.parametrize("refused, error, message", [
    (lambda: permx.exfn_exact(P12, 10 ** 5000), ResourceLimit,
     "width ~2^16609 exceeds the 64-bit row limit"),
    (lambda: permx.exfn_exact(P12, -10 ** 5000), PreconditionViolated,
     "need n >= 1, got ~-2^16609"),
    (lambda: permx.count_avoiders(perm("12"), 10 ** 5000), ResourceLimit,
     "n=~2^16609 exceeds the configured limit 17"),
    (lambda: permx.exfn_exact(P12, 3, budget=-10 ** 5000), PreconditionViolated,
     "budget must be a positive integer, got ~-2^16609"),
], ids=["width", "negative-size", "length", "budget"])
def test_refusals_write_ints_past_the_digit_limit(refuse_work, refused, error, message):
    # str() of an int of more than 4300 digits raises a bare ValueError,
    # so a refusal writes the int's sign and size in powers of two
    with pytest.raises(error) as info:
        refused()
    assert str(info.value) == message


def test_a_certifiers_leftover_budget_runs_out_as_a_resource_limit():
    # the hypothesis searches (101 nodes) leave nothing for the row
    # search, which runs out rather than refusing its budget
    args = (permx.to_matrix(perm("123")), 1, 5, 4)
    with pytest.raises(ResourceLimit, match="budget exhausted before the search completed"):
        permx.check_lemma21(*args, budget=101)
