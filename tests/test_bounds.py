"""Closed-form evaluators and the recursion schedule with its
certification and floored replay."""

import json
import math
import random
import re
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permx import extremal
from permx.bounds import (
    _LN2,
    BoundParams,
    CertCheck,
    CertReport,
    build_schedule,
    certify_schedule,
    crude_fpts_bound,
    floored_states,
    fox_rhs,
    lemma21_bound,
    lemma22_rhs,
    marcus_tardos_bound,
    theorem12_exponent,
    theorem24_alpha,
    _floor_steps,
    _floored_final,
    _floored_replay,
    _log2_int,
    _log2_sub,
    _pow_ka,
    _power_quotient_bracket,
    _root_of_power_quotient,
    _state_jsonable,
)
from permx.cli import main
from permx.core import parse_permutation, to_matrix
from permx.errors import PreconditionViolated, ResourceLimit
from permx.extremal import check_lemma22


def pascal_binomial(n: int, r: int) -> int:
    """Second, independent binomial routine: build Pascal's row n."""
    if r < 0 or r > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[r]


class TestMarcusTardos:
    def test_k2_value(self):
        assert marcus_tardos_bound(2) == 192

    def test_k1_value(self):
        assert marcus_tardos_bound(1) == 2

    def test_k0_rejected(self):
        with pytest.raises(PreconditionViolated):
            marcus_tardos_bound(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_pascal_row_routine(self, k):
        assert marcus_tardos_bound(k) == 2 * k**4 * pascal_binomial(k * k, k)


class TestLemma21Bound:
    def test_example_k2(self):
        assert lemma21_bound(2, 1, 10, 4) == Fraction(10)

    def test_example_k3_a2(self):
        assert lemma21_bound(3, 2, 100, 10) == Fraction(900)

    def test_exact_rational(self):
        v = lemma21_bound(2, 1, 7, 5)
        assert v == Fraction(14, 3)

    def test_s_at_boundary_rejected(self):
        with pytest.raises(PreconditionViolated):
            lemma21_bound(2, 1, 10, 2)

    def test_s_below_boundary_rejected(self):
        with pytest.raises(PreconditionViolated):
            lemma21_bound(3, 2, 100, 9)

    def test_s_above_t_rejected(self):
        with pytest.raises(PreconditionViolated):
            lemma21_bound(2, 1, 3, 4)

    def test_k_below_one_rejected(self):
        with pytest.raises(PreconditionViolated, match="need k >= 1, got 0"):
            lemma21_bound(0, 1, 10, 4)

    def test_fractional_exponent(self):
        v = lemma21_bound(2, 0.5, 4, 2)
        assert v > 0


class TestLemma22Rhs:
    def test_arithmetic_example(self):
        # floor(xc) = 1, binom(2,1) = 2, second term 2*8/(6*0.5*2 - 4) = 8
        for f_sub in (0, 1, 5):
            assert lemma22_rhs(2, 1, 2, 8, 6, 0.6, 0.5, f_sub) == 2 * f_sub + 8

    def test_float_reads_as_decimal(self):
        a = lemma22_rhs(2, 1, 2, 8, 6, 0.6, 0.5, 3)
        b = lemma22_rhs(2, 1, 2, 8, 6, Fraction(3, 5), Fraction(1, 2), 3)
        assert a == b

    def test_x_at_inverse_c_rejected(self):
        with pytest.raises(PreconditionViolated, match="need x > 1/c"):
            lemma22_rhs(2, 1, 2, 8, 6, 0.5, 0.5, 0)

    def test_x_below_inverse_c_rejected(self):
        with pytest.raises(PreconditionViolated, match="need x > 1/c"):
            lemma22_rhs(2, 1, 2, 8, 6, 0.4, 0.5, 0)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.7])
    def test_x_outside_open_interval_rejected(self, x):
        with pytest.raises(PreconditionViolated, match="need 0 < x < 1"):
            lemma22_rhs(2, 1, 2, 8, 6, x, 0.5, 0)

    @pytest.mark.parametrize("x, y, message", [
        (float("nan"), 0.5, "x must be finite, got nan"),
        (0.6, float("-inf"), "y must be finite, got -inf"),
        ("0.6.1", 0.5, "x is not a rational constant: '0.6.1'"),
        (0.6, None, "y is not a rational constant: None"),
    ])
    def test_constants_must_be_rational(self, x, y, message):
        with pytest.raises(PreconditionViolated, match=re.escape(message)):
            lemma22_rhs(2, 1, 2, 8, 6, x, y, 0)

    def test_y_near_one_denominator(self):
        with pytest.raises(PreconditionViolated, match=r"- k\^a c = \S+ <= 0"):
            lemma22_rhs(2, 1, 2, 8, 6, 0.6, 0.95, 0)

    def test_y_one_rejected(self):
        with pytest.raises(PreconditionViolated, match="need 0 < y < 1"):
            lemma22_rhs(2, 1, 2, 8, 6, 0.6, 1.0, 0)

    def test_small_c_rejected(self):
        with pytest.raises(PreconditionViolated, match="need c >= 2"):
            lemma22_rhs(2, 1, 1, 8, 6, 0.6, 0.5, 0)

    def test_s_above_t_rejected(self):
        with pytest.raises(PreconditionViolated):
            lemma22_rhs(2, 1, 2, 5, 6, 0.6, 0.5, 0)

    def test_negative_f_sub_rejected(self):
        with pytest.raises(PreconditionViolated):
            lemma22_rhs(2, 1, 2, 8, 6, 0.6, 0.5, -1)


def _exact(value) -> Fraction:
    """A real constant as one Fraction, a float read at its decimal repr."""
    return Fraction(str(value) if isinstance(value, float) else value)


def _shown(value) -> str:
    """value as a refusal writes it: str(), or ~ and its double to six
    digits when str() refuses a term of more than 4300 digits."""
    try:
        return str(value)
    except ValueError:
        return f"~{float(value):g}"


def _reference_ka(k, a, s) -> Fraction:
    """k^a with the domain checks, one Fraction per operation."""
    log2_ka = a * math.log2(k)
    if abs(log2_ka) > 1023:
        raise PreconditionViolated(f"need |a*log2(k)| <= 1023, got {log2_ka:g}")
    if log2_ka > math.log2(s) + 1:
        raise PreconditionViolated(f"need s > k^a, got s={_shown(s)}, k^a=2^{log2_ka:g}")
    if a == int(a):
        return _exact(k) ** int(a)
    return Fraction(float(k) ** float(a))


def _reference_long(value: Fraction) -> Fraction:
    if max(abs(value.numerator), value.denominator) >= 10 ** 4300:
        raise ResourceLimit("lemma22 rhs has more than 4300 digits")
    return value


def reference_lemma21(k, a, t, s) -> Fraction:
    """ka*t/(s - ka) on Fractions, refused as the library refuses."""
    if not 1 <= s <= t:
        raise PreconditionViolated(f"need 1 <= s <= t, got s={_shown(s)}, t={_shown(t)}")
    ka = _reference_ka(k, a, s)
    if _exact(s) <= ka:
        raise PreconditionViolated(f"need s > k^a, got s={_shown(s)}, k^a={float(ka):g}")
    return ka * _exact(t) / (_exact(s) - ka)


def reference_lemma22(k, a, c, t, s, x, y):
    """(binom(c, floor(xc)), rest, floor(xc), y): the right side is
    binom * f_sub + rest, each step on Fractions."""
    if not 1 <= s <= t:
        raise PreconditionViolated(f"need 1 <= s <= t, got s={_shown(s)}, t={_shown(t)}")
    xf, yf = _exact(x), _exact(y)
    if not 0 < xf < 1:
        raise PreconditionViolated(f"need 0 < x < 1, got {_shown(x)}")
    if not 0 < yf < 1:
        raise PreconditionViolated(f"need 0 < y < 1, got {_shown(y)}")
    if xf <= Fraction(1, c):
        raise PreconditionViolated(f"need x > 1/c, got x={_shown(x)}, c={c}")
    fxc = int(xf * c)
    ka = _reference_ka(k, a, s)
    denom = _exact(s) * (1 - yf * Fraction(c - 1, fxc)) * c - ka * c
    if denom <= 0:
        raise PreconditionViolated(f"s(1 - y(c-1)/floor(xc))c - k^a c = {float(denom):g} <= 0")
    rest = _reference_long(ka * _exact(t) / denom)
    return math.comb(c, fxc), rest, fxc, yf


def _outcome(f, *args):
    """f's value with its type, or the type and message of its refusal."""
    try:
        value = f(*args)
    except (PreconditionViolated, ResourceLimit) as exc:
        return type(exc), str(exc)
    return type(value), value


def _spell(rng, value: Fraction):
    """value as an int (when integral), a float or a Fraction."""
    kinds = ["float", "fraction"] + ["int"] * (value.denominator == 1)
    kind = rng.choice(kinds)
    if kind == "int":
        return int(value)
    return float(value) if kind == "float" else value


def _lemma_grid(seed: int, count: int):
    """Seeded (k, a, c, t, s, x, y) in mixed spellings, a third of them
    on or just past an edge of the domain: x at or below 1/c, y at 1,
    s at or below k^a, a zero or negative denominator, or a y or t with
    a denominator of more than 4300 digits."""
    rng = random.Random(seed)
    tiny = Fraction(1, 10 ** 12)
    huge = 10 ** 4400
    grid = []
    while len(grid) < count:
        k = Fraction(rng.choice([1, 2, 3, 5, 7, 10 ** 6 + 3, 2 ** 40 + 1, Fraction(3, 2)]))
        a = Fraction(rng.choice([0, 1, 2, 3, -1, Fraction(1, 2), Fraction(3, 2), Fraction(1, 3)]))
        c = rng.randint(2, 8)
        ka = Fraction(float(k) ** float(a)) if a.denominator > 1 else k ** int(a)
        s = max(ka, Fraction(1)) * Fraction(rng.choice([1, 2, 3, 11, 101]), rng.choice([1, 1, 2]))
        s += rng.choice([0, 0, 1, tiny, -tiny])
        t = s * rng.choice([1, 1, 2, 7]) + rng.choice([0, 0, 0, 3, -1])
        x = Fraction(1, c) + Fraction(c - 1, c) * Fraction(rng.randint(1, 999), 1000)
        fxc = int(x * c)
        y = min(1, Fraction(fxc, c - 1)) * (1 - ka / s) * Fraction(rng.randint(1, 99), 100)
        edge = rng.randrange(9)
        if edge == 0:
            x = Fraction(1, c) - rng.choice([0, tiny, Fraction(1, 10)])
        elif edge == 1:
            y = Fraction(rng.choice([1, 1, 2]))
        elif edge == 2:
            s = ka - rng.choice([0, 0, tiny])
        elif edge == 3:
            y = (1 - ka / s) * Fraction(fxc, c - 1) + rng.choice([0, 0, tiny])
        elif edge == 4:
            y = y + Fraction(1, huge) if rng.random() < 0.5 else y
            t = t + Fraction(1, huge + 1)
        spelled = [_spell(rng, v) for v in (k, a)]
        spelled.append(c)
        spelled += [_spell(rng, v) for v in (t, s, x, y)]
        grid.append(tuple(spelled))
    return grid


class TestClosedFormsAgainstFractionSteps:
    """The lemma closed forms equal a restatement of their formulas that
    builds one Fraction per operation, refusals included."""

    F_SUBS = (0, 1, 7, 10 ** 4300)

    @pytest.mark.parametrize("seed", range(4))
    def test_lemma_values_and_refusals(self, seed):
        refused = 0
        for k, a, c, t, s, x, y in _lemma_grid(seed, 600):
            want = _outcome(reference_lemma21, k, a, t, s)
            assert _outcome(lemma21_bound, k, a, t, s) == want, (k, a, t, s)
            side = _outcome(reference_lemma22, k, a, c, t, s, x, y)
            for f_sub in self.F_SUBS:
                got = _outcome(lemma22_rhs, k, a, c, t, s, x, y, f_sub)
                if side[0] is tuple:
                    factor, rest = side[1][:2]
                    want = _outcome(_reference_long, factor * Fraction(f_sub) + rest)
                else:
                    want = side
                assert got == want, (k, a, c, t, s, x, y, f_sub)
                refused += got[0] is not Fraction
        assert refused > 600  # the edges are reached

    def test_shrunk_weight(self, monkeypatch):
        # a = 1/2 and 3/4 fail ex(12, n) <= 2^a n at some n <= 4, so the
        # hypothesis is checked at n = 1 alone, which every a passes
        monkeypatch.setattr(extremal, "_HYPOTHESIS_N", 1)
        P = to_matrix(parse_permutation("12"))
        rng = random.Random(44)
        checked = 0
        for _ in range(200):
            a = _spell(rng, Fraction(rng.choice([Fraction(1, 2), 1, Fraction(3, 4)])))
            s = rng.randint(2, 6)
            t = rng.randint(s, 7)
            x = _spell(rng, Fraction(rng.randint(51, 99), 100))
            y = _spell(rng, Fraction(rng.randint(1, 99), 100))
            side = _outcome(reference_lemma22, 2, a, 2, t, s, x, y)
            got = _outcome(lambda *args: check_lemma22(*args).shrunk_s, P, a, 2, t, s, x, y)
            if side[0] is tuple:
                shrunk_s = int(Fraction(s) * side[1][3])
                if shrunk_s:
                    assert got == (int, shrunk_s), (a, t, s, x, y)
                    checked += 1
                    continue
                side = (PreconditionViolated,
                        "floor(s*y) = 0 makes the shrunken search unbounded")
            assert got == side, (a, t, s, x, y)
        assert checked > 50


_LONG = 10 ** 4400


@pytest.mark.parametrize("call, message", [
    (lambda: lemma21_bound(2, 1, Fraction(_LONG + 1, _LONG), 3),
     "need 1 <= s <= t, got s=3, t=~1"),
    (lambda: lemma22_rhs(2, 1, 2, Fraction(_LONG + 1, _LONG), 3, 0.6, 0.5, 0),
     "need 1 <= s <= t, got s=3, t=~1"),
    (lambda: lemma21_bound(2, 1, 8, Fraction(2 * _LONG - 1, _LONG)),
     "need s > k^a, got s=~2, k^a=2"),
    (lambda: lemma22_rhs(2, 1, 2, 8, 6, 0.6, Fraction(_LONG + 1, _LONG), 0),
     "need 0 < y < 1, got ~1"),
    (lambda: lemma21_bound(1 - Fraction(1, _LONG), 1, 5, 3), "need k >= 1, got ~1"),
], ids=["lemma21-t", "lemma22-t", "lemma21-s", "lemma22-y", "lemma21-k"])
def test_refusals_write_long_fractions_approximately(call, message):
    # str() refuses a term of more than 4300 digits; the refusal stays a
    # PreconditionViolated and writes the value to six digits
    with pytest.raises(PreconditionViolated) as exc:
        call()
    assert str(exc.value) == message


class TestExponents:
    def test_alpha_a1_c2(self):
        assert theorem24_alpha(1, 2) == pytest.approx(122.7226, abs=1e-3)

    def test_alpha_a2_c2(self):
        assert theorem24_alpha(2, 2) == pytest.approx(213.4452, abs=1e-3)

    @given(
        st.floats(min_value=0.1, max_value=5, allow_nan=False),
        st.integers(min_value=2, max_value=9),
    )
    def test_exponent_is_twice_alpha(self, a, c):
        assert theorem12_exponent(a, c) == pytest.approx(
            2 * theorem24_alpha(a, c), rel=1e-12
        )

    def test_bad_inputs(self):
        with pytest.raises(PreconditionViolated):
            theorem24_alpha(0, 2)
        with pytest.raises(PreconditionViolated):
            theorem24_alpha(1, 1)

    @pytest.mark.parametrize("a, c", [
        (1e308, 6), (5e304, 6), (1, 1e200), (1, 10 ** 400), (10 ** 400, 2),
    ])
    def test_overflowing_exponents_rejected(self, a, c):
        # alpha itself overflows at a=1e308; at a=5e304 only its double
        # does; an int beyond the double range does not convert at all
        for fn in (theorem24_alpha, theorem12_exponent):
            with pytest.raises(PreconditionViolated, match="overflows"):
                fn(a, c)


class TestFoxRhs:
    TABLE = {1: 1, 2: 3, 3: 5}

    def test_example_332(self):
        # ex(2)*ex(2) + ex(3)*(f+g)*2 with f = g = 1
        assert fox_rhs(self.TABLE, 3, 3, 1, 1, 2) == 9 + 5 * 2 * 2

    def test_example_222(self):
        assert fox_rhs(self.TABLE, 2, 2, 1, 1, 2) == 1 * 3 + 3 * 2 * 2

    @pytest.mark.parametrize("f, g", [(-1, 1), (1, -1)])
    def test_negative_row_counts(self, f, g):
        with pytest.raises(PreconditionViolated, match="need f, g >= 0"):
            fox_rhs(self.TABLE, 3, 2, f, g, 3)

    @pytest.mark.parametrize("t, s, n, name", [(0, 3, 2, "t"), (3, 0, 2, "s"), (3, 3, -1, "n")])
    def test_nonpositive_sizes_refused_before_the_table(self, t, s, n, name):
        # s = 0 would look up n = -1, a key no ex table can hold
        value = min(t, s, n)
        with pytest.raises(PreconditionViolated, match=f"need {name} >= 1, got {value}"):
            fox_rhs(self.TABLE, t, s, 1, 1, n)

    def test_missing_entry(self):
        with pytest.raises(PreconditionViolated, match="missing an entry for n=4"):
            fox_rhs(self.TABLE, 4, 3, 1, 1, 2)
        with pytest.raises(PreconditionViolated, match="missing an entry for n=1"):
            fox_rhs({2: 3, 3: 5}, 3, 2, 1, 1, 2)


class TestBoundParams:
    @pytest.mark.parametrize("kwargs", [
        {"k": 1, "a": 1, "c": 2},
        {"k": 2, "a": 1, "c": 1},
        {"k": 2, "a": 0, "c": 2},
        {"k": 2, "a": -1.5, "c": 2},
    ])
    def test_invalid(self, kwargs):
        # each case breaks one constant, and the refusal names its check
        broken = "k >= 2" if kwargs["k"] < 2 else "c >= 2" if kwargs["c"] < 2 else "finite a > 0"
        with pytest.raises(PreconditionViolated, match=f"need {broken}, got"):
            BoundParams(**kwargs)


class TestBuildSchedule:
    def test_reference_constants(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        assert sch.beta == pytest.approx(400.0, rel=1e-9)
        assert sch.x_bulk == 0.5
        assert sch.y_bulk == 0.734375
        assert sch.bulk_steps == 160
        assert 0 < sch.y_penultimate < 1

    def test_start_state_relation(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        lt0, ls0 = sch.states[0]
        assert ls0 == pytest.approx(lt0 / 2, rel=1e-12)

    def test_bulk_step_ratios(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        lx = math.log2(sch.x_bulk)
        ly = math.log2(sch.y_bulk)
        for i in range(sch.bulk_steps):
            (lt, ls), (lt_next, ls_next) = sch.states[i], sch.states[i + 1]
            dt, ds = lt_next - lt, ls_next - ls
            assert dt == pytest.approx(lx, abs=1e-9)
            assert ds == pytest.approx(ly, abs=1e-9)

    def test_final_state_hits_target(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        lt, ls = sch.states[sch.bulk_steps + 2]
        assert lt == pytest.approx(sch.log2_beta_k, abs=1e-9)
        assert ls == pytest.approx(sch.log2_beta_k, abs=1e-9)

    def test_states_match_milestones(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        r = sch.bulk_steps
        ends = (sch.states[r], sch.states[r + 1], sch.states[r + 2])
        for state, target in zip(ends, sch.milestones, strict=True):
            assert state == pytest.approx(target, abs=1e-9)

    def test_state_count(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        assert len(sch.states) == sch.bulk_steps + 3
        assert [i for i, _, _ in sch.states.rows()] == list(range(sch.bulk_steps + 3))

    def test_large_grid_stays_finite(self):
        # widths overflow doubles linearly; log2 space must not
        sch = build_schedule(BoundParams(k=10**6, a=3, c=4))
        assert all(
            math.isfinite(lt) and math.isfinite(ls) for _, lt, ls in sch.states.rows()
        )
        assert _state_jsonable(0, *sch.states[0])["t"] is None  # the linear view saturates

    def test_jsonable_shape(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        data = sch.to_jsonable()
        assert data["R_A"] == 160
        assert data["params"] == {"k": 100, "a": 2, "c": 2}
        assert len(data["states"]) == 163
        assert set(data["milestones"]) == {"bulk_end", "penultimate", "final"}


def _integral_grid(seed: int, count: int):
    """Seeded (k, a, c) with integral k and a.  Odd k make k^a past
    2^53 inexact as a double, so a float power shows in every value."""
    rng = random.Random(seed)
    grid = [(3 ** 30, 2, 2), (4096, 1, 2)]
    while len(grid) < count:
        k = rng.choice([rng.randrange(2, 2 ** 20), rng.randrange(2 ** 20, 2 ** 48) | 1])
        grid.append((k, rng.randint(1, 3), rng.randint(2, 4)))
    return grid


class TestIntegralSpellings:
    """An int, an integral float and an integral Fraction are one
    constant: each spelling of k and a takes the same exact paths."""

    @staticmethod
    def results(k, a, c):
        sch = build_schedule(BoundParams(k, a, c))
        ka = (3 * 2 ** 48 + 1) ** 3  # an s above every k^a of the grid
        return (
            sch,
            json.dumps(certify_schedule(sch).to_jsonable()),
            crude_fpts_bound(sch),
            floored_states(sch),
            lemma21_bound(k, a, 10 * ka, 2 * ka),
            lemma22_rhs(k, a, c, 10 * ka, 4 * ka, 0.9, 0.1, 3),
            _pow_ka(k, a, 2 * ka),
        )

    @pytest.mark.parametrize("k, a, c", _integral_grid(43, 10))
    def test_spellings_agree(self, k, a, c):
        want = self.results(k, a, c)
        assert len(json.loads(want[1])["checks"]) == 18  # the floored checks ran
        for spelled_k in (k, float(k), Fraction(k)):
            for spelled_a in (a, float(a), Fraction(a)):
                assert self.results(spelled_k, spelled_a, c) == want, (spelled_k, spelled_a)


class TestExactFields:
    @pytest.mark.parametrize("c", range(2, 9))
    def test_bulk_multipliers(self, c):
        sch = build_schedule(BoundParams(10 ** 6, 1, c))
        assert sch.bulk == (Fraction(c - 1, c), Fraction(16 * c * c - 8 * c - 1, 16 * c * c))
        assert all(type(v) is Fraction for v in sch.bulk)
        assert (sch.x_bulk, sch.y_bulk) == (float(sch.bulk[0]), float(sch.bulk[1]))

    @pytest.mark.parametrize("k, a, c", [
        (2, 1, 2), (100, 2, 2), (4096, 1, 3), (10 ** 6, 3, 6), (2 ** 40, 3, 6),
        (4096.0, 2.0, 4), (Fraction(4096), Fraction(3), 5), (1e6, 1, 2),
    ])
    def test_integral_beta_k(self, k, a, c):
        beta_k = build_schedule(BoundParams(k, a, c)).beta_k
        assert type(beta_k) is int
        assert beta_k == 2 * c * int(k) ** int(a)

    @pytest.mark.parametrize("k, a", [
        (4096.5, 1), (4096, 1.5), (Fraction(8193, 2), 2), (10 ** 6, Fraction(3, 2)),
    ])
    def test_no_beta_k_off_the_integers(self, k, a):
        sch = build_schedule(BoundParams(k, a, 2))
        assert sch.beta_k is None
        with pytest.raises(PreconditionViolated, match="exact floored replay needs integral"):
            sch.exact_beta_k()


class TestFlooredReplay:
    def test_drift_fields(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        _, _, drift_t, drift_s = floored_states(sch)
        envelope = 1.0 / (1.0 - sch.y_bulk)
        assert drift_t >= 0
        assert 0 <= drift_s <= envelope

    def test_floored_states_are_integral(self):
        log2_t, _, _, _ = floored_states(build_schedule(BoundParams(k=100, a=2, c=2)))
        for lt in log2_t[1:4]:
            t = 2.0 ** lt
            assert t == pytest.approx(round(t), rel=1e-12)

    @pytest.mark.parametrize("k, a, c", [(100, 2, 2), (4096, 1, 3), (2 ** 40, 3, 6)])
    def test_floored_states_match_replay(self, k, a, c):
        params = BoundParams(k=k, a=a, c=c)
        sch = build_schedule(params)
        replay = list(_floored_replay(sch))
        log2_t, log2_s, drift_t, drift_s = floored_states(sch)
        assert len(log2_t) == len(log2_s) == len(replay) == sch.bulk_steps + 3
        for i, (t, s) in enumerate(replay):
            assert (log2_t[i], log2_s[i]) == (_log2_int(t), _log2_int(s))
        beta_k = 2 * c * k ** a
        t_fl, s_fl = replay[-1]
        assert (drift_t, drift_s) == (float(beta_k - t_fl), float(beta_k - s_fl))

    def test_non_integral_exponent_rejected(self):
        for k, a in ((100, 1.5), (100.5, 2)):
            with pytest.raises(PreconditionViolated):
                floored_states(build_schedule(BoundParams(k=k, a=a, c=2)))

    def test_beta_k_reads_k_at_its_decimal_repr(self):
        # 1e23 is 99999999999999991611392 as a double; like every other
        # exact value, beta*k takes the constant at its repr, 10^23
        params = BoundParams(k=1e23, a=1, c=2)
        sch = build_schedule(params)
        assert sch.beta_k == 4 * 10 ** 23
        replay = list(_floored_replay(sch))
        assert replay[-1] == self.fraction_replay(params, sch.bulk_steps)
        _, _, drift_t, drift_s = floored_states(sch)
        t_fl, s_fl = replay[-1]
        assert (drift_t, drift_s) == (float(4 * 10 ** 23 - t_fl), float(4 * 10 ** 23 - s_fl))
        assert 0 <= drift_s <= 1.0 / (1.0 - sch.y_bulk)

    @staticmethod
    def fraction_replay(params, R):
        """The floored replay in exact rationals, one Fraction per step;
        a float k is read at its decimal repr."""
        c = params.c
        x = Fraction(c - 1, c)
        y = Fraction(16 * c * c - 8 * c - 1, 16 * c * c)
        k = Fraction(str(params.k)) if isinstance(params.k, float) else Fraction(params.k)
        beta_k = 2 * c * int(k) ** int(params.a)
        t0 = Fraction(beta_k) * (1 / x) ** (R + 2)
        t = t0.numerator // t0.denominator
        s = math.isqrt(t)
        for _ in range(R):
            t = t * x.numerator // x.denominator
            s = s * y.numerator // y.denominator
        t = t * x.numerator // x.denominator
        w = Fraction(s) / y ** R
        f = w * w * beta_k * x ** R
        s = math.isqrt(f.numerator // f.denominator)
        t = t * x.numerator // x.denominator
        s = s * x.numerator // x.denominator
        return t, s

    @pytest.mark.parametrize("k, a, c", [
        # the query-mix grid, then k at 10^6 and at a float repr
        *((k, a, c) for k in (2 ** 6, 2 ** 22, 2 ** 40) for a in (1, 2, 3)
          for c in range(2, 7)),
        (10 ** 6, 1, 2), (10 ** 6, 3, 6), (1e23, 1, 2),
    ])
    def test_integer_replay_matches_fractions(self, k, a, c):
        params = BoundParams(k=k, a=a, c=c)
        sch = build_schedule(params)
        R = sch.bulk_steps
        states = list(_floored_replay(sch))
        assert len(states) == R + 3
        assert states[-1] == self.fraction_replay(params, R)
        assert _floored_final(sch) == states[-1]  # the block path

    @pytest.mark.parametrize("n, d, m", [(5, 6, 23), (527, 576, 6), (1, 2, 59), (55, 64, 9)])
    def test_block_steps_match_single_steps(self, n, d, m):
        rng = random.Random(d)
        for steps in (0, 1, m - 1, m, 3 * m, 3 * m + 1):
            for v in (0, d ** m - 1, d ** m, rng.getrandbits(3000)):
                want = v
                for _ in range(steps):
                    want = want * n // d
                assert _floor_steps(v, n, d, steps) == want, (v, steps)

    def test_penultimate_root_brackets_the_exact_quotient(self):
        rng = random.Random(22)
        for _ in range(200):
            b = rng.randint(2, 10 ** 7)
            a = rng.randint(1, b - 1)
            e = rng.randint(0, 3000)
            p = rng.getrandbits(rng.randint(1, 200)) + 1
            exact = p * a ** e // b ** e
            lo, hi = _power_quotient_bracket(p, a, b, e)
            assert lo <= exact <= hi
            assert _root_of_power_quotient(p, a, b, e) == math.isqrt(exact)

    def test_penultimate_root_falls_back_on_an_exact_quotient(self):
        # 3^R * (1/3)^R is exactly 1, and no binary fraction is 3^-R, so
        # the low end falls one short: the roots of the two ends differ
        R = 19802
        lo, hi = _power_quotient_bracket(3 ** R, 1, 3, R)
        assert (lo, hi) == (0, 1)
        assert math.isqrt(lo) != math.isqrt(hi)
        assert _root_of_power_quotient(3 ** R, 1, 3, R) == 1

    def test_certify_holds_only_the_final_state(self):
        # the (2^40, 3, 6) trajectory has 19805 states of wide integers,
        # about 13.7 MB when kept whole; the certifier reads only the last
        sch = build_schedule(BoundParams(k=2 ** 40, a=3, c=6))
        tracemalloc.start()
        try:
            report = certify_schedule(sch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.by_name("floored_final_width_le_target").holds
        assert peak < 4 * 2 ** 20


GRID = [(a, c) for a in (1, 2) for c in (2, 3)]

# The bulk phase is long enough that the weight track overtakes the
# width track a few states before it ends: the step-count formula lands
# the weight at c * sqrt(beta k) * e^eps times its own square root
# start, which sits a factor of about c-1 above the width there.  That
# makes the width >= weight constraint fail at those states for every k,
# so it is asserted failing here, not passing.
EXPECTED_GRID_FAILURE = "width_at_least_weight_log2"


class TestCertifySchedule:
    @pytest.mark.parametrize("a,c", GRID)
    def test_large_k_grid(self, a, c):
        p = BoundParams(k=10**6, a=a, c=c)
        report = certify_schedule(build_schedule(p))
        failing = {ch.name for ch in report.checks if not ch.holds}
        assert failing == {EXPECTED_GRID_FAILURE}

    @pytest.mark.parametrize("a,c", GRID)
    def test_grid_constraint_values(self, a, c):
        p = BoundParams(k=10**6, a=a, c=c)
        report = certify_schedule(build_schedule(p))
        assert report.by_name("y_penultimate_below_one").lhs < 1
        assert report.by_name("bulk_cost_ratio_at_most_two").lhs <= 2
        assert report.by_name("penultimate_cost_within_initial").lhs <= 1
        assert report.by_name("final_cost_within_initial").lhs <= 1
        drift = report.by_name("floored_final_weight_drift_le_envelope")
        assert 0 <= drift.lhs <= drift.rhs + 1e-9

    def test_small_k_fails(self):
        p = BoundParams(k=2, a=1, c=2)
        report = certify_schedule(build_schedule(p))
        assert not report.all_pass

    def test_y1_closed_form_cross_check(self):
        p = BoundParams(k=10**6, a=2, c=2)
        report = certify_schedule(build_schedule(p))
        check = report.by_name("y_penultimate_closed_form")
        assert check.holds
        assert check.lhs == pytest.approx(check.rhs, rel=1e-9)

    def test_x_b_boundary_tolerated_at_c2(self):
        # x_b equals 1/c exactly at c = 2; the floor it guards is fine
        p = BoundParams(k=10**6, a=1, c=2)
        report = certify_schedule(build_schedule(p))
        assert report.by_name("x_b_above_inverse_c").holds

    def test_unique_check_names(self):
        p = BoundParams(k=10**6, a=1, c=2)
        report = certify_schedule(build_schedule(p))
        names = [ch.name for ch in report.checks]
        assert len(names) == len(set(names))

    def test_deterministic(self):
        p = BoundParams(k=10**5, a=1, c=3)
        r1 = certify_schedule(build_schedule(p))
        r2 = certify_schedule(build_schedule(p))
        assert r1.to_jsonable() == r2.to_jsonable()

    def test_non_integral_a_skips_floor_checks(self):
        p = BoundParams(k=10**6, a=1.5, c=2)
        report = certify_schedule(build_schedule(p))
        assert all("floored" not in ch.name for ch in report.checks)

    def test_duplicate_names_rejected(self):
        p = BoundParams(k=10**4, a=1, c=2)
        report = certify_schedule(build_schedule(p))
        with pytest.raises(PreconditionViolated):
            CertReport(report.checks + (report.checks[0],))


def reference_certify_schedule(schedule, *, tol: float = 1e-9) -> CertReport:
    """The certifier as a loop over every step, kept as an oracle for
    the five-index certifier: O(R_A) in time, same checks and floats."""
    if not 0 <= tol < math.inf:
        raise PreconditionViolated(f"need finite tol >= 0, got {tol}")
    ideal = schedule.states
    params = schedule.params
    k, a, c = params.k, params.a, params.c
    R = schedule.bulk_steps
    x_b, y_b, y_1 = schedule.x_bulk, schedule.y_bulk, schedule.y_penultimate
    l2k = math.log2(k)
    lbk = schedule.log2_beta_k
    l2x = math.log2(x_b)

    checks: list[CertCheck] = []

    def add(name, holds, lhs, rhs):
        checks.append(CertCheck(name, bool(holds), float(lhs), float(rhs)))

    # x_b = 1 - 1/c touches 1/c exactly at c = 2; the floor the
    # constraint protects is still >= 1 there, so tolerance applies
    add("x_b_above_inverse_c", 1.0 / c <= x_b + tol, 1.0 / c, x_b)
    add("y_penultimate_below_one", y_1 < 1.0, y_1, 1.0)

    y1_closed = 2.0 ** (0.5 * lbk + (R / 2.0) * l2x - R * math.log2(y_b))
    add(
        "y_penultimate_closed_form",
        abs(y_1 - y1_closed) <= tol * max(y_1, y1_closed),
        y_1,
        y1_closed,
    )

    # per-step y value: bulk steps use y_b, then y_1, then x_b
    step_y = [y_b] * R + [y_1, x_b]
    la = a * l2k

    min_weight_margin = math.inf
    max_shape_margin = -math.inf
    log_costs = []
    for i, y_i in enumerate(step_y):
        lt, ls = ideal[i]
        lw = ls + math.log2(1.0 - y_i)
        min_weight_margin = min(min_weight_margin, lw)
        max_shape_margin = max(max_shape_margin, ls - lt)
        # cost A_i = k^a t_i / (s_i (1-y_i) c - k^a c), in log2
        l_big = lw + math.log2(c)
        l_small = la + math.log2(c)
        if l_small >= l_big:
            log_costs.append(math.inf)
        else:
            l_den = l_big + math.log1p(-(2.0 ** (l_small - l_big))) / _LN2
            log_costs.append(la + lt - l_den)
    lt_final, ls_final = ideal[R + 2]
    max_shape_margin = max(max_shape_margin, ls_final - lt_final)

    add(
        "row_weight_exceeds_hypothesis_log2",
        la < min_weight_margin,
        la,
        min_weight_margin,
    )
    add("width_at_least_weight_log2", max_shape_margin <= tol, max_shape_margin, 0.0)

    if any(math.isinf(lc) for lc in log_costs):
        add("bulk_cost_ratio_at_most_two", False, math.inf, 2.0)
        add("penultimate_cost_within_initial", False, math.inf, 1.0)
        add("final_cost_within_initial", False, math.inf, 1.0)
    else:
        bulk_ratio = max(
            (2.0 ** (log_costs[j + 1] - log_costs[j]) for j in range(R - 1)),
            default=0.0,
        )
        add("bulk_cost_ratio_at_most_two", bulk_ratio <= 2.0 + tol, bulk_ratio, 2.0)
        pen_ratio = 2.0 ** (log_costs[R] - log_costs[0])
        add("penultimate_cost_within_initial", pen_ratio <= 1.0 + tol, pen_ratio, 1.0)
        last_ratio = 2.0 ** (log_costs[R + 1] - log_costs[0])
        add("final_cost_within_initial", last_ratio <= 1.0 + tol, last_ratio, 1.0)

    scale = max(1.0, abs(lbk))
    for label, state, target in (
        ("bulk_end", ideal[R], schedule.milestones[0]),
        ("penultimate", ideal[R + 1], schedule.milestones[1]),
        ("final", ideal[R + 2], schedule.milestones[2]),
    ):
        add(
            f"milestone_{label}_t_log2",
            abs(state[0] - target[0]) <= tol * scale,
            state[0],
            target[0],
        )
        add(
            f"milestone_{label}_s_log2",
            abs(state[1] - target[1]) <= tol * scale,
            state[1],
            target[1],
        )
    add(
        "final_state_hits_target_log2",
        abs(lt_final - lbk) <= tol * scale and abs(ls_final - lbk) <= tol * scale,
        lt_final,
        lbk,
    )

    if a == int(a) and k == int(k):
        # only the final state is checked; holding the whole trajectory
        # of wide integers costs megabytes at large k
        t_fl, s_fl = deque(_floored_replay(schedule), maxlen=1)[0]
        k_repr = Fraction(str(k)) if isinstance(k, float) else Fraction(k)
        beta_k = 2 * c * int(k_repr) ** int(a)
        envelope = 16.0 * c * c / (8.0 * c + 1.0)  # 1/(1-y_b)
        add(
            "floored_final_width_le_target",
            t_fl <= beta_k,
            t_fl / beta_k,
            1.0,
        )
        add(
            "floored_final_weight_le_target",
            s_fl <= beta_k,
            s_fl / beta_k,
            1.0,
        )
        drift = float(beta_k - s_fl)
        add(
            "floored_final_weight_drift_le_envelope",
            drift <= envelope + tol,
            drift,
            envelope,
        )

    return CertReport(tuple(checks))


def _certify_both(schedule) -> tuple[str, str]:
    return (
        json.dumps(certify_schedule(schedule).to_jsonable()),
        json.dumps(reference_certify_schedule(schedule).to_jsonable()),
    )


def _random_cases(seed: int, count: int):
    """Seeded (k, a, c) with fractional k and a, so the floored replay
    (the same code in both certifiers) is skipped; small k included."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        k = rng.choice([rng.uniform(2.0, 12.0), 2.0 ** rng.uniform(1.0, 45.0)])
        a = rng.uniform(0.05, 3.0)
        c = rng.choice([2, 2, 3, 3, 4, rng.randint(2, 8)])
        try:
            cases.append(build_schedule(BoundParams(k, a, c)))
        except (PreconditionViolated, ResourceLimit):
            continue
    return cases


class TestFiveIndexCertifier:
    """The certifier reads six states; its report must be byte-identical
    to the loop over every step."""

    # scripts/schedule_sweep.py defaults
    SWEEP_GRID = [(k, a, c) for k in (1000, 10**6, 10**9) for a in (1, 2, 3)
                  for c in (2, 3, 4)]
    QUERY_GRID = [(2 ** e, a, c) for e in (6, 22, 40) for a in (1, 2, 3)
                  for c in range(2, 7)]

    @pytest.mark.parametrize("k, a, c", SWEEP_GRID + QUERY_GRID)
    def test_grids_match_loop(self, k, a, c):
        new, ref = _certify_both(build_schedule(BoundParams(k, a, c)))
        assert new == ref

    def test_random_schedules_match_loop(self):
        schedules = _random_cases(20261018, 1000)
        assert min(s.bulk_steps for s in schedules) < 100
        assert max(s.bulk_steps for s in schedules) > 10000
        for sch in schedules:
            new, ref = _certify_both(sch)
            assert new == ref, sch.params

    def test_infinite_costs_match_loop(self):
        # a built schedule keeps s(1-y) at least 2k^a/x_b at every step,
        # so its costs are finite; raising a (or y_1) after the build
        # moves k^a c past some steps' s(1-y)c
        rng = random.Random(7)
        fired = 0
        for sch in _random_cases(11, 150):
            k, a, c = sch.params.k, sch.params.a, sch.params.c
            margin = certify_schedule(sch).by_name(
                "row_weight_exceeds_hypothesis_log2"
            ).rhs
            la = margin + rng.uniform(-0.5, 3.0)
            variants = [
                _replace(sch, params=BoundParams(k, la / math.log2(k), c)),
                _replace(sch, y_penultimate=1.0 - 2.0 ** -rng.uniform(1, 40)),
            ]
            for variant in variants:
                new, ref = _certify_both(variant)
                assert new == ref, (variant.params, variant.y_penultimate)
                fired += '"lhs": Infinity' in new
        assert fired > 50

    def test_degenerate_start_matches_loop(self):
        sch = build_schedule(BoundParams(k=100, a=2, c=2))
        for log2_s in (2.0, 14.0, 30.0):
            crippled = _replace(sch, states=_with_start_weight(sch, log2_s))
            new, ref = _certify_both(crippled)
            assert new == ref


def _replace(record, **changes):
    """A copy of a frozen record with the named fields changed."""
    return type(record)(**{f: changes.get(f, getattr(record, f)) for f in record._fields})


def _with_start_weight(sch, log2_s) -> tuple:
    """The schedule's states as a tuple of pairs, with state 0's
    weight replaced by 2**log2_s."""
    states = tuple(sch.states[i] for i in range(len(sch.states)))
    return ((states[0][0], log2_s),) + states[1:]


class CountingStates:
    """Wraps a state sequence and counts the states read from it."""

    def __init__(self, states):
        self.states = states
        self.reads = 0

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        self.reads += 1
        return self.states[i]


def formula_state(params: BoundParams, i: int) -> tuple[float, float]:
    """Ideal state i from build_schedule's closed forms, restated."""
    c = params.c
    x_frac = Fraction(c - 1, c)
    y_frac = Fraction(16 * c * c - 8 * c - 1, 16 * c * c)
    x_b, y_b = float(x_frac), float(y_frac)
    l2x = math.log2(x_frac.numerator) - math.log2(x_frac.denominator)
    l2y = math.log2(y_frac.numerator) - math.log2(y_frac.denominator)
    log2_beta_k = math.log2(2 * params.c) + params.a * math.log2(params.k)
    denom = math.log(y_b) - 0.5 * math.log(x_b)
    q = 1.0 + (math.log(params.c) + 0.5 * log2_beta_k * _LN2) / denom
    R = math.ceil(q)
    lt0 = log2_beta_k - (R + 2) * l2x
    ls0 = lt0 / 2.0
    ls_bulk_end = ls0 + R * l2y
    l2y1 = log2_beta_k - l2x - ls_bulk_end
    lt = lt0 + i * l2x
    if i <= R:
        ls = ls0 + i * l2y
    elif i == R + 1:
        ls = ls_bulk_end + l2y1
    else:
        ls = ls_bulk_end + l2y1 + l2x
    return lt, ls


def _bits(state: tuple[float, float]):
    return tuple(v.hex() for v in state)


class TestLazyStates:
    PARAMS = [BoundParams(100, 2, 2), BoundParams(2 ** 40, 3, 6)]

    @pytest.mark.parametrize("params", PARAMS)
    def test_states_equal_formula_bitwise(self, params):
        sch = build_schedule(params)
        states = sch.states
        n = len(states)
        expect = [_bits(formula_state(params, i)) for i in range(n)]
        assert n == sch.bulk_steps + 3
        assert [_bits(states[i]) for i in range(n)] == expect
        assert [_bits(row) for _, *row in states.rows()] == expect

    def test_sequence_semantics(self):
        states = build_schedule(BoundParams(100, 2, 2)).states
        assert build_schedule(BoundParams(100, 2, 2)) == build_schedule(
            BoundParams(100, 2, 2)
        )
        for i in (len(states), -1):
            with pytest.raises(IndexError):
                states[i]

    def test_floored_states_are_stored_rows(self):
        # two doubles a state, not a tuple of per-state objects
        log2_t, log2_s, _, _ = floored_states(build_schedule(BoundParams(100, 2, 2)))
        assert [column.itemsize for column in (log2_t, log2_s)] == [8, 8]

    @pytest.mark.parametrize("params", PARAMS + [BoundParams(10**4, 1.5, 2)])
    def test_certifier_reads_at_most_six_states(self, params):
        sch = build_schedule(params)
        counting = CountingStates(sch.states)
        report = certify_schedule(_replace(sch, states=counting))
        assert 0 < counting.reads <= 6
        assert report == certify_schedule(sch)

    @pytest.mark.parametrize("params", PARAMS + [BoundParams(10**4, 1.5, 2)])
    def test_crude_bound_reads_one_state(self, params):
        sch = build_schedule(params)
        counting = CountingStates(sch.states)
        value = crude_fpts_bound(_replace(sch, states=counting))
        assert counting.reads == 1
        assert value == crude_fpts_bound(sch)

    def test_certify_command_peak_memory(self, capsys):
        argv = ["bounds", "certify", "--k", "1099511627776", "--a", "3", "--c", "6"]
        assert main(argv) == 0  # builds the parser outside the measurement
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        # a materialised schedule alone is about 3.5 MB here
        assert peak < 1.5 * 2 ** 20


class TestCrudeFptsBound:
    def test_finite_positive(self):
        p = BoundParams(k=10**6, a=2, c=2)
        v = crude_fpts_bound(build_schedule(p))
        assert math.isfinite(v) and v > 0

    def test_monotone_in_k(self):
        lo = BoundParams(k=10**6, a=2, c=2)
        hi = BoundParams(k=2 * 10**6, a=2, c=2)
        assert crude_fpts_bound(build_schedule(lo)) < crude_fpts_bound(build_schedule(hi))

    def test_large_grid_finite(self):
        p = BoundParams(k=10**6, a=3, c=4)
        assert math.isfinite(crude_fpts_bound(build_schedule(p)))

    def test_degenerate_start_rejected(self):
        # a schedule whose start state cannot clear k^a: the guard fires
        p = BoundParams(k=100, a=2, c=2)
        sch = build_schedule(p)
        crippled = _replace(sch, states=_with_start_weight(sch, 2.0))
        with pytest.raises(PreconditionViolated, match="schedule start is too small"):
            crude_fpts_bound(crippled)

    def test_fractional_exponent_supported(self):
        p = BoundParams(k=10**4, a=1.5, c=2)
        assert math.isfinite(crude_fpts_bound(build_schedule(p)))

    def test_fractional_exponent_past_2_to_100(self):
        # log2(beta k) > 100: the binomial's falling factorial is summed
        # through _log2_sub's log1p branch (`bounds crude --k 1e40 --a 2.5 --c 2`)
        sch = build_schedule(BoundParams(k=1e40, a=2.5, c=2))
        assert sch.log2_beta_k > 100
        assert crude_fpts_bound(sch) == 8207.701751391854

    @pytest.mark.parametrize("log2_value", [101, 150, 1023, 8207])
    def test_log2_sub_matches_integers(self, log2_value):
        # past 1023, 2.0 ** log2_value would overflow a float
        for delta in (0, 1, 2, 5):
            expected = math.log2(2 ** log2_value - delta)
            assert _log2_sub(float(log2_value), delta) == pytest.approx(expected, rel=1e-15)
