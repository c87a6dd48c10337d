"""Closed-form bound evaluators and the width/weight recursion schedule.

The schedule shrinks a (width t, row-weight s) state through R_A "bulk"
steps with fixed multipliers (x_b, y_b), one step with a specially
chosen weight multiplier y_1, and one final (x_b, x_b) step, landing on
the target state (beta*k, beta*k).  Certification checks every
constraint the construction relies on: the multipliers stay admissible,
every state keeps s(1-y) above k^a and t >= s, the per-step additive
cost A_j at most doubles across bulk steps and never exceeds its initial
value at the end, and applying floors to every step drifts the final
state by at most 1/(1-y_b).

The ideal states are arithmetic progressions in log2, so each per-state
constraint is monotone along the bulk steps and is decided at the start,
the last bulk indices and the two special steps: the certifier reads six
states whatever R_A is (see :func:`certify_schedule`), and an ideal
schedule computes a state only when one is read.  Indexing
``Schedule.states`` gives a state as its ``(log2_t, log2_s)`` pair; a
report that lists every state walks them as ``(i, log2_t, log2_s)``
rows (``Schedule.states.rows()``), with no object per state.  A schedule is
always the ideal one; its exact floored replay is a function of it,
:func:`floored_states`, which keeps only the log2 of each replayed
integer pair, two doubles a state, and drops the wide integers as the
replay steps.

The certifier needs only the last floored state, and reaches it
without walking the bulk steps one by one on wide integers.  With
F(v) = floor(v*n/d) a bulk step, F^j(u*d^m + r) = u*n^j*d^(m-j) + F^j(r)
for j <= m, so m steps cost one divmod by d^m and one multiply by n^m,
and only r < d^m is stepped singly; m is the largest block with
d^m < 2^60 (:func:`_floor_steps`).  The penultimate step,
isqrt(s^2*beta k*A^R // B^R) with A = y_d^2*x_n and B = y_n^2*x_d, is
taken without the two powers of about R*log2(A) bits: (A/B)^R is
bracketed in fixed point by repeated squaring, rounded down for the
low end and up for the high end, and when both ends give the same root
it is exact; otherwise the exact division decides
(:func:`_root_of_power_quotient`).  Both keep every integer the
step-by-step replay gives.

Widths along the schedule overflow double precision for large k, so all
state arithmetic is carried in log2 space; integer/rational quantities
(binomials, the floored replay) are exact.  The exact closed forms are
computed on integer (numerator, denominator) pairs, each constant read
once (:func:`_ratio`, floats at their decimal repr), each refusal
decided by an integer comparison, and each value returned built as one
``Fraction``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from itertools import starmap

from .errors import PreconditionViolated, ResourceLimit
from .limits import (MAX_REPORT_DIGITS, MAX_SCHEDULE_STEPS, is_integral, shown, valid_real,
                     valid_size)
from .record import Record

_LN2 = math.log(2.0)
_TOL = 1e-9  # float slack of the certificate's comparisons
_REPORT_CEILING = 10**MAX_REPORT_DIGITS  # str() refuses ints this large
_MILESTONE_NOTE = (
    "milestone exponents are evaluated with the bulk multipliers; "
    "fractional exponents like R_A/2 are taken as reals"
)
_MILESTONE_LABELS = ("bulk_end", "penultimate", "final")


def _ratio(value) -> tuple[int, int]:
    """Exact rational view of a checked real constant (:func:`valid_real`)
    as its integer (numerator, denominator) pair, the denominator
    positive; floats are read at their decimal repr so e.g. 0.1 means
    1/10."""
    if isinstance(value, float):
        return Decimal(repr(value)).as_integer_ratio()
    return value.numerator, value.denominator


def _pow_ka(k, a, s) -> tuple[int, int]:
    """k**a as an exact integer ratio when a is integral, else the exact
    value of the double-precision power.  k (at least 1) and a are
    checked as real constants; s is the caller's checked weight.

    k^a must lie within 2^-1023 .. 2^1023, and every caller needs
    k^a < s: a k^a above 2s raises ``PreconditionViolated``.  Both are
    decided in log2 space before any power is built, so a huge exponent
    neither builds a huge exact power nor overflows a double.
    """
    kn, kd = _ratio(valid_real(k, "k", least=1))
    log2_ka = valid_real(a, "a") * math.log2(k)
    if abs(log2_ka) > 1023:
        raise PreconditionViolated(f"need |a*log2(k)| <= 1023, got {log2_ka:g}")
    if log2_ka > math.log2(s) + 1:
        raise PreconditionViolated(f"need s > k^a, got s={shown(s)}, k^a=2^{log2_ka:g}")
    if not is_integral(a):
        return (float(k) ** float(a)).as_integer_ratio()
    e = int(a)
    return (kn ** e, kd ** e) if e >= 0 else (kd ** -e, kn ** -e)


def _binom_digits(n: int, k: int) -> float:
    """Upper bound on the decimal digits of binom(n, k), from
    binom(n, k) <= (e*n/k)^k; cheap enough to check before math.comb."""
    k = min(k, n - k)
    try:
        return 1 + (k * math.log10(math.e * n / k) if k > 0 else 0)
    except OverflowError:  # beyond the double range, so far beyond any digit limit
        return math.inf


def _reportable(value, name: str):
    """value, once each integer a report prints for it (an int, or a
    Fraction's numerator and denominator) is below 10**MAX_REPORT_DIGITS."""
    if max(abs(value.numerator), value.denominator) >= _REPORT_CEILING:
        raise ResourceLimit(f"{name} has more than {MAX_REPORT_DIGITS} digits")
    return value


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def marcus_tardos_bound(k: int) -> int:
    """Linear coefficient 2*k^4*binom(k^2, k), exact."""
    valid_size(k, "k", 1)
    digits = math.log10(2 * k ** 4) + _binom_digits(k * k, k)
    if digits > MAX_REPORT_DIGITS:
        raise ResourceLimit(
            f"2k^4*binom(k^2, k) may have {digits:.0f} digits, over {MAX_REPORT_DIGITS}"
        )
    return 2 * k ** 4 * math.comb(k * k, k)


def lemma21_bound(k: int, a, t: int, s: int) -> Fraction:
    """Row-count bound k^a*t/(s - k^a) for hosts with s ones per row,
    valid once s clears k^a."""
    return _lemma21_side(k, a, t, s)[0]


def _lemma21_side(k, a, t, s) -> tuple[Fraction, tuple[int, int]]:
    """The bound of :func:`lemma21_bound` and the exact k^a it divides
    by, as an integer ratio, from one validation and one power."""
    if not 1 <= valid_real(s, "s") <= valid_real(t, "t"):
        raise PreconditionViolated(f"need 1 <= s <= t, got s={shown(s)}, t={shown(t)}")
    kn, kd = ka = _pow_ka(k, a, s)
    sn, sd = _ratio(s)
    if sn * kd <= kn * sd:
        raise PreconditionViolated(f"need s > k^a, got s={shown(s)}, k^a={kn / kd:g}")
    tn, td = _ratio(t)
    return Fraction(kn * tn * sd, td * (sn * kd - kn * sd)), ka


def lemma22_rhs(k: int, a, c: int, t: int, s: int, x, y, f_sub: int) -> Fraction:
    """One recursion step: binom(c, floor(xc)) * f_sub plus the
    second-term ratio, with the caller supplying the shrunken-instance
    value f_sub."""
    return _lemma22_side(k, a, c, t, s, x, y, f_sub)[0](f_sub)


def _lemma22_side(k, a, c, t, s, x, y, f_sub):
    """The right side of :func:`lemma22_rhs` as a function of f_sub,
    once every constant and f_sub are validated, with floor(xc) and y as
    an exact integer ratio, from which a caller shrinks the instance,
    and the exact k^a, as an integer ratio too.
    The side is affine in f_sub, binom(c, floor(xc)) * f_sub plus its
    value at 0, so one validation serves every f_sub.

    Each refusal is an integer comparison, and the value at 0 is one
    ratio: the denominator s(1 - y(c-1)/floor(xc))c - k^a c is
    n / (s_d*y_d*floor(xc)*k_d) for the integer n below, each constant
    read as its ratio v_n/v_d."""
    valid_size(c, "block count c", 2)
    if not 1 <= valid_real(s, "s") <= valid_real(t, "t"):
        raise PreconditionViolated(f"need 1 <= s <= t, got s={shown(s)}, t={shown(t)}")
    valid_size(f_sub, "f_sub")
    xn, xd = _ratio(valid_real(x, "x"))
    yn, yd = _ratio(valid_real(y, "y"))
    if not 0 < xn < xd:
        raise PreconditionViolated(f"need 0 < x < 1, got {shown(x)}")
    if not 0 < yn < yd:
        raise PreconditionViolated(f"need 0 < y < 1, got {shown(y)}")
    if xn * c <= xd:
        raise PreconditionViolated(f"need x > 1/c, got x={shown(x)}, c={c}")
    fxc = xn * c // xd  # >= 1 because x > 1/c
    kn, kd = ka = _pow_ka(k, a, s)
    sn, sd = _ratio(s)
    n = c * (sn * kd * (yd * fxc - yn * (c - 1)) - kn * sd * yd * fxc)
    if n <= 0:
        try:
            denom = f"{n / (sd * yd * fxc * kd):g}"
        except OverflowError:  # c beyond the double range
            denom = "-inf"
        raise PreconditionViolated(f"s(1 - y(c-1)/floor(xc))c - k^a c = {denom} <= 0")
    digits = _binom_digits(c, fxc)
    if digits > MAX_REPORT_DIGITS:
        raise ResourceLimit(
            f"binom(c, floor(xc)) may have {digits:.0f} digits, over {MAX_REPORT_DIGITS}"
        )
    factor = math.comb(c, fxc)
    tn, td = _ratio(t)
    rest = _reportable(Fraction(kn * tn * sd * yd * fxc, td * n), "lemma22 rhs")
    return (lambda f_sub: _reportable(rest + factor * f_sub, "lemma22 rhs")), fxc, (yn, yd), ka


def theorem24_alpha(a, c: int) -> float:
    """Exponent alpha = 2a + 8c^2 + 32ac^2 ln c in the k^alpha * n
    extremal bound.  Constants whose alpha, or twice it, overflows a
    double are rejected.  c is a real that must be integral, so 2.0
    is taken as 2."""
    valid_real(a, "a", above=0)
    valid_real(c, "block count c", least=2, integral=True)
    alpha = 2.0 * a + 8.0 * c * c + 32.0 * a * c * c * math.log(c)
    if not math.isfinite(2.0 * alpha):
        raise PreconditionViolated(f"2*alpha = 4a + 16c^2 + 64ac^2 ln c overflows a double "
                           f"at a={shown(a)}, c={c}")
    return alpha


def theorem12_exponent(a, c: int) -> float:
    """Growth-rate exponent, exactly twice :func:`theorem24_alpha`;
    finite, since that function rejects an alpha whose double is not."""
    return 2.0 * theorem24_alpha(a, c)


def fox_rhs(ex_table, t: int, s: int, f_val: int, g_val: int, n: int) -> int:
    """Right side ex(s-1)*ex(n) + ex(t)*(f+g)*n of the blow-up
    inequality, from caller-supplied exact table values.  The row
    counts f and g must be nonnegative, and t, s and n positive."""
    if min(valid_size(f_val, "f", None), valid_size(g_val, "g", None)) < 0:
        raise PreconditionViolated(f"need f, g >= 0, got f={shown(f_val)}, g={shown(g_val)}")
    for name, value in (("t", t), ("s", s), ("n", n)):
        valid_size(value, name, 1)  # no ex table holds the key s - 1 < 0
    out = {}
    for key in (s - 1, t, n):
        if key not in ex_table:
            raise PreconditionViolated(f"ex table is missing an entry for n={shown(key)}")
        out[key] = ex_table[key]
    return _reportable(out[s - 1] * out[n] + out[t] * (f_val + g_val) * n, "fox rhs")


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

class BoundParams(Record):
    """Pattern size k, hypothesis exponent a, block count c."""

    k: int
    a: float
    c: int

    def __init__(self, k, a, c):
        valid_real(k, "k", least=2)
        valid_size(c, "block count c", 2)
        valid_real(a, "a", above=0)
        super().__init__(k, a, c)


def _state_jsonable(i: int, log2_t: float, log2_s: float) -> dict:
    """State i's report dict; t and s are None where 2**log2 overflows
    a double."""
    return {
        "i": i,
        "log2_t": log2_t,
        "log2_s": log2_s,
        "t": 2.0 ** log2_t if log2_t < 1024 else None,
        "s": 2.0 ** log2_s if log2_s < 1024 else None,
    }


class _IdealStates(Record):
    """The R_A + 3 ideal states of a schedule, each computed when read
    from the closed-form constants held here; equal constants compare
    equal.

    ``states[i]`` is the ``(log2_t, log2_s)`` pair of state i, for
    0 <= i <= R_A + 2; ``rows()`` yields every ``(i, log2_t, log2_s)``
    row in order with no per-state object, for writers that walk the
    whole schedule.
    """

    R: int
    lt0: float
    ls0: float
    l2x: float
    l2y: float
    ls_bulk_end: float
    l2y1: float

    def __len__(self) -> int:
        return self.R + 3

    def __getitem__(self, i: int) -> tuple[float, float]:
        if not 0 <= i < len(self):
            raise IndexError("schedule state index out of range")
        return self._row(i)[1:]

    def rows(self) -> Iterator[tuple[int, float, float]]:
        return map(self._row, range(len(self)))

    def _row(self, i: int) -> tuple[int, float, float]:
        lt = self.lt0 + i * self.l2x
        if i <= self.R:
            ls = self.ls0 + i * self.l2y
        elif i == self.R + 1:
            ls = self.ls_bulk_end + self.l2y1
        else:
            ls = self.ls_bulk_end + self.l2y1 + self.l2x
        return i, lt, ls


class Schedule(Record):
    """A built schedule, always the ideal one.  Its states and its
    bulk-end, penultimate and final milestones are ``(log2_t, log2_s)``
    pairs; ``states.rows()`` yields ``(i, log2_t, log2_s)`` rows, and
    :func:`floored_states` replays it with floors.

    ``bulk`` is the exact pair (x_b, y_b) of bulk multipliers, and
    ``x_bulk`` and ``y_bulk`` their floats.  ``beta_k`` is beta*k as an
    exact ``int`` when k and a are integral, else ``None``; every exact
    path reads these two fields."""

    params: BoundParams
    beta: float
    log2_beta_k: float
    bulk: tuple[Fraction, Fraction]
    beta_k: int | None
    y_penultimate: float
    bulk_steps: int
    states: _IdealStates
    milestones: tuple[tuple[float, float], ...]

    @property
    def x_bulk(self) -> float:
        return float(self.bulk[0])

    @property
    def y_bulk(self) -> float:
        return float(self.bulk[1])

    def exact_beta_k(self) -> int:
        """``beta_k``, which the exact floored replay needs; a schedule
        whose k or a is not integral has none and is refused."""
        if self.beta_k is None:
            raise PreconditionViolated(
                "exact floored replay needs integral k and hypothesis exponent"
            )
        return self.beta_k

    def header(self) -> dict:
        """Every report field of the schedule except its states.  The
        three floor fields hold their ideal values; a floored report
        overrides them from :func:`floored_states`."""
        return {
            "params": self.params.to_jsonable(),
            "beta": self.beta,
            "x_b": self.x_bulk,
            "y_b": self.y_bulk,
            "y_1": self.y_penultimate,
            "R_A": self.bulk_steps,
            "log2_beta_k": self.log2_beta_k,
            "floors_applied": False,
            "floor_drift_t": None,
            "floor_drift_s": None,
            "milestone_note": _MILESTONE_NOTE,
            "milestones": {
                label: _state_jsonable(self.bulk_steps + j, *state)
                for j, (label, state) in enumerate(zip(_MILESTONE_LABELS, self.milestones))
            },
        }

    def to_jsonable(self) -> dict:
        """The header fields plus one dict per state, built from the
        state rows."""
        return {**self.header(), "states": list(starmap(_state_jsonable, self.states.rows()))}


def build_schedule(params: BoundParams) -> Schedule:
    """Assemble the ideal (floor-free) recursion schedule for the given
    constants.  Its states are a read-only sequence over the closed-form
    constants that computes each state when it is read.  The exact
    floored replay of the schedule is :func:`floored_states`.

    Each exact constant is fixed here once: the bulk multipliers
    x_b = (c-1)/c and y_b = (16c^2-8c-1)/(16c^2) as ``Fraction``s, and
    beta*k = 2c*k^a as an ``int`` when k and a are integral
    (:func:`permx.limits.is_integral`), with k read at its decimal
    repr as every exact value is.
    """
    k, a, c = params.k, params.a, params.c
    x_frac = Fraction(c - 1, c)
    y_frac = Fraction(16 * c * c - 8 * c - 1, 16 * c * c)
    x_b, y_b = float(x_frac), float(y_frac)
    l2x = math.log2(x_frac.numerator) - math.log2(x_frac.denominator)
    l2y = math.log2(y_frac.numerator) - math.log2(y_frac.denominator)
    l2k = math.log2(k)
    log2_beta_k = math.log2(2 * c) + a * l2k
    log2_beta = math.log2(2 * c) + (a - 1.0) * l2k
    if log2_beta >= 1024:
        raise PreconditionViolated(
            f"beta = 2c*k^(a-1) overflows a double at k={shown(k)}, a={shown(a)}")
    beta = 2.0 ** log2_beta

    # step count: contraction ratio of sqrt(t)/s must close the gap
    denom = math.log(y_b) - 0.5 * math.log(x_b)
    if denom <= 0:
        raise PreconditionViolated("bulk multipliers cannot close the weight gap")
    q = 1.0 + (math.log(c) + 0.5 * log2_beta_k * _LN2) / denom
    if q > MAX_SCHEDULE_STEPS:
        raise ResourceLimit(
            f"the schedule needs {q:.0f} bulk steps, over the {MAX_SCHEDULE_STEPS}-step limit"
        )
    bulk_steps = math.ceil(q)
    # beta and k are below 2^1024, so beta*k has under 2048 bits
    beta_k = 2 * c * _ratio(k)[0] ** int(a) if is_integral(k) and is_integral(a) else None

    lt0 = log2_beta_k - (bulk_steps + 2) * l2x
    ls0 = lt0 / 2.0
    ls_bulk_end = ls0 + bulk_steps * l2y
    l2y1 = log2_beta_k - l2x - ls_bulk_end
    y_penultimate = 2.0 ** l2y1

    milestones = (
        (
            log2_beta_k - 2 * l2x,
            0.5 * log2_beta_k - (bulk_steps / 2.0 + 1.0) * l2x + bulk_steps * l2y,
        ),
        (log2_beta_k - l2x, log2_beta_k - l2x),
        (log2_beta_k, log2_beta_k),
    )

    return Schedule(
        params=params,
        beta=beta,
        log2_beta_k=log2_beta_k,
        bulk=(x_frac, y_frac),
        beta_k=beta_k,
        y_penultimate=y_penultimate,
        bulk_steps=bulk_steps,
        states=_IdealStates(bulk_steps, lt0, ls0, l2x, l2y, ls_bulk_end, l2y1),
        milestones=milestones,
    )


def floored_states(schedule: Schedule) -> tuple[Sequence[float], Sequence[float], float, float]:
    """The exact floored replay of an ideal schedule, as
    ``(log2_t, log2_s, drift_t, drift_s)``.

    ``log2_t`` and ``log2_s`` are two ``array("d")`` columns holding the
    log2 of each floored integer width and weight, indices 0 to
    R_A + 2, filled as the replay steps, so each wide integer pair is
    dropped once its log2 is stored.  The drifts are beta*k minus the
    last integer pair, taken exactly and then as floats: how far the
    final state fell below the target.  Needs integral k and a, else
    raises PreconditionViolated before any step is replayed.
    """
    from array import array  # here, not at import: it costs every cold start

    beta_k = schedule.exact_beta_k()
    log2_t, log2_s = array("d"), array("d")
    for t_fl, s_fl in _floored_replay(schedule):
        log2_t.append(_log2_int(t_fl))
        log2_s.append(_log2_int(s_fl))
    return log2_t, log2_s, float(beta_k - t_fl), float(beta_k - s_fl)


def _floored_start(schedule: Schedule) -> tuple[int, int]:
    """The floored start floor(t_0) and floor(sqrt(t_0)), with
    t_0 = beta k / x_b^(R+2), of a schedule with an exact beta k."""
    xn, xd = schedule.bulk[0].as_integer_ratio()
    e = schedule.bulk_steps + 2
    t = schedule.beta_k * xd ** e // xn ** e
    return t, math.isqrt(t)


def _floored_tail(schedule: Schedule, t: int, s: int):
    """The penultimate and final floored states after the bulk end (t, s).

    The penultimate step applies y_1 = sqrt(beta k x^R) / y^R exactly,
    so s becomes floor(sqrt(p/q)) with p/q = s^2 beta k x^R / y^(2R);
    floor(sqrt(p/q)) = isqrt(p // q), since (m+1)^2 > p // q implies
    (m+1)^2 >= p // q + 1 > p/q."""
    (xn, xd), (yn, yd) = (f.as_integer_ratio() for f in schedule.bulk)
    t = t * xn // xd
    s = _root_of_power_quotient(
        s * s * schedule.beta_k, yd * yd * xn, yn * yn * xd, schedule.bulk_steps
    )
    return (t, s), (t * xn // xd, s * xn // xd)


def _floored_replay(schedule: Schedule) -> Iterator[tuple[int, int]]:
    """Exact integer trajectory with every t and s floored, starting
    from floor(t_0) and floor(sqrt(t_0)); yields the integer (t, s) of
    every state, indices 0 to R_A + 2."""
    (xn, xd), (yn, yd) = (f.as_integer_ratio() for f in schedule.bulk)
    t, s = _floored_start(schedule)
    yield t, s
    for _ in range(schedule.bulk_steps):
        t = t * xn // xd
        s = s * yn // yd
        yield t, s
    yield from _floored_tail(schedule, t, s)


def _floored_final(schedule: Schedule) -> tuple[int, int]:
    """The last (t, s) of :func:`_floored_replay`, with the bulk steps
    taken in blocks (:func:`_floor_steps`)."""
    (xn, xd), (yn, yd) = (f.as_integer_ratio() for f in schedule.bulk)
    t, s = _floored_start(schedule)
    t = _floor_steps(t, xn, xd, schedule.bulk_steps)
    s = _floor_steps(s, yn, yd, schedule.bulk_steps)
    return _floored_tail(schedule, t, s)[1]


def _floor_steps(v: int, n: int, d: int, steps: int) -> int:
    """F^steps(v) for the floored step F(v) = v*n // d.

    For v = u*d^m + r and j <= m, F^j(v) = u*n^j*d^(m-j) + F^j(r): each
    step takes u*n^j*d^(m-j-1) out of the floor whole.  So m steps cost
    one divmod by d^m and one multiply by n^m on the wide v, and only
    r < d^m is stepped one at a time.  m is the largest block with
    d^m < 2^60 (at least 1), so r stays a small integer: m = 23 for
    x_b = 5/6, m = 6 for y_b = 527/576.
    """
    m = 1
    while d ** (m + 1) < 1 << 60:
        m += 1
    dm, nm = d ** m, n ** m
    blocks, rest = divmod(steps, m)
    for _ in range(blocks):
        u, r = divmod(v, dm)
        for _ in range(m):
            r = r * n // d
        v = u * nm + r
    for _ in range(rest):
        v = v * n // d
    return v


def _power_quotient_bracket(p: int, a: int, b: int, e: int) -> tuple[int, int]:
    """(lo, hi) with lo <= p * a^e // b^e <= hi, for 0 < a < b.

    (a/b)^e is bracketed by repeated squaring on mantissas of w bits,
    rounding the low end down and the high end up after every product,
    so neither end builds a^e or b^e.  Each rounding widens hi/lo by a
    factor of at most 1 + 2^(1-w), and squaring doubles the width so
    far, so hi/lo stays below 1 + 2^(bits(e) + 3 - w).  With
    w = bits(p) + bits(e) + 64 and a < b, the two quotients differ only
    when p * (a/b)^e lies within about 2^-61 of an integer.
    """
    w = p.bit_length() + e.bit_length() + 64
    lo = hi = 1
    shift = 0  # lo/2^shift <= (a/b)^(bits taken so far) <= hi/2^shift
    base_shift = w + b.bit_length() - a.bit_length()  # base_lo >= 2^(w-1)
    base_lo = (a << base_shift) // b
    base_hi = base_lo + 1
    while True:
        if e & 1:
            lo, hi, shift = _bracket_product(lo * base_lo, hi * base_hi, shift + base_shift, w)
        e >>= 1
        if not e:
            return p * lo >> shift, p * hi >> shift
        base_lo, base_hi, base_shift = _bracket_product(
            base_lo * base_lo, base_hi * base_hi, 2 * base_shift, w
        )


def _bracket_product(lo: int, hi: int, shift: int, w: int) -> tuple[int, int, int]:
    """lo and hi cut to about w bits, lo rounded down and hi up."""
    cut = max(0, lo.bit_length() - w)
    return lo >> cut, -(-hi >> cut), shift - cut


def _root_of_power_quotient(p: int, a: int, b: int, e: int) -> int:
    """isqrt(p * a^e // b^e), for 0 < a < b.

    The quotient is bracketed (:func:`_power_quotient_bracket`); when
    both ends have the same integer root, that root is exact, since
    isqrt is monotone.  Otherwise the quotient is taken exactly."""
    lo, hi = _power_quotient_bracket(p, a, b, e)
    root = math.isqrt(lo)
    if root == math.isqrt(hi):
        return root
    return math.isqrt(p * a ** e // b ** e)


def _log2_int(v: int) -> float:
    return math.log2(v) if v > 0 else -math.inf


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

class CertCheck(Record):
    """One named constraint; holds iff lhs relates to rhs as the check's
    comparison demands (documented per check in certify_schedule)."""

    name: str
    holds: bool
    lhs: float
    rhs: float


class CertReport(Record):
    checks: tuple[CertCheck, ...]

    def __init__(self, checks):
        names = [c.name for c in checks]
        if len(set(names)) != len(names):
            raise PreconditionViolated("duplicate check names in report")
        super().__init__(checks)

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)

    def by_name(self, name: str) -> CertCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_jsonable(self) -> dict:
        return {**super().to_jsonable(), "all_pass": self.all_pass}


def certify_schedule(schedule: Schedule) -> CertReport:
    """Numerically verify every constraint the schedule construction
    needs, reading k, a and c from ``schedule.params`` and the ideal
    states from ``schedule.states``.  Failing constraints are report
    entries, never exceptions: small k legitimately fails.  Float
    comparisons allow a fixed slack tol = 1e-9, absolute or relative as
    each check states; no caller changes it.

    Checks (lhs vs rhs):
      multiplier admissibility: 1/c <= x_b + tol, since x_b = 1 - 1/c
        equals 1/c at c = 2, where floor(x_b c) = 1 is still the floor
        the construction needs; y_1 < 1; y_1 equals its closed form
        sqrt(beta k) * x_b^(R_A/2) / y_b^R_A;
      per-step state constraints (log2 scale): k^a below min_j
        s_j(1-y_j); max_j (log2 s_j - log2 t_j) <= 0;
      step costs: bulk ratio A_(j+1)/A_j <= 2; A_R_A and A_(R_A+1)
        within A_0;
      milestones (log2 scale): bulk-end, penultimate, and final states
        match their closed forms; final state hits the target;
      floors (integral k and a only): the last state of the exact
        floored replay stays at or below the target in t and s, and the
        s shortfall is at most 1/(1-y_b).  That state is reached with
        the bulk steps taken in blocks of m (one wide divmod by d^m and
        one wide multiply by n^m per block, m the largest with
        d^m < 2^60) and the penultimate root bracketed in fixed point,
        falling back to the exact division when the bracket's ends
        disagree; it equals the step-by-step replay's last state.

    The per-step constraints read only the states at i = 0, R-2, R-1,
    R and R+1 (y_j = y_b before R, y_1 at R, x_b at R+1) and the shape
    check also R+2, with the same float expressions a loop over every
    step would use, so the report is the one such a loop gives:
      - in the bulk steps log2 s_i falls by |log2 y_b| per step, so the
        weight margin log2 s_i + log2(1-y_b) is least at R-1;
      - log2 s_i - log2 t_i rises by log2 y_b - log2 x_b > 0 per step,
        so its maximum is at the end;
      - a cost is infinite iff k^a c reaches s_i(1-y_i)c; adding the
        same log2 c to both sides keeps that float comparison monotone,
        so an infinite cost appears somewhere iff it appears at the
        weight-margin minimum;
      - the bulk cost ratio x_b(S - K)/(y_b S - K), with S = s_j(1-y_b)c
        and K = k^a c, rises as S falls, so its maximum is at j = R-2;
      - the penultimate and final ratios compare A_R and A_(R+1) with
        A_0.
    ``build_schedule`` takes R_A = ceil(q) for some q > 1, so R_A >= 2
    and the indices are states of the schedule.
    """
    params = schedule.params
    k, a, c = params.k, params.a, params.c
    R = schedule.bulk_steps
    assert R >= 2, R
    x_b, y_b, y_1 = schedule.x_bulk, schedule.y_bulk, schedule.y_penultimate
    l2k = math.log2(k)
    lbk = schedule.log2_beta_k
    l2x = math.log2(x_b)

    checks: list[CertCheck] = []

    def add(name, holds, lhs, rhs):
        checks.append(CertCheck(name, bool(holds), float(lhs), float(rhs)))

    # x_b = 1 - 1/c touches 1/c exactly at c = 2; the floor the
    # constraint protects is still >= 1 there, so tolerance applies
    add("x_b_above_inverse_c", 1.0 / c <= x_b + _TOL, 1.0 / c, x_b)
    add("y_penultimate_below_one", y_1 < 1.0, y_1, 1.0)

    y1_closed = 2.0 ** (0.5 * lbk + (R / 2.0) * l2x - R * math.log2(y_b))
    add(
        "y_penultimate_closed_form",
        abs(y_1 - y1_closed) <= _TOL * max(y_1, y1_closed),
        y_1,
        y1_closed,
    )

    steps = (0, R - 2, R - 1, R, R + 1)
    states = {i: schedule.states[i] for i in (*steps, R + 2)}
    la = a * l2k

    min_weight_margin = math.inf
    log_costs = {}
    for i in steps:
        lt, ls = states[i]
        y_i = y_b if i < R else y_1 if i == R else x_b
        lw = ls + math.log2(1.0 - y_i)
        min_weight_margin = min(min_weight_margin, lw)
        # cost A_i = k^a t_i / (s_i (1-y_i) c - k^a c), in log2
        l_big = lw + math.log2(c)
        l_small = la + math.log2(c)
        if l_small >= l_big:
            log_costs[i] = math.inf
        else:
            l_den = l_big + math.log1p(-(2.0 ** (l_small - l_big))) / _LN2
            log_costs[i] = la + lt - l_den
    max_shape_margin = max(ls - lt for lt, ls in states.values())

    add(
        "row_weight_exceeds_hypothesis_log2",
        la < min_weight_margin,
        la,
        min_weight_margin,
    )
    add("width_at_least_weight_log2", max_shape_margin <= _TOL, max_shape_margin, 0.0)

    infinite_cost = any(math.isinf(lc) for lc in log_costs.values())
    for name, i, j, limit in (
        ("bulk_cost_ratio_at_most_two", R - 1, R - 2, 2.0),
        ("penultimate_cost_within_initial", R, 0, 1.0),
        ("final_cost_within_initial", R + 1, 0, 1.0),
    ):
        ratio = math.inf if infinite_cost else 2.0 ** (log_costs[i] - log_costs[j])
        add(name, ratio <= limit + _TOL, ratio, limit)

    scale = max(1.0, abs(lbk))
    ends = (states[R], states[R + 1], states[R + 2])
    for label, state, milestone in zip(_MILESTONE_LABELS, ends, schedule.milestones):
        for axis, got, want in zip("ts", state, milestone):
            add(f"milestone_{label}_{axis}_log2", abs(got - want) <= _TOL * scale, got, want)
    lt, ls = states[R + 2]
    add(
        "final_state_hits_target_log2",
        abs(lt - lbk) <= _TOL * scale and abs(ls - lbk) <= _TOL * scale,
        lt,
        lbk,
    )

    beta_k = schedule.beta_k
    if beta_k is not None:
        # only the final state is checked, and it is reached in blocks
        # of bulk steps; the trajectory of wide integers is never held
        t_fl, s_fl = _floored_final(schedule)
        for axis, value in (("width", t_fl), ("weight", s_fl)):
            add(f"floored_final_{axis}_le_target", value <= beta_k, value / beta_k, 1.0)
        envelope = float(1 / (1 - schedule.bulk[1]))  # 1/(1-y_b)
        drift = float(beta_k - s_fl)
        add("floored_final_weight_drift_le_envelope", drift <= envelope + _TOL, drift, envelope)

    return CertReport(tuple(checks))


def crude_fpts_bound(schedule: Schedule) -> float:
    """log2 of the unrolled-recursion bound
    c^(R+2)*k*binom(beta k, m) + (2c)^(R+2)*k^a*t_0/(s_0(1-y_b)c - k^a c)
    with m = ceil(1/(1-y_b)); the linear value overflows floats.  k, a
    and c come from ``schedule.params`` and (t_0, s_0) is its first
    state."""
    lt0, ls0 = schedule.states[0]
    params = schedule.params
    k, a, c = params.k, params.a, params.c
    R = schedule.bulk_steps
    y_b = schedule.y_bulk
    lbk = schedule.log2_beta_k
    l2k = math.log2(k)

    m = math.ceil(1 / (1 - schedule.bulk[1]))  # ceil(1/(1-y_b))
    beta_k = schedule.beta_k
    if beta_k is not None:
        falling = (math.log2(beta_k - i) for i in range(m))
    else:
        falling = (_log2_sub(lbk, i) for i in range(m))
    l_binom = sum(falling) - math.log2(math.factorial(m))  # log2 binom(beta k, m)
    term1 = (R + 2) * math.log2(c) + l2k + l_binom

    l_s0_term = ls0 + math.log2((1.0 - y_b) * c)
    l_ka_c = a * l2k + math.log2(c)
    if l_ka_c >= l_s0_term:
        raise PreconditionViolated(
            "s_0(1-y_b)c - k^a c <= 0; the schedule start is too small"
        )
    l_den = l_s0_term + math.log1p(-(2.0 ** (l_ka_c - l_s0_term))) / _LN2
    term2 = (R + 2) * math.log2(2 * c) + a * l2k + lt0 - l_den

    hi, lo = max(term1, term2), min(term1, term2)
    return hi + math.log1p(2.0 ** (lo - hi)) / _LN2


def _log2_sub(log2_value: float, delta: int) -> float:
    """log2(2**log2_value - delta) for delta tiny against the value."""
    if log2_value > 100:
        return log2_value + math.log1p(-delta * 2.0 ** (-log2_value)) / _LN2
    return math.log2(2.0 ** log2_value - delta)
