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
(binomials, the floored replay) are exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import starmap

from .errors import PreconditionViolated, ResourceLimit
from .limits import MAX_REPORT_DIGITS, MAX_SCHEDULE_STEPS
from .record import Record

_LN2 = math.log(2.0)
_TOL = 1e-9  # float slack of the certificate's comparisons
_REPORT_CEILING = 10**MAX_REPORT_DIGITS  # str() refuses ints this large
_MILESTONE_NOTE = (
    "milestone exponents are evaluated with the bulk multipliers; "
    "fractional exponents like R_A/2 are taken as reals"
)
_MILESTONE_LABELS = ("bulk_end", "penultimate", "final")


def _as_fraction(value, name: str) -> Fraction:
    """Exact rational view of a constant; floats are read at their
    decimal repr so e.g. 0.1 means 1/10."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise PreconditionViolated(f"{name} must be finite, got {value!r}")
        return Fraction(str(value))
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise PreconditionViolated(f"{name} is not a rational constant: {value!r}") from exc


def _pow_ka(k, a, s) -> Fraction:
    """k**a as an exact rational when a is integral, else the exact
    value of the double-precision power.

    k^a must lie within 2^-1023 .. 2^1023, and every caller needs
    k^a < s: a k^a above 2s raises ``PreconditionViolated``.  Both are
    decided in log2 space before any power is built, so a huge exponent
    neither builds a huge exact power nor overflows a double.
    """
    kf = _as_fraction(k, "k")
    if kf < 1:
        raise PreconditionViolated(f"need k >= 1, got {k}")
    if not math.isfinite(a):
        raise PreconditionViolated(f"a must be finite, got {a!r}")
    log2_ka = a * math.log2(k)
    if abs(log2_ka) > 1023:
        raise PreconditionViolated(f"need |a*log2(k)| <= 1023, got {log2_ka:g}")
    if log2_ka > math.log2(s) + 1:
        raise PreconditionViolated(f"need s > k^a, got s={s}, k^a=2^{log2_ka:g}")
    if _is_integral(a):
        return kf ** int(a)
    return Fraction(float(k) ** float(a))


def _is_integral(a) -> bool:
    return isinstance(a, int) or (isinstance(a, float) and a.is_integer())


def _check_block_count(c) -> None:
    """Refuse a block count that is not an int of at least 2; unlike
    :func:`theorem24_alpha`, these callers take no integral float."""
    if not isinstance(c, int):
        raise PreconditionViolated(f"block count c must be an integer, got {c}")
    if c < 2:
        raise PreconditionViolated(f"need c >= 2, got {c}")


def _binom_digits(n: int, k: int) -> float:
    """Upper bound on the decimal digits of binom(n, k), from
    binom(n, k) <= (e*n/k)^k; cheap enough to check before math.comb."""
    k = min(k, n - k)
    return 1 + (k * math.log10(math.e * n / k) if k > 0 else 0)


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
    if k < 1:
        raise PreconditionViolated(f"need k >= 1, got {k}")
    digits = math.log10(2 * k ** 4) + _binom_digits(k * k, k)
    if digits > MAX_REPORT_DIGITS:
        raise ResourceLimit(
            f"2k^4*binom(k^2, k) may have {digits:.0f} digits, over {MAX_REPORT_DIGITS}"
        )
    return 2 * k ** 4 * math.comb(k * k, k)


def lemma21_bound(k: int, a, t: int, s: int) -> Fraction:
    """Row-count bound k^a*t/(s - k^a) for hosts with s ones per row,
    valid once s clears k^a."""
    if k < 1:
        raise PreconditionViolated(f"need k >= 1, got {k}")
    if not 1 <= s <= t:
        raise PreconditionViolated(f"need 1 <= s <= t, got s={s}, t={t}")
    ka = _pow_ka(k, a, s)
    s_f = _as_fraction(s, "s")
    if s_f <= ka:
        raise PreconditionViolated(f"need s > k^a, got s={s}, k^a={float(ka):g}")
    return ka * _as_fraction(t, "t") / (s_f - ka)


def lemma22_rhs(k: int, a, c: int, t: int, s: int, x, y, f_sub: int) -> Fraction:
    """One recursion step: binom(c, floor(xc)) * f_sub plus the
    second-term ratio, with the caller supplying the shrunken-instance
    value f_sub."""
    return _lemma22_side(k, a, c, t, s, x, y, f_sub)(f_sub)


def _lemma22_side(k, a, c, t, s, x, y, f_sub):
    """The right side of :func:`lemma22_rhs` as a function of f_sub,
    once every constant and f_sub are validated.  It is affine in f_sub,
    binom(c, floor(xc)) * f_sub plus its value at 0, so one validation
    serves every f_sub."""
    _check_block_count(c)
    if not 1 <= s <= t:
        raise PreconditionViolated(f"need 1 <= s <= t, got s={s}, t={t}")
    if f_sub < 0:
        raise PreconditionViolated(f"need f_sub >= 0, got {f_sub}")
    xf = _as_fraction(x, "x")
    yf = _as_fraction(y, "y")
    if not 0 < xf < 1:
        raise PreconditionViolated(f"need 0 < x < 1, got {x}")
    if not 0 < yf < 1:
        raise PreconditionViolated(f"need 0 < y < 1, got {y}")
    if xf <= Fraction(1, c):
        raise PreconditionViolated(f"need x > 1/c, got x={x}, c={c}")
    fxc = int(xf * c)  # floor; >= 1 because x > 1/c
    ka = _pow_ka(k, a, s)
    denom = _as_fraction(s, "s") * (1 - yf * Fraction(c - 1, fxc)) * c - ka * c
    if denom <= 0:
        raise PreconditionViolated(
            f"s(1 - y(c-1)/floor(xc))c - k^a c = {float(denom):g} <= 0"
        )
    digits = _binom_digits(c, fxc)
    if digits > MAX_REPORT_DIGITS:
        raise ResourceLimit(
            f"binom(c, floor(xc)) may have {digits:.0f} digits, over {MAX_REPORT_DIGITS}"
        )
    factor = math.comb(c, fxc)
    rest = _reportable(ka * _as_fraction(t, "t") / denom, "lemma22 rhs")
    return lambda f_sub: _reportable(factor * Fraction(f_sub) + rest, "lemma22 rhs")


def theorem24_alpha(a, c: int) -> float:
    """Exponent alpha = 2a + 8c^2 + 32ac^2 ln c in the k^alpha * n
    extremal bound.  Constants whose alpha, or twice it, overflows a
    double are rejected."""
    if not 0 < a < math.inf:
        raise PreconditionViolated(f"need finite a > 0, got {a}")
    if not _is_integral(c):
        raise PreconditionViolated(f"block count c must be an integer, got {c}")
    if c < 2:
        raise PreconditionViolated(f"need c >= 2, got {c}")
    try:
        alpha = 2.0 * a + 8.0 * c * c + 32.0 * a * c * c * math.log(c)
    except OverflowError:  # an int a or c beyond the double range
        alpha = math.inf
    if not math.isfinite(2.0 * alpha):
        raise PreconditionViolated(f"2*alpha = 4a + 16c^2 + 64ac^2 ln c overflows a double "
                           f"at a={a}, c={c}")
    return alpha


def theorem12_exponent(a, c: int) -> float:
    """Growth-rate exponent, exactly twice :func:`theorem24_alpha`;
    finite, since that function rejects an alpha whose double is not."""
    return 2.0 * theorem24_alpha(a, c)


def fox_rhs(ex_table, t: int, s: int, f_val: int, g_val: int, n: int) -> int:
    """Right side ex(s-1)*ex(n) + ex(t)*(f+g)*n of the blow-up
    inequality, from caller-supplied exact table values.  The row
    counts f and g must be nonnegative, and t, s and n positive."""
    if f_val < 0 or g_val < 0:
        raise PreconditionViolated(f"need f, g >= 0, got f={f_val}, g={g_val}")
    for name, value in (("t", t), ("s", s), ("n", n)):
        if value < 1:  # no ex table holds the key s - 1 < 0
            raise PreconditionViolated(f"need {name} >= 1, got {value}")
    out = {}
    for key in (s - 1, t, n):
        if key not in ex_table:
            raise PreconditionViolated(f"ex table is missing an entry for n={key}")
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
        if not math.isfinite(k):
            raise PreconditionViolated(f"need finite k, got {k}")
        if k < 2:
            raise PreconditionViolated(f"need k >= 2, got {k}")
        _check_block_count(c)
        if not 0 < a < math.inf:
            raise PreconditionViolated(f"need finite a > 0, got {a}")
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
    :func:`floored_states` replays it with floors."""

    params: BoundParams
    beta: float
    log2_beta_k: float
    x_bulk: float
    y_bulk: float
    y_penultimate: float
    bulk_steps: int
    states: _IdealStates
    milestones: tuple[tuple[float, float], ...]

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


def _bulk_constants(params: BoundParams):
    c = params.c
    x_frac = Fraction(c - 1, c)
    y_frac = Fraction(16 * c * c - 8 * c - 1, 16 * c * c)
    return x_frac, y_frac


def build_schedule(params: BoundParams) -> Schedule:
    """Assemble the ideal (floor-free) recursion schedule for the given
    constants.  Its states are a read-only sequence over the closed-form
    constants that computes each state when it is read.  The exact
    floored replay of the schedule is :func:`floored_states`.
    """
    k, a, c = params.k, params.a, params.c
    x_frac, y_frac = _bulk_constants(params)
    x_b, y_b = float(x_frac), float(y_frac)
    l2x = math.log2(x_frac.numerator) - math.log2(x_frac.denominator)
    l2y = math.log2(y_frac.numerator) - math.log2(y_frac.denominator)
    l2k = math.log2(k)
    log2_beta_k = math.log2(2 * c) + a * l2k
    log2_beta = math.log2(2 * c) + (a - 1.0) * l2k
    if log2_beta >= 1024:
        raise PreconditionViolated(f"beta = 2c*k^(a-1) overflows a double at k={k}, a={a}")
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
        x_bulk=x_b,
        y_bulk=y_b,
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

    beta_k = _beta_k_int(schedule.params)
    log2_t, log2_s = array("d"), array("d")
    for t_fl, s_fl in _floored_replay(schedule.params, schedule.bulk_steps):
        log2_t.append(_log2_int(t_fl))
        log2_s.append(_log2_int(s_fl))
    return log2_t, log2_s, float(beta_k - t_fl), float(beta_k - s_fl)


def _beta_k_int(params: BoundParams) -> int:
    if not _is_integral(params.a) or not _is_integral(params.k):
        raise PreconditionViolated(
            "exact floored replay needs integral k and hypothesis exponent"
        )
    return 2 * params.c * int(_as_fraction(params.k, "k")) ** int(params.a)


def _floored_start(params: BoundParams, bulk_steps: int):
    """The bulk multipliers as (numerator, denominator) pairs, beta*k,
    and the floored start: floor(t_0) and floor(sqrt(t_0)), with
    t_0 = beta k / x^(R+2)."""
    (xn, xd), (yn, yd) = (f.as_integer_ratio() for f in _bulk_constants(params))
    beta_k = _beta_k_int(params)
    t = beta_k * xd ** (bulk_steps + 2) // xn ** (bulk_steps + 2)
    return xn, xd, yn, yd, beta_k, t, math.isqrt(t)


def _floored_tail(t, s, xn, xd, yn, yd, beta_k, bulk_steps):
    """The penultimate and final floored states after the bulk end (t, s).

    The penultimate step applies y_1 = sqrt(beta k x^R) / y^R exactly,
    so s becomes floor(sqrt(p/q)) with p/q = s^2 beta k x^R / y^(2R);
    floor(sqrt(p/q)) = isqrt(p // q), since (m+1)^2 > p // q implies
    (m+1)^2 >= p // q + 1 > p/q."""
    t = t * xn // xd
    s = _root_of_power_quotient(s * s * beta_k, yd * yd * xn, yn * yn * xd, bulk_steps)
    return (t, s), (t * xn // xd, s * xn // xd)


def _floored_replay(params: BoundParams, bulk_steps: int) -> Iterator[tuple[int, int]]:
    """Exact integer trajectory with every t and s floored, starting
    from floor(t_0) and floor(sqrt(t_0)); yields the integer (t, s) of
    every state, indices 0 to bulk_steps + 2."""
    xn, xd, yn, yd, beta_k, t, s = _floored_start(params, bulk_steps)
    yield t, s
    for _ in range(bulk_steps):
        t = t * xn // xd
        s = s * yn // yd
        yield t, s
    yield from _floored_tail(t, s, xn, xd, yn, yd, beta_k, bulk_steps)


def _floored_final(params: BoundParams, bulk_steps: int) -> tuple[int, int]:
    """The last (t, s) of :func:`_floored_replay`, with the bulk steps
    taken in blocks (:func:`_floor_steps`)."""
    xn, xd, yn, yd, beta_k, t, s = _floored_start(params, bulk_steps)
    t = _floor_steps(t, xn, xd, bulk_steps)
    s = _floor_steps(s, yn, yd, bulk_steps)
    return _floored_tail(t, s, xn, xd, yn, yd, beta_k, bulk_steps)[1]


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

    if _is_integral(a) and _is_integral(params.k):
        # only the final state is checked, and it is reached in blocks
        # of bulk steps; the trajectory of wide integers is never held
        t_fl, s_fl = _floored_final(params, R)
        beta_k = _beta_k_int(params)
        envelope = float(1 / (1 - _bulk_constants(params)[1]))  # 1/(1-y_b)
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
            drift <= envelope + _TOL,
            drift,
            envelope,
        )

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

    m = math.ceil(1 / (1 - _bulk_constants(params)[1]))  # ceil(1/(1-y_b))
    if _is_integral(a) and _is_integral(params.k):
        beta_k = _beta_k_int(params)
        l_binom = sum(math.log2(beta_k - i) for i in range(m)) - math.log2(
            math.factorial(m)
        )
    else:
        l_binom = sum(
            _log2_sub(lbk, i) for i in range(m)
        ) - math.log2(math.factorial(m))
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
