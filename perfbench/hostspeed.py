"""Host-speed reference: a fixed pure-Python unit of work timed beside
the work being measured.

The benchmark's host is a shared 2-vCPU machine.  Each vCPU switches
between a fast and a slow state every few seconds, independently of the
other vCPU, and process CPU time moves with wall time.  So neither clock
repeats, and a reference timed on the other vCPU says nothing about
this one.

``Ticker`` therefore samples the speed of the very thread doing the
work: a timer signal every ``TICK_S`` times one reference unit and
records its (start, end) stamps.  The unit mixes integer arithmetic,
recursive calls and container updates, since the slow state hurts each
of them differently and permx's searches use all three.  ``Speed``
turns a worker interval into *nominal* seconds, the time it would take
where one unit takes ``NOMINAL_MS``, after removing the ticks' own time.
Stamps are ``perf_counter`` (CLOCK_MONOTONIC).
"""

from __future__ import annotations

import bisect
import signal
import time

NOMINAL_MS = 0.4  # about one unit's time on the defining host
TICK_S = 0.05
WINDOW_S = 0.5  # ticks this close to a short interval stand in for it


def _calls(n):
    return n if n < 2 else _calls(n - 1) + _calls(n - 2)


def unit() -> None:
    """The fixed reference work."""
    acc = 0
    for i in range(2000):
        acc = (acc + i * i) % 1_000_003
    _calls(14)
    used, stack, seen, last = bytearray(40), [], set(), {}
    for i in range(300):
        v = i * 7 % 40
        if used[v]:
            used[v] = 0
            if stack:
                stack.pop()
        else:
            used[v] = 1
            stack.append(v)
        seen.add(i & 63)
        last[i & 31] = v


def reference_ms(units: int = 1) -> float:
    """Mean milliseconds of one unit over ``units`` back-to-back units."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) * 1e3 / units


class Ticker:
    """Samples this thread's speed from a SIGALRM timer while running."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        a = time.perf_counter()
        unit()
        self.ticks.append((a, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Speed:
    """Nominal-time conversion from a worker's ticks."""

    def __init__(self, ticks):
        self.starts = [a for a, _ in ticks]
        self.ends = [b for _, b in ticks]
        self.factor = [NOMINAL_MS / ((b - a) * 1e3) for a, b in ticks]

    def nominal(self, a: float, b: float) -> float:
        """Nominal seconds of the interval [a, b]: its length less the
        ticks inside it, times the mean speed factor of the ticks within
        WINDOW_S of it."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no speed samples near [{a}, {b}]")
        inside = sum(
            min(b, self.ends[i]) - max(a, self.starts[i])
            for i in range(lo, hi)
            if self.starts[i] < b and self.ends[i] > a
        )
        factor = sum(self.factor[lo:hi]) / (hi - lo)
        return (b - a - inside) * factor

    def unit_ms(self) -> list[float]:
        return [NOMINAL_MS / f for f in self.factor]
