"""Spans at permx's module boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
permx module that binds it, its defining module included, so calls
through a module global (``gpts_exact`` -> ``fpts_exact``,
``certify_schedule`` -> ``build_schedule``) are seen as well.  Each call
appends one span (name, start, end, parent) to flat arrays kept in
memory; ``summary`` derives per-function self times and work counts and
``dump`` writes the raw spans out.  Generator functions get one span per
resumption, so their self time is the work done producing each item.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("core", "avoidance", "extremal", "bounds", "cli")

# Public functions traced per layer.  Helpers called once per request
# (parsing, matrix conversion) are left inside their caller's span.
TRACED = {
    "core": ("completes_at_end", "contains", "matrix_contains", "blockable_decompositions",
             "inflate", "direct_sum", "skew_sum"),
    "avoidance": ("count_avoiders", "avoiders", "merge_member", "verify_jv_inclusion",
                  "merge_count_upper_check"),
    "extremal": ("exfn_exact", "fpts_exact", "gpts_exact", "check_lemma21", "check_lemma22"),
    "bounds": ("build_schedule", "certify_schedule", "crude_fpts_bound", "lemma21_bound",
               "lemma22_rhs", "theorem24_alpha", "theorem12_exponent"),
    "cli": ("main", "build_parser", "render"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.span_values: dict[int, int] = {}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        enter, leave = self._enter, self._exit
        on_result = self._result_hook(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(i)
                    self._add(name + ".yielded", 1)
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(i)
            if on_result is not None:
                on_result(i, result)
            return result
        return traced

    def _result_hook(self, name: str):
        """Work counts read off a traced function's return value."""
        add = self._add
        if name == "avoidance.count_avoiders":
            return lambda i, r: self.span_values.__setitem__(i, r)
        if name == "avoidance.merge_member":
            return lambda i, r: add(name + ".accepted", int(bool(r)))
        if name in ("extremal.exfn_exact", "extremal.fpts_exact"):
            def searched(i, r):
                add(name + ".nodes", r.nodes_explored)
                add("extremal.searches", 1)
                # a search stopped at the row cap its caller chose has not
                # run out of budget; lemma certifiers cap on purpose
                add("extremal.proven", int(r.proven_optimal or getattr(r, "hit_row_cap", False)))
            return searched
        if name == "bounds.build_schedule":
            return lambda i, r: add(name + ".states", len(r.states))
        if name == "cli.render":
            return lambda i, r: add(name + ".bytes", len(r.encode()))
        return None

    def install(self, permx) -> None:
        modules = [getattr(permx, layer) for layer in LAYERS]
        for layer, names in TRACED.items():
            for attr in names:
                original = getattr(getattr(permx, layer), attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s; plus work counts and the
        accept ratio of counting spans over their containment steps.

        Spans are stored in entry order, so every parent precedes its
        children; self time is duration minus the children's durations."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        per_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = per_name[self.names[name_of[i]]]
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += dur / 1e9
            entry["self_s"] += (dur - child_ns[i]) / 1e9

        # completes_at_end calls under each count_avoiders span
        counting = self.names.index("avoidance.count_avoiders")
        step = self.names.index("core.completes_at_end")
        owner = array("i", [-1]) * n
        steps_under: dict[int, int] = {}
        for i in range(n):
            nid = name_of[i]
            if nid == counting:
                owner[i] = i
            elif parent[i] >= 0:
                owner[i] = owner[parent[i]]
                if nid == step and owner[i] >= 0:
                    steps_under[owner[i]] = steps_under.get(owner[i], 0) + 1
        counted = sum(self.span_values.get(i, 0) for i in steps_under)
        return {
            "spans": n,
            "per_name": per_name,
            "counts": dict(self.counts),
            "count_avoiders_accepted": counted,
            "count_avoiders_steps": sum(steps_under.values()),
        }

    def dump(self, path: Path) -> None:
        """Raw spans: a JSON header line, then the four arrays back to back
        (name id uint16, parent int32, start and end int64 ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        with path.open("wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
