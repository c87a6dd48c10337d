#!/usr/bin/env python3
"""Time the layered-sum kernels of permx.avoidance on fixed cases, each
run in a fresh interpreter.

The cases are avoider counts of 1324 and 1342 at n = 13 and 14, the
merge count of (132, 312) at n = 10 and the JV inclusion check of
(1, 12, 21) at n = 8, each through its public function.  Every layered
sum a case runs is counted: the distinct states it expands, which is
the least node budget that sum needs.

stdout gets one line per case, its value and the states of each of its
sums, which depend on the code alone.  stderr gets the median wall time
over the repeats and the largest max RSS of the fresh processes, which
depend on the host.  --src runs the cases on another checkout's
src/ directory, so two trees compare on one host.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "count 1324 n=13": ("count", ("1324", 13)),
    "count 1342 n=13": ("count", ("1342", 13)),
    "count 1324 n=14": ("count", ("1324", 14)),
    "count 1342 n=14": ("count", ("1342", 14)),
    "merge 132,312 n=10": ("merge", ("132", "312", 10)),
    "jv 1,12,21 n=8": ("jv", ("1", "12", "21", 8)),
}


def run_case(name: str) -> dict:
    """Run one case in this process: its value, the distinct states each
    layered sum expanded, its wall time and this process's max RSS."""
    import resource

    from permx import avoidance
    from permx.core import parse_permutation

    states = []
    layers = avoidance._layers

    def counted(root, expand, n, budget):
        states.append(0)
        for i, layer in enumerate(layers(root, expand, n, budget)):
            if i < n:
                states[-1] += len(layer)
            yield layer

    avoidance._layers = counted
    kind, args = CASES[name]
    perms = [parse_permutation(a) for a in args[:-1]]
    start = time.perf_counter()
    if kind == "count":
        value = avoidance.count_avoiders(*perms, args[-1])
    elif kind == "merge":
        value = avoidance.merge_count_upper_check(*perms, args[-1]).lhs
    else:
        value = avoidance.verify_jv_inclusion(*perms, args[-1]).checked
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"value": value, "states": states, "seconds": seconds, "max_rss_mb": rss_mb}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="fresh processes per case (default: %(default)s)")
    ap.add_argument("--case", action="append", choices=sorted(CASES),
                    help="run only this case; repeatable (default: every case)")
    ap.add_argument("--src", type=Path, default=SRC,
                    help="the src/ directory to import permx from (default: this tree's)")
    ap.add_argument("--run", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.run:
        sys.path.insert(0, str(args.src))
        print(json.dumps(run_case(args.run)))
        return 0
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    for name in args.case or CASES:
        runs = []
        for _ in range(args.repeat):
            out = subprocess.run(
                [sys.executable, __file__, "--src", str(args.src.resolve()), "--run", name],
                check=True, capture_output=True, text=True,
            ).stdout
            runs.append(json.loads(out))
        first = runs[0]
        if any((r["value"], r["states"]) != (first["value"], first["states"]) for r in runs):
            raise RuntimeError(f"{name}: repeats disagree")
        print(f"{name}: value {first['value']}, states {' + '.join(map(str, first['states']))}",
              flush=True)
        print(f"{name}: median {statistics.median(r['seconds'] for r in runs):.3f} s, "
              f"max RSS {max(r['max_rss_mb'] for r in runs):.1f} MB over {args.repeat} runs",
              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
