#!/usr/bin/env python3
"""Time the layered-sum kernels of permx.avoidance, the exfn_exact and
fpts_exact searches and the Lemma 2.2 certifier layer of
permx.extremal on fixed cases, each run in a fresh interpreter.

The kernel cases are avoider counts of 1324 and 1342 at n = 13 and 14,
of 1324, 2413 and 1432 at n = 16 and of 1324 and 2413 at n = 17, the
merge counts of (132, 312) at n = 10 and of (213, 231), the costliest
ordered pair of length-3 patterns, at n = 10 and 11, and the JV
inclusion check of (1, 12, 21) at n = 8 and 10, each through its public
function.  Every layered sum
a case runs is counted: the distinct states it expands, which is the
least node budget that sum needs; a count's states are canonical
ones.  A count sums over its pattern's Wilf representative (1423 for
1342 and 2413, 1234 for 1432), which the case names.

The exfn cases are ex(2413, 7), ex(1342, 8), ex(132, 8), ex(2413, 8)
and ex(1342, 9), each one exfn_exact search at the default budget.
The row-density cases are f(123; 12, 3) at the default budget, proven,
and g(1342; 9, 4) and f(2413; 64, 4) at a budget of 2 * 10^4 nodes,
which both exhaust.

The cold case runs one ``permx contains`` in a fresh interpreter, with
PYTHONDONTWRITEBYTECODE=1 and on a copy of the package without
__pycache__, so that, as in a fresh checkout, it compiles every permx
module it imports; the call reports the permx modules it loaded.

The lemma cases take the 50 admissible points of the extremal-search
grid for 123 (a = 1; c in {2, 3}; 2 <= s <= t <= 7; x in {0.6, 0.75,
0.9}; y in {0.3, 0.4, 0.5, 0.7}), and call check_lemma22 or
lemma22_rhs (at f_sub = 0) at each point 21 times in a row.  A point's
time is the median of its calls, so searches that the first call runs
and later calls reuse count once; the case's time is the median over
its points.

stdout gets one line per case, which depends on the code alone: a
kernel case's value and the states of each of its sums (and a
count's representative), a search
case's value, proven flag, nodes and witness rows, a lemma case's verdicts,
the sum of its exact right sides and its nodes, and the cold case's
report and the sorted permx.* modules its call loaded.  stderr gets
the median wall time over the repeats (per point for a lemma case) and
the largest max RSS of the fresh processes, which depend on the host.
--src runs the cases on another checkout's src/ directory, so two trees
compare on one host.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "count 1324 n=13": ("count", ("1324", 13)),
    "count 1342 n=13": ("count", ("1342", 13)),
    "count 1324 n=14": ("count", ("1324", 14)),
    "count 1342 n=14": ("count", ("1342", 14)),
    "count 1324 n=16": ("count", ("1324", 16)),
    "count 2413 n=16": ("count", ("2413", 16)),
    "count 1432 n=16": ("count", ("1432", 16)),
    "count 1324 n=17": ("count", ("1324", 17)),
    "count 2413 n=17": ("count", ("2413", 17)),
    "merge 132,312 n=10": ("merge", ("132", "312", 10)),
    "merge 213,231 n=10": ("merge", ("213", "231", 10)),
    "merge 213,231 n=11": ("merge", ("213", "231", 11)),
    "jv 1,12,21 n=8": ("jv", ("1", "12", "21", 8)),
    "jv 1,12,21 n=10": ("jv", ("1", "12", "21", 10)),
    "exfn 2413 n=7": ("exfn_exact", ("2413", 7)),
    "exfn 1342 n=8": ("exfn_exact", ("1342", 8)),
    "exfn 132 n=8": ("exfn_exact", ("132", 8)),
    "exfn 2413 n=8": ("exfn_exact", ("2413", 8)),
    "exfn 1342 n=9": ("exfn_exact", ("1342", 9)),
    "fpts 123 t=12 s=3": ("fpts_exact", ("123", 12, 3)),
    "gpts 1342 t=9 s=4 budget=2e4": ("gpts_exact", ("1342", 9, 4), {"budget": 20_000}),
    "fpts 2413 t=64 s=4 budget=2e4": ("fpts_exact", ("2413", 64, 4), {"budget": 20_000}),
    "check_lemma22 123 grid": ("check_lemma22", ()),
    "lemma22_rhs 123 grid": ("lemma22_rhs", ()),
    "cold contains": ("cold", ("contains", "--host", "391867452", "--pattern", "2413")),
}
LEMMA_CALLS = 21  # calls per point; the point's time is their median
# a permx command line that prints, after its report, the permx modules it loaded
COLD_CODE = ("import sys; from permx.cli import main; code = main(); "
             "print(*sorted(m for m in sys.modules if m.startswith('permx.'))); sys.exit(code)")


def lemma_points() -> list[tuple]:
    """(c, t, s, x, y) of the grid points where Lemma 2.2's hypotheses
    hold for 123 with a = 1, so k^a = 3: the denominator
    s(1 - y(c-1)/floor(xc))c - 3c is positive, and the shrunken
    instance keeps floor(sy) >= 1 and floor(t*floor(xc)/c) >= 1."""
    points = []
    for c in (2, 3):
        for t in range(2, 8):
            for s in range(2, t + 1):
                for x in ("0.6", "0.75", "0.9"):
                    for y in ("0.3", "0.4", "0.5", "0.7"):
                        xf, yf = Fraction(x), Fraction(y)
                        fxc = math.floor(xf * c)
                        if (s * (1 - yf * Fraction(c - 1, fxc)) * c > 3 * c
                                and math.floor(s * yf) >= 1 and t * fxc // c >= 1):
                            points.append((c, t, s, float(x), float(y)))
    return points


def run_lemma_case(kind: str) -> tuple[str, float]:
    """The verdicts, exact right sides and nodes of one lemma case over
    the grid, and the median over its points of each point's median
    call time."""
    from permx.bounds import lemma22_rhs
    from permx.core import parse_permutation, to_matrix
    from permx.extremal import check_lemma22

    P = to_matrix(parse_permutation("123"))
    points = lemma_points()
    times, results = [], []
    for c, t, s, x, y in points:
        calls = []
        for _ in range(LEMMA_CALLS):
            start = time.perf_counter()
            if kind == "check_lemma22":
                result = check_lemma22(P, 1, c, t, s, x, y)
            else:
                result = lemma22_rhs(3, 1, c, t, s, x, y, 0)
            calls.append(time.perf_counter() - start)
        times.append(statistics.median(calls))
        results.append(result)
    if kind == "check_lemma22":
        work = (f"{len(points)} points, {sum(r.holds for r in results)} pass, "
                f"rhs total {sum(r.rhs_value for r in results)}, "
                f"nodes {sum(r.nodes_explored for r in results)}")
    else:
        work = f"{len(points)} points, rhs total {sum(results)}"
    return work, statistics.median(times)


def run_search_case(kind: str, text: str, *sizes, **options) -> tuple[str, float]:
    """The value, proven flag, nodes and witness rows of one search of
    permx.extremal named by kind, on the pattern text and its sizes,
    with its options (a budget, or the default), and its wall time."""
    from permx import extremal
    from permx.core import parse_permutation, to_matrix

    P = to_matrix(parse_permutation(text))
    search = getattr(extremal, kind)
    start = time.perf_counter()
    res = search(P, *sizes, **options)
    seconds = time.perf_counter() - start
    return (f"value {res.value}, proven {str(res.proven_optimal).lower()}, "
            f"nodes {res.nodes_explored}, witness rows {list(res.witness.masks)}"), seconds


def run_kernel_case(kind: str, args: tuple) -> tuple[str, float]:
    """A kernel case's value, a count's representative, the distinct
    states each layered sum expanded, and its wall time."""
    from permx import avoidance
    from permx.core import parse_permutation

    states = []
    layers = avoidance._layers

    def counted(root, expand, n, budget, canonical=None):
        states.append(0)
        for i, layer in enumerate(layers(root, expand, n, budget, canonical)):
            if i < n:
                states[-1] += len(layer)
            yield layer

    avoidance._layers = counted
    perms = [parse_permutation(a) for a in args[:-1]]
    start = time.perf_counter()
    if kind == "count":
        value = avoidance.count_avoiders(*perms, args[-1])
    elif kind == "merge":
        value = avoidance.merge_count_upper_check(*perms, args[-1]).lhs
    else:
        value = avoidance.verify_jv_inclusion(*perms, args[-1]).checked
    seconds = time.perf_counter() - start
    work = f"value {value}, states {' + '.join(map(str, states))}"
    if kind == "count":
        work += f", representative {''.join(map(str, avoidance._representative(*perms)))}"
    return work, seconds


def run_cold_case(argv: tuple, src: Path) -> tuple[str, float]:
    """The report and the permx modules of one cold permx call, and its
    spawn-to-exit wall time."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src / "permx", Path(tmp) / "permx",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", COLD_CODE, *argv], check=True,
                             capture_output=True, text=True, env=env).stdout
        seconds = time.perf_counter() - start
    report, modules = out.splitlines()
    return f"report {report}, modules {modules}", seconds


def run_case(name: str, src: Path) -> dict:
    """Run one case in this process, or for the cold case in a child:
    the work it did, its wall time (per point for a lemma case) and the
    max RSS of the process that ran it."""
    import resource

    kind, args, *options = CASES[name]
    who = resource.RUSAGE_SELF
    if kind == "cold":
        (work, seconds), per, who = run_cold_case(args, src), "run", resource.RUSAGE_CHILDREN
    elif kind in ("check_lemma22", "lemma22_rhs"):
        (work, seconds), per = run_lemma_case(kind), "point"
    elif kind.endswith("_exact"):
        (work, seconds), per = run_search_case(kind, *args, **dict(*options)), "run"
    else:
        (work, seconds), per = run_kernel_case(kind, args), "run"
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    return {"work": work, "seconds": seconds, "per": per, "max_rss_mb": rss_mb}


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
        print(json.dumps(run_case(args.run, args.src)))
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
        if any(r["work"] != first["work"] for r in runs):
            raise RuntimeError(f"{name}: repeats disagree")
        print(f"{name}: {first['work']}", flush=True)
        seconds = statistics.median(r["seconds"] for r in runs)
        shown = f"{seconds:.3f} s" if first["per"] == "run" else f"{seconds * 1e6:.1f} us per point"
        print(f"{name}: median {shown}, "
              f"max RSS {max(r['max_rss_mb'] for r in runs):.1f} MB over {args.repeat} runs",
              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
