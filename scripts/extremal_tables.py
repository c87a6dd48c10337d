#!/usr/bin/env python3
"""Tabulate exact small-instance extremal values as CSV.

Two tables: per-pattern ex values for square hosts up to --n-max, and
row-count values f(t, s) / g(t, s) for every weight s from the pattern
size up to the width t.  All searches run to proven optimality; rows
carry the explored node counts, so a change in the pruning shows: the
ex searches count the cells of a column sweep that builds each state's
distinct children, and the f/g searches try only rows of exactly s ones.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from permx.core import parse_permutation, to_matrix
from permx.extremal import exfn_exact, fpts_exact, gpts_exact

EX_COLUMNS = ["pattern", "n", "ex", "nodes", "proven"]
F_COLUMNS = ["pattern", "t", "s", "f", "f_nodes", "g", "g_nodes"]


def ex_rows(patterns, n_max):
    for text in patterns:
        P = to_matrix(parse_permutation(text))
        for n in range(1, n_max + 1):
            res = exfn_exact(P, n)
            yield {
                "pattern": text,
                "n": n,
                "ex": res.value,
                "nodes": res.nodes_explored,
                "proven": res.proven_optimal,
            }


def f_rows(patterns, t_max):
    for text in patterns:
        P = to_matrix(parse_permutation(text))
        for t in range(P.k, t_max + 1):
            for s in range(P.k, t + 1):
                f = fpts_exact(P, t, s)
                g = gpts_exact(P, t, s)
                yield {
                    "pattern": text,
                    "t": t,
                    "s": s,
                    "f": f.value,
                    "f_nodes": f.nodes_explored,
                    "g": g.value,
                    "g_nodes": g.nodes_explored,
                }


def write_csv(path, columns, rows):
    if path == "-":
        handle = sys.stdout
    else:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        handle = out.open("w", newline="")
    writer = csv.DictWriter(handle, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    count = 0
    for row in rows:
        writer.writerow(row)
        count += 1
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {count} rows to {path}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--patterns", default="12,21,123,132,213,231,312,321")
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--t-max", type=int, default=6)
    ap.add_argument("--ex-out", default="artifacts/ex_values.csv")
    ap.add_argument("--f-out", default="artifacts/f_values.csv")
    args = ap.parse_args()

    patterns = [p for p in args.patterns.split(",") if p]
    write_csv(args.ex_out, EX_COLUMNS, ex_rows(patterns, args.n_max))
    write_csv(args.f_out, F_COLUMNS, f_rows(patterns, args.t_max))
    return 0


if __name__ == "__main__":
    sys.exit(main())
