#!/usr/bin/env python3
"""Sweep recursion schedules over a (k, a, c) grid and emit one CSV row
per parameter point: schedule shape, certification outcome, and the
crude log2 starting-value bound.

Columns: k, a, c, R_A, beta, x_b, y_b, y_1, log2_t0, log2_s0,
log2_beta_k, crude_log2_bound, all_pass, failing_checks
(semicolon-joined check names, empty when everything holds).
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from permx.bounds import (
    BoundParams,
    build_schedule,
    certify_schedule,
    crude_fpts_bound,
)

COLUMNS = [
    "k", "a", "c", "R_A", "beta", "x_b", "y_b", "y_1",
    "log2_t0", "log2_s0", "log2_beta_k", "crude_log2_bound",
    "all_pass", "failing_checks",
]


def sweep_row(k: int, a: int, c: int) -> dict:
    params = BoundParams(k, a, c)
    schedule = build_schedule(params)
    report = certify_schedule(schedule)
    failing = sorted(ch.name for ch in report.checks if not ch.holds)
    log2_t0, log2_s0 = schedule.states[0]
    return {
        "k": k,
        "a": a,
        "c": c,
        "R_A": schedule.bulk_steps,
        "beta": schedule.beta,
        "x_b": schedule.x_bulk,
        "y_b": schedule.y_bulk,
        "y_1": schedule.y_penultimate,
        "log2_t0": log2_t0,
        "log2_s0": log2_s0,
        "log2_beta_k": schedule.log2_beta_k,
        "crude_log2_bound": crude_fpts_bound(schedule),
        "all_pass": report.all_pass,
        "failing_checks": ";".join(failing),
    }


def parse_int_list(text: str) -> list[int]:
    return [int(float(tok)) for tok in text.split(",") if tok]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-values", default="1000,1000000,1000000000",
                    help="comma-separated integer k values")
    ap.add_argument("--a-values", default="1,2,3")
    ap.add_argument("--c-values", default="2,3,4")
    ap.add_argument("--out", default="artifacts/schedule_sweep.csv",
                    help="output path, or - for stdout")
    args = ap.parse_args()

    rows = [
        sweep_row(k, a, c)
        for k in parse_int_list(args.k_values)
        for a in parse_int_list(args.a_values)
        for c in parse_int_list(args.c_values)
    ]

    if args.out == "-":
        handle = sys.stdout
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("w", newline="")
    writer = csv.DictWriter(handle, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
