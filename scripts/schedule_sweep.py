#!/usr/bin/env python3
"""Sweep recursion schedules over a (k, a, c) grid and emit one CSV row
per parameter point: schedule shape, certification outcome, and the
crude log2 starting-value bound.

Columns: k, a, c, R_A, beta, x_b, y_b, y_1, log2_t0, log2_s0,
log2_beta_k, crude_log2_bound, all_pass, failing_checks
(semicolon-joined check names, empty when everything holds).

k and c are read as exact decimal integers, and a as an integer when it
is decimal digits, else as a real.  A value that does not parse, or a
grid point outside the schedule's domain, is a usage error.
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
from permx.errors import PermxError

COLUMNS = [
    "k", "a", "c", "R_A", "beta", "x_b", "y_b", "y_1",
    "log2_t0", "log2_s0", "log2_beta_k", "crude_log2_bound",
    "all_pass", "failing_checks",
]


def sweep_row(k: int, a, c: int) -> dict:
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


def decimal(tok: str) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise argparse.ArgumentTypeError(f"{tok!r} is not a decimal integer")
    return int(tok)


def real(tok: str):
    """An int for decimal digits, so the default grid writes a = 1, not
    1.0; else a float."""
    if tok.isascii() and tok.isdigit():
        return int(tok)
    try:
        return float(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{tok!r} is not a real number") from None


def comma_list(read):
    """An argparse type reading comma-separated values with ``read``."""
    return lambda text: [read(tok) for tok in text.split(",") if tok]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-values", type=comma_list(decimal), default="1000,1000000,1000000000",
                    help="comma-separated integer k values")
    ap.add_argument("--a-values", type=comma_list(real), default="1,2,3",
                    help="comma-separated real a values")
    ap.add_argument("--c-values", type=comma_list(decimal), default="2,3,4",
                    help="comma-separated integer c values")
    ap.add_argument("--out", default="artifacts/schedule_sweep.csv",
                    help="output path, or - for stdout")
    args = ap.parse_args()

    rows = []
    for k in args.k_values:
        for a in args.a_values:
            for c in args.c_values:
                try:
                    rows.append(sweep_row(k, a, c))
                except PermxError as exc:
                    ap.error(f"k={k}, a={a}, c={c}: {exc}")

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
