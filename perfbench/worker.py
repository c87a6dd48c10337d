"""One fresh process: set up, then optionally run one pass of a workload.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|trace
        --out REPORT.json [--pass-index I] [--trace-out SPANS.bin]

``setup`` imports permx from the checkout's ``src`` and builds the
workload's inputs.  ``pass`` then runs every operation of the workload
once; ``trace`` does the same with spans recorded at permx's module
boundaries.  The report holds the (start, end) ``perf_counter`` stamps
of setup and of every operation, which the parent converts to times,
and each output reduced to an answer after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_permx():
    """Import permx from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    permx = importlib.import_module("permx")
    for layer in ("core", "avoidance", "extremal", "bounds", "cli"):
        importlib.import_module(f"permx.{layer}")
    if Path(permx.__file__).resolve().parent != SRC / "permx":
        raise ImportError(f"permx imported from {permx.__file__}, not {SRC}")
    return permx


def run_cli(main, argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - reported as a failed request
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace-out", type=Path, default=None)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed
    import workloads

    ticker = hostspeed.Ticker()
    ticker.sample()
    ticker.start()
    clock = time.perf_counter
    t0 = clock()
    permx = import_permx()
    t1 = clock()
    if args.workload == "query-mix":
        ops = workloads.query_mix_requests(args.seed)
    else:
        ops = workloads.search_ops(args.workload)
        # every pass runs the fixed list in its own seeded order
        random.Random(f"{args.seed}:{args.pass_index}").shuffle(ops)
    t2 = clock()
    report = {"import": [t0, t1], "setup": [t0, t2], "ticks": ticker.ticks}
    if args.mode == "setup":
        ticker.stop()
        ticker.sample()
        args.out.write_text(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(permx)

    if args.workload == "query-mix":
        cli_main = permx.cli.main

        def run_op(req):
            return run_cli(cli_main, req.argv)

        def answer(req, output):
            code, out = output
            return {"code": code, "answer": workloads.answer_of(req, code, out)}
    else:
        def run_op(op):
            try:
                return workloads.run_search_op(permx, op)
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                return {"error": f"raised {type(exc).__name__}: {exc}"}

        def answer(op, output):
            return output

    # each output is reduced to its answer outside the timed span, so no
    # report outlives its request and peak RSS is the program's own
    ops_out = []
    for op in ops:
        a = clock()
        output = run_op(op)
        b = clock()
        ops_out.append({"id": op.id, "span": (a, b), "result": answer(op, output)})
    ticker.stop()
    ticker.sample()

    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if args.trace_out is not None:
            tracer.dump(args.trace_out)

    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=ops_out,
    )
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
