"""permx benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload avoid-count|extremal-search|query-mix
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; permx is imported from its ``src``.
Every pass runs in a fresh worker process (``worker.py``), so a memo
table kept in memory never makes a later pass faster than a user's
first call.  A run makes a fixed number of passes, as many as fit in
``--seconds`` at the pass's nominal time (``PASS_NOMINAL_S``), so the
operations attempted and failed depend only on the seed and
``--seconds``, never on the host's speed; fresh-interpreter CLI calls
are spread between the passes, and figures are medians over the run.  Workers sample their own speed with a fixed reference
unit (``hostspeed.py``), and every time reported is a measured interval
converted to nominal host speed; raw wall times and the reference times
(the drift reference) are kept in the details file.

With ``--trace 0`` the result line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass (see ``spans.py``)
next to one untraced pass.  Every answer is checked against the oracles
in ``workloads.py``; a wrong answer makes the run exit 1.  The last
stdout line is the result JSON; details go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))
STARTED = time.perf_counter()

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

SETUP_SAMPLES = 7
COLD_SAMPLES = 24
COLD_REFERENCE_UNITS = 5  # about 2 ms before and after each cold call
RUN_LIMIT_S = 170  # a run gives up, exiting 1, rather than pass 180 s
TAIL_BEYOND = 10
# nominal seconds of one pass at the defining commit; a run makes
# max(1, seconds // PASS_NOMINAL_S) passes
PASS_NOMINAL_S = {"avoid-count": 13.5, "extremal-search": 15.0, "query-mix": 11.0}

# the console-script entry point a pip install generates
COLD_CODE = "import sys; from permx.cli import main; sys.exit(main())"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cold_start_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better); all come from the traced pass except
# cli.import_ms (fresh-process setups) and trace.overhead_s
PER_LAYER = (
    ("core.completes_at_end.calls", "count", "lower"),
    ("core.completes_at_end.self_s", "s", "lower"),
    ("core.contains.calls", "count", "lower"),
    ("core.contains.self_s", "s", "lower"),
    ("core.matrix_contains.self_s", "s", "lower"),
    ("core.blockable_decompositions.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("avoidance.count_avoiders.self_s", "s", "lower"),
    ("avoidance.count_avoiders.accept_ratio", "ratio", "higher"),
    ("avoidance.avoiders.yielded", "count", "higher"),
    ("avoidance.avoiders.self_s", "s", "lower"),
    ("avoidance.merge_member.calls", "count", "lower"),
    ("avoidance.merge_member.self_s", "s", "lower"),
    ("avoidance.merge_member.accept_ratio", "ratio", "higher"),
    ("avoidance.self_s", "s", "lower"),
    ("extremal.exfn_exact.nodes", "count", "lower"),
    ("extremal.exfn_exact.self_s", "s", "lower"),
    ("extremal.fpts_exact.nodes", "count", "lower"),
    ("extremal.fpts_exact.self_s", "s", "lower"),
    ("extremal.check_lemma21.self_s", "s", "lower"),
    ("extremal.check_lemma22.self_s", "s", "lower"),
    ("extremal.proven_ratio", "ratio", "higher"),
    ("extremal.self_s", "s", "lower"),
    ("bounds.build_schedule.calls", "count", "lower"),
    ("bounds.build_schedule.states", "count", "lower"),
    ("bounds.build_schedule.self_s", "s", "lower"),
    ("bounds.certify_schedule.self_s", "s", "lower"),
    ("bounds.crude_fpts_bound.self_s", "s", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.render.bytes", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class BenchError(Exception):
    pass


def remaining_s() -> float:
    return max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED))


def spawn_worker(workload, seed, mode, pass_index=0, trace_out=None):
    """Run one worker to completion within the run's time limit; returns
    its report and the speed samples it took of itself."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"worker-{workload}-{mode}.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--pass-index", str(pass_index), "--out", str(out)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    out.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=remaining_s())
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(out.read_text())
    return report, hostspeed.Speed(report["ticks"])


def cold_call(argv):
    """Nominal and raw spawn-to-exit seconds, exit code and stdout of a
    fresh `permx` call.  The caller pins this process to one vCPU, so
    the child runs where the reference samples around it are taken."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = hostspeed.reference_ms(COLD_REFERENCE_UNITS)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_CODE, *argv], capture_output=True,
                          text=True, cwd=ROOT, env=env,
                          timeout=remaining_s())
    end = time.perf_counter()
    after = hostspeed.reference_ms(COLD_REFERENCE_UNITS)
    nominal = (end - start) * 2 * hostspeed.NOMINAL_MS / (before + after)
    return nominal, end - start, proc.returncode, proc.stdout


@contextlib.contextmanager
def pinned():
    """Keep this process and its children on one vCPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Checker:
    """Expected answers for one workload and seed, and the tally of
    checked operations: pass operations and cold-start calls apart."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.tally = {"pass": [0, 0, 0], "cold": [0, 0, 0]}  # attempted, failed, known
        self.reasons: list[str] = []
        if workload == "query-mix":
            self.requests = {r.id: r for r in workloads.query_mix_requests(seed)}
            self.expected = {i: workloads.request_expected(r) for i, r in self.requests.items()}
        else:
            self.ops = {op.id: op for op in workloads.search_ops(workload)}
            self.expected = {i: workloads.search_expected(op, ROOT) for i, op in self.ops.items()}

    def _count(self, where, status, reason, label):
        t = self.tally[where]
        t[0] += 1
        if status != "ok":
            t[1] += 1
            t[2] += status == "known"
            if status == "failed":
                self.reasons.append(f"{label}: {reason}")

    def check_pass(self, report):
        for op in report["ops"]:
            if self.workload == "query-mix":
                res, req = op["result"], self.requests[op["id"]]
                status, reason = workloads.check_request(
                    req, self.expected[req.id], res["code"], res["answer"])
                label = " ".join(req.argv)[:160]
            else:
                reason = workloads.check_search(self.ops[op["id"]], op["result"],
                                                self.expected[op["id"]])
                status, label = ("failed" if reason else "ok"), op["id"]
            self._count("pass", status, reason, label)

    def check_cold(self, argv, code, out, req):
        if req is not None:
            status, reason = workloads.check_request(
                req, self.expected[req.id], code, workloads.answer_of(req, code, out))
        else:
            want = workloads.COLD_ARGV[self.workload][1]
            ok = code == 0 and want in out.splitlines()
            status, reason = ("ok", None) if ok else ("failed", f"exit {code}, output {out[:200]!r}")
        self._count("cold", status, reason, "cold start: " + " ".join(argv)[:160])

    @property
    def attempted(self) -> int:
        return self.tally["pass"][0] + self.tally["cold"][0]

    @property
    def failed(self) -> int:
        return self.tally["pass"][1] + self.tally["cold"][1]

    @property
    def correct(self) -> bool:
        return not self.reasons

    def ok_frac(self) -> float:
        attempted, failed, _ = self.tally["pass"]
        return (attempted - failed) / attempted


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(values)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def cold_requests(checker, workload):
    """(argv, request or None) for each cold start of the run."""
    if workload == "query-mix":
        reqs = [r for r in checker.requests.values() if r.kind == "contains"][:COLD_SAMPLES]
        return [(list(r.argv), r) for r in reqs]
    return [(workloads.COLD_ARGV[workload][0], None)] * COLD_SAMPLES


def pass_count(workload, seconds) -> int:
    return max(1, int(seconds // PASS_NOMINAL_S[workload]))


def setup_samples(args):
    """Nominal setup seconds and import ms of fresh setup-only workers."""
    spawn_worker(args.workload, args.seed, "setup")  # compiles bytecode once
    setups = []
    for _ in range(SETUP_SAMPLES):
        report, speed = spawn_worker(args.workload, args.seed, "setup")
        setups.append((speed.nominal(*report["setup"]), speed.nominal(*report["import"]) * 1e3))
    return setups


def run_pass(args, checker, mode, index, trace_out=None):
    """One checked pass: the report, each op's nominal seconds, the
    nominal and raw pass seconds, and the worker's reference unit times."""
    report, speed = spawn_worker(args.workload, args.seed, mode, index, trace_out)
    checker.check_pass(report)
    op_s = [speed.nominal(*op["span"]) for op in report["ops"]]
    raw = sum(b - a for a, b in (op["span"] for op in report["ops"]))
    return {"report": report, "op_s": op_s, "pass_s": sum(op_s), "raw_s": raw,
            "setup_s": speed.nominal(*report["setup"]), "unit_ms": speed.unit_ms()}


def end_to_end(args, checker, setups, details):
    passes, colds = [], []
    cold_list = cold_requests(checker, args.workload)

    def cold_until(count):
        with pinned():
            while len(colds) < count:
                argv, req = cold_list[len(colds)]
                nominal, raw, code, out = cold_call(argv)
                checker.check_cold(argv, code, out, req)
                colds.append((nominal, raw))

    count = pass_count(args.workload, args.seconds)
    for i in range(count):
        passes.append(run_pass(args, checker, "pass", i))
        # spread cold starts over the run so they meet the host as passes do
        cold_until(math.ceil(COLD_SAMPLES * (i + 1) / count))

    reports = [p["report"] for p in passes]
    if args.workload == "query-mix":
        # per pass: median and p99 of its 1000 requests; then medians over passes
        p50s, tails = [], []
        for p in passes:
            latencies = [s * 1e3 for s in p["op_s"]]
            p50s.append(statistics.median(latencies))
            tails.append(tail(latencies))
        op_p50 = statistics.median(p50s)
        op_tail = statistics.median(t for t, _ in tails)
        details["op_tail"] = {"percentile": tails[0][1], "samples": len(reports[0]["ops"]),
                              "beyond": TAIL_BEYOND, "of": "each pass, median over passes"}
    else:
        # per op: median over passes.  A short list of ops of very
        # different sizes makes single order statistics jump between ops,
        # so p50 is the interquartile mean of the ops and the tail the
        # mean of the slowest three.
        per_op = {}
        for p in passes:
            for op, s in zip(p["report"]["ops"], p["op_s"]):
                per_op.setdefault(op["id"], []).append(s * 1e3)
        medians = {k: statistics.median(v) for k, v in per_op.items()}
        ranked = sorted(medians, key=medians.get)
        middle = ranked[len(ranked) // 4: len(ranked) - len(ranked) // 4]
        op_p50 = statistics.mean(medians[k] for k in middle)
        op_tail = statistics.mean(medians[k] for k in ranked[-3:])
        details["op_p50"] = {"of": "interquartile mean of the ops", "ops": middle}
        details["op_tail"] = {"of": "mean of the slowest three ops", "ops": ranked[-3:]}
        details["op_ms"] = medians
    setup_values = [s for s, _ in setups] + [p["setup_s"] for p in passes]
    unit_ms = [ms for p in passes for ms in p["unit_ms"]]
    details.update(
        pass_s=[p["pass_s"] for p in passes],
        pass_raw_s=[p["raw_s"] for p in passes],
        setup_s=setup_values,
        cold_start_ms=[c * 1e3 for c, _ in colds],
        cold_start_raw_ms=[r * 1e3 for _, r in colds],
        drift_reference_ms={"nominal": hostspeed.NOMINAL_MS,
                            "median": statistics.median(unit_ms),
                            "quartiles": statistics.quantiles(unit_ms, n=4),
                            "samples": len(unit_ms)},
    )
    return {
        "setup_s": statistics.median(setup_values),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_p50_ms": op_p50,
        "op_tail_ms": op_tail,
        "cold_start_ms": statistics.median(c for c, _ in colds) * 1e3,
        "ok_frac": checker.ok_frac(),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(args, checker, setups, details):
    plain = run_pass(args, checker, "pass", 0)
    trace_out = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    traced = run_pass(args, checker, "trace", 0, trace_out)
    tr = traced["report"]["trace"]
    names, counts = tr["per_name"], tr["counts"]
    # span times are raw; scale them by the traced pass's nominal/raw ratio
    speed = traced["pass_s"] / traced["raw_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "core.completes_at_end.calls": names["core.completes_at_end"]["calls"],
        "core.contains.calls": names["core.contains"]["calls"],
        "avoidance.count_avoiders.accept_ratio":
            ratio(tr["count_avoiders_accepted"], tr["count_avoiders_steps"]),
        "avoidance.avoiders.yielded": counts.get("avoidance.avoiders.yielded", 0),
        "avoidance.merge_member.calls": names["avoidance.merge_member"]["calls"],
        "avoidance.merge_member.accept_ratio":
            ratio(counts.get("avoidance.merge_member.accepted", 0),
                  names["avoidance.merge_member"]["calls"]),
        "extremal.exfn_exact.nodes": counts.get("extremal.exfn_exact.nodes", 0),
        "extremal.fpts_exact.nodes": counts.get("extremal.fpts_exact.nodes", 0),
        "extremal.proven_ratio":
            ratio(counts.get("extremal.proven", 0), counts.get("extremal.searches", 0)),
        "bounds.build_schedule.calls": names["bounds.build_schedule"]["calls"],
        "bounds.build_schedule.states": counts.get("bounds.build_schedule.states", 0),
        "cli.render.bytes": counts.get("cli.render.bytes", 0),
        "cli.import_ms": statistics.median(ms for _, ms in setups),
        "trace.overhead_s": traced["pass_s"] - plain["pass_s"],
        "trace.spans": tr["spans"],
    }
    for name, _, _ in PER_LAYER:
        if name in metrics:
            continue
        # the remaining metrics are self times of one function or a layer
        target = name[: -len(".self_s")]
        if target in LAYERS:
            metrics[name] = speed * sum(v["self_s"] for k, v in names.items()
                                        if k.startswith(target + "."))
        else:
            metrics[name] = speed * names[target]["self_s"]
    details.update(
        pass_s={"untraced": plain["pass_s"], "traced": traced["pass_s"]},
        pass_raw_s={"untraced": plain["raw_s"], "traced": traced["raw_s"]},
        spans_file=str(trace_out.relative_to(ROOT)),
        per_name=names,
    )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "permx" / "__init__.py").is_file():
        print(f"no permx sources under {SRC}; run from the root of a permx checkout",
              file=sys.stderr)
        return 2
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "python": platform.python_version()}
    try:
        setups = setup_samples(args)
        checker = Checker(args.workload, args.seed)
        if args.trace:
            metrics = per_layer(args, checker, setups, details)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end(args, checker, setups, details)
            units = dict(END_TO_END)
    except (BenchError, subprocess.TimeoutExpired, AssertionError) as exc:
        # AssertionError: an oracle disagreed with itself or with a pinned table
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    details.update(attempted=checker.attempted, failed=checker.failed,
                   tally=checker.tally, unexpected_failures=checker.reasons[:50])
    details_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details_file.write_text(json.dumps(details, indent=1, default=str) + "\n")

    for reason in checker.reasons[:20]:
        print(f"WRONG {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:40s} {metrics[name]:14.6g} {unit}")
    print(f"details: {details_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
