"""Operation lists, the answers each operation must give, and the
checks that compare them.

Three workloads, each loading a different permx module:

* ``avoid-count``: permutation searches (``avoidance`` over the
  incremental containment step in ``core``).
* ``extremal-search``: exact 0-1 matrix searches and lemma certifiers
  (``extremal``).
* ``query-mix``: a seeded stream of small CLI requests (``cli`` into
  ``core``'s one-shot containment and ``bounds``).

The seed only shapes inputs: it orders the fixed operation lists of the
two search workloads and generates every request of ``query-mix``.
Worker processes build the operations (``search_ops`` /
``query_mix_requests``) and reduce each output to a small answer
(``run_search_op`` / ``answer_of``); the parent process computes the
expected answers (``search_expected`` / ``request_expected``) and
compares (``check_search`` / ``check_request``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

WORKLOADS = ("avoid-count", "extremal-search", "query-mix")

QUERY_MIX_SIZE = 1000

# Requests whose README-promised exit code is 2 but which exit otherwise
# at the commit the benchmark was defined on.  They stay in the mix and
# count as failed; a run reading any other wrong exit code is incorrect.
KNOWN_BAD_EXITS = {
    "schedule-overflow": (["bounds", "schedule", "--k", "1e300", "--a", "5", "--c", "4"], 1),
    "certify-nan": (["bounds", "certify", "--k", "nan", "--a", "1", "--c", "2"], 1),
    "crude-inf": (["bounds", "crude", "--k", "inf", "--a", "1", "--c", "2"], 1),
    "alpha-fractional-c": (["bounds", "alpha", "--a", "1", "--c", "2.5"], 0),
}

# Malformed or out-of-domain requests that exit 2 as promised.
MALFORMED = {
    "host-not-bijection": ["contains", "--host", "1223", "--pattern", "12"],
    "host-not-digits": ["contains", "--host", "4x2", "--pattern", "12"],
    "empty-matrix-pattern": ["matrix-contains", "--host", "010,100", "--pattern", "00"],
    "matrix-bad-char": ["matrix-contains", "--host", "012", "--pattern", "1"],
    "decompose-c-too-big": ["decompose", "--pattern", "2413", "--c", "9"],
    "count-n-not-int": ["count-av", "--pattern", "123", "--n", "abc"],
    "lemma21-s-below-ka": ["bounds", "lemma21", "--k", "3", "--a", "1", "--t", "5", "--s", "2"],
    "certify-k-below-two": ["bounds", "certify", "--k", "1", "--a", "1", "--c", "2"],
    "inflate-arity": ["inflate", "--skeleton", "21", "--blocks", "1"],
    "alpha-negative-a": ["bounds", "alpha", "--a", "-1", "--c", "2"],
    "lemma22-x-below-inverse-c": [
        "bounds", "lemma22-rhs", "--k", "3", "--a", "1", "--c", "3",
        "--t", "9", "--s", "9", "--x", "0.3", "--y", "0.5",
    ],
    "sum-not-digits": ["sum", "--left", "12", "--right", "1x"],
}

QUERY_MIX_COUNTS = {
    "contains": 450,
    "matrix-contains": 200,
    "sum": 25,
    "skew": 25,
    "inflate": 25,
    "decompose": 25,
    "bounds certify": 45,
    "bounds schedule": 45,
    "bounds crude": 30,
    "bounds alpha": 30,
    "bounds lemma21": 40,
    "bounds lemma22-rhs": 40,
    "malformed": len(MALFORMED),
    "known-bad": 2 * len(KNOWN_BAD_EXITS),
}
assert sum(QUERY_MIX_COUNTS.values()) == QUERY_MIX_SIZE

FORMATS = ("json", "csv", "text")

# contains requests with at most this many index subsets are also
# decided by trying every subset
BRUTE_FORCE_LIMIT = 5000

# Published values the search workloads must reproduce.
AV9 = {"1234": 94359, "1324": 94776, "2413": 91245}  # A005802, A061552, A022558
JV_CHECKED = 33324  # avoiders of 1+12+21 = 12354 at n=8
MERGE_LHS = 40245  # 2-colourable into Av(123) and Av(132) at n=8
THREE_PATTERNS = ("123", "132", "213", "231", "312", "321")

# Smallest requests of each search workload, run in a fresh interpreter
# to time cold start; query-mix uses its own contains requests.
COLD_ARGV = {
    "avoid-count": (["count-av", "--pattern", "1234", "--n", "6"], "count = 513"),
    "extremal-search": (["exfn", "--pattern", "123", "--n", "4"], "value = 12"),
}


# ---------------------------------------------------------------------------
# search workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    args: tuple


def _lemma22_admissible(c, t, s, x, y, ka=3) -> bool:
    """Hypotheses of Lemma 2.2 for a pattern with k^a = ka that is
    c-blockable, restated from the paper."""
    xf, yf = Fraction(x), Fraction(y)
    if not (Fraction(1, c) < xf < 1 and 0 < yf < 1 and 1 <= s <= t):
        return False
    fxc = math.floor(xf * c)
    if s * (1 - yf * Fraction(c - 1, fxc)) * c - ka * c <= 0:
        return False
    return math.floor(s * yf) >= 1 and t * fxc // c >= 1


def search_ops(workload: str) -> list[Op]:
    if workload == "avoid-count":
        ops = [Op(f"count {p} n=9", "count", (p, 9)) for p in AV9]
        ops += [Op(f"count {p} n=10", "count", (p, 10)) for p in THREE_PATTERNS]
        ops.append(Op("jv 1,12,21 n=8", "jv", ("1", "12", "21", 8)))
        ops.append(Op("merge 123,132 n=8", "merge", ("123", "132", 8)))
        return ops
    if workload == "extremal-search":
        ops = [Op("exfn 12 n=7", "exfn", ("12", 7)), Op("exfn 1234 n=6", "exfn", ("1234", 6))]
        ops += [Op(f"exfn {p} n=5", "exfn", (p, 5)) for p in THREE_PATTERNS]
        ops.append(Op("fpts 123 t=6 s=3", "fpts", ("123", 6, 3)))
        ops.append(Op("gpts 132 t=6 s=3", "gpts", ("132", 6, 3)))
        ops += [Op(f"lemma21 123 a=1 t=7 s={s}", "lemma21", ("123", 1, 7, s)) for s in range(4, 8)]
        for c in (2, 3):
            for t in range(2, 8):
                for s in range(2, t + 1):
                    for x in ("0.6", "0.75", "0.9"):
                        for y in ("0.3", "0.4", "0.5", "0.7"):
                            if _lemma22_admissible(c, t, s, x, y):
                                ops.append(Op(
                                    f"lemma22 123 a=1 c={c} t={t} s={s} x={x} y={y}",
                                    "lemma22", ("123", 1, c, t, s, float(x), float(y)),
                                ))
        return ops
    raise ValueError(f"not a search workload: {workload}")


def run_search_op(permx, op: Op):
    """Run one search through the module attributes (so tracing sees
    it) and reduce the result to a JSON-able answer."""
    core, avoidance, extremal = permx.core, permx.avoidance, permx.extremal
    perm = core.parse_permutation
    if op.kind == "count":
        return {"count": avoidance.count_avoiders(perm(op.args[0]), op.args[1])}
    if op.kind == "jv":
        a, b, c, n = op.args
        r = avoidance.verify_jv_inclusion(perm(a), perm(b), perm(c), n)
        return {"checked": r.checked, "holds": r.holds}
    if op.kind == "merge":
        red, blue, n = op.args
        r = avoidance.merge_count_upper_check(perm(red), perm(blue), n)
        return {"lhs": r.lhs, "rhs": r.rhs, "rhs_refined": r.rhs_refined,
                "holds": r.holds, "holds_refined": r.holds_refined}
    P = core.to_matrix(perm(op.args[0]))
    if op.kind == "exfn":
        r = extremal.exfn_exact(P, op.args[1])
        return {"value": r.value, "proven": r.proven_optimal, "nodes": r.nodes_explored}
    if op.kind in ("fpts", "gpts"):
        fn = extremal.fpts_exact if op.kind == "fpts" else extremal.gpts_exact
        r = fn(P, op.args[1], op.args[2])
        return {"value": r.value, "proven": r.proven_optimal, "nodes": r.nodes_explored}
    if op.kind == "lemma21":
        r = extremal.check_lemma21(P, *op.args[1:])
        return {"holds": r.holds, "lhs": r.lhs_value, "rhs": str(r.rhs_bound)}
    if op.kind == "lemma22":
        r = extremal.check_lemma22(P, *op.args[1:])
        return {"holds": r.holds, "lhs": r.lhs_value, "rhs": str(r.rhs_value)}
    raise ValueError(f"unknown op kind {op.kind}")


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _ex_artifact(root: Path) -> dict:
    """(pattern, n) -> ex value from artifacts/ex_values.csv, if present."""
    path = root / "artifacts" / "ex_values.csv"
    if not path.is_file():
        return {}
    with path.open(newline="") as fh:
        return {(r["pattern"], int(r["n"])): int(r["ex"]) for r in csv.DictReader(fh)}


def search_expected(op: Op, root: Path):
    """Expected answer fields for one search op (a subset of the answer)."""
    if op.kind == "count":
        p, n = op.args
        return {"count": _catalan(n) if len(p) == 3 else AV9[p]}
    if op.kind == "jv":
        return {"checked": JV_CHECKED, "holds": True}
    if op.kind == "merge":
        n = op.args[2]
        # |Av_i(123)| = |Av_i(132)| = Catalan(i)
        terms = [(math.comb(n, i), _catalan(i) * _catalan(n - i)) for i in range(n + 1)]
        rhs = sum(b * c for b, c in terms)
        rhs_refined = sum(b * b * c for b, c in terms)
        return {"lhs": MERGE_LHS, "rhs": rhs, "rhs_refined": rhs_refined,
                "holds": MERGE_LHS <= rhs, "holds_refined": True}
    if op.kind == "exfn":
        p, n = op.args
        k = len(p)
        if p == "".join(str(i) for i in range(1, k + 1)):
            value = 2 * (k - 1) * n - (k - 1) ** 2  # ex(n, I_k)
        else:
            value = 4 * n - 4  # every 3x3 permutation matrix
        artifact = _ex_artifact(root).get((p, n))
        if artifact is not None and artifact != value:
            raise AssertionError(f"artifacts/ex_values.csv has {artifact} for {p} n={n}")
        return {"value": value, "proven": True}
    if op.kind in ("fpts", "gpts"):
        return {"value": 8, "proven": True}  # f(123; 6, 3) = g(132; 6, 3) = 8
    return {"holds": True}


def check_search(op: Op, answer, expected) -> str | None:
    if "error" in answer:
        return answer["error"]
    for key, want in expected.items():
        if answer.get(key) != want:
            return f"{key} = {answer.get(key)!r}, expected {want!r}"
    if op.kind in ("lemma21", "lemma22") and Fraction(answer["lhs"]) > Fraction(answer["rhs"]):
        return "verdict holds but lhs exceeds rhs"
    return None


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    id: int
    kind: str  # CLI command, or "malformed" / "known-bad"
    argv: tuple
    data: dict  # the generated inputs, for the oracle


def _strata(rng: random.Random, m: int) -> list[float]:
    """m uniforms in [0, 1), one per stratum of width 1/m, shuffled, so
    every seed covers each parameter range evenly."""
    cells = list(range(m))
    rng.shuffle(cells)
    return [(c + rng.random()) / m for c in cells]


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from a uniform u."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _perm(rng: random.Random, n: int) -> tuple:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def _text(perm) -> str:
    if all(v <= 9 for v in perm):
        return "".join(map(str, perm))
    return " ".join(map(str, perm))


def _merged_runs(rng: random.Random, n: int, runs: int, decreasing: bool) -> tuple:
    """A permutation that is a shuffle of ``runs`` monotone runs, so its
    longest opposite-monotone subsequence is at most ``runs``."""
    parts = [[] for _ in range(runs)]
    for v in _perm(rng, n):
        parts[rng.randrange(runs)].append(v)
    for part in parts:
        part.sort(reverse=decreasing)
    labels = [i for i, part in enumerate(parts) for _ in part]
    rng.shuffle(labels)
    iters = [iter(part) for part in parts]
    return tuple(next(iters[i]) for i in labels)


def _matrix(rng: random.Random, rows: int, cols: int, density: float) -> list[str]:
    return ["".join("1" if rng.random() < density else "0" for _ in range(cols))
            for _ in range(rows)]


def _gen_contains(rng, m):
    out = []
    lengths, sizes = _strata(rng, m), _strata(rng, m)
    for i in range(m):
        n, k = _pick(lengths[i], 20, 80), _pick(sizes[i], 3, 6)
        if i % 2 == 0:
            host, pattern = _perm(rng, n), _perm(rng, k)
        else:
            increasing = i % 4 == 1
            host = _merged_runs(rng, n, k - 1, decreasing=increasing)
            monotone = tuple(range(1, k + 1)) if increasing else tuple(range(k, 0, -1))
            pattern = monotone if i % 8 in (1, 3) else _perm(rng, k)
        out.append(("contains", ["--host", _text(host), "--pattern", _text(pattern)],
                    {"host": host, "pattern": pattern}))
    return out


def _gen_matrix(rng, m):
    out = []
    rs, cs, ds, ps = (_strata(rng, m) for _ in range(4))
    for i in range(m):
        host = _matrix(rng, _pick(rs[i], 6, 12), _pick(cs[i], 6, 12), 0.2 + 0.45 * ds[i])
        if i % 2 == 0:
            k = _pick(ps[i], 2, 4)
            perm = _perm(rng, k)
            pattern = ["".join("1" if perm[c] == k - r else "0" for c in range(k)) for r in range(k)]
        else:
            pattern = ["0"]
            while "1" not in "".join(pattern):
                pattern = _matrix(rng, _pick(ps[i], 2, 3), rng.randint(2, 3), 0.5)
        out.append(("matrix-contains", ["--host", ",".join(host), "--pattern", ",".join(pattern)],
                    {"host": host, "pattern": pattern}))
    return out


def _gen_sums(rng, m, kind):
    out = []
    for _ in range(m):
        left, right = _perm(rng, rng.randint(1, 6)), _perm(rng, rng.randint(1, 6))
        out.append((kind, ["--left", _text(left), "--right", _text(right)],
                    {"left": left, "right": right}))
    return out


def _random_blocks(rng, count, budget):
    sizes = [1] * count
    for _ in range(rng.randint(0, budget - count)):
        sizes[rng.randrange(count)] += 1
    return [_perm(rng, s) for s in sizes]


def _gen_inflate(rng, m):
    out = []
    for _ in range(m):
        skeleton = _perm(rng, rng.randint(2, 4))
        blocks = _random_blocks(rng, len(skeleton), 3 * len(skeleton))
        out.append(("inflate", ["--skeleton", _text(skeleton),
                                "--blocks", ",".join(_text(b) for b in blocks)],
                    {"skeleton": skeleton, "blocks": blocks}))
    return out


def _gen_decompose(rng, m):
    out = []
    for _ in range(m):
        skeleton = _perm(rng, rng.randint(2, 4))
        blocks = _random_blocks(rng, len(skeleton), 9)
        perm = oracles.inflate(skeleton, blocks)
        c = rng.randint(2, min(4, len(perm)))
        out.append(("decompose", ["--pattern", _text(perm), "--c", str(c)],
                    {"perm": perm, "c": c}))
    return out


# Schedule requests form one fixed grid for every seed: their cost grows
# steeply with a*log(k) and c, and the heaviest of them set op_tail_ms
# and peak_rss_mb, which must not hinge on the seed.
SCHEDULE_GRID = [(a, c) for a in (1, 2, 3) for c in range(2, 7)]
SCHEDULE_EXPONENTS = {"certify": (6, 22, 40), "schedule": (6, 22, 40), "crude": (12, 34)}


def _gen_bounds(rng, kind, m):
    out = []
    sub = kind.split()[1]
    if sub in SCHEDULE_EXPONENTS:
        for cell, (a, c) in enumerate(SCHEDULE_GRID):
            for j, e in enumerate(SCHEDULE_EXPONENTS[sub]):
                argv = ["--k", str(2 ** e), "--a", str(a), "--c", str(c)]
                floors = sub != "crude" and (cell + j) % 2 == 1
                if floors:
                    argv.append("--floors")
                fmt = FORMATS[(cell + j) % 3]
                out.append((kind, argv, {"k": 2 ** e, "a": a, "c": c, "floors": floors,
                                         "format": fmt}))
    elif sub == "alpha":
        cs = _strata(rng, m)
        for i in range(m):
            a = str(1 + i % 3) if i % 2 == 0 else f"{rng.uniform(0.3, 4.0):.3f}"
            c = _pick(cs[i], 2, 6)
            out.append((kind, ["--a", a, "--c", str(c)], {"a": a, "c": c}))
    elif sub == "lemma21":
        for i in range(m):
            k, a = rng.randint(2, 20), 1 + i % 2
            s = k ** a + rng.randint(1, 40)
            t = s + rng.randint(0, 60)
            args = {"k": str(k), "a": str(a), "t": str(t), "s": str(s)}
            out.append((kind, [x for key, v in args.items() for x in (f"--{key}", v)], args))
    elif sub == "lemma22-rhs":
        for i in range(m):
            k, a, c = rng.randint(2, 10), 1 + i % 2, rng.randint(2, 6)
            x, y = rng.choice(("0.6", "0.75", "0.9")), rng.choice(("0.1", "0.2", "0.3"))
            factor = 1 - Fraction(y) * Fraction(c - 1, math.floor(Fraction(x) * c))
            s = math.floor(k ** a / factor) + rng.randint(1, 30)
            t = s + rng.randint(0, 50)
            args = {"k": str(k), "a": str(a), "c": str(c), "t": str(t), "s": str(s),
                    "x": x, "y": y, "f-sub": str(rng.randint(0, 100))}
            out.append((kind, [x for key, v in args.items() for x in (f"--{key}", v)], args))
    return out


def query_mix_requests(seed: int) -> list[Request]:
    """The seed's fixed request list, in the order every pass sends it."""
    rng = random.Random(seed)
    drafts = []
    drafts += _gen_contains(rng, QUERY_MIX_COUNTS["contains"])
    drafts += _gen_matrix(rng, QUERY_MIX_COUNTS["matrix-contains"])
    drafts += _gen_sums(rng, QUERY_MIX_COUNTS["sum"], "sum")
    drafts += _gen_sums(rng, QUERY_MIX_COUNTS["skew"], "skew")
    drafts += _gen_inflate(rng, QUERY_MIX_COUNTS["inflate"])
    drafts += _gen_decompose(rng, QUERY_MIX_COUNTS["decompose"])
    for kind in ("bounds certify", "bounds schedule", "bounds crude", "bounds alpha",
                 "bounds lemma21", "bounds lemma22-rhs"):
        drafts += _gen_bounds(rng, kind, QUERY_MIX_COUNTS[kind])
    free = [i for i, (_, _, data) in enumerate(drafts) if "format" not in data]
    formats = [FORMATS[i % 3] for i in range(len(free))]
    rng.shuffle(formats)
    for i, fmt in zip(free, formats):
        drafts[i][2]["format"] = fmt
    entries = [(kind, kind.split() + argv + ["--format", data["format"]], data)
               for kind, argv, data in drafts]
    for name, argv in MALFORMED.items():
        entries.append(("malformed", argv, {"name": name}))
    for name, (argv, _) in KNOWN_BAD_EXITS.items():
        for fmt in ("json", "text"):
            entries.append(("known-bad", argv + ["--format", fmt], {"name": name}))
    rng.shuffle(entries)
    return [Request(i, kind, tuple(argv), data) for i, (kind, argv, data) in enumerate(entries)]


# single-value text reports, and csv reports laid out as tables
_TEXT_SCALAR = {"contains": "contains", "matrix-contains": "contains",
                "sum": "result", "skew": "result", "inflate": "result"}
_CSV_TABLE = {"decompose", "bounds schedule", "bounds certify"}


def _parse_report(kind: str, fmt: str, out: str) -> dict:
    """The report as a dict of fields; table reports carry ``rows``."""
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if kind in _CSV_TABLE:
            return {"rows": [dict(zip(rows[0], r)) for r in rows[1:]]}
        return dict(zip(rows[0], rows[1]))
    if kind in _TEXT_SCALAR:
        return {_TEXT_SCALAR[kind]: out.strip()}
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        fields[key] = json.loads(value) if value[:1] in "[{" else value
    return fields


def _flag(value) -> bool:
    return value is True or value == "true"


def _perm_text(value: str) -> list:
    value = value.strip()
    return [int(v) for v in (value.split() if " " in value else value)]


def extract_answer(req: Request, out: str):
    """Reduce a report to the fields the oracle checks."""
    kind, fmt = req.kind, req.data.get("format")
    if kind in ("malformed", "known-bad"):
        return None
    rep = _parse_report(kind, fmt, out)
    if kind in ("contains", "matrix-contains"):
        return _flag(rep["contains"])
    if kind in ("sum", "skew", "inflate"):
        return _perm_text(str(rep["result"]))
    if kind == "decompose":
        if "rows" in rep:
            decomps = rep["rows"]
        else:
            decomps = rep["decompositions"]
            if int(rep["count"]) != len(decomps):
                return {"error": "count disagrees with the listed decompositions"}
        return sorted(f"{d['skeleton']}|{d['blocks']}" for d in decomps)
    if kind == "bounds certify":
        checks = rep.get("rows") or rep["checks"]
        return {"failing": sorted(c["name"] for c in checks if not _flag(c["holds"])),
                "checks": len(checks)}
    if kind == "bounds schedule":
        states = rep.get("rows") or rep["states"]
        return {
            "indices_ok": [int(s["i"]) for s in states] == list(range(len(states))),
            "states": len(states),
            "final_log2_t": float(states[-1]["log2_t"]),
            "R_A": int(rep["R_A"]) if "R_A" in rep else None,
            "floors_applied": _flag(rep["floors_applied"]) if "floors_applied" in rep else None,
        }
    if kind == "bounds crude":
        return float(rep["log2_bound"])
    if kind == "bounds alpha":
        return float(rep["alpha"])
    if kind == "bounds lemma21":
        return str(rep["bound"])
    if kind == "bounds lemma22-rhs":
        return str(rep["rhs"])
    raise ValueError(f"unknown request kind {kind}")


def answer_of(req: Request, code, out: str):
    """The answer of one request's report, or an error entry when its
    report cannot be read; None when it exited with a nonzero code."""
    if code != 0:
        return None
    try:
        return extract_answer(req, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return {"error": f"unreadable report: {type(exc).__name__}: {exc}"}


def request_expected(req: Request):
    """The oracle's answer for one request, computed without permx."""
    kind, d = req.kind, req.data
    if kind in ("malformed", "known-bad"):
        return None
    if kind == "contains":
        witness = oracles.find_perm_occurrence(d["host"], d["pattern"])
        if witness is not None and not oracles.is_witness(d["host"], d["pattern"], witness):
            raise AssertionError(f"oracle witness {witness} is invalid")
        small = math.comb(len(d["host"]), len(d["pattern"])) <= BRUTE_FORCE_LIMIT
        if small and oracles.brute_contains(d["host"], d["pattern"]) != (witness is not None):
            raise AssertionError("oracle disagrees with brute force")
        return witness is not None
    if kind == "matrix-contains":
        return oracles.matrix_contains(d["host"], d["pattern"])
    if kind == "sum":
        return list(oracles.direct_sum(d["left"], d["right"]))
    if kind == "skew":
        return list(oracles.skew_sum(d["left"], d["right"]))
    if kind == "inflate":
        return list(oracles.inflate(d["skeleton"], d["blocks"]))
    if kind == "decompose":
        return sorted(f"{_text(sk)}|{' '.join(_text(b) for b in blocks)}"
                      for sk, blocks in oracles.block_decompositions(d["perm"], d["c"]))
    if kind == "bounds certify":
        # the schedule violates width >= weight at its last bulk states for
        # every (k, a, c); every other constraint holds (README, criterion 9)
        return {"failing": ["width_at_least_weight_log2"]}
    if kind == "bounds schedule":
        k, a, c = d["k"], d["a"], d["c"]
        return {"steps": oracles.schedule_steps(k, a, c),
                "log2_beta_k": math.log2(2 * c) + a * math.log2(k),
                "floors": d["floors"]}
    if kind == "bounds crude":
        k, a, c = d["k"], d["a"], d["c"]
        return {"floor": math.ceil(oracles.schedule_steps(k, a, c) - 1e-9) * math.log2(c)
                + math.log2(k)}
    if kind == "bounds alpha":
        return oracles.alpha(float(d["a"]), d["c"])
    if kind == "bounds lemma21":
        return str(oracles.lemma21_bound(d["k"], d["a"], d["t"], d["s"]))
    if kind == "bounds lemma22-rhs":
        return str(oracles.lemma22_rhs(d["k"], d["a"], d["c"], d["t"], d["s"],
                                       d["x"], d["y"], d["f-sub"]))
    raise ValueError(f"unknown request kind {kind}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_request(req: Request, expected, code, answer) -> tuple[str, str | None]:
    """("ok" | "known" | "failed", reason) for one request's outcome."""
    if req.kind == "known-bad":
        if code == 2:
            return "ok", None
        _, bad_code = KNOWN_BAD_EXITS[req.data["name"]]
        if code == bad_code:
            return "known", f"{req.data['name']}: exit {code}, README promises 2"
        return "failed", f"{req.data['name']}: exit {code}"
    if req.kind == "malformed":
        return ("ok", None) if code == 2 else ("failed", f"exit {code}, expected 2")
    if code != 0:
        return "failed", f"exit {code}, expected 0"
    if isinstance(answer, dict) and "error" in answer:
        return "failed", answer["error"]
    kind = req.kind
    if kind == "bounds certify":
        ok = answer["failing"] == expected["failing"]
    elif kind == "bounds schedule":
        steps = expected["steps"]
        lbk = expected["log2_beta_k"]
        rounded = {math.ceil(steps - 1e-9), math.ceil(steps + 1e-9)}
        final = answer["final_log2_t"]
        ok = (answer["indices_ok"]
              and answer["states"] - 3 in rounded
              and answer["R_A"] in (None, answer["states"] - 3)
              and answer["floors_applied"] in (None, expected["floors"])
              and (lbk - 1 <= final <= lbk + 1e-9 if expected["floors"]
                   else _close(final, lbk, 1e-9)))
    elif kind == "bounds crude":
        ok = math.isfinite(answer) and answer >= expected["floor"] - 1e-9
    elif kind == "bounds alpha":
        ok = _close(answer, expected, 1e-12)
    else:
        ok = answer == expected
    return ("ok", None) if ok else ("failed", f"answer {answer!r}, expected {expected!r}")
