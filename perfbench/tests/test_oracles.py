"""Checks of the benchmark's own oracles, workload lists and tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

import permx  # noqa: E402
import permx.avoidance  # noqa: E402
import permx.bounds  # noqa: E402
import permx.cli  # noqa: E402
import permx.core  # noqa: E402
import permx.extremal  # noqa: E402
from permx.errors import PreconditionViolated  # noqa: E402


def test_perm_oracle_matches_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        n, k = rng.randint(1, 9), rng.randint(1, 5)
        host = tuple(rng.sample(range(1, n + 1), n))
        pattern = tuple(rng.sample(range(1, k + 1), k))
        witness = oracles.find_perm_occurrence(host, pattern)
        assert (witness is not None) == oracles.brute_contains(host, pattern)
        if witness is not None:
            assert oracles.is_witness(host, pattern, witness)


def test_merged_runs_avoid_the_monotone_pattern():
    rng = random.Random(3)
    for k in range(3, 7):
        host = workloads._merged_runs(rng, 40, k - 1, decreasing=True)
        assert oracles.longest_monotone(host, True) <= k - 1
        assert oracles.find_perm_occurrence(host, tuple(range(1, k + 1))) is None


def test_matrix_oracle_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        host = workloads._matrix(rng, rng.randint(1, 5), rng.randint(1, 5), rng.random())
        pattern = workloads._matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0.6)
        if "1" not in "".join(pattern):
            continue
        assert oracles.matrix_contains(host, pattern) == oracles.brute_matrix_contains(host, pattern)


def test_decompositions_inflate_back():
    rng = random.Random(5)
    for _ in range(100):
        skeleton = workloads._perm(rng, rng.randint(2, 4))
        blocks = workloads._random_blocks(rng, len(skeleton), 9)
        perm = oracles.inflate(skeleton, blocks)
        assert sorted(perm) == list(range(1, len(perm) + 1))
        found = oracles.block_decompositions(perm, len(skeleton))
        assert (tuple(skeleton), tuple(map(tuple, blocks))) in found
        for sk, bl in found:
            assert oracles.inflate(sk, bl) == perm


@pytest.mark.parametrize("pattern, prefix", [
    ("1234", [1, 2, 6, 23, 103, 513, 2761]),  # A005802
    ("1324", [1, 2, 6, 23, 103, 513, 2762]),  # A061552
    ("2413", [1, 2, 6, 23, 103, 512, 2740]),  # A022558
])
def test_published_sequences_match_brute_force(pattern, prefix):
    pvals = tuple(int(ch) for ch in pattern)
    assert [oracles.brute_avoiders(pvals, n) for n in range(1, 8)] == prefix


def test_merge_count_lhs_matches_brute_force_colouring():
    red, blue = permx.core.parse_permutation("123"), permx.core.parse_permutation("132")
    for n in range(1, 7):
        brute = oracles.brute_mergeable_count((1, 2, 3), (1, 3, 2), n)
        assert permx.avoidance.merge_count_upper_check(red, blue, n).lhs == brute


def test_schedule_step_oracle():
    for c in range(2, 7):
        for a in (1, 2, 3):
            for e in (1, 7, 20, 40):
                params = permx.bounds.BoundParams(float(2 ** e), float(a), c)
                steps = oracles.schedule_steps(2 ** e, a, c)
                assert permx.bounds.build_schedule(params).bulk_steps == math.ceil(steps)


def test_lemma22_admissibility_agrees_with_the_library():
    P = permx.core.to_matrix(permx.core.parse_permutation("123"))
    for c, t, x, y in itertools.product((2, 3), range(2, 6), ("0.6", "0.9"), ("0.3", "0.7")):
        for s in range(2, t + 1):
            try:
                permx.extremal.check_lemma22(P, 1, c, t, s, float(x), float(y))
                library = True
            except PreconditionViolated:
                library = False
            assert workloads._lemma22_admissible(c, t, s, x, y) == library


def test_search_ops_and_expectations():
    ops = workloads.search_ops("avoid-count")
    assert len(ops) == 11
    ext = workloads.search_ops("extremal-search")
    assert sum(op.kind == "lemma22" for op in ext) == 50
    for op in ops + ext:
        workloads.search_expected(op, ROOT)


def test_query_mix_is_seeded_and_stratified():
    a, b = workloads.query_mix_requests(4), workloads.query_mix_requests(4)
    assert [r.argv for r in a] == [r.argv for r in b]
    assert [r.argv for r in a] != [r.argv for r in workloads.query_mix_requests(5)]
    kinds = {}
    for r in a:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    assert kinds == workloads.QUERY_MIX_COUNTS
    for r in a:
        workloads.request_expected(r)


def test_query_mix_answers_check_out_in_process():
    reqs = workloads.query_mix_requests(9)
    outcomes = {"ok": 0, "known": 0, "failed": 0}
    for req in reqs[:300]:
        code, out = _run(req.argv)
        status, reason = workloads.check_request(
            req, workloads.request_expected(req), code, workloads.answer_of(req, code, out))
        assert status != "failed", (req.argv, reason)
        outcomes[status] += 1
    assert outcomes["ok"] > 250


def _run(argv):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = permx.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_tracer_sees_calls_through_module_globals():
    tracer = Tracer()
    original = permx.extremal.fpts_exact
    tracer.install(permx)
    try:
        P = permx.core.to_matrix(permx.core.parse_permutation("132"))
        permx.extremal.gpts_exact(P, 4, 3)
        permx.avoidance.count_avoiders(permx.core.parse_permutation("1234"), 5)
    finally:
        tracer.uninstall()
    assert permx.extremal.fpts_exact is original
    s = tracer.summary()
    names = s["per_name"]
    assert names["extremal.gpts_exact"]["calls"] == 1
    assert names["extremal.fpts_exact"]["calls"] == 1
    assert s["counts"]["extremal.searches"] == 1
    assert s["count_avoiders_accepted"] == 103
    assert s["count_avoiders_steps"] == names["core.completes_at_end"]["calls"] > 0
    for entry in names.values():
        assert entry["self_s"] <= entry["total_s"] + 1e-9


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_spec_matches_the_code():
    spec = json.loads((BENCH / "spec.json").read_text())
    known = {name: {"argv": " ".join(argv), "exit": code}
             for name, (argv, code) in workloads.KNOWN_BAD_EXITS.items()}
    assert spec["known_failures"]["requests"] == known
    assert spec["workloads"]["query-mix"]["mix"] == workloads.QUERY_MIX_COUNTS
    assert spec["workloads"]["avoid-count"]["ops_per_pass"] == len(workloads.search_ops("avoid-count"))
    assert spec["workloads"]["extremal-search"]["ops_per_pass"] == len(
        workloads.search_ops("extremal-search"))
    layer_names = {name for name, _, _ in run.PER_LAYER}
    e2e_names = {name for name, _ in run.END_TO_END}
    for p in spec["predictions"]:
        assert set(p["per_layer"]) <= layer_names
        moves = p["moves"] if isinstance(p["moves"], list) else [p["moves"]]
        assert set(moves) <= e2e_names
        assert p["workload"] in workloads.WORKLOADS


def test_pass_count_depends_only_on_workload_and_seconds():
    assert set(run.PASS_NOMINAL_S) == set(workloads.WORKLOADS)
    assert [run.pass_count(w, 40) for w in workloads.WORKLOADS] == [2, 2, 3]
    assert run.pass_count("query-mix", 1) == 1
