"""Command line surface: exit codes, output formats, determinism."""

import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permx
from permx.bounds import BoundParams, _state_jsonable, build_schedule, floored_states
from permx.cli import (
    COMMANDS,
    EXIT_BAD_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    FORMATS,
    build_parser,
    main,
    run,
)
from permx.errors import PreconditionViolated
from permx.limits import MAX_WIDTH


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _perm(text):
    return permx.parse_permutation(text)


@pytest.mark.parametrize("refuse, message", [
    (lambda: _perm("12x3"), "not a digit string: '12x3'"),
    (lambda: permx.Permutation((1, 3)), "not a bijection on 1..2: (1, 3)"),
    (lambda: permx.contains(_perm("1"), permx.Permutation(())),
     "containment is defined for nonempty patterns"),
    (lambda: permx.direct_sum(_perm("1"), permx.Permutation(())),
     "direct sum needs nonempty operands"),
    (lambda: permx.PermutationMatrix(permx.BinaryMatrix((0b01, 0b10), 3)), "not square: 2x3"),
    (lambda: permx.inflate(_perm("21"), [_perm("1")]), "2 skeleton entries, 1 blocks"),
    (lambda: permx.inflate(_perm("21"), [_perm("1"), permx.Permutation(())]),
     "inflation blocks must be nonempty"),
    (lambda: permx.check_lemma22(permx.to_matrix(_perm("2413")), 1, 2, 5, 5, 0.6, 0.5),
     "pattern admits no 2-block decomposition"),
    (lambda: permx.lemma22_rhs(2, 1, 2, 8, 6, 0.6, 0.95, 0),
     "s(1 - y(c-1)/floor(xc))c - k^a c = -3.4 <= 0"),
    (lambda: permx.lemma22_rhs(2, 1, 1, 8, 6, 0.6, 0.5, 0), "need c >= 2, got 1"),
    (lambda: permx.check_lemma21(permx.PermutationMatrix.identity(2), 0.5, 3, 3),
     "ex(n=2) = 3 exceeds k^a*n = 2.82843"),
    (lambda: permx.fox_rhs({2: 3, 3: 5}, 3, 2, 1, 1, 2),
     "ex table is missing an entry for n=1"),
], ids=[
    "malformed-text", "not-a-bijection", "empty-pattern", "empty-operand",
    "not-a-permutation-matrix", "arity-mismatch", "empty-block",
    "not-blockable", "denominator-nonpositive", "bad-constants", "hypothesis-unverified",
    "missing-table-entry",
])
def test_every_domain_refusal_is_the_family_class(refuse, message):
    # one error class per exit code: a domain refusal is told apart only
    # by its message, never by a subclass
    with pytest.raises(PreconditionViolated) as info:
        refuse()
    assert type(info.value) is PreconditionViolated
    assert str(info.value) == message


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = invoke(capsys, "contains", "--host", "42153", "--pattern", "312")
        assert code == EXIT_OK
        assert out == "true\n"

    def test_negative(self, capsys):
        code, out, _ = invoke(capsys, "contains", "--host", "42153", "--pattern", "123")
        assert code == EXIT_OK
        assert out == "false\n"

    def test_bad_permutation(self, capsys):
        code, out, err = invoke(capsys, "contains", "--host", "42153", "--pattern", "99")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "rejected" in err

    @pytest.mark.parametrize("argv", [
        ("contains", "--host", "1²", "--pattern", "1"),
        ("contains", "--host", "12³", "--pattern", "1"),
        ("inflate", "--skeleton", "1", "--blocks", "①"),
        ("decompose", "--pattern", "1²", "--c", "2"),
        ("sum", "--left", "1²", "--right", "1"),
    ])
    def test_non_decimal_digits_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("rejected")
        assert "Traceback" not in err and "internal error" not in err

    def test_resource_limit(self, capsys):
        code, _, err = invoke(capsys, "count-av", "--pattern", "123", "--n", "40")
        assert code == EXIT_RESOURCE
        assert "resource limit" in err

    def test_out_of_memory_is_a_resource_limit(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("permx.extremal.exfn_exact", exhausted)
        code, out, err = invoke(capsys, "exfn", "--pattern", "12", "--n", "3")
        assert (code, out, err) == (EXIT_RESOURCE, "", "resource limit: out of memory\n")

    @pytest.mark.parametrize("message, code, err", [
        ("error return without exception set", EXIT_RESOURCE, "resource limit: out of memory\n"),
        ("bad call", EXIT_INTERNAL, "internal error: SystemError: bad call\n"),
    ])
    def test_frame_allocation_failure_is_a_resource_limit(
            self, capsys, monkeypatch, message, code, err):
        # CPython 3.11 fails a call that finds no memory for its frame
        # with this SystemError, not a MemoryError; any other SystemError
        # is still an internal error
        def exhausted(*args, **kwargs):
            raise SystemError(message)

        monkeypatch.setattr("permx.extremal.exfn_exact", exhausted)
        assert invoke(capsys, "exfn", "--pattern", "12", "--n", "3") == (code, "", err)

    @staticmethod
    def exfn_under_address_cap(megabytes):
        env = dict(os.environ)
        src = str(Path(permx.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        cap = megabytes * 2 ** 20
        proc = subprocess.run(
            [sys.executable, "-m", "permx.cli", "exfn", "--pattern", "132", "--n", "64"],
            capture_output=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_exhausted_address_space_is_a_resource_limit(self):
        # a real MemoryError in a child capped at 100 MB of address space:
        # the failed search's memo must be freed before the report prints.
        # ex(132, 64) outgrows every cap tried here within seconds
        assert self.exfn_under_address_cap(100) == (
            EXIT_RESOURCE, b"", b"resource limit: out of memory\n"
        )

    @pytest.mark.parametrize("megabytes", [60, 140])
    def test_other_address_caps_are_resource_limits(self, megabytes):
        # the search runs out at another depth and in another allocation
        assert self.exfn_under_address_cap(megabytes) == (
            EXIT_RESOURCE, b"", b"resource limit: out of memory\n"
        )

    def test_exfn_of_a_wide_identity_is_proven(self, capsys):
        # ex(I_k, n) = 2(k - 1)n - (k - 1)^2, here 127 at n = 64: the
        # sweep merges the rows of each state into few distinct children
        code, out, err = invoke(capsys, "exfn", "--pattern", "12", "--n", "64", "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].endswith(",12,true,127")

    def test_sw_estimate_length_limit(self, capsys):
        code, out, err = invoke(capsys, "sw-estimate", "--pattern", "2413", "--n-max", "18")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "resource limit: n=18 exceeds the configured limit 17\n"

    def test_verify_jv_length_limit(self, capsys):
        code, out, err = invoke(
            capsys, "verify-jv", "--a", "1", "--b", "12", "--c", "21", "--n", "12"
        )
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "resource limit: n=12 exceeds the configured limit 11\n"

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["contains", "--host", "123"])
        assert exc.value.code == 2

    def test_domain_error_in_bounds(self, capsys):
        code, _, err = invoke(
            capsys, "bounds", "lemma21", "--k", "2", "--a", "1", "--t", "4", "--s", "2"
        )
        assert code == EXIT_BAD_INPUT
        assert "rejected" in err

    @pytest.mark.parametrize("argv", [
        ("certify", "--k", "nan", "--a", "1", "--c", "2"),
        ("crude", "--k", "inf", "--a", "1", "--c", "2"),
        ("alpha", "--a", "1", "--c", "2.5"),
        ("alpha", "--a", "inf", "--c", "2"),
        ("schedule", "--k", "1e300", "--a", "5", "--c", "4"),
        ("schedule", "--k", "1e6", "--a", "inf", "--c", "2"),
        ("lemma21", "--k", "3", "--a", "nan", "--t", "5", "--s", "4"),
        ("lemma21", "--k", "3", "--a", "inf", "--t", "5", "--s", "4"),
        ("lemma21", "--k", "3", "--a", "1e6", "--t", "5", "--s", "4"),
        ("lemma21", "--k", "3", "--a", "1e8", "--t", "5", "--s", "4"),
        ("lemma21", "--k", "3", "--a=-1e308", "--t", "5", "--s", "4"),
        ("lemma22-rhs", "--k", "3", "--a", "nan", "--c", "3", "--t", "40", "--s", "30",
         "--x", "0.7", "--y", "0.2"),
        ("schedule", "--k", "21", "--a", "1e308", "--c", "132", "--floors"),
        ("certify", "--k", "1e6", "--a=-1", "--c", "2"),
        ("certify", "--k", "1e6", "--a", "1", "--c", "1"),
        ("certify", "--k=-5", "--a", "1", "--c", "2"),
        ("lemma22-rhs", "--k=-1", "--a", "2.5", "--c", "3", "--t", "40", "--s", "30",
         "--x", "0.7", "--y", "0.2"),
        ("alpha", "--a", "1e308", "--c", "6"),
        ("alpha", "--a", "5e304", "--c", "6"),
        # both float multipliers round to 1.0: bulk multipliers cannot close the weight gap
        ("schedule", "--k", "1e6", "--a", "1", "--c", "100000000000000000"),
    ])
    def test_out_of_domain_bounds_constants(self, capsys, argv):
        code, out, err = invoke(capsys, "bounds", *argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("rejected")
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ("check-lemma21", "--pattern", "12", "--a", "nan", "--t", "3", "--s", "2"),
        ("check-lemma21", "--pattern", "12", "--a", "inf", "--t", "3", "--s", "2"),
        ("check-lemma21", "--pattern", "12", "--a", "1e8", "--t", "3", "--s", "2"),
        ("check-lemma22", "--pattern", "12", "--a", "nan", "--c", "2", "--t", "5", "--s", "5",
         "--x", "0.6", "--y", "0.5"),
    ])
    def test_out_of_domain_lemma_check_constants(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("rejected")
        assert "Traceback" not in err and "internal error" not in err

    def test_ragged_matrix_rows(self, capsys):
        code, out, err = invoke(capsys, "matrix-contains", "--host", "01,1", "--pattern", "1")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("rejected") and "same length" in err

    @pytest.mark.parametrize("argv", [
        ("bounds", "mt", "--k", "3000"),
        ("bounds", "mt", "--k", str(10**30)),
        ("bounds", "lemma22-rhs", "--k", "2", "--a", "1", "--c", str(10**30),
         "--t", "1e308", "--s", "1e308", "--x", "0.5", "--y", "0.5"),
        ("bounds", "schedule", "--k", "2", "--a", "132", "--c", "12"),
        ("fpts", "--pattern", "12", "--t", "65", "--s", "1", "--budget", "1000"),
        ("merge-check", "--red", "12", "--blue", "21", "--n", "12"),
        # results past 4300 digits, which str() refuses to print
        ("bounds", "fox-rhs", "--ex-table", f"1={'9' * 4000},2=3,3={'9' * 4000}",
         "--t", "2", "--s", "2", "--f", "1", "--g", "1", "--n", "3"),
        ("bounds", "lemma22-rhs", "--k", "2", "--a", "1", "--c", "20", "--t", "5", "--s", "5",
         "--x", "0.5", "--y", "0.01", "--f-sub", "9" * 4299),
    ])
    def test_oversized_results_hit_resource_limits(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource limit")
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        # the hypothesis searches (exfn up to n = 4) would run first
        ("check-lemma21", "--pattern", "12", "--a", "1", "--t", "65", "--s", "3"),
        # ex(2) = 3 > 2^0.5 * 2 fails the hypothesis, but the width is refused first
        ("check-lemma21", "--pattern", "12", "--a", "0.5", "--t", "65", "--s", "3"),
        # the hypothesis searches and the sub-search fpts(12, t=32, s=10)
        # would run first
        ("check-lemma22", "--pattern", "12", "--a", "1", "--c", "2", "--t", "65",
         "--s", "20", "--x", "0.6", "--y", "0.5"),
        # ex(2) = 3 > 2^0.5 * 2 fails the hypothesis, but the width is refused first
        ("check-lemma22", "--pattern", "12", "--a", "0.5", "--c", "2", "--t", "65",
         "--s", "20", "--x", "0.6", "--y", "0.5"),
    ], ids=["check-lemma21", "check-lemma21-failing-hypothesis", "check-lemma22",
            "check-lemma22-failing-hypothesis"])
    def test_lemma_host_wider_than_row_masks(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource limit") and f"{MAX_WIDTH}-bit" in err
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("argv, want", [
        # C(25, 12) cut sets, all of them intervals: above the ceiling
        (("decompose", "--pattern", " ".join(map(str, range(1, 27))), "--c", "13"),
         EXIT_RESOURCE),
        # blockable, so the check goes on to reject s <= k^a
        (("check-lemma22", "--pattern", " ".join(map(str, range(26, 0, -1))),
          "--a", "1", "--c", "13", "--t", "5", "--s", "5", "--x", "0.95", "--y", "0.1"),
         EXIT_BAD_INPUT),
    ], ids=["decompose", "check-lemma22"])
    def test_long_pattern_decompositions_are_counted(self, capsys, argv, want):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (want, "")
        assert "Traceback" not in err and "internal error" not in err

    def test_both_lemma_checks_refuse_a_failing_hypothesis_alike(self, capsys):
        # ex(1234, 2) = 4 > 2 * 4^0.01, found before any row search
        lemma21 = invoke(capsys, "check-lemma21", "--pattern", "1234", "--a", "0.01",
                         "--t", "8", "--s", "8")
        lemma22 = invoke(capsys, "check-lemma22", "--pattern", "1234", "--a", "0.01",
                         "--c", "2", "--t", "8", "--s", "8", "--x", "0.6", "--y", "0.7")
        assert lemma22 == lemma21 == (
            EXIT_BAD_INPUT, "", "rejected: ex(n=2) = 4 exceeds k^a*n = 2.02792\n")

    @pytest.mark.parametrize("argv", [
        ("fpts", "--pattern", "21", "--t", "64", "--s", "64"),
        # its sub-search is t = s = 32
        ("check-lemma22", "--pattern", "12", "--a", "1", "--c", "2", "--t", "64",
         "--s", "64", "--x", "0.6", "--y", "0.5"),
    ])
    def test_weight_close_to_width_is_quick(self, capsys, argv):
        # candidate rows are the submasks of exactly s ones, one per state here
        start = time.perf_counter()
        code, out, _ = invoke(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == EXIT_OK and out

    def test_wide_host_lemma21_is_proven(self, capsys):
        # 40 columns, s = 3: the C(40, 3) rows of weight 3 per state are
        # few, where the rows of weight 3 or more number about 2^40
        start = time.perf_counter()
        code, out, err = invoke(capsys, "check-lemma21", "--pattern", "12", "--a", "1",
                                "--t", "40", "--s", "3", "--format", "json")
        assert time.perf_counter() - start < 10
        assert (code, err) == (EXIT_OK, "")
        assert out == ('{"a":1.0,"hypothesis_checked_upto":4,"k":2,"lhs":19,"nodes":92217,'
                       '"pass":true,"pattern":"12","rhs":"80","s":3,"t":40}\n')

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("k, a, c", [("4096", "1", "2"), ("1e6", "2", "3")])
    def test_certify_floors_keeps_report(self, capsys, fmt, k, a, c):
        argv = ("bounds", "certify", "--k", k, "--a", a, "--c", c, "--format", fmt)
        plain = invoke(capsys, *argv)
        floored = invoke(capsys, *argv, "--floors")
        assert plain == floored
        assert plain[0] == EXIT_OK and plain[1]

    def test_certify_floors_needs_integral_exponent(self, capsys):
        argv = ("bounds", "certify", "--k", "1e6", "--a", "1.5", "--c", "2")
        assert invoke(capsys, *argv)[0] == EXIT_OK
        code, out, err = invoke(capsys, *argv, "--floors")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("rejected") and "integral" in err


    def test_exfn_past_the_budget_is_unproven(self, capsys):
        code, out, err = invoke(
            capsys, "exfn", "--pattern", "12", "--n", "40", "--budget", "100000",
            "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["proven_optimal"] is False
        assert len(data["witness"]["ones"]) == data["value"] <= 2 * 40 - 1
        assert "Traceback" not in err and "internal error" not in err

    def test_exfn_wider_than_row_masks(self, capsys):
        code, out, err = invoke(
            capsys, "exfn", "--pattern", "12", "--n", str(MAX_WIDTH + 1)
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource limit")
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("pattern, want", [
        (range(1, 1201), "true\n"),
        (range(1200, 0, -1), "false\n"),
    ], ids=["increasing", "decreasing"])
    def test_tall_permutation_pattern(self, capsys, pattern, want):
        # longer than the interpreter's recursion limit
        host = " ".join(map(str, range(1, 1501)))
        code, out, err = invoke(
            capsys, "contains", "--host", host, "--pattern", " ".join(map(str, pattern))
        )
        assert (code, out, err) == (EXIT_OK, want, "")

    def test_tall_matrix_pattern(self, capsys):
        # one pattern row per host row, more rows than the recursion limit
        column = ",".join(["1"] * 1100)
        code, out, err = invoke(capsys, "matrix-contains", "--host", column, "--pattern", column)
        assert (code, out, err) == (EXIT_OK, "true\n", "")

    def test_matrix_pattern_rows_no_host_row_holds(self, capsys):
        # C(40, 20) row subsets; a pattern row that fits no host row ends
        # every partial choice at its first row
        host, pattern = ",".join(["10"] * 40), ",".join(["11"] * 20)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "matrix-contains", "--host", host, "--pattern", pattern)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_OK, "false\n", "")


class TestJsonOutput:
    def test_count_av_shape(self, capsys):
        code, out, _ = invoke(
            capsys, "count-av", "--pattern", "123", "--n", "4", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"count": "14", "n": 4, "pattern": "123"}

    def test_alpha_values(self, capsys):
        _, out, _ = invoke(
            capsys, "bounds", "alpha", "--a", "1", "--c", "2", "--format", "json"
        )
        data = json.loads(out)
        assert abs(data["alpha"] - 122.7226) < 1e-3
        assert data["theorem12_exponent"] == pytest.approx(2 * data["alpha"], rel=1e-12)

    def test_fpts_witness(self, capsys):
        _, out, _ = invoke(
            capsys, "fpts", "--pattern", "12", "--t", "3", "--s", "2",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["value"] == 2
        assert data["proven_optimal"] is True
        assert data["witness"]["cols"] == 3

    @pytest.mark.parametrize("fmt, want", [
        ("json", '{"nodes_explored":0,"pattern":"12","proven_optimal":true,"s":0,"t":3,'
                 '"value":null,"witness":{"cols":3,"ones":[],"rows":1}}\n'),
        ("csv", "nodes_explored,pattern,proven_optimal,s,t,value\n0,12,true,0,3,null\n"),
        ("text", "nodes_explored = 0\npattern = 12\nproven_optimal = true\ns = 0\nt = 3\n"
                 'value = null\nwitness = {"cols": 3, "ones": [], "rows": 1}\n'),
    ])
    @pytest.mark.parametrize("command", ["fpts", "gpts"])
    def test_zero_weight_is_a_proven_infinity(self, capsys, command, fmt, want):
        # s = 0 < k like every thin weight: the zero row repeats forever
        code, out, err = invoke(capsys, command, "--pattern", "12", "--t", "3", "--s", "0",
                                "--format", fmt)
        assert (code, out, err) == (EXIT_OK, want, "")

    def test_exfn(self, capsys):
        _, out, _ = invoke(
            capsys, "exfn", "--pattern", "12", "--n", "3", "--format", "json"
        )
        data = json.loads(out)
        assert data["value"] == 5
        assert len(data["witness"]["ones"]) == 5

    def test_check_lemma21(self, capsys):
        _, out, _ = invoke(
            capsys, "check-lemma21", "--pattern", "12", "--a", "1",
            "--t", "3", "--s", "3", "--format", "json",
        )
        data = json.loads(out)
        assert data["pass"] is True
        assert data["rhs"] == "6"
        assert "wall_ms" not in data

    def test_check_lemma22(self, capsys):
        _, out, _ = invoke(
            capsys, "check-lemma22", "--pattern", "12", "--a", "1", "--c", "2",
            "--t", "5", "--s", "5", "--x", "0.6", "--y", "0.5", "--format", "json",
        )
        data = json.loads(out)
        assert data["pass"] is True
        assert data["rhs"] == "12"
        assert (data["shrunk_t"], data["shrunk_s"]) == (2, 2)
        assert data["f_sub_capped"] is False

    def test_check_lemma21_infinite_left_side_fails(self, capsys, monkeypatch):
        # s = 2 < k = 3: rows of ones in two fixed columns avoid 123, so f
        # is infinite, which refutes the bound 64.6 without a search; the
        # hypothesis, checked at n = 1 alone, costs one node
        monkeypatch.setattr("permx.extremal._HYPOTHESIS_N", 1)
        code, out, _ = invoke(
            capsys, "check-lemma21", "--pattern", "123", "--a", "0.5", "--t", "10", "--s", "2",
            "--format", "json",
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert (data["pass"], data["lhs"], data["nodes"]) == (False, None, 1)

    def test_check_lemma22_flags_capped_sub_search(self, capsys, monkeypatch):
        # the shrunken instance t = s = 1 lets one row repeat forever, so
        # f_sub is infinite, 64 stands in for it, and the report says so.
        # a = 0.1 passes the hypothesis at n = 1 alone
        monkeypatch.setattr("permx.extremal._HYPOTHESIS_N", 1)
        code, out, _ = invoke(
            capsys, "check-lemma22", "--pattern", "21", "--a", "0.1", "--c", "2",
            "--t", "3", "--s", "3", "--x", "0.6", "--y", "0.5", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert (data["f_sub"], data["f_sub_capped"], data["pass"]) == (64, True, True)

    def test_mt_exact_string(self, capsys):
        _, out, _ = invoke(capsys, "bounds", "mt", "--k", "2", "--format", "json")
        assert json.loads(out) == {"bound": "192", "k": 2}

    def test_big_integers_serialize_as_strings(self, capsys):
        _, out, _ = invoke(capsys, "bounds", "mt", "--k", "40", "--format", "json")
        data = json.loads(out)
        assert isinstance(data["bound"], str)
        assert int(data["bound"]) > 2**53
        big = "100000000000000000000"
        _, out, _ = invoke(
            capsys, "fpts", "--pattern", "12", "--t", "3", "--s", big, "--format", "json"
        )
        assert f'"s":"{big}"' in out
        _, out, _ = invoke(
            capsys, "bounds", "lemma22-rhs", "--k", "3", "--a", "1", "--c", "3",
            "--t", "9", "--s", "9", "--x", "0.9", "--y", "0.1", "--f-sub", big,
            "--format", "json",
        )
        assert out == (
            '{"a":1.0,"c":3,"f_sub":"100000000000000000000","k":3.0,'
            '"rhs":"5100000000000000000030/17","s":9.0,"t":9.0,"x":0.9,"y":0.1}\n'
        )
        fox = ("bounds", "fox-rhs", "--ex-table", f"1=1,2=3,{big}=5",
               "--t", "2", "--s", "2", "--f", "1", "--g", "1", "--n", big)
        _, out, _ = invoke(capsys, *fox, "--format", "json")
        assert f'"n":"{big}"' in out
        _, out, _ = invoke(capsys, *fox, "--format", "csv")
        assert f"1,1,{big},600000000000000000005,2,2\n" in out
        _, out, _ = invoke(capsys, *fox, "--format", "text")
        assert f"n = {big}\n" in out

    def test_lemma22_rhs_exact(self, capsys):
        _, out, _ = invoke(
            capsys, "bounds", "lemma22-rhs", "--k", "2", "--a", "1", "--c", "2",
            "--t", "5", "--s", "5", "--x", "0.6", "--y", "0.5", "--f-sub", "1",
            "--format", "json",
        )
        assert json.loads(out)["rhs"] == "12"

    def test_fox_rhs(self, capsys):
        _, out, _ = invoke(
            capsys, "bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=5",
            "--t", "3", "--s", "3", "--f", "1", "--g", "1", "--n", "2",
            "--format", "json",
        )
        assert json.loads(out)["rhs"] == "29"

    def test_schedule_shape(self, capsys):
        _, out, _ = invoke(
            capsys, "bounds", "schedule", "--k", "1000", "--a", "1", "--c", "2",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["params"]["c"] == 2
        assert len(data["states"]) == data["R_A"] + 3
        assert set(data["milestones"]) == {"bulk_end", "penultimate", "final"}

    def test_certify_shape(self, capsys):
        _, out, _ = invoke(
            capsys, "bounds", "certify", "--k", "1e6", "--a", "1", "--c", "2",
            "--format", "json",
        )
        data = json.loads(out)
        names = [c["name"] for c in data["checks"]]
        assert len(names) == len(set(names))
        failing = [c["name"] for c in data["checks"] if not c["holds"]]
        assert failing == ["width_at_least_weight_log2"]

    def test_decompose_roundtrip_entry(self, capsys):
        _, out, _ = invoke(
            capsys, "decompose", "--pattern", "479832156", "--c", "4",
            "--format", "json",
        )
        data = json.loads(out)
        assert {"skeleton": "2413", "blocks": "1 132 321 12"} in data["decompositions"]

    def test_verify_jv(self, capsys):
        _, out, _ = invoke(
            capsys, "verify-jv", "--a", "1", "--b", "1", "--c", "1", "--n", "4",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["holds"] is True
        assert data["combined"] == "123"

    def test_merge_check(self, capsys):
        _, out, _ = invoke(
            capsys, "merge-check", "--red", "12", "--blue", "21", "--n", "3",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["holds_refined"] is True


class TestLargeSchedules:
    """``bounds schedule`` at grid points whose early widths pass 2^1024,
    so t and s print null.  The digests and lengths were taken from the
    reports of the commit before schedule states were written as rows;
    the golden corpus reaches only k = 64."""

    PINS = [
        ("1099511627776", "3", "6", False, "json",
         "31786c1fe0aa80973d89fa43e68ba0b42c9c36766ad1635ceb8d96915ec684c7", 1859259),
        ("1099511627776", "3", "6", False, "csv",
         "62577e375ab1097edb03831b4ce30ba51f1de92f5ec26d4290cedd38331d6608", 1224705),
        ("1099511627776", "3", "6", False, "text",
         "637e4cece842e4db38abd8d56aed77f4b93f57bf24cb19d9a95005565c7423a4", 2057341),
        ("1099511627776", "3", "6", True, "json",
         "539e06c87732dff328cac9698f3df9f8105473f09aeab51d81331fb86e4c4b8c", 1859184),
        ("1099511627776", "3", "6", True, "csv",
         "c17e8a788e1b029eb7abff185c937a1bedfa15dfceec3aaf5481b4aefa92e755", 1224633),
        ("1099511627776", "3", "6", True, "text",
         "2994548fd261ec2728818e28aa2f049cf2346f34b015e0499ab73fa832d22fb8", 2057266),
        ("4194304", "2", "6", False, "json",
         "fbdd6afa6992ae9799f34ed6221091bffa2e01cc74a1102a3bc5829766deb64f", 883125),
        ("4194304", "2", "6", False, "csv",
         "2f27603425456b4e695bfeef1525cb2a5d84f01642af2a14de70bd620d26bff8", 622625),
        ("4194304", "2", "6", False, "text",
         "a370f96917ee32fd4161dd2b3d71685b3ea0df06aac49a88df37c57215c6ab50", 964327),
        ("4194304", "2", "6", True, "json",
         "59b4443dc44e5e4c9ae5c87d7f5d2f035e75b6e8f23ff996cfcebdea89f049c9", 883055),
        ("4194304", "2", "6", True, "csv",
         "ae7ab1a06a898c9d9f715225d80de4691aa024d1b162ddde29f15452f57effd2", 622558),
        ("4194304", "2", "6", True, "text",
         "5d1835c1f03a701777acf4b1da21dcfe8d76157a40e6b53498a05a0f92f5f5fc", 964257),
        ("1e6", "2", "3", False, "json",
         "e688b65dd7b3ff44145056c2a801d90a721ecf3c426dececb9545573b9ec38f1", 156432),
        ("1e6", "2", "3", False, "csv",
         "cebad105d825bff1ab521490c48ec91af8d6f232307e741f9c8a04420d29861a", 113543),
        ("1e6", "2", "3", False, "text",
         "0bd98ce67411f7d54d40658c0d453af1b5213647a81694c1d1037ad52cd0afad", 169634),
    ]

    @staticmethod
    def argv(k, a, c, floors, fmt):
        return ["bounds", "schedule", "--k", k, "--a", a, "--c", c, "--format", fmt,
                *(["--floors"] if floors else [])]

    @pytest.mark.parametrize(
        "k, a, c, floors, fmt, sha256, length", PINS,
        ids=[f"{k}-{a}-{c}-{'floors-' * fl}{fmt}" for k, a, c, fl, fmt, *_ in PINS],
    )
    def test_report_bytes_pinned(self, k, a, c, floors, fmt, sha256, length):
        code, out = run(self.argv(k, a, c, floors, fmt))
        data = out.encode()
        assert code == EXIT_OK
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, length)

    @pytest.mark.parametrize("floors", [False, True])
    def test_json_report_is_the_library_dict(self, floors):
        # the rows written by the CLI and Schedule.to_jsonable agree,
        # null t and s included; the floored report swaps in the replay
        schedule = build_schedule(BoundParams(2.0 ** 40, 3.0, 6))
        want = schedule.to_jsonable()
        if floors:
            log2_t, log2_s, drift_t, drift_s = floored_states(schedule)
            want.update(
                floors_applied=True,
                floor_drift_t=drift_t,
                floor_drift_s=drift_s,
                states=[_state_jsonable(*row)
                        for row in zip(range(len(log2_t)), log2_t, log2_s)],
            )
        _, out = run(self.argv("1099511627776", "3", "6", floors, "json"))
        want = json.dumps(want, sort_keys=True, separators=(",", ":"))
        same = out == want + "\n"  # a bare comparison would diff 1.8 MB on failure
        assert same

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("floors", [False, True])
    def test_peak_memory_within_five_outputs(self, fmt, floors):
        argv = self.argv("1099511627776", "3", "6", floors, fmt)
        parser_calls = build_parser.cache_info()[:2]
        tracemalloc.start()
        try:
            code, out = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert build_parser.cache_info()[:2] == parser_calls  # a canonical line: no parser
        # one dict per state and the JSON of them all peaked at 5.7-13.6
        # outputs; rows written through a template stay near 3
        assert peak <= 5 * len(out), (peak, len(out))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_floors_precondition_prints_nothing(self, capsys, fmt):
        argv = ["bounds", "schedule", "--k", "1e6", "--a", "1.5", "--c", "2", "--format", fmt]
        assert invoke(capsys, *argv)[0] == EXIT_OK
        code, out, err = invoke(capsys, *argv, "--floors")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("rejected") and "integral" in err


class TestCsvOutput:
    def test_certify_table(self, capsys):
        _, out, _ = invoke(
            capsys, "bounds", "certify", "--k", "1e6", "--a", "1", "--c", "2",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "name,holds,lhs,rhs"
        assert len(lines) > 10

    def test_sw_estimate_table(self, capsys):
        _, out, _ = invoke(
            capsys, "sw-estimate", "--pattern", "132", "--n-max", "4",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "n,count,estimate"
        assert len(lines) == 5
        assert lines[1].startswith("1,1,")

    def test_scalar_flatten(self, capsys):
        _, out, _ = invoke(capsys, "bounds", "mt", "--k", "2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "bound,k"
        assert lines[1] == "192,2"


class TestTextOutput:
    def test_sum(self, capsys):
        _, out, _ = invoke(capsys, "sum", "--left", "21", "--right", "1")
        assert out == "213\n"

    def test_skew(self, capsys):
        _, out, _ = invoke(capsys, "skew", "--left", "12", "--right", "21")
        assert out == "3421\n"

    def test_inflate(self, capsys):
        _, out, _ = invoke(
            capsys, "inflate", "--skeleton", "2413", "--blocks", "1,132,321,12"
        )
        assert out == "479832156\n"

    def test_matrix_contains(self, capsys):
        code, out, _ = invoke(
            capsys, "matrix-contains", "--host", "010,100,001", "--pattern", "01,10"
        )
        assert code == EXIT_OK and out == "true\n"

    @pytest.mark.parametrize("flag", ["--host", "--pattern"])
    @pytest.mark.parametrize("text", ["1,,1", "10,01,", ",1"])
    def test_empty_matrix_row(self, capsys, flag, text):
        other = "--pattern" if flag == "--host" else "--host"
        code, out, err = invoke(capsys, "matrix-contains", flag, text, other, "1")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("rejected") and "empty" in err

    def test_bad_matrix(self, capsys):
        code, _, err = invoke(
            capsys, "matrix-contains", "--host", "01x,100", "--pattern", "1"
        )
        assert code == EXIT_BAD_INPUT
        assert "0/1" in err

    def test_generic_key_value(self, capsys):
        _, out, _ = invoke(capsys, "bounds", "mt", "--k", "2")
        assert out == "bound = 192\nk = 2\n"


class TestBudgets:
    def test_env_budget(self, capsys):
        code, _, err = invoke(capsys, "count-av", "--pattern", "123", "--n", "8",
                              "--budget", "10")
        assert code == EXIT_RESOURCE
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ("merge-check", "--red", "123", "--blue", "132", "--n", "6"),
        ("verify-jv", "--a", "1", "--b", "12", "--c", "21", "--n", "6"),
    ])
    def test_smallest_state_budget(self, capsys, argv):
        # the budget counts distinct states, so the smallest one that
        # suffices is fixed: one less exits 3
        def outcome(budget):
            code, _, err = invoke(capsys, *argv, "--budget", str(budget))
            assert "Traceback" not in err
            return code

        lo, hi = 1, 10 ** 5
        while lo < hi:
            mid = (lo + hi) // 2
            if outcome(mid) == EXIT_OK:
                hi = mid
            else:
                lo = mid + 1
        assert lo > 1
        assert outcome(lo) == EXIT_OK
        assert outcome(lo - 1) == EXIT_RESOURCE


class TestOneParser:
    """``main`` reuses one parser; nothing of one call leaks into the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_valid_request_after_usage_error(self, capsys):
        argv = ("contains", "--host", "42153", "--pattern", "312", "--format", "json")
        before = invoke(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["contains", "--host", "12"])
        assert exc.value.code == 2
        usage = capsys.readouterr()
        assert usage.out == "" and "required" in usage.err
        assert invoke(capsys, *argv) == before


class TestOnePath:
    """``run(argv)`` is the one way from a command line to its report."""

    def test_bad_format_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["contains", "--host", "1", "--pattern", "1", "--format", "yaml"])
        assert exc.value.code == 2

    def test_zero_budget_flag(self, capsys):
        with pytest.raises(PreconditionViolated, match="budget must be positive"):
            run(["count-av", "--pattern", "1", "--n", "1", "--budget", "0"])
        code, out, err = invoke(capsys, "count-av", "--pattern", "1", "--n", "1", "--budget", "0")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("rejected")

    def test_budget_flag_on_unbudgeted_command(self):
        # only the commands that list BUDGET take --budget
        with pytest.raises(SystemExit) as exc:
            run(["sum", "--left", "1", "--right", "1", "--budget", "10"])
        assert exc.value.code == 2

    def test_lemma21_takes_no_hypothesis_depth(self, capsys):
        # the hypothesis is checked to n = 4; no flag changes that
        with pytest.raises(SystemExit) as exc:
            run(["check-lemma21", "--pattern", "123", "--a", "1", "--t", "7", "--s", "4",
                 "--hypothesis-n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --hypothesis-n 3" in capsys.readouterr().err

    def test_certify_takes_no_tolerance(self, capsys):
        # the certificate's float slack is fixed; no flag loosens it
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "certify", "--k", "4096", "--a", "1", "--c", "2", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    def test_selftest_takes_no_seed(self):
        # the criteria run in id order; no option reorders them
        with pytest.raises(SystemExit) as exc:
            run(["selftest", "--seed", "3"])
        assert exc.value.code == 2

    def test_bounds_subcommand_resolves(self):
        code, out = run(["bounds", "alpha", "--a", "1", "--c", "2", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["a"] == 1.0 and payload["c"] == 2.0
        assert abs(payload["alpha"] - 122.7226) < 1e-3

    def test_stability_criterion_ignores_budget_env(self):
        # criterion 13 drives run(argv) at the library default budget
        from permx.selftest import CRITERIA

        ok, detail = CRITERIA[12].fn()
        assert ok, detail
        assert detail == "6 commands, 158800 report bytes stable"


class TestOperands:
    """Each operand is parsed once, by its flag's type, and echoed from
    its parsed value."""

    FOX = ("--t", "3", "--s", "3", "--f", "1", "--g", "1", "--n", "2")

    @pytest.mark.parametrize("argv", [
        ("contains", "--host", "2 1_0 1 3 4 5 6 7 8 9", "--pattern", "+2 1", "--format", "json"),
        ("inflate", "--skeleton", "21", "--blocks", "1,,21"),
        ("inflate", "--skeleton", "21", "--blocks", ",1,21,"),
        ("bounds", "fox-rhs", "--ex-table", "1=1,,2=+3,3=1_0", *FOX),
        ("bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=5,", *FOX),
        ("bounds", "fox-rhs", "--ex-table", "1=1,2=+3,3=5", *FOX),
        ("bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=1_0", *FOX),
        ("bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=5,3=500", *FOX),
    ])
    def test_malformed_operand_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("rejected: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("count-av", "--pattern", "12", "--n", "1_0"),
        ("count-av", "--pattern", "12", "--n", "3", "--budget", "1_000"),
        ("count-av", "--pattern", "12", "--n", "9" * 5000),  # past int's digit limit
        ("exfn", "--pattern", "12", "--n", "+3"),
        ("exfn", "--pattern", "12", "--n", " 3"),
        ("fpts", "--pattern", "12", "--t", "1e3", "--s", "2"),
        ("bounds", "mt", "--k", "+3"),
        ("bounds", "alpha", "--a", "+1", "--c", "2"),
        ("bounds", "alpha", "--a", "1", "--c", "1_0"),
        ("bounds", "lemma21", "--k", "2", "--a", "1", "--t", "1_0.5", "--s", "8"),
        ("bounds", "lemma21", "--k", " +3", "--a", "1", "--t", "5", "--s", "4"),
        ("bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=5", *FOX[:-1], "1_0"),
    ])
    def test_malformed_number_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("rejected: not a ") and err.count("\n") == 1

    def test_numbers_keep_their_grammar(self, capsys):
        # non-ASCII decimal digits are decimal, as parse_permutation("١٢") is
        code, out, _ = invoke(capsys, "count-av", "--pattern", "12", "--n", "١٠",
                              "--format", "json")
        assert (code, json.loads(out)["n"]) == (EXIT_OK, 10)
        # an exponent sign is not a leading sign
        code, out, _ = invoke(capsys, "bounds", "alpha", "--a", "1e+0", "--c", "2.0",
                              "--format", "json")
        assert (code, json.loads(out)["a"]) == (EXIT_OK, 1.0)

    @pytest.mark.parametrize("table, item", [
        ("1=1,2=3,3=5,3=500", "'3=500'"),
        ("1=1,2=3,3=5,03=5", "'03=5'"),
    ])
    def test_ex_table_repeated_key_rejected(self, capsys, table, item):
        # keys compare as integers, so 3 and 03 are one key
        code, out, err = invoke(capsys, "bounds", "fox-rhs", "--ex-table", table, *self.FOX)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == f"rejected: ex-table repeats n=3: {item}\n"

    def test_fox_rhs_negative_row_count_rejected(self, capsys):
        code, out, err = invoke(capsys, "bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=5",
                                "--t", "3", "--s", "2", "--f", "-1", "--g", "1", "--n", "3")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "rejected: need f, g >= 0, got f=-1, g=1\n"

    def test_fox_rhs_nonpositive_size_rejected(self, capsys):
        code, out, err = invoke(capsys, "bounds", "fox-rhs", "--ex-table", "1=1,2=3,3=5",
                                "--t", "3", "--s", "0", "--f", "1", "--g", "1", "--n", "2")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "rejected: need s >= 1, got 0\n"

    def test_first_malformed_operand_is_reported(self, capsys):
        code, _, err = invoke(capsys, "contains", "--pattern", "1x", "--host", "4x2")
        assert (code, err) == (EXIT_BAD_INPUT, "rejected: not a digit string: '1x'\n")

    @pytest.mark.parametrize("argv", [
        ("exfn", "--n", "3"),
        ("fpts", "--t", "3", "--s", "2"),
        ("gpts", "--t", "3", "--s", "2"),
        ("check-lemma21", "--a", "1", "--t", "3", "--s", "3"),
        ("check-lemma22", "--a", "1", "--c", "2", "--t", "5", "--s", "5", "--x", "0.6",
         "--y", "0.5"),
    ])
    def test_searches_echo_the_parsed_pattern(self, argv):
        def echoed(*args):
            code, out = run([*args, "--pattern", " 1 2 ", "--format", "json"])
            assert code == EXIT_OK
            return json.loads(out)["pattern"]

        assert echoed(*argv) == echoed("count-av", "--n", "3") == "12"


class TestDeterminism:
    ARGVS = [
        ["count-av", "--pattern", "132", "--n", "7", "--format", "json"],
        ["bounds", "certify", "--k", "1000000", "--a", "1", "--c", "3", "--format", "json"],
        ["exfn", "--pattern", "21", "--n", "4", "--format", "json"],
        ["gpts", "--pattern", "12", "--t", "4", "--s", "2", "--format", "csv"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=["count-av", "bounds certify", "exfn", "gpts"])
    def test_repeat_runs_byte_identical(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == EXIT_OK

    def test_main_twice_same_bytes(self, capsys):
        argv = ["bounds", "schedule", "--k", "1e6", "--a", "2", "--c", "3",
                "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second and first


# Values drawn for every flag of every subcommand: non-finite, negative,
# zero, huge and non-numeric numbers, empty text, small permutations, a
# matrix, an ex-table, and text that int() or float() reads but the
# flag parsers refuse.
EDGE_VALUES = (
    "nan", "inf", "-1", "0", "1", "2", "2.5", "1e308", str(10**30), "abc", "",
    "12", "21", "132", "10,01", "1=1,2=3", "1²", "1_0", "+2 1", "1,,2", " 1 2 ",
    "+3",
)


# Values in the domain of each flag parser, named by the parser, or by
# the flag where the commands that take it need more: --k, the pattern
# size of the bounds commands, also takes a large k; --t, --s and --x
# keep 1 <= s <= t and 1/c < x < 1, and --y keeps 0 < y < 1.  About half
# the command lines draw every operand from here, so that many of them
# reach a report; the commands in ``TIED`` draw the operands that only
# work together jointly instead.
VALID_VALUES = {
    "parse_permutation": ("12", "21", "132", "213", "231", "312", "2413", "3142"),
    "_parse_int": ("2", "3", "4", "5"),
    "_parse_float": ("1", "2", "4"),
    "_parse_matrix": ("1", "10,01", "01,10", "11,01", "10,11", "110,011"),
    "_parse_blocks": ("1", "1,1", "12,1", "21,1", "12,21"),
    "_parse_ex_table": ("1=1,2=3,3=5,4=7",),
    "--k": ("3", "4", "4096"),
    "--a": ("1",),
    "--t": ("4", "6", "8"),
    "--s": ("4",),
    "--x": ("0.75", "0.8"),
    "--y": ("0.25", "0.5"),
}


def _permutation(draw):
    return draw(st.sampled_from(VALID_VALUES["parse_permutation"]))


def _inflate(draw):
    """A skeleton and one block per skeleton entry."""
    skeleton = _permutation(draw)
    return {"--skeleton": skeleton, "--blocks": ",".join(_permutation(draw) for _ in skeleton)}


def _decompose(draw):
    """A pattern and a block count 1 <= c <= its length."""
    pattern = _permutation(draw)
    return {"--pattern": pattern, "--c": str(draw(st.integers(1, len(pattern))))}


def _pattern_and_a(draw, flag):
    """A pattern (``flag`` --pattern) or its length k (--k), and --a:
    ``(k, a, operands)``."""
    pattern, a = _permutation(draw), draw(st.sampled_from(("1", "1.5")))
    k = len(pattern)
    return k, float(a), {flag: pattern if flag == "--pattern" else str(k), "--a": a}


def _lemma21(draw, flag):
    """k and --a, and --t and --s with k^a < s <= t."""
    k, a, operands = _pattern_and_a(draw, flag)
    s = int(k ** a) + draw(st.integers(1, 3))
    return {**operands, "--t": str(s + draw(st.integers(0, 3))), "--s": str(s)}


def _lemma22(draw, flag):
    """k and --a, and --c, --x, --y, --t and --s with floor(sy) >= 1 and
    a positive right side.  As c <= k, the pattern is c-blockable at
    least for c = k; x >= (c-1)/c makes floor(xc) = c - 1, so the right
    side's denominator s(1 - y(c-1)/floor(xc))c - k^a c is positive once
    s(1 - y) > k^a."""
    k, a, operands = _pattern_and_a(draw, flag)
    x, y = (draw(st.sampled_from(VALID_VALUES[f])) for f in ("--x", "--y"))
    s = max(int(k ** a / (1 - float(y))) + 1, math.ceil(1 / float(y))) + draw(st.integers(0, 2))
    return {**operands, "--c": str(draw(st.integers(2, k))), "--x": x, "--y": y,
            "--t": str(s + draw(st.integers(0, 3))), "--s": str(s)}


def _fox_rhs(draw):
    """--t, --s and --n, and an ex-table holding s - 1, t and n."""
    t, s, n = (draw(st.integers(1, 6)) for _ in range(3))
    table = ",".join(f"{m}={max(0, 2 * m - 1)}" for m in sorted({s - 1, t, n}))
    return {"--ex-table": table, "--t": str(t), "--s": str(s), "--n": str(n)}


# Commands whose operands only reach a report together: for each, a
# function of ``draw`` giving the text of the flags it ties.
TIED = {
    "inflate": _inflate,
    "decompose": _decompose,
    "bounds lemma21": partial(_lemma21, flag="--k"),
    "check-lemma21": partial(_lemma21, flag="--pattern"),
    "bounds lemma22-rhs": partial(_lemma22, flag="--k"),
    "check-lemma22": partial(_lemma22, flag="--pattern"),
    "bounds fox-rhs": _fox_rhs,
}


FUZZED = sorted(set(COMMANDS) - {"selftest"})  # selftest takes no operand


@st.composite
def fuzzed_argv(draw, name=None):
    """An argv for the subcommand ``name``, or for one drawn from
    ``FUZZED`` if None, its flags read from the command table; optional
    flags are left out half the time.  An argv takes every
    operand from ``VALID_VALUES``, or its tied ones from ``TIED``, three
    times in four as drawn, else from ``EDGE_VALUES``, and writes each
    flag and its value as separate words three times in four, else as
    one ``--flag=value`` word.  Both choices shrink toward the first:
    valid values in separate words, the canonical command line that
    ``permx.cli`` parses without argparse."""
    if name is None:
        name = draw(st.sampled_from(FUZZED))
    spec = COMMANDS[name]
    argv = name.split()
    edge, joined = (draw(st.sampled_from((False, False, False, True))) for _ in range(2))
    tied = TIED[name](draw) if name in TIED and not edge else {}

    def add(flag, value):
        argv.extend([f"{flag}={value}"] if joined else [flag, value])

    for flag, kwargs in spec.flags:
        if flag == "--budget":
            add(flag, "1000")  # an edge value like 10**30 lets a search run for minutes
        elif flag in tied:
            add(flag, tied[flag])
        elif kwargs.get("required") or draw(st.booleans()):
            if kwargs.get("action") == "store_true":
                argv.append(flag)
            else:
                values = (VALID_VALUES.get(flag) or VALID_VALUES[kwargs["type"].__name__]
                          if not edge else EDGE_VALUES)
                add(flag, draw(st.sampled_from(values)))
    add("--format", draw(st.sampled_from(FORMATS)))  # always the last flag
    return argv


def test_fuzzed_arguments_exit_cleanly(alarm_guard):
    # each command gets its own examples: drawn from one stream, the
    # commands would get from 5 to 47 of 400 examples
    examples = 18
    codes = []
    reached = Counter()  # the examples of each command that ran to a report

    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with alarm_guard(argv), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_RESOURCE), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        if code == EXIT_OK:
            reached[" ".join(argv[:2] if argv[0] == "bounds" else argv[:1])] += 1
            if argv[-1].removeprefix("--format=") == "json":  # --format is the last flag
                json.loads(out.getvalue(), parse_constant=_reject_constant)
        codes.append(code)

    for name in FUZZED:
        run_examples = settings(max_examples=examples, deadline=None, derandomize=True)
        run_examples(given(argv=fuzzed_argv(name))(check))()
    assert len(codes) == examples * len(FUZZED)  # 414
    assert codes.count(EXIT_OK) >= 200, Counter(codes)  # about half reach a report
    assert set(reached) == set(FUZZED)
    assert min(reached.values()) >= 3, reached


def _reject_constant(name):
    raise AssertionError(f"json output holds {name}, which is not valid JSON")
