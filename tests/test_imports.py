"""The import contract: a cold command line loads only core and the one
library module the command calls, a canonical command line builds no
parser and loads no argparse, any other line builds the full parser once
per process, and the package's lazy exports all resolve.  Each case runs
in a fresh interpreter and asserts on ``sys.modules`` and the parser
cache, not on time."""

import json
import os
import subprocess
import sys
from functools import cache
from itertools import chain, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_cli import fuzzed_argv
from test_cli_golden import CASES as GOLDEN

import permx

LIBRARY = {"permx.avoidance", "permx.bounds", "permx.extremal"}
# the frozen records need neither, so no command line pays for importing them
NOT_LOADED = {"dataclasses", "inspect"}
# a canonical command line is parsed from the command table alone
NO_PARSER = {"argparse", "gettext", "locale"}


def child(code: str, *args: str):
    """What ``code`` prints as JSON, run in a fresh interpreter that
    imports permx from this checkout."""
    env = dict(os.environ)
    src = str(Path(permx.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


COMMAND = """
import json, sys
from permx.cli import run
code, _ = run(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("argv, loads", [
    (["contains", "--host", "312", "--pattern", "21"], set()),
    (["count-av", "--pattern", "1234", "--n", "6"], {"permx.avoidance"}),
    (["exfn", "--pattern", "123", "--n", "4"], {"permx.extremal"}),
    (["bounds", "schedule", "--k", "4", "--a", "1", "--c", "2"], {"permx.bounds"}),
])
def test_command_loads_only_its_library_module(argv, loads):
    out = child(COMMAND, *argv)
    assert out["code"] == 0
    assert LIBRARY & set(out["modules"]) == loads
    assert NOT_LOADED.isdisjoint(out["modules"])
    assert NO_PARSER.isdisjoint(out["modules"])


PACKAGE = """
import json, sys
import permx
bare = sorted(m for m in sys.modules if m.startswith("permx."))
submodule = permx.avoidance.__name__
values = {name: getattr(permx, name) for name in permx.__all__}
star = {}
exec("from permx import *", star)
print(json.dumps({
    "bare": bare,
    "submodule": submodule,
    "foreign": sorted(name for name, value in values.items()
                      if getattr(sys.modules[value.__module__], name) is not value),
    "unbound": sorted(set(permx.__all__) - set(star)),
    "unlisted": sorted(set(permx.__all__) - set(dir(permx))),
    "unknown": hasattr(permx, "no_such_name"),
    "modules": sorted(sys.modules),
}))
"""


def test_package_exports_resolve_lazily():
    out = child(PACKAGE)
    assert out["bare"] == []  # ``import permx`` loads no submodule
    assert out["submodule"] == "permx.avoidance"
    assert out["foreign"] == []  # each name is its defining module's object
    assert out["unbound"] == []
    assert out["unlisted"] == []
    assert out["unknown"] is False
    assert NOT_LOADED.isdisjoint(out["modules"])  # after ``from permx import *``


CALL = """
import contextlib, io, json, sys
from permx import cli

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]
"""

FIRST_CALLS = CALL + """
first, built = [], []
for argv in json.loads(sys.argv[1]):
    cli.build_parser.cache_clear()  # each call is a process's first
    first.append(call(argv))
    built.append(cli.build_parser.cache_info().misses)
cli._command_named = lambda argv: None  # every call gets the full parser
full = [call(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"first": first, "full": full, "built": built}))
"""


def first_call_cases():
    from permx.cli import COMMANDS

    cases = [[], ["--help"], ["nope"], ["bounds"], ["bounds", "nope"], ["bounds mt"],
             ["contains", "--host", "312", "--pattern", "21", "extra"],
             ["bounds", "mt", "--k", "3", "extra"], ["bounds", "mt", "--k", "3"],
             ["contains", "--host", "312", "--pattern", "21", "--format", "csv"]]
    for name, spec in COMMANDS.items():
        words = name.split(" ")
        # a bare selftest would run it; every other bare command misses a flag
        cases += [words] * bool(spec.flags) + [words + ["--help"], words + ["--bad", "1"]]
    return cases


# Command lines in the forms argparse reads, each paired with whether it
# is canonical, so that the command table parses it without argparse.
ARGPARSE_FORMS = [
    (["contains", "--host=312", "--pattern=21"], False),
    (["contains", "--host", "312", "--pat", "21"], False),  # an abbreviated flag
    (["contains", "--host", "312", "--pattern", "21", "--pattern", "12"], False),  # the last holds
    (["contains", "--host", "312", "-h", "--pattern", "21"], False),
    (["bounds", "alpha", "--a", "-1", "--c", "2"], False),  # a negative value
    (["bounds", "alpha", "--a", "-1.5", "--c", "2"], False),
    (["bounds", "mt", "--k", "-3", "--format", "json"], False),
    (["contains", "--host", "312", "--", "--pattern", "21"], False),
    (["contains", "--host", "312", "--pattern", "21", "--", "extra"], False),
    (["contains", "--host", "312", "--pattern"], False),  # a missing value
    (["contains", "--host", "1223"], False),  # a missing required flag, after a bad value
    (["contains", "--host", "1223", "--h", "x"], False),  # an ambiguous flag, after a bad value
    (["contains", "--format", "xml", "--host", "1223", "--pattern", "12"], False),
    (["contains", "--host", "1223", "--pattern", "12", "--format", "xml"], False),
    (["bounds", "schedule", "--k", "4", "--floors", "--a", "1", "--c", "2", "--floors"], False),
    (["contains", "--format", "json", "--host", "312", "--pattern", "21"], True),
    (["contains", "--pattern", "1x", "--host", "1223"], True),  # the first bad value is reported
    (["contains", "--host", "", "--pattern", "1"], True),  # an empty value
    (["bounds", "schedule", "--k", "4", "--format", "csv", "--a", "1", "--c", "2"], True),
    (["bounds", "schedule", "--k", "4", "--floors", "--a", "1", "--c", "2"], True),
]


def fuzzed_cases(count: int) -> list:
    """``count`` argvs drawn by ``fuzzed_argv``, the same on every run."""
    drawn = []

    @settings(max_examples=count, derandomize=True, database=None)
    @given(argv=fuzzed_argv())
    def draw(argv):
        drawn.append(argv)

    draw()
    return drawn


@cache
def first_calls() -> dict:
    """Each group of cases as (argv, first call, full-parser call,
    parsers built by the first call), all from one child process."""
    groups = {"commands": first_call_cases(), "forms": [argv for argv, _ in ARGPARSE_FORMS],
              "golden": [case["argv"] for case in GOLDEN], "fuzzed": fuzzed_cases(300)}
    cases = [argv for argvs in groups.values() for argv in argvs]
    out = child(FIRST_CALLS, json.dumps(cases))
    results = iter(zip(cases, out["first"], out["full"], out["built"]))
    return {group: list(islice(results, len(argvs))) for group, argvs in groups.items()}


def test_first_call_builds_no_parser_for_a_canonical_line():
    # a canonical line is parsed from the command table and builds no
    # parser; every other line, help and usage errors included, builds
    # the full parser, which parses it whole
    calls = first_calls()
    table_parsed = [argv for argv, *_, built in calls["commands"] if built == 0]
    assert table_parsed == [["bounds", "mt", "--k", "3"],
                            ["contains", "--host", "312", "--pattern", "21", "--format", "csv"]]
    for argv, first, full, _ in calls["commands"]:
        assert first == full, argv
    assert [built for *_, built in calls["forms"]] == [
        int(not canonical) for _, canonical in ARGPARSE_FORMS]
    for argv, *_, built in chain.from_iterable(calls.values()):
        assert built in (0, 1), argv
    # all golden lines but "bounds alpha --a -1 --c 2", and at least half
    # the fuzzed ones (198 of 300 as drawn here)
    assert sum(built == 0 for *_, built in calls["golden"]) == len(GOLDEN) - 1
    assert sum(built == 0 for *_, built in calls["fuzzed"]) >= 150


@pytest.mark.parametrize("group", ["forms", "golden", "fuzzed"])
def test_parse_paths_agree(group):
    # a line parsed from the command table prints what the full
    # parser's path prints: exit code, stdout and stderr
    for argv, first, full, _ in first_calls()[group]:
        assert first == full, argv


CALLS = CALL + """
calls = [call(argv) for argv in json.loads(sys.argv[1])]
info = cli.build_parser.cache_info()
print(json.dumps({"calls": calls, "built": [info.misses, info.hits],
                  "argparse": "argparse" in sys.modules}))
"""

LATER_CALLS = [
    ["contains", "--host", "312", "--pattern", "21"],
    ["bounds", "mt", "--k", "3", "--format", "json"],
    ["count-av", "--pattern", "123", "--n", "5", "--budget", "0"],
    ["contains", "--host", "312", "--pattern", "12", "--format", "csv"],
    ["bounds", "crude", "--k", "1e6", "--a", "2", "--c", "2"],
]

FALLBACK_CALLS = [
    ["exfn", "--pattern", "12", "--n", "3", "--bad", "1"],
    ["contains", "--host=312", "--pattern=21"],
    ["bounds", "mt", "--k", "-3"],
]


def test_later_calls_build_the_full_parser_once():
    # canonical lines alone build no parser and load no argparse; the
    # first line that is not canonical builds the full parser and later
    # ones reuse it; every call prints what a fresh process prints
    canonical = child(CALLS, json.dumps(LATER_CALLS))
    assert canonical["built"] == [0, 0]
    assert canonical["argparse"] is False
    argvs = FALLBACK_CALLS[:1] + LATER_CALLS + FALLBACK_CALLS[1:]
    out = child(CALLS, json.dumps(argvs))
    assert out["built"] == [1, len(FALLBACK_CALLS) - 1]
    for argv, got in zip(argvs, out["calls"]):
        assert got == child(CALLS, json.dumps([argv]))["calls"][0], argv
