"""The import contract: a cold command line loads only core and the one
library module the command calls and builds only its own parser unless
it leaves an argument unrecognized, and the package's lazy exports all
resolve.  Each case runs in a fresh
interpreter and asserts on ``sys.modules`` and the parser cache, not on
time."""

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
    name = cli._command_named(argv)
    if name is not None:
        cli.build_parser(name)
        info = cli.build_parser.cache_info()
    built.append(None if name is None else [info.misses, info.hits])
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


ARGPARSE_FORMS = [
    ["contains", "--host=312", "--pattern=21"],
    ["contains", "--host", "312", "--pat", "21"],  # an abbreviated flag
    ["contains", "--host", "312", "--pattern", "21", "--pattern", "12"],  # the last one holds
    ["contains", "--host", "312", "-h", "--pattern", "21"],
    ["bounds", "alpha", "--a", "-1", "--c", "2"],  # a negative value
    ["bounds", "mt", "--k", "-3", "--format", "json"],
    ["contains", "--host", "312", "--", "--pattern", "21"],
    ["contains", "--host", "312", "--pattern", "21", "--", "extra"],
    ["contains", "--format", "json", "--host", "312", "--pattern", "21"],
    ["bounds", "schedule", "--k", "4", "--format", "csv", "--a", "1", "--c", "2"],
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
    parser cache [misses, hits] or None), all from one child process."""
    groups = {"commands": first_call_cases(), "forms": ARGPARSE_FORMS,
              "golden": [case["argv"] for case in GOLDEN], "fuzzed": fuzzed_cases(300)}
    cases = [argv for argvs in groups.values() for argv in argvs]
    out = child(FIRST_CALLS, json.dumps(cases))
    results = iter(zip(cases, out["first"], out["full"], out["built"]))
    return {group: list(islice(results, len(argvs))) for group, argvs in groups.items()}


def test_first_call_builds_only_its_command_parser():
    # the one-command parser gives the full parser's output, help and
    # usage errors byte for byte, and is the only parser a call builds
    # but for a line it leaves an argument unrecognized: the full parser
    # parses that line again to word the error
    commands = first_calls()["commands"]
    for argv, first, full, _ in commands:
        assert first == full, argv
    assert sum(built is None for *_, built in commands) == 6  # the cases naming no command
    unrecognized = 0
    for argv, (_, _, err), _, built in chain.from_iterable(first_calls().values()):
        if built is not None:
            unrecognized += "error: unrecognized arguments" in err
            assert built == [1 + ("error: unrecognized arguments" in err), 1], argv
    assert unrecognized == 4  # the "extra" lines and selftest --bad 1


@pytest.mark.parametrize("group", ["forms", "golden", "fuzzed"])
def test_parse_paths_agree(group):
    # a line parsed by its command's parser alone prints what the full
    # parser's path prints: exit code, stdout and stderr
    for argv, first, full, _ in first_calls()[group]:
        assert first == full, argv


CALLS = CALL + """
calls = [call(argv) for argv in json.loads(sys.argv[1])]
size = cli.build_parser.cache_info().currsize
names = {cli._command_named(argv) for argv in json.loads(sys.argv[1])}
misses = cli.build_parser.cache_info().misses
for name in names:
    cli.build_parser(name)  # a hit for every parser the calls built
built = cli.build_parser.cache_info().misses - misses
print(json.dumps({"calls": calls, "size": size, "new": built}))
"""

LATER_CALLS = [
    ["contains", "--host", "312", "--pattern", "21"],
    ["bounds", "mt", "--k", "3", "--format", "json"],
    ["count-av", "--pattern", "123", "--n", "5", "--budget", "0"],
    ["contains", "--host", "312", "--pattern", "12", "--format", "csv"],
    ["bounds", "crude", "--k", "1e6", "--a", "2", "--c", "2"],
    ["exfn", "--pattern", "12", "--n", "3", "--bad", "1"],
]


def test_later_calls_build_only_their_command_parsers():
    # a call's parser depends on its own command line: later calls in a
    # process build one parser per named command, the full parser only
    # for the line that leaves an argument unrecognized, and print what
    # a fresh process prints
    out = child(CALLS, json.dumps(LATER_CALLS))
    assert out["size"] == 6  # the commands LATER_CALLS names, and the full parser for --bad
    assert out["new"] == 0
    for argv, got in zip(LATER_CALLS, out["calls"]):
        assert got == child(CALLS, json.dumps([argv]))["calls"][0], argv
