"""Golden CLI outputs, replayed through ``main`` in process.

Each case in ``data/cli_golden.json`` holds an argv and the exit code,
stdout and stderr it produces.  The corpus covers every subcommand except ``selftest`` in all
three formats, plus rejected and resource-limit cases.  It was captured
before the CLI became table driven; an entry changes only when a
command's output is meant to change.  Help and usage text are left out
because argparse words them differently across Python versions.
"""

import json
from pathlib import Path

import pytest

from permx.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case, capsys):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_environment_cannot_change_a_report(capsys, monkeypatch):
    # a report depends on its argv alone; this variable once set the
    # node budget of every command
    monkeypatch.setenv("PERMX_BUDGET", "0")
    for case in CASES:
        code = main(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]
