"""Command line front end.

Each subcommand maps onto one library operation and emits a single
report on stdout in one of three formats: json (compact, sorted keys),
csv (fixed documented columns, header row first), or text.  Identical
configurations produce byte-identical output; exact integers that can
exceed 2**53 are emitted as decimal strings.

Exit codes: 0 success, 2 rejected input, 3 resource limit hit, 1
internal error or failed selftest.  Diagnostics go to stderr.

Every subcommand is declared once, in ``COMMANDS``: its flags, the one
library module it calls, the call that builds its report payload, and
the payload's csv and text layout.  Of the library modules, this one
imports only ``core``, whose parsers its flags use; each command loads
its library module at call time and looks the functions up there, so a
cold ``permx contains`` never imports the counting, extremal or
schedule code.

A canonical command line is parsed from ``COMMANDS`` alone, with no
parser built and argparse never imported: after the command's name come
only its own flags and --format, each spelled in full and given once,
each but --floors followed by its value as the next word, which does
not begin with "-"; every required flag is given and --format names one
of ``FORMATS``.  Every other line, help and usage errors included, is
parsed whole by the argparse parser of every command, built once per
process, so the parse a command line gets depends on that line alone.

Each operand flag's argparse ``type`` is its parser, so commands get
parsed values and reports echo them.  A permutation is a digit string
or whitespace-separated decimal tokens; matrices, blocks and ex-tables
are comma lists with no empty item, and an ex-table names each n once.
An integer flag takes an optional "-" and decimal digits; a real flag
takes what ``float`` reads, less "_" separators and a leading "+".  The
parsers raise ``PreconditionViolated``, which both parses pass on: the
first malformed operand or number on the command line exits 2.

A command line takes one path to its report: ``run(argv)`` parses it,
calls the command with its options and returns (exit code, report).
Both parses give the same options and raise the same errors.  The
report depends on the command line alone: the node budget of a command
that takes one is its --budget flag, whose default is the library
default.
``main`` is ``run`` plus the mapping from errors to exit codes and the
write to stdout.
"""

from __future__ import annotations

import csv
import gc
import importlib
import io
import json
import sys
from functools import cache, partial
from itertools import starmap
from types import ModuleType
from typing import Callable, Iterable

from .core import BinaryMatrix, Permutation, parse_permutation, to_matrix
from .errors import PreconditionViolated, ResourceLimit
from .limits import DEFAULT_NODE_BUDGET, DEFAULT_ROW_CAP
from .record import Record

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3

FORMATS = ("json", "csv", "text")


# ---------------------------------------------------------------------------
# operand parsers, each a flag's argparse type
# ---------------------------------------------------------------------------

def _parse_int(text: str) -> int:
    # an optional "-" and decimal digits: no "+", "_" or surrounding space
    try:
        if text.removeprefix("-").isdecimal():
            return int(text)  # fails past int's digit limit
    except ValueError:
        pass
    raise PreconditionViolated(f"not a decimal integer: {text!r}")


def _parse_float(text: str) -> float:
    # what float() reads, less "_" separators and a leading "+"
    try:
        if "_" not in text and not text.strip().startswith("+"):
            return float(text)
    except ValueError:
        pass
    raise PreconditionViolated(f"not a number: {text!r}")


def _parse_matrix(text: str) -> BinaryMatrix:
    return BinaryMatrix.from_strings(text.strip().split(","))


def _parse_blocks(text: str) -> list[Permutation]:
    # parse_permutation rejects an empty item
    return [parse_permutation(item) for item in text.split(",")]


def _parse_ex_table(text: str) -> dict[int, int]:
    table = {}
    for item in text.strip().split(","):
        key, _, value = item.partition("=")
        if not (key.isdecimal() and value.isdecimal()):
            raise PreconditionViolated(f"ex-table entries look like n=value: {item!r}")
        n = _parse_int(key)
        if n in table:
            raise PreconditionViolated(f"ex-table repeats n={n}: {item!r}")
        table[n] = _parse_int(value)
    return table


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def _scalar_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


class Rows:
    """A report table given as tuples of cells in ``columns`` order, so
    that no row becomes a dict.  Every cell must print, under ``str``,
    as its own JSON literal: an int, a finite float or ``"null"``.

    Each format writes a row through one ``str.format`` template; json
    and text order the cells by column name, as ``json.dumps`` with
    sorted keys writes the row as a dict.  The cells are read once.
    A plain class, not a ``permx.record.Record``: its cells may be an
    iterator that is read once, so a ``Rows`` is no value to compare or
    hash.
    """

    __slots__ = ("columns", "cells")

    def __init__(self, columns: tuple[str, ...], cells: Iterable[tuple]):
        self.columns = columns
        self.cells = cells

    def write(self, fmt: str) -> str:
        order = range(len(self.columns))
        if fmt == "csv":
            template = ",".join(f"{{{j}}}" for j in order) + "\n"
            return "".join(starmap(template.format, self.cells))
        colon, comma = (":", ",") if fmt == "json" else (": ", ", ")
        fields = (f'"{self.columns[j]}"{colon}{{{j}}}'
                  for j in sorted(order, key=self.columns.__getitem__))
        template = "{{" + comma.join(fields) + "}}"
        return "[" + comma.join(starmap(template.format, self.cells)) + "]"


def render(command: str, payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(payload)
    spec = COMMANDS[command]
    if fmt == "csv":
        return _render_csv(spec.table, payload)
    return _render_text(spec.text_key, payload)


def _render_json(payload: dict) -> str:
    """``json.dumps`` of the payload, compact with sorted keys, written
    field by field, so that a ``Rows`` field is written by its
    template."""
    parts = []
    for k in sorted(payload):
        v = payload[k]
        text = (v.write("json") if isinstance(v, Rows)
                else json.dumps(v, sort_keys=True, separators=(",", ":")))
        parts += (",", json.dumps(k), ":", text)
    parts[:1] = ["{"]  # in place of the first field's comma
    parts.append("}\n")
    return "".join(parts)


def _render_csv(table, payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if table is not None:
        key, columns = table
        writer.writerow(columns)
        rows = payload.get(key, [])
        if isinstance(rows, Rows):
            return buf.getvalue() + rows.write("csv")
        for row in rows:
            writer.writerow([_scalar_text(row.get(col)) for col in columns])
        return buf.getvalue()
    keys = [k for k in sorted(payload) if not isinstance(payload[k], (dict, list))]
    writer.writerow(keys)
    writer.writerow([_scalar_text(payload[k]) for k in keys])
    return buf.getvalue()


def _render_text(key, payload: dict) -> str:
    if key is not None:
        return _scalar_text(payload[key]) + "\n"
    parts = []
    for k in sorted(payload):
        v = payload[k]
        if isinstance(v, Rows):
            text = v.write("text")
        elif isinstance(v, (dict, list)):
            text = json.dumps(v, sort_keys=True)
        else:
            text = _scalar_text(v)
        parts += (k, " = ", text, "\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class Command(Record):
    """One subcommand, declared once.

    ``flags`` are its (flag, argparse kwargs) pairs; a command that
    takes a node budget lists ``BUDGET`` first, so --budget follows
    --format in its usage and help.  ``module`` names the one library
    module the command calls: core, avoidance, extremal, bounds or
    selftest.  ``run`` imports it at call time and passes it to
    ``call(lib, opts)``, which turns the parsed options into the report
    payload and looks each library function up on ``lib``, so a wrapper
    set on the defining module sees the call.  csv output writes
    ``table`` (payload key, columns) if set, else the scalar fields as
    one row sorted by key; text output writes the ``text_key`` field
    alone if set, else one ``key = value`` line per field.  A false
    ``verdict`` field in the payload makes the exit code 1.
    """

    flags: tuple
    module: str
    call: Callable[[ModuleType, dict], dict]
    table: tuple[str, tuple[str, ...]] | None = None
    text_key: str | None = None
    verdict: str | None = None


def _flag(name: str, type, **kwargs) -> tuple[str, dict]:
    """An argparse flag parsed by ``type``, required unless it has a default."""
    return name, {"type": type, "required": "default" not in kwargs, **kwargs}


def _contains(core, o):
    host, pattern = o["host"], o["pattern"]
    return {"host": str(host), "pattern": str(pattern),
            "contains": core.contains(host, pattern)}


def _pair(op, o):
    """Echo two permutations and the one ``op`` builds from them."""
    left, right = o["left"], o["right"]
    return {"left": str(left), "right": str(right), "result": str(op(left, right))}


def _inflate(core, o):
    skeleton, blocks = o["skeleton"], o["blocks"]
    return {"skeleton": str(skeleton), "blocks": [str(b) for b in blocks],
            "result": str(core.inflate(skeleton, blocks))}


def _decompose(core, o):
    p = o["pattern"]
    decomps = core.blockable_decompositions(p, o["c"])
    return {
        "pattern": str(p),
        "c": o["c"],
        "count": len(decomps),
        "decompositions": [
            {"skeleton": str(d.skeleton), "blocks": " ".join(str(b) for b in d.blocks)}
            for d in decomps
        ],
    }


def _count_av(avoidance, o):
    p = o["pattern"]
    value = avoidance.count_avoiders(p, o["n"], budget=o["budget"])
    return {"pattern": str(p), "n": o["n"], "count": str(value)}


def _sw_estimate(avoidance, o):
    p = o["pattern"]
    seq = avoidance.sw_estimate_sequence(p, o["n_max"], budget=o["budget"])
    return {
        "pattern": str(p),
        "sequence": [e.to_jsonable() for e in seq],
    }


def _perm_report(check, o, *names):
    """A report on the named permutations at length n."""
    return check(*(o[name] for name in names), o["n"], budget=o["budget"]).to_jsonable()


def _echo(value):
    """An option as a report echoes it: integers of 2**53 or more, which
    a double cannot hold exactly, become decimal strings."""
    if isinstance(value, int) and abs(value) >= 2**53:
        return str(value)
    return value


def _pattern_search(search, o, *names, echo=()):
    """Run a search or certifier on the pattern's permutation matrix with
    the named options, echoing the pattern and the ``echo`` options."""
    p = o["pattern"]
    result = search(to_matrix(p), *(o[name] for name in names), budget=o["budget"])
    echoed = {name: _echo(o[name]) for name in echo}
    return {"pattern": str(p), **echoed, **result.to_jsonable()}


def _closed_form(fn, key, o, *names):
    """Evaluate a closed form on the named options and echo them."""
    value = fn(*(o[name] for name in names))
    return {**{name: _echo(o[name]) for name in names}, key: str(value)}


def _alpha(bounds, o):
    a, c = o["a"], o["c"]
    alpha = bounds.theorem24_alpha(a, c)
    exponent = bounds.theorem12_exponent(a, c)
    return {"a": a, "c": c, "alpha": alpha, "theorem12_exponent": exponent}


def _schedule(bounds, o):
    return bounds.build_schedule(bounds.BoundParams(o["k"], o["a"], o["c"]))


STATE_COLUMNS = ("i", "log2_t", "log2_s", "t", "s")


def _schedule_report(bounds, o):
    """The schedule's header fields and its ``(i, log2_t, log2_s)``
    state rows as ``Rows``; t and s are null where 2**log2 overflows a
    double, as in ``Schedule.to_jsonable``.  With ``--floors`` the
    states and the three floor fields come from the exact floored
    replay."""
    schedule = _schedule(bounds, o)
    header = schedule.header()
    if o["floors"]:
        log2_t, log2_s, drift_t, drift_s = bounds.floored_states(schedule)
        header.update(floors_applied=True, floor_drift_t=drift_t, floor_drift_s=drift_s)
        rows = zip(range(len(log2_t)), log2_t, log2_s)
    else:
        rows = schedule.states.rows()
    cells = ((i, lt, ls, 2.0 ** lt if lt < 1024 else "null", 2.0 ** ls if ls < 1024 else "null")
             for i, lt, ls in rows)
    return {**header, "states": Rows(STATE_COLUMNS, cells)}


def _certify(bounds, o):
    schedule = _schedule(bounds, o)
    p = schedule.params
    if o["floors"]:
        # the report is the same either way; --floors only demands integral k and a
        bounds._beta_k_int(p)
    report = bounds.certify_schedule(schedule)
    return {"params": p.to_jsonable(), **report.to_jsonable()}


def _crude(bounds, o):
    schedule = _schedule(bounds, o)
    return {**schedule.params.to_jsonable(), "log2_bound": bounds.crude_fpts_bound(schedule)}


PATTERN = _flag("--pattern", parse_permutation)
LEFT, RIGHT = _flag("--left", parse_permutation), _flag("--right", parse_permutation)
A, C = _flag("--a", _parse_float), _flag("--c", _parse_int)
N, T, S = _flag("--n", _parse_int), _flag("--t", _parse_int), _flag("--s", _parse_int)
X, Y = _flag("--x", _parse_float), _flag("--y", _parse_float)
REAL_K, REAL_T, REAL_S = (_flag(flag, _parse_float) for flag in ("--k", "--t", "--s"))
N_CAP = _flag("--n-cap", _parse_int, default=DEFAULT_ROW_CAP)
BUDGET = _flag("--budget", _parse_int, default=DEFAULT_NODE_BUDGET,
               help="node budget (default: %(default)s)")
FLOORS = ("--floors", {"action": "store_true", "default": False})
FORMAT = ("--format", {"choices": FORMATS, "default": "text"})  # every command's first flag

COMMANDS = {
    "contains": Command(
        (_flag("--host", parse_permutation), PATTERN), "core", _contains, text_key="contains"
    ),
    "matrix-contains": Command(
        (_flag("--host", _parse_matrix, help="rows as 0/1 strings joined by commas"),
         _flag("--pattern", _parse_matrix)),
        "core",
        lambda core, o: {"contains": core.matrix_contains(o["host"], o["pattern"])},
        text_key="contains",
    ),
    "sum": Command(
        (LEFT, RIGHT), "core", lambda core, o: _pair(core.direct_sum, o), text_key="result"
    ),
    "skew": Command(
        (LEFT, RIGHT), "core", lambda core, o: _pair(core.skew_sum, o), text_key="result"
    ),
    "inflate": Command(
        (_flag("--skeleton", parse_permutation),
         _flag("--blocks", _parse_blocks, help="comma-separated block permutations")),
        "core",
        _inflate,
        text_key="result",
    ),
    "decompose": Command(
        (PATTERN, C), "core", _decompose, table=("decompositions", ("skeleton", "blocks"))
    ),
    "count-av": Command((BUDGET, PATTERN, N), "avoidance", _count_av),
    "sw-estimate": Command(
        (BUDGET, PATTERN, _flag("--n-max", _parse_int)),
        "avoidance",
        _sw_estimate,
        table=("sequence", ("n", "count", "estimate")),
    ),
    "merge-check": Command(
        (BUDGET, _flag("--red", parse_permutation), _flag("--blue", parse_permutation), N),
        "avoidance",
        lambda avoidance, o: _perm_report(avoidance.merge_count_upper_check, o, "red", "blue"),
    ),
    "verify-jv": Command(
        (BUDGET, _flag("--a", parse_permutation), _flag("--b", parse_permutation),
         _flag("--c", parse_permutation), N),
        "avoidance",
        lambda avoidance, o: _perm_report(avoidance.verify_jv_inclusion, o, "a", "b", "c"),
    ),
    "exfn": Command(
        (BUDGET, PATTERN, N),
        "extremal",
        lambda extremal, o: _pattern_search(extremal.exfn_exact, o, "n", echo=("n",)),
    ),
    "fpts": Command(
        (BUDGET, PATTERN, T, S, N_CAP),
        "extremal",
        lambda extremal, o: _pattern_search(
            extremal.fpts_exact, o, "t", "s", "n_cap", echo=("t", "s")
        ),
    ),
    "gpts": Command(
        (BUDGET, PATTERN, T, S, N_CAP),
        "extremal",
        lambda extremal, o: _pattern_search(
            extremal.gpts_exact, o, "t", "s", "n_cap", echo=("t", "s")
        ),
    ),
    "check-lemma21": Command(
        (BUDGET, PATTERN, A, T, S, _flag("--hypothesis-n", _parse_int, default=4)),
        "extremal",
        lambda extremal, o: _pattern_search(
            extremal.check_lemma21, o, "a", "t", "s", "hypothesis_n"
        ),
    ),
    "check-lemma22": Command(
        (BUDGET, PATTERN, A, C, T, S, X, Y),
        "extremal",
        lambda extremal, o: _pattern_search(
            extremal.check_lemma22, o, "a", "c", "t", "s", "x", "y"
        ),
    ),
    "bounds mt": Command(
        (_flag("--k", _parse_int),),
        "bounds",
        lambda bounds, o: _closed_form(bounds.marcus_tardos_bound, "bound", o, "k"),
    ),
    "bounds lemma21": Command(
        (REAL_K, A, REAL_T, REAL_S),
        "bounds",
        lambda bounds, o: _closed_form(bounds.lemma21_bound, "bound", o, "k", "a", "t", "s"),
    ),
    "bounds lemma22-rhs": Command(
        (REAL_K, A, C, REAL_T, REAL_S, X, Y, _flag("--f-sub", _parse_int, default=0)),
        "bounds",
        lambda bounds, o: _closed_form(
            bounds.lemma22_rhs, "rhs", o, "k", "a", "c", "t", "s", "x", "y", "f_sub"
        ),
    ),
    "bounds alpha": Command((A, _flag("--c", _parse_float)), "bounds", _alpha),
    "bounds schedule": Command(
        (REAL_K, A, C, FLOORS),
        "bounds",
        _schedule_report,
        table=("states", STATE_COLUMNS),
    ),
    "bounds certify": Command(
        (REAL_K, A, C, FLOORS),
        "bounds",
        _certify,
        table=("checks", ("name", "holds", "lhs", "rhs")),
    ),
    "bounds crude": Command((REAL_K, A, C), "bounds", _crude),
    "bounds fox-rhs": Command(
        (_flag("--ex-table", _parse_ex_table, help="entries like 1=1,2=3,3=5"),
         T, S, _flag("--f", _parse_int), _flag("--g", _parse_int), N),
        "bounds",
        lambda bounds, o: _closed_form(
            partial(bounds.fox_rhs, o["ex_table"]), "rhs", o, "t", "s", "f", "g", "n"
        ),
    ),
    "selftest": Command(
        (),
        "selftest",
        lambda selftest, o: selftest.run_selftest(),
        table=("criteria", ("id", "pass", "description", "detail")),
        verdict="all_pass",
    ),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@cache
def build_parser():
    """The argparse parser of every subcommand, built on the first call
    and returned as the same object after that.  ``run`` gives it each
    command line that is not canonical, and it writes all help and usage
    errors.  ``COMMANDS`` is fixed at import, so the cached parser cannot
    go stale.  Callers must not mutate it.  argparse is imported here, so
    a process that parses only canonical lines never loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="permx",
        description="pattern containment, avoidance enumeration, and extremal bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}  # "bounds" -> its subparsers, made at its first command
    for name, spec in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest=f"{group}_command", required=True
            )
        command = (groups[group] if group else sub).add_parser(leaf)
        for flag, kwargs in (FORMAT, *spec.flags):
            command.add_argument(flag, **kwargs)
    return parser


def _command_named(argv: list[str]) -> str | None:
    """The ``COMMANDS`` key that argv's leading words spell, or None."""
    words = argv[:2] if argv[:1] == ["bounds"] else argv[:1]
    name = " ".join(words)
    return name if name in COMMANDS and name.split(" ") == words else None


def _parse_canonical(spec: Command, words: list[str]) -> dict | None:
    """The options that ``build_parser()`` would parse from ``words``, the
    words after the name of ``spec``'s command, or None if the line is not
    canonical.  As argparse does, it reads every word before it converts
    a value, converts the values in command-line order, and gives a flag
    left out its default, or None."""
    flags = dict((FORMAT, *spec.flags))
    given = {}
    words = iter(words)
    for flag in words:
        kwargs = flags.get(flag)
        if kwargs is None or flag in given:
            return None
        given[flag] = value = "" if "action" in kwargs else next(words, "-")
        if value.startswith("-"):
            return None
    if given.get("--format", "text") not in FORMATS or any(
            kwargs.get("required") and flag not in given for flag, kwargs in flags.items()):
        return None
    opts = {flag: kwargs.get("default") for flag, kwargs in flags.items()}
    for flag, value in given.items():
        kwargs = flags[flag]
        opts[flag] = True if "action" in kwargs else kwargs.get("type", str)(value)
    return {flag[2:].replace("-", "_"): value for flag, value in opts.items()}


def run(argv=None) -> tuple[int, str]:
    """Run one command line and return (exit code, rendered report).

    A canonical command line is parsed from ``COMMANDS``; every other
    line is parsed whole by ``build_parser()``, which gives the same
    options and writes help and usage errors.  A parsed --budget below 1
    is refused.  Usage errors raise SystemExit(2) from argparse; domain
    errors are raised for ``main`` to map to exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = _command_named(argv)
    opts = _parse_canonical(COMMANDS[name], argv[len(name.split()):]) if name else None
    if opts is None:
        opts = vars(build_parser().parse_args(argv))
        name = opts.pop("command")
        if name == "bounds":
            name += " " + opts.pop("bounds_command")
    fmt = opts.pop("format")
    spec = COMMANDS[name]
    if "budget" in opts and opts["budget"] < 1:
        raise PreconditionViolated(f"budget must be positive, got {opts['budget']}")
    payload = spec.call(importlib.import_module(f"{__package__}.{spec.module}"), opts)
    code = EXIT_INTERNAL if spec.verdict and not payload[spec.verdict] else EXIT_OK
    return code, render(name, payload, fmt)


def main(argv=None) -> int:
    try:
        code, out = run(argv)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        # reported after the handler: its traceback keeps the failed
        # search's frames alive, and printing would fail again
        out = None
    except PreconditionViolated as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # last resort: anything unexpected is code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if out is None:
        gc.collect()  # a search's recursive closure holds its memo in a cycle
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
