"""Regression artifacts and script smoke tests.

The smallest-passing-k artifact pins, per (a, c), the least integer k
whose schedule certificate holds outside the one permanently failing
width-vs-weight check; these tests re-certify the recorded boundary, so
any certifier change that moves it shows up as a diff against the
artifact.
"""

import csv
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import permx
from permx.bounds import BoundParams, build_schedule, certify_schedule
from permx.errors import PreconditionViolated

REPO = Path(__file__).resolve().parent.parent
ARTIFACT = REPO / "artifacts" / "smallest_passing_k.json"
DATA = json.loads(ARTIFACT.read_text())
EXCLUDED = set(DATA["excluded_checks"])


def failing_names(k: int, a: int, c: int) -> list[str]:
    params = BoundParams(k, a, c)
    report = certify_schedule(build_schedule(params))
    return sorted(ch.name for ch in report.checks if not ch.holds)


class TestSmallestPassingK:
    def test_exclusion_documented(self):
        assert DATA["excluded_checks"] == ["width_at_least_weight_log2"]
        assert DATA["exclusion_reason"]

    def test_grid_covers_documented_parameters(self):
        points = {(e["a"], e["c"]) for e in DATA["grid"]}
        assert points == {(a, c) for a in (1, 2, 3) for c in (2, 3, 4)}

    @pytest.mark.parametrize(
        "entry", DATA["grid"], ids=lambda e: f"a{e['a']}c{e['c']}"
    )
    def test_recorded_k_certifies(self, entry):
        failing = failing_names(entry["k_min"], entry["a"], entry["c"])
        # nothing outside the exclusion fails, and the excluded check
        # genuinely fails (otherwise the exclusion would be stale)
        assert [n for n in failing if n not in EXCLUDED] == []
        assert EXCLUDED & set(failing)

    @pytest.mark.parametrize(
        "entry", DATA["grid"], ids=lambda e: f"a{e['a']}c{e['c']}"
    )
    def test_boundary_below(self, entry):
        k_below = entry["k_min"] - 1
        if entry["fails_just_below"] == ["k below domain"]:
            with pytest.raises(PreconditionViolated):
                BoundParams(k_below, entry["a"], entry["c"])
        else:
            failing = failing_names(k_below, entry["a"], entry["c"])
            assert [n for n in failing if n not in EXCLUDED] == entry[
                "fails_just_below"
            ]

    def test_script_regenerates_identically(self, tmp_path):
        out = tmp_path / "regen.json"
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "smallest_passing_k.py"),
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.read_bytes() == ARTIFACT.read_bytes()


class TestScheduleSweep:
    def test_script_regenerates_identically(self, tmp_path):
        # certify and crude values at every grid point: a drift is a diff
        out = tmp_path / "schedule_sweep.csv"
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "schedule_sweep.py"), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.read_bytes() == (REPO / "artifacts" / "schedule_sweep.csv").read_bytes()


class TestExtremalTables:
    def test_script_regenerates_identically(self, tmp_path):
        # values and node counts both: a drift in either is a diff
        outs = {name: tmp_path / name for name in ("ex_values.csv", "f_values.csv")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "extremal_tables.py"),
             "--ex-out", str(outs["ex_values.csv"]),
             "--f-out", str(outs["f_values.csv"])],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        for name, out in outs.items():
            assert out.read_bytes() == (REPO / "artifacts" / name).read_bytes(), name


class TestScriptSmoke:
    def test_schedule_sweep_stdout(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "schedule_sweep.py"),
             "--k-values", "1000", "--a-values", "1", "--c-values", "2,3",
             "--out", "-"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        rows = list(csv.DictReader(io.StringIO(proc.stdout.decode())))
        assert len(rows) == 2
        assert rows[0]["failing_checks"] == "width_at_least_weight_log2"
        assert float(rows[0]["crude_log2_bound"]) > 0

    @staticmethod
    def sweep(*args):
        return subprocess.run(
            [sys.executable, str(REPO / "scripts" / "schedule_sweep.py"), *args, "--out", "-"],
            capture_output=True, text=True,
        )

    def test_schedule_sweep_reads_k_exactly(self):
        proc = self.sweep("--k-values", str(10 ** 30), "--a-values", "1", "--c-values", "2")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [row["k"] for row in rows] == [str(10 ** 30)]
        assert "floored_final" not in rows[0]["failing_checks"]

    def test_schedule_sweep_reads_a_as_a_real(self):
        proc = self.sweep("--k-values", "1000", "--a-values", "0.5,2", "--c-values", "2")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [row["a"] for row in rows] == ["0.5", "2"]
        assert rows[0]["R_A"] != rows[1]["R_A"]

    @pytest.mark.parametrize("args, error", [
        (("--k-values", "1e6"), "argument --k-values: '1e6' is not a decimal integer"),
        (("--c-values", "2.0"), "argument --c-values: '2.0' is not a decimal integer"),
        (("--a-values", "one"), "argument --a-values: 'one' is not a real number"),
        (("--a-values", "0"), "k=1000, a=0, c=2: need finite a > 0, got 0"),
    ])
    def test_schedule_sweep_usage_errors(self, args, error):
        proc = self.sweep(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ")
        assert proc.stderr.endswith(f"error: {error}\n")

    def test_extremal_tables(self, tmp_path):
        ex_out = tmp_path / "ex.csv"
        f_out = tmp_path / "f.csv"
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "extremal_tables.py"),
             "--patterns", "12", "--n-max", "3", "--t-max", "4",
             "--ex-out", str(ex_out), "--f-out", str(f_out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        ex_rows = list(csv.DictReader(ex_out.open()))
        assert [r["ex"] for r in ex_rows] == ["1", "3", "5"]
        f_rows = list(csv.DictReader(f_out.open()))
        assert {(r["t"], r["s"]) for r in f_rows} == {
            ("2", "2"), ("3", "2"), ("3", "3"), ("4", "2"), ("4", "3"), ("4", "4")
        }
        for row in f_rows:
            # rotating this pattern gives its vertical flip, and flipping
            # host rows bijects the avoiders, so f and g agree
            assert row["f"] == row["g"]

    @staticmethod
    def kernel_bench(case):
        return subprocess.run(
            [sys.executable, str(REPO / "scripts" / "kernel_bench.py"),
             "--case", case, "--repeat", "2"],
            capture_output=True, text=True,
        )

    def test_kernel_bench_splits_work_from_timing(self):
        # values and states, which depend on the code alone, go to
        # stdout; timings and RSS, which depend on the host, to stderr
        proc = self.kernel_bench("jv 1,12,21 n=8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "jv 1,12,21 n=8: value 33324, states 538\n"
        assert proc.stderr.startswith("jv 1,12,21 n=8: median ")
        assert proc.stderr.endswith(" MB over 2 runs\n")

    def test_kernel_bench_lemma_case_times_each_point(self):
        proc = self.kernel_bench("lemma22_rhs 123 grid")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "lemma22_rhs 123 grid: 50 points, rhs total 68185/114\n"
        assert proc.stderr.startswith("lemma22_rhs 123 grid: median ")
        assert " us per point, max RSS " in proc.stderr
        assert proc.stderr.endswith(" MB over 2 runs\n")


def _benchmark_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_lookups_resolve():
    # perfbench/spans.py wraps permx functions by name, with no default,
    # and counts len(schedule.states); either breaking stops
    # `perfbench/run.py --trace 1`
    spans = _benchmark_spans()
    assert set(spans.TRACED) <= set(spans.LAYERS)
    for layer in spans.LAYERS:
        importlib.import_module(f"permx.{layer}")
    for layer, names in spans.TRACED.items():
        for name in names:
            assert callable(getattr(getattr(permx, layer), name)), (layer, name)
    schedule = build_schedule(BoundParams(100, 2, 2))
    assert len(schedule.states) == schedule.bulk_steps + 3 == 163


def test_benchmark_tracer_wraps_the_cached_parser(capsys):
    # the tracer's build_parser wrapper sits in front of the cache: each
    # call is a span, a repeated command line that is not canonical hits
    # the cache, and uninstall puts the cached builder back
    spans = _benchmark_spans()
    for layer in spans.LAYERS:
        importlib.import_module(f"permx.{layer}")
    cli = permx.cli
    cached = cli.build_parser
    cached.cache_clear()
    tracer = spans.Tracer()
    tracer.install(permx)
    try:
        assert cli.build_parser is not cached
        argv = ["contains", "--host=312", "--pattern", "21"]  # parsed by the full parser
        assert cli.main(argv) == cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert cli.build_parser is cached
    assert capsys.readouterr().out == "true\ntrue\n"
    assert tracer.summary()["per_name"]["cli.build_parser"]["calls"] == 2
    info = cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestCodeLines:
    SAMPLE = '''"""A module docstring
over two lines."""

# a comment
X = 1  # a trailing comment


def f(a,
      b):
    """A function docstring."""
    return (a
            + b)


class C:
    """A class docstring."""
    s = """a string, not a docstring"""
'''

    def test_sample_counts_code_lines_only(self):
        spec = importlib.util.spec_from_file_location(
            "code_lines", REPO / "scripts" / "code_lines.py"
        )
        code_lines = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(code_lines)
        # X = 1; the two lines of def f; the two of its return; class C; s =
        assert code_lines.code_lines(self.SAMPLE) == 7

    def test_total_is_sum_of_rows(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "code_lines.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert rows[-1][1] == "total"
        src = REPO / "src"
        assert [name for _, name in rows[:-1]] == sorted(
            path.relative_to(src).as_posix() for path in (src / "permx").rglob("*.py"))
        counts = [int(count) for count, _ in rows[:-1]]
        assert all(counts)
        assert int(rows[-1][0]) == sum(counts)


BENCH_KEYS = {"title", "command", "host", "parent", "change", "method", "claim", "sets"}


def _pair_counts(node):
    """Every (change_better_pairs, pairs) of the dicts in node that
    carry both keys, at any depth."""
    if isinstance(node, dict):
        if "change_better_pairs" in node and "pairs" in node:
            yield node["change_better_pairs"], node["pairs"]
        node = node.values()
    elif not isinstance(node, list):
        return
    for child in node:
        yield from _pair_counts(child)


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_schema(path):
    data = json.loads(path.read_text())
    assert BENCH_KEYS <= set(data), sorted(BENCH_KEYS - set(data))
    sets = data["sets"]
    assert isinstance(sets, list) and sets
    for entry in sets:
        assert isinstance(entry, dict) and {"name", "code"} <= set(entry), entry
    for better, pairs in _pair_counts(data):
        assert 0 <= better <= pairs, (better, pairs)


def test_bench_files_found():
    assert list(REPO.glob("BENCH_*.json"))
