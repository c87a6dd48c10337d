"""Acceptance suite: the thirteen criteria the package must satisfy.

Each test runs one criterion at its stated tolerance and records a
single pass/fail line (shown in the terminal summary).  Criterion 13
exercises the installed command line end to end; the others share the
criterion implementations behind the `selftest` command so the suite
and the command certify the same facts.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import acceptance_log
import permx
from permx.selftest import CRITERIA


def _run_criterion(criterion_id: int, budget_s: float):
    crit = CRITERIA[criterion_id - 1]
    assert crit.id == criterion_id
    start = time.perf_counter()
    ok, detail = crit.fn()
    elapsed = time.perf_counter() - start
    _record(criterion_id, ok, elapsed, crit.description, detail)
    assert elapsed < budget_s, (
        f"criterion {criterion_id} exceeded its {budget_s:.0f}s budget: {elapsed:.2f}s"
    )
    return ok, detail


def _record(criterion_id, ok, elapsed, description, detail):
    status = "PASS" if ok else "FAIL"
    line = (
        f"criterion {criterion_id:2d} {status} ({elapsed:6.2f}s)  "
        f"{description}: {detail}"
    )
    print(line)
    acceptance_log.lines.append(line)


def test_criterion_01_catalan_counts():
    ok, detail = _run_criterion(1, 10.0)
    assert ok, detail


def test_criterion_02_containment_ground_truth():
    ok, detail = _run_criterion(2, 10.0)
    assert ok, detail


def test_criterion_03_naive_oracle_equivalence():
    ok, detail = _run_criterion(3, 60.0)
    assert ok, detail


def test_criterion_04_extremal_oracle():
    ok, detail = _run_criterion(4, 60.0)
    assert ok, detail


def test_criterion_05_universal_bound_consistency():
    ok, detail = _run_criterion(5, 10.0)
    assert ok, detail


def test_criterion_06_width_weight_certification():
    ok, detail = _run_criterion(6, 120.0)
    assert ok, detail


def test_criterion_07_shrink_certification():
    ok, detail = _run_criterion(7, 300.0)
    assert ok, detail


def test_criterion_08_product_host_spot_checks():
    ok, detail = _run_criterion(8, 60.0)
    assert ok, detail


def test_criterion_09_schedule_certification():
    # Expected to fail, and the failure is a fact about the schedule
    # definition rather than this implementation.  With x = (c-1)/c,
    # y = 1 - 1/(2c) - 1/(16c^2), D = ln(y/sqrt(x)) > 0, the bulk step
    # count R = ceil(1 + ln(c*sqrt(beta k))/D) makes the end-of-bulk
    # weight exceed the width:
    #   s_R/t_R = x*(y/sqrt(x))^R / sqrt(beta k) >= (c-1)*e^D > 1
    # for every c >= 2 and every k, so the t >= s constraint is violated
    # at the last few bulk states at every grid point checked here.
    # The remaining constraints all hold; the certifier reports exactly
    # one failing check name per grid point.
    ok, detail = _run_criterion(9, 1.0)
    assert ok, detail


def test_criterion_10_exponent_identities():
    ok, detail = _run_criterion(10, 10.0)
    assert ok, detail


def test_criterion_11_merge_inclusion():
    ok, detail = _run_criterion(11, 300.0)
    assert ok, detail


def test_criterion_12_inflation_round_trip():
    ok, detail = _run_criterion(12, 10.0)
    assert ok, detail


def test_criterion_13_selftest_determinism():
    start = time.perf_counter()
    env = dict(os.environ)
    # the subprocesses import the package this suite imported, installed
    # or not
    src = str(Path(permx.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "permx.cli", "selftest", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    elapsed = time.perf_counter() - start
    ok = (
        first.stdout == second.stdout
        and bool(first.stdout)
        and first.returncode == second.returncode
        and first.returncode in (0, 1)
    )
    detail = f"two full runs, {len(first.stdout)} bytes each"
    if not ok:
        detail = "selftest output or exit status differed between runs"
    _record(13, ok, elapsed, "repeated selftest runs are byte-identical", detail)
    assert ok, detail
    payload = json.loads(first.stdout)
    assert [c["id"] for c in payload["criteria"]] == list(range(1, 14))
    assert all(isinstance(c["pass"], bool) for c in payload["criteria"])