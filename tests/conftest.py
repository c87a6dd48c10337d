import os
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

import acceptance_log

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("PERMX_HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.lines:
            terminalreporter.line(line)


@pytest.fixture(autouse=True)
def fresh_process_caches():
    """Start every test with empty process-wide caches, so no earlier
    test's kept search record, blockability verdict or occurrence plan
    stands in for work the test means to do."""
    from permx import extremal, states

    extremal._finished.clear()
    extremal._blockable.cache_clear()
    states._occurrence_plan.cache_clear()


@pytest.fixture
def alarm_guard():
    """A context manager ``alarm_guard(what)`` that fails the test when
    its body runs for more than 10 s, naming ``what``, and then puts the
    previous SIGALRM handler back; at teardown the test's handler must
    be the one it started with."""
    handler = signal.getsignal(signal.SIGALRM)

    @contextmanager
    def guard(what):
        def timed_out(signum, frame):
            pytest.fail(f"no exit within 10 s: {what}")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(10)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    yield guard
    assert signal.getsignal(signal.SIGALRM) is handler, "a SIGALRM handler leaked"
