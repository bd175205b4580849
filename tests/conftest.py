"""Shared fixtures.

The expensive artifacts (root sweeps, growth-rate marches, the long
filtered attempt) are session-scoped so the whole suite pays for each
one once.  The terminal-summary hook replays the acceptance verdict
lines after the run so they survive output capture.  Every test must
leave no child process behind, running or unreaped.
"""

import os
import sys

import pytest

from zitterlab.dynamics import (
    perturbed_uniform_run,
    propagate_exact,
    propagate_filtered,
)
from zitterlab.roots import CharEq, Region, find_roots
from zitterlab.trajectory import SeedHistory

# The rest-instability rate: the real root of e^z = z^2 + z + 1, rounded
# once to the nearest double (test_roots.py checks that rounding at 120
# bits).
LAMBDA_STAR = 1.793282132900761


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no child at all
        return
    pytest.fail("the test left a child process "
                + ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture(scope="session")
def rest_rootset():
    return find_roots(CharEq(), Region(-1.0, 3.0, -1.0, 1.0))


@pytest.fixture(scope="session")
def wide_rootset():
    return find_roots(CharEq(), Region(-10.0, 10.0, -100.0, 100.0))


@pytest.fixture(scope="session")
def rate_runs():
    return {beta: perturbed_uniform_run(beta, 1e-6)
            for beta in (0.0, 0.5, 0.9)}


@pytest.fixture(scope="session")
def exact_run():
    return propagate_exact(SeedHistory.mode_kick(0.0, 1e-6), 1.3)


@pytest.fixture(scope="session")
def long_attempt():
    return propagate_filtered(SeedHistory.rest_kick(1e-6), 100.0,
                              partial=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
