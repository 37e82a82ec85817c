import sys
import threading

import pytest
from hypothesis import settings

# No per-example deadline and a bounded example count: the suite runs on
# small shared hosts where one slow example must not fail a property.
settings.register_profile("gpk", deadline=None, max_examples=60)
settings.load_profile("gpk")


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail any test that leaves a thread alive after it, whether its
    command succeeded or failed: every pool or writer thread a command
    starts must be joined before the command returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line-per-criterion acceptance results into the
    terminal report, where output capture cannot swallow them."""
    lines = []
    for name, mod in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(mod, "REPORT_LINES", [])
            break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
