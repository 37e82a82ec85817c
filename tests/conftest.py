import sys

from hypothesis import settings

# No per-example deadline and a bounded example count: the suite runs on
# small shared hosts where one slow example must not fail a property.
settings.register_profile("gpk", deadline=None, max_examples=60)
settings.load_profile("gpk")


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
