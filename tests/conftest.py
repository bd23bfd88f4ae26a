"""Shared fixtures and the acceptance-summary hook.

The acceptance tests record one PASS/FAIL line per criterion; the hook
prints them as a terminal section so the verdicts are visible in the
normal pytest output, not only inside -s runs.
"""

import pytest
from hypothesis import settings

# every run draws the same examples, so a pass or a failure repeats
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_criterion_lines = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Callable that records one summary line per acceptance criterion."""
    return _criterion_lines.append


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
