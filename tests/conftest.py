"""Shared pytest configuration: per-criterion acceptance reporting.

Tests marked ``@pytest.mark.acceptance(num, label)`` feed a summary block
printed after the run, one PASS/FAIL line per criterion.  A criterion with
several tests (e.g. parametrized over spline degree) passes only if all of
them do; skips and fixture errors count as failures so nothing can go
silently green: a FAIL line also makes the run exit with a nonzero status.
"""

import pytest

pytest_plugins = ["pytester"]

_RESULTS: dict[int, list] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): test verifies one numbered acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, label = marker.args
    entry = _RESULTS.setdefault(num, [label, True])
    if report.when in ("setup", "call") and (report.failed or report.skipped):
        entry[1] = False


def pytest_sessionfinish(session, exitstatus):
    if exitstatus == pytest.ExitCode.OK and not all(ok for _, ok in _RESULTS.values()):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_RESULTS):
        label, ok = _RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num}: {label}")
