import pytest

_criterion_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, label): ties a test to one acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, label = marker.args
    entry = _criterion_results.setdefault((number, label),
                                          {"passed": 0, "failed": 0, "xfailed": 0})
    if hasattr(report, "wasxfail"):
        entry["xfailed"] += 1
    elif report.passed:
        entry["passed"] += 1
    else:
        entry["failed"] += 1


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, label in sorted(_criterion_results):
        entry = _criterion_results[(number, label)]
        if entry["failed"]:
            status = "FAIL"
        elif entry["xfailed"]:
            status = ("FAIL on published-value sub-checks "
                      "(expected: documented source defect, see MISPRINTS.md)")
        else:
            status = "PASS"
        terminalreporter.write_line(f"criterion {number:>2} ({label}): {status}")
