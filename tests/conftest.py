import os
import re

# one BLAS thread, as the benchmark runs; numpy is not imported yet when this
# file loads, so the setting takes effect, and a caller's own setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

CI_LONG = os.environ.get("SPECRANGE_CI_LONG", "") == "1"

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        _criterion_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_criterion_outcomes):
        outcome = _criterion_outcomes[num]
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {num:2d}: {word}")
