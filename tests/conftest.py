import numpy as np
import pytest

# ---------------------------------------------------------------------------
# acceptance criteria registry: tests/test_acceptance.py records one result
# per criterion, and the terminal summary prints one pass/fail line each.
# ---------------------------------------------------------------------------

CRITERIA = {
    1: "path/impulse reproduction",
    2: "path/chirp reproduction",
    3: "irregular-graph stability (N=300)",
    4: "analysis-energy identity suite",
    5: "translation inner-product oracle equivalence",
    6: "translate-norm bound suite",
    7: "sufficient-condition implication suite",
    8: "frame sandwich with tight bounds",
    9: "degenerate-eigenspace robustness",
    10: "two-window round trip",
    11: "multi- versus single-window stability (N=300)",
}

_results: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str = "") -> None:
    _results[number] = (bool(passed), detail)


@pytest.fixture
def record():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        if number in _results:
            passed, detail = _results[number]
            status = "PASS" if passed else "FAIL"
        else:
            status, detail = "NOT RUN", ""
        line = f"criterion {number:2d} [{status}] {CRITERIA[number]}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared factories
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(1234)
