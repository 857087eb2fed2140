"""Shared test plumbing: collect acceptance-criterion verdict lines and echo
them in the terminal summary so the pass/fail status of each criterion is
visible in one place."""

import numpy as np

ACCEPTANCE_LINES = []

#: np.trapezoid is numpy >= 2.0; np.trapz is its name on the 1.x floor.
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def record_criterion(number: int, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number}: {verdict} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
