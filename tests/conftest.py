"""Shared pytest wiring: one summary line per acceptance criterion."""

import os

ACCEPTANCE = {
    1: "saturation constant and rate-level solvers",
    2: "series coefficients against an independent recurrence",
    3: "truncated series stays inside certified tail bounds",
    4: "minimax errors match the tail bracket and saddle scale",
    5: "certified degrees track the regime laws",
    6: "growth witness brackets the certified degree",
    7: "randomized KDE batches within tolerance",
    8: "benchmark scaling at reference size",
    9: "cost-model exponent shrinks with the window width",
    10: "saddle identity and Chebyshev extremal structure",
}


def pytest_configure(config):
    # pyproject's `pythonpath = ["src"]` reaches this process only; the
    # subprocess tests run `python -m expcheb.cli` and need it as well
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            when = getattr(rep, "when", "call")
            if status == "passed" and when != "call":
                continue
            for num in ACCEPTANCE:
                if f"test_criterion_{num:02d}" in nodeid:
                    ok = status == "passed"
                    prev = outcomes.get(num)
                    outcomes[num] = ok if prev is None else (prev and ok)
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {num:02d} {verdict} - {ACCEPTANCE[num]}")
