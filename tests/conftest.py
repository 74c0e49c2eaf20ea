"""Shared fixtures: reference parameter sets and the frozen oracle table.

The three parameter sets cover the qualitatively distinct regimes:

* BASE       -- both queues overloaded, r2 > 1.
* UNDERLOAD2 -- queue 2 underloaded (lambda2 < mu2c2), near critical.
* OVERLOAD2  -- queue 2 slightly overloaded (lambda2 > mu2c2).

NEAR_CRITICAL1 and DOUBLY_NEAR_CRITICAL put one or both queues near
critical, where the theta-grid quantities lose digits first.
"""

import json
import pathlib

import pytest

from qwblock.model import ModelParams

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "oracle_golden.json"

BASE = ModelParams(3.0, 5.0, 1.0, 2.0)
UNDERLOAD2 = ModelParams(1.2, 9.9, 1.0, 10.0)
OVERLOAD2 = ModelParams(1.2, 11.0, 1.0, 10.0)

CASES = {"base": BASE, "underload2": UNDERLOAD2, "overload2": OVERLOAD2}
# queue 1 near critical (rho1 = 0.9957), y2 = 0.999994
NEAR_CRITICAL1 = ModelParams(4.2249, 8.6730, 4.2068, 5.2413)
# both queues near critical, where double sums at x(theta) lose digits
DOUBLY_NEAR_CRITICAL = [ModelParams(1.001, 1.0, 1.0, 1.0),
                        ModelParams(10.0, 10.0, 9.95, 9.9),
                        ModelParams(9.9, 0.6, 9.89, 0.59)]


SCORECARD = []


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion in the run log."""
    if SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in SCORECARD:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def golden():
    """Frozen truncated-chain blocking values, keyed by (case name, a)."""
    rows = json.loads(GOLDEN_PATH.read_text())
    return {(r["name"], r["a"]): r for r in rows}
