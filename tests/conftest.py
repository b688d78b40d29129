import re

import numpy as np
import pytest

from layerlab import SphericalMeasure


@pytest.fixture
def sym1():
    """Symmetric two-atom measure on {-1, +1} with total mass 2."""
    return SphericalMeasure.symmetric_pair(2.0)


@pytest.fixture
def skew1():
    """Asymmetric d=1 measure: weight 2 at +1, weight 1 at -1."""
    return SphericalMeasure.discrete(np.array([[1.0], [-1.0]]),
                                     np.array([2.0, 1.0]))


# The acceptance battery prints one statistic line per check.  Under pytest's
# default fd capture those lines land in each test's captured output, so
# they are collected from the reports and repeated in the terminal summary.
_AC_LINE = re.compile(r"AC\d\d [^:]*: (PASS|FAIL) \(")
_ac_lines = []


def pytest_runtest_logreport(report):
    if report.when == "call":
        _ac_lines.extend(line for line in report.capstdout.splitlines()
                         if _AC_LINE.match(line))


def pytest_terminal_summary(terminalreporter):
    if _ac_lines:
        terminalreporter.section("acceptance statistics")
        for line in _ac_lines:
            terminalreporter.write_line(line)
