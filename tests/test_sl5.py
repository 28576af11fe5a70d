"""SL_q(5) at grade cap 1 and degree bound 1.

The antipode comes from the quantum minors, which have degree 4, so the
assembly needs no elimination over the normal words of degree <= 4.
"""

import math
import os

import pytest

from qdc.calculus import assemble
from qdc.suites import hopf_suite


@pytest.fixture(scope="module")
def calc5():
    path = os.path.join(os.path.dirname(__file__), "data", "slq5.rmatrix")
    with open(path, encoding="utf-8") as fh:
        return assemble(fh.read(), grade_cap=1, degree_bound=1)


def test_wedge_dimensions_are_binomial(calc5):
    assert calc5.space.table.dimensions() == [math.comb(25, k) for k in range(4)]


def test_hopf_suite_passes_at_degree_one(calc5):
    report = hopf_suite(calc5, degree=1)
    assert report.passed(), report.render()
