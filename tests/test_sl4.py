"""SL_q(4) as a third instance, at grade cap 1 and degree bound 1.

Degree 1 stays below the quartic determinant rule, so every check here
runs where only the quadratic RTT rules act.
"""

import math

from qdc.algebra import AlgebraElement
from qdc.forms import WedgeTable
from qdc.functionals import convolve
from qdc.linalg import braid_defect
from qdc.suites import hopf_suite


def test_wedge_dimensions_are_binomial(calc4):
    assert calc4.space.table.dimensions() == [math.comb(16, k) for k in range(4)]


def test_symbolic_rank_equals_numeric_rank_at_every_point(calc4):
    # grade 2 only: the grade-3 ranks are checked against the per-grade
    # elimination in tests/test_forms.py
    table = calc4.space.table
    assert sorted(table.spec_ranks) == [2]
    for k, info in table.spec_ranks.items():
        assert set(info["numeric"]) == {2, 3, 5}
        for q0, rank in info["numeric"].items():
            assert rank == info["symbolic"], (k, q0)
    assert table.warnings == []


def test_first_empty_wedge_grade_is_counted(calc4):
    # M + 1 = 17, the first grade past the classical exterior algebra,
    # counted without building any grade beyond the cap
    assert WedgeTable(calc4.dual.lam_matrix, 3).first_empty_grade() == 17


def test_hopf_suite_passes_at_degree_one(calc4):
    report = hopf_suite(calc4, degree=1)
    assert report.passed(), report.render()


def test_d_expands_through_the_vector_fields_on_generators(calc4):
    qg, chi = calc4.qg, calc4.dual.chi
    for g in qg.rs.gens:
        a = AlgebraElement.generator(qg.rs, *g)
        coeffs = calc4.expand_d_in_basis(a)
        assert len(coeffs) == 16
        for i in range(16):
            assert coeffs[i] == convolve(chi[i], a), (g, i)


def test_braiding_satisfies_the_braid_relation(calc4):
    # three 4,096 x 4,096 sparse products, run over value numbers
    assert braid_defect(calc4.dual.lam_matrix, 16) is None
