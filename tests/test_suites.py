"""The bicovariance suite on corrupted braidings and structure constants.

Each corruption replaces dual.C or dual.lam_matrix for one suite run.  The
expected status and witness of every law that reads them were recorded from
the suite as it was before those laws were rewritten over precomputed
indices (braiding-braid-relation: before it took three sparse products
instead of four), so a rewrite that changes what a law finds, or where it
first finds it, fails here.  braiding-classical-limit names the first
(row, column) whose value at q0 = 1 differs from the flip, and a passing
law carries no witness.
"""

import pytest

from qdc.scalars import Scalar, ONE, Q
from qdc.functionals import LambdaMatrix, StructureConstants
from qdc.suites import bicovariance_suite
from qdc.linalg import add_term

DEGREE = {2: 2, 3: 1}

# (N, corruption) -> law -> (status, witness)
EXPECTED = {
    (2, "C*q"): {
        "bracket-structure-constants":
            ("fail", "(i,j)=((2, 2), (2, 1)) on t[1,2]"),
        "mixed-exchange": ("fail", "(i,j,k)=(2,2,0) on t[1,1]"),
        "q-jacobi": ("fail", "(i,j,k)=(1,3,2) on t[1,1]"),
        "braiding-f-exchange": ("pass", None),
        "braiding-classical-limit": ("pass", None),
        "braiding-braid-relation": ("pass", None),
    },
    (2, "Lam+1"): {
        "bracket-structure-constants":
            ("fail", "(i,j)=((2, 2), (2, 2)) on t[1,1]"),
        "mixed-exchange": ("fail", "(i,j,k)=(3,3,3) on t[1,1]"),
        "q-jacobi": ("fail", "(i,j,k)=(0,0,3) on t[1,1]"),
        "braiding-f-exchange": ("fail", "t[1,1]"),
        "braiding-classical-limit": ("fail", "(15, 15)"),
        "braiding-braid-relation": ("fail", "(27, 60)"),
    },
    (2, "Lam+1@zero"): {
        "bracket-structure-constants":
            ("fail", "(i,j)=((2, 2), (2, 1)) on t[1,1]"),
        "mixed-exchange": ("fail", "(i,j,k)=(3,3,2) on t[1,1]"),
        "q-jacobi": ("fail", "(i,j,k)=(0,0,2) on t[1,1]"),
        "braiding-f-exchange": ("fail", "t[1,1]"),
        "braiding-classical-limit": ("fail", "(15, 14)"),
        "braiding-braid-relation": ("fail", "(15, 56)"),
    },
    (3, "C*q"): {
        "bracket-structure-constants":
            ("fail", "(i,j)=((3, 3), (3, 2)) on t[2,3]"),
        "mixed-exchange": ("fail", "(i,j,k)=(7,6,1) on t[1,1]"),
        "q-jacobi": ("fail", "(i,j,k)=(3,8,7) on t[1,3]"),
        "braiding-f-exchange": ("pass", None),
        "braiding-classical-limit": ("pass", None),
        "braiding-braid-relation": ("pass", None),
    },
    (3, "Lam+1"): {
        "bracket-structure-constants":
            ("fail", "(i,j)=((3, 3), (3, 3)) on t[1,1]"),
        "mixed-exchange": ("fail", "(i,j,k)=(8,8,8) on t[1,1]"),
        "q-jacobi": ("fail", "(i,j,k)=(0,0,8) on t[1,1]"),
        "braiding-f-exchange": ("fail", "t[1,1]"),
        "braiding-classical-limit": ("fail", "(80, 80)"),
        "braiding-braid-relation": ("fail", "(224, 720)"),
    },
    (3, "Lam+1@zero"): {
        "bracket-structure-constants":
            ("fail", "(i,j)=((3, 3), (3, 2)) on t[1,1]"),
        "mixed-exchange": ("fail", "(i,j,k)=(8,8,7) on t[1,1]"),
        "q-jacobi": ("fail", "(i,j,k)=(0,0,7) on t[1,1]"),
        "braiding-f-exchange": ("fail", "t[1,1]"),
        "braiding-classical-limit": ("fail", "(80, 79)"),
        "braiding-braid-relation": ("fail", "(161, 712)"),
    },
}


def corrupted(dual, kind):
    """(attribute, replacement): C with its last entry times q, or Lambda
    with one added to its last nonzero entry or to its last zero entry."""
    if kind == "C*q":
        table = dict(dual.C.table)
        key = max(table)
        table[key] = table[key] * Q
        return "C", StructureConstants(dual.N, table)
    lam = dual.lam_matrix
    mm = lam.M * lam.M
    if kind == "Lam+1":
        i, j = max(lam.sparse)
    else:
        i, j = max((i, j) for i in range(mm) for j in range(mm)
                   if (i, j) not in lam.sparse)
    sparse = dict(lam.sparse)
    add_term(sparse, (i, j), ONE)
    return "lam_matrix", LambdaMatrix(lam.N, dict(sorted(sparse.items())))


def calculus_for(n, calc, calc3):
    return calc if n == 2 else calc3


@pytest.mark.parametrize("n, kind", sorted(EXPECTED))
def test_corruption_found_where_it_was(n, kind, calc, calc3, monkeypatch):
    c = calculus_for(n, calc, calc3)
    monkeypatch.setattr(c.dual, *corrupted(c.dual, kind))
    report = bicovariance_suite(c, DEGREE[n])
    got = {e.law: (e.status, e.witness) for e in report.entries
           if e.law in EXPECTED[(n, kind)]}
    assert got == EXPECTED[(n, kind)]
    assert not report.passed()


@pytest.mark.parametrize("n", [2, 3])
def test_classical_limit_evaluates_nonzero_entries_only(n, calc, calc3,
                                                        monkeypatch):
    c = calculus_for(n, calc, calc3)
    evaluate = Scalar.evaluate_at
    calls = []

    def counted(s, q0):
        calls.append(s)
        return evaluate(s, q0)

    monkeypatch.setattr(Scalar, "evaluate_at", counted)
    report = bicovariance_suite(c, 1)
    assert report.passed()
    # 240 at N=3, where a dense sweep evaluated all 6,561 entries
    assert len(calls) == len(c.dual.lam_matrix.sparse)


def test_singular_braiding_is_reported(calc, monkeypatch):
    lam = calc.dual.lam_matrix
    last = lam.M * lam.M - 1
    # zeroing the last row drops the flip entry of that row
    sparse = {k: v for k, v in lam.sparse.items() if k[0] != last}
    monkeypatch.setattr(calc.dual, "lam_matrix", LambdaMatrix(lam.N, sparse))
    report = bicovariance_suite(calc, 1)
    status = {e.law: e.status for e in report.entries}
    assert status["braiding-invertible"] == "fail"
    assert status["braiding-classical-limit"] == "fail"
    assert status["alt-quadratic-rule"] == "fail"
    assert not report.passed()
