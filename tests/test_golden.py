"""CLI dumps compared byte for byte with recorded golden outputs.

Each file in tests/data/golden is the standard output of one command on the
default N=2 session (or, where named, the N=1, N=3 or N=4 config in tests/data),
recorded before the engine's internals were refactored; any change in a
printed normal form, table or verdict shows up here.
"""

import io
import os

import pytest

from qdc.cli import run

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DIR = os.path.join(DATA_DIR, "golden")
SLQ1 = os.path.join(DATA_DIR, "slq1.rmatrix")
SLQ3 = os.path.join(DATA_DIR, "slq3.rmatrix")
SLQ4 = os.path.join(DATA_DIR, "slq4.rmatrix")

CASES = {
    "relations": ["relations"],
    "bicomplex": ["bicomplex"],
    "bicomplex_cap1": ["--cap", "1", "bicomplex"],
    "relations_cap1": ["--cap", "1", "relations"],
    "relations_slq1": ["--rmatrix", SLQ1, "relations"],
    "maps_d2": ["--degree", "2", "maps"],
    "maps_structured": ["--format", "structured", "maps"],
    "check_d2_structured": ["--degree", "2", "--format", "structured", "check"],
    "eval_d_t11": ["eval", "d(t[1,1])"],
    "eval_dd_t12": ["eval", "d(d(t[1,2]))"],
    "eval_scaled_wedge": ["eval", "(q - q^-1) * w[1,1] /\\ w[2,2]"],
    "eval_split_t21": ["eval", "del(t[2,1]) + dlt(t[2,1])"],
    "eval_del_mixed": ["eval", "del(t[2,1]*w[1,2] + t[1,1]*X)"],
    "eval_dlt_mixed": ["eval", "dlt(t[2,1]*w[1,2] + t[1,1]*X)"],
    # N=3: coefficients with q^(1/3) exponents
    "eval_d_t11_slq3": ["--rmatrix", SLQ3, "--cap", "1", "eval", "d(t[1,1])"],
    "eval_d_t23_slq3": ["--rmatrix", SLQ3, "--cap", "1", "eval", "d(t[2,3])"],
    "eval_del_mixed_slq3": ["--rmatrix", SLQ3, "--cap", "1", "eval",
                            "del(t[2,1]*w[1,2] + t[1,1]*X)"],
    "eval_dlt_mixed_slq3": ["--rmatrix", SLQ3, "--cap", "1", "eval",
                            "dlt(t[2,1]*w[1,2] + t[1,1]*X)"],
    "check_sl3_bicov_d1": ["--rmatrix", SLQ3, "--cap", "1", "--degree", "1",
                           "--format", "structured", "check", "--suite",
                           "bicovariance"],
    # N=4 at degree 1, below the quartic determinant rule
    "eval_d_t11_slq4": ["--rmatrix", SLQ4, "--cap", "1", "eval", "d(t[1,1])"],
    # N=2: a scalar whose exponents lie in steps of 1/2, 1/3 and 1/6
    "eval_mixed_exponents": ["eval", "(q^(1/2) + q^(1/3))/(1 - q^(1/6))"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv("QDC_DEFAULT_RMATRIX", raising=False)
    buf = io.StringIO()
    assert run(CASES[name], out=buf) == 0
    with open(os.path.join(GOLDEN_DIR, name + ".txt"), encoding="utf-8",
              newline="") as fh:
        expected = fh.read()
    assert buf.getvalue() == expected
