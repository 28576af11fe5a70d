"""Acceptance criteria for the N=2 instance, degree bound 3, grade cap 3.

Every check is exact (zero tolerance) over the rational-function field;
each criterion prints one PASS/FAIL line (run with -s to see them live).
"""

import itertools
import sys

from qdc.scalars import ZERO, ONE
from qdc.algebra import AlgebraElement, RMatrixError, load_rmatrix
from qdc.calculus import (DEFAULT_RMATRIX, map_in_to_out, map_out_to_in,
                          roundtrip_check)
from qdc.functionals import convolve, scalar_functional, InvalidFunctionalError
from qdc.bicomplex import BicomplexGrid, cartan_check, grid_check
from qdc.suites import hopf_suite, bicovariance_suite, leibniz_suite
from qdc.linalg import rref_sparse
import random

DEGREE = 3
GRADE_CAP = 3


def record(number, ok, description):
    line = "ACCEPTANCE %2d: %s - %s" % (number, "PASS" if ok else "FAIL",
                                        description)
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_criterion_01_rmatrix_gate():
    r = load_rmatrix(DEFAULT_RMATRIX)   # exact YBE (64 equations) + Hecke
    witness_named = False
    try:
        load_rmatrix(DEFAULT_RMATRIX.replace(
            "entry 1 2 2 1 q - q^-1", "entry 1 2 2 1 q - q^-1 + 1"))
    except RMatrixError as err:
        witness_named = "fails at" in str(err) and "(" in str(err)
    record(1, r.N == 2 and witness_named,
           "R-matrix gate: Yang-Baxter and Hecke pass exactly; a perturbed "
           "entry fails with a named witness")


def test_criterion_02_rewrite_soundness(calc, qg, qg_gl, dual):
    rs = qg.rs

    # empirical confluence on all words of length <= 4
    def one_step(word):
        out = []
        for i in range(len(word)):
            for ln in rs.lhs_lengths:
                if i + ln <= len(word):
                    rhs = rs.rules.get(word[i:i + ln])
                    if rhs is not None:
                        out.append((i, ln, rhs))
        return out

    def normal_forms(word, coeff, acc):
        steps = one_step(word)
        if not steps:
            acc[word] = acc.get(word, ZERO) + coeff
            return
        i, ln, rhs = steps[0]
        for w, c in rhs.items():
            normal_forms(word[:i] + w + word[i + ln:], coeff * c, acc)

    confluent = True
    for length in range(2, 5):
        for word in itertools.product(rs.gens, repeat=length):
            steps = one_step(word)
            if len(steps) < 2:
                continue
            results = []
            for i, ln, rhs in steps:
                acc = {}
                for w, c in rhs.items():
                    normal_forms(word[:i] + w + word[i + ln:], c, acc)
                results.append({w: c for w, c in acc.items()
                                if not c.is_zero()})
            confluent = confluent and all(r == results[0] for r in results[1:])

    det = qg_gl.quantum_determinant()
    central = all((det * AlgebraElement.generator(qg_gl.rs, *g) -
                   AlgebraElement.generator(qg_gl.rs, *g) * det).is_zero()
                  for g in qg_gl.rs.gens)

    invariant = all(f.family.check_rewrite_invariance() is None
                    for f in dual.all_functionals())
    record(2, confluent and central and invariant,
           "rewrite soundness: confluence to length 4, determinant "
           "centrality, and rewrite invariance of every functional family")


def test_criterion_03_hopf_axioms(calc):
    report = hopf_suite(calc, DEGREE)
    record(3, report.passed(),
           "Hopf axioms exact on monomials of degree <= 3")


def test_criterion_04_bicovariance(calc):
    report = bicovariance_suite(calc, DEGREE)
    laws = {e.law: e for e in report.entries}
    needed = ["bracket-structure-constants", "braiding-f-exchange",
              "mixed-exchange", "chi-f-exchange", "q-jacobi",
              "symmetric-vanishing"]
    ok = report.passed() and all(laws[k].ok() for k in needed)
    record(4, ok,
           "bicovariance conditions, braided Jacobi identity and "
           "symmetric-vanishing law exact on degree <= 3")


def test_criterion_05_differential_tie_in(calc, qg, dual):
    ok = True
    for w in qg.rs.normal_words(2):
        a = AlgebraElement.from_word(qg.rs, w)
        coeffs = calc.expand_d_in_basis(a)
        for i in range(calc.space.M):
            if coeffs[i] != convolve(dual.chi[i], a):
                ok = False
    record(5, ok,
           "basis expansion of d equals the vector-field convolutions, "
           "coefficient by coefficient, through degree 2")


def test_criterion_06_leibniz_and_cartan(calc, qg):
    rng = random.Random(42)
    leibniz_ok = True
    words = qg.rs.normal_words(DEGREE)
    for wa in words:
        for wb in words:
            a = AlgebraElement.from_word(qg.rs, wa)
            b = AlgebraElement.from_word(qg.rs, wb)
            if calc.d(a * b) != calc.d(a).wedge(calc.space.from_algebra(b)) + \
                    calc.space.from_algebra(a).wedge(calc.d(b)):
                leibniz_ok = False

    # two seeded sweeps, each reporting both sector choices
    cartan_ok = True
    for _ in range(2):
        for report in cartan_check(calc, degree=DEGREE, samples=50,
                                   seed=rng.randrange(10 ** 6)):
            cartan_ok = cartan_ok and report.passed()
    record(6, leibniz_ok and cartan_ok,
           "Leibniz rule for d and all four split conditions exact on basis "
           "one-forms and 50 randomized elements per grade, both sector "
           "choices")


def test_criterion_07_projectors(calc):
    laws = [d is None for d in calc.projectors.defects()]
    report = leibniz_suite(calc, 2, samples=2)
    entries = {e.law: e for e in report.entries}
    measured = entries.get("projector-right-module")
    recorded = measured is not None and not measured.gating \
        and measured.status in ("pass", "fail") and measured.witness
    record(7, all(laws) and recorded,
           "projector laws exact; the right-module property of J is "
           "measured and recorded as informative (status: %s)"
           % (measured.status if measured else "missing"))


def test_criterion_08_reconstruction_roundtrip(calc, qg):
    outer = map_in_to_out(calc)
    ok = True
    for choice in ("trace", "counit"):
        report = roundtrip_check(outer, calc.dual.sectors[choice], DEGREE)
        ok = ok and report.passed()

    ext_trace = map_out_to_in(outer, calc.dual.sectors["trace"])
    ext_counit = map_out_to_in(outer, calc.dual.sectors["counit"])
    tables = [{g: e.f00.on_generator(*g) for g in qg.rs.gens}
              for e in (ext_trace, ext_counit)]
    injective_witness = tables[0] != tables[1]

    vals = {g: calc.f00.on_generator(*g) for g in qg.rs.gens}
    vals[(1, 1)] = vals[(1, 1)] + ONE
    corrupted_detected = False
    try:
        map_out_to_in(outer, scalar_functional(qg, vals, "corrupted"))
    except InvalidFunctionalError:
        corrupted_detected = True
    record(8, ok and injective_witness and corrupted_detected,
           "round trip exact for both sector choices; distinct extensions "
           "are distinguishable; a corrupted sector functional is rejected")


def test_criterion_09_bicomplex_grid(calc):
    grid = BicomplexGrid(calc)
    dims_ok = grid_check(calc).passed()
    k1_ok = calc.space.table.dimension(1) == grid.dim(0, 1) + grid.dim(1, 0)

    # classical specialization of the degree-2 relation rank
    rows = []
    for v in calc.space.table.relation_vectors:
        row = {}
        for c, coeff in v.items():
            x = coeff.evaluate_at(1)
            if x:
                row[c] = x
        rows.append(row)
    rank1 = len(rref_sparse(rows, list(range(16)))[1])
    classical_ok = (16 - rank1) == 6
    record(9, dims_ok and k1_ok and classical_ok,
           "grid dimensions split additively through grade 3; classical "
           "specialization gives the six-dimensional two-form space")


def test_criterion_10_specialization_oracle(calc, qg, dual):
    table = calc.space.table
    agree = not table.warnings
    for k, info in table.spec_ranks.items():
        for q0, rank in info["numeric"].items():
            agree = agree and rank == info["symbolic"]

    # braiding fixed-space dimension, re-derived numerically
    points = (2, 3, 5)
    mm = 16
    for q0 in points:
        rows = []
        for i in range(mm):
            row = {}
            for j in range(mm):
                v = dual.lam_matrix[j].get(i, ZERO)
                x = v.evaluate_at(q0) - (1 if i == j else 0)
                if x:
                    row[j] = x
            rows.append(row)
        numeric_fixed = mm - len(rref_sparse(rows, list(range(mm)))[1])
        agree = agree and numeric_fixed == len(table.relation_vectors)

    # grid cell dimensions re-derived by numeric elimination
    data = {k: calc.grid.data(k) for k in range(1, GRADE_CAP + 1)}
    for q0 in points:
        for k, d in data.items():
            vecs = []
            for col in d["cols"]:
                vecs.append({w: c.evaluate_at(q0) for w, c in col.items()
                             if c.evaluate_at(q0) != 0})
            r_all = len(rref_sparse(vecs, d["basis_words"])[1])
            agree = agree and r_all == sum(d["dims"])
    record(10, agree,
           "every symbolic rank agrees with exact numeric elimination at "
           "q0 in {2, 3, 5}")
