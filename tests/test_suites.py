"""The bicovariance suite on corrupted braidings and structure constants.

Each corruption replaces dual.C or dual.lam_matrix for one suite run.  The
expected status and witness of every law were recorded from the suite as it
was before the exchange laws became sparse matrix products (and the six
laws that read C and Lambda before they were rewritten over precomputed
indices), so a rewrite that changes what a law finds, or where it first
finds it, fails here.  braiding-classical-limit names the first
(row, column) whose value at q0 = 1 differs from the flip, and a passing
law carries no witness.  The wedge table keeps the braiding it was built
from, so symmetric-space-dim fails once the suite's braiding is corrupted.
"""

import copy

import pytest

from qdc.scalars import Scalar, ONE, Q
from qdc.algebra import AlgebraElement, render_element
from qdc.functionals import (CorepFamily, Functional, convolve,
                             scalar_functional, SECTORS)
from qdc.suites import hopf_suite, bicovariance_suite, leibniz_suite
from qdc.linalg import add_term

DEGREE = {2: 2, 3: 1}

_PASS = ("pass", None)
_BICOV_LAWS = ("well-defined-L+", "well-defined-L-", "well-defined-f",
               "well-defined-chi", "well-defined-eps", "unit-values",
               "braiding-braid-relation", "braiding-invertible",
               "braiding-classical-limit", "bracket-structure-constants",
               "braiding-f-exchange", "mixed-exchange", "chi-f-exchange",
               "antipode-of-chi", "f-inverse-law", "symmetric-vanishing",
               "symmetric-space-dim", "q-jacobi")
_ALT = {2: ("fail", "dims: rule 13, kernel 10, union 16"),
        3: ("fail", "dims: rule 63, kernel 45, union 78")}


def _expected(n, failing):
    """Every law of one bicovariance run: the failing ones with their
    witnesses, the informative alt-quadratic-rule, and the rest passing."""
    out = dict.fromkeys(_BICOV_LAWS, _PASS)
    out.update({law: ("fail", w) for law, w in failing.items()})
    out["alt-quadratic-rule"] = _ALT[n]
    return out


# (N, corruption) -> law -> (status, witness)
EXPECTED = {
    (2, "C*q"): _expected(2, {
        "bracket-structure-constants": "(i,j)=((2, 2), (2, 1)) on t[1,2]",
        "mixed-exchange": "(i,j,k)=(2,2,0) on t[1,1]",
        "q-jacobi": "(i,j,k)=(1,3,2) on t[1,1]",
    }),
    (2, "Lam+1"): _expected(2, {
        "braiding-braid-relation": "(27, 60)",
        "braiding-classical-limit": "(15, 15)",
        "bracket-structure-constants": "(i,j)=((2, 2), (2, 2)) on t[1,1]",
        "braiding-f-exchange": "t[1,1]",
        "mixed-exchange": "(i,j,k)=(3,3,3) on t[1,1]",
        "chi-f-exchange": "(k,l,n)=(3,3,3) on t[1,1]",
        "symmetric-space-dim": "9 vs 10",
        "q-jacobi": "(i,j,k)=(0,0,3) on t[1,1]",
    }),
    (2, "Lam+1@zero"): _expected(2, {
        "braiding-braid-relation": "(15, 56)",
        "braiding-classical-limit": "(15, 14)",
        "bracket-structure-constants": "(i,j)=((2, 2), (2, 1)) on t[1,1]",
        "braiding-f-exchange": "t[1,1]",
        "mixed-exchange": "(i,j,k)=(3,3,2) on t[1,1]",
        "chi-f-exchange": "(k,l,n)=(3,2,3) on t[1,1]",
        "symmetric-space-dim": "9 vs 10",
        "q-jacobi": "(i,j,k)=(0,0,2) on t[1,1]",
    }),
    (2, "Lam*q@first"): _expected(2, {
        "braiding-braid-relation": "(6, 0)",
        "bracket-structure-constants": "(i,j)=((1, 1), (1, 1)) on t[1,1]",
        "braiding-f-exchange": "t[1,1]",
        "mixed-exchange": "(i,j,k)=(0,0,0) on t[1,1]",
        "chi-f-exchange": "(k,l,n)=(0,0,0) on t[1,1]",
        "symmetric-space-dim": "9 vs 10",
        "q-jacobi": "(i,j,k)=(0,0,0) on t[1,1]",
    }),
    (3, "C*q"): _expected(3, {
        "bracket-structure-constants": "(i,j)=((3, 3), (3, 2)) on t[2,3]",
        "mixed-exchange": "(i,j,k)=(7,6,1) on t[1,1]",
        "q-jacobi": "(i,j,k)=(3,8,7) on t[1,3]",
    }),
    (3, "Lam+1"): _expected(3, {
        "braiding-braid-relation": "(224, 720)",
        "braiding-classical-limit": "(80, 80)",
        "bracket-structure-constants": "(i,j)=((3, 3), (3, 3)) on t[1,1]",
        "braiding-f-exchange": "t[1,1]",
        "mixed-exchange": "(i,j,k)=(8,8,8) on t[1,1]",
        "chi-f-exchange": "(k,l,n)=(8,8,8) on t[1,1]",
        "symmetric-space-dim": "44 vs 45",
        "q-jacobi": "(i,j,k)=(0,0,8) on t[1,1]",
    }),
    (3, "Lam+1@zero"): _expected(3, {
        "braiding-braid-relation": "(161, 712)",
        "braiding-classical-limit": "(80, 79)",
        "bracket-structure-constants": "(i,j)=((3, 3), (3, 2)) on t[1,1]",
        "braiding-f-exchange": "t[1,1]",
        "mixed-exchange": "(i,j,k)=(8,8,7) on t[1,1]",
        "chi-f-exchange": "(k,l,n)=(8,7,8) on t[1,1]",
        "symmetric-space-dim": "44 vs 45",
        "q-jacobi": "(i,j,k)=(0,0,7) on t[1,1]",
    }),
    (3, "Lam*q@first"): _expected(3, {
        "braiding-braid-relation": "(12, 0)",
        "bracket-structure-constants": "(i,j)=((1, 1), (1, 1)) on t[1,1]",
        "braiding-f-exchange": "t[1,1]",
        "mixed-exchange": "(i,j,k)=(0,0,0) on t[1,1]",
        "chi-f-exchange": "(k,l,n)=(0,0,0) on t[1,1]",
        "symmetric-space-dim": "44 vs 45",
        "q-jacobi": "(i,j,k)=(0,0,0) on t[1,1]",
    }),
}


def corrupted(dual, kind):
    """(attribute, replacement): C with its last entry times q, or Lambda
    with one added to its last nonzero entry or to its last zero entry, or
    with its first nonzero entry times q."""
    if kind == "C*q":
        table = dict(dual.C)
        key = max(table)
        table[key] = table[key] * Q
        return "C", table
    lam = [dict(row) for row in dual.lam_matrix]
    nonzero = [(i, j) for i, row in enumerate(lam) for j in row]
    if kind == "Lam*q@first":
        i, j = nonzero[0]
        lam[i][j] = lam[i][j] * Q
        return "lam_matrix", lam
    if kind == "Lam+1":
        i, j = nonzero[-1]
    else:
        i, j = max((i, j) for i, row in enumerate(lam)
                   for j in range(len(lam)) if j not in row)
    add_term(lam[i], j, ONE)
    return "lam_matrix", [dict(sorted(row.items())) for row in lam]


def calculus_for(n, calc, calc3):
    return calc if n == 2 else calc3


@pytest.mark.parametrize("n, kind", sorted(EXPECTED))
def test_corruption_found_where_it_was(n, kind, calc, calc3, monkeypatch):
    c = calculus_for(n, calc, calc3)
    monkeypatch.setattr(c.dual, *corrupted(c.dual, kind))
    report = bicovariance_suite(c, DEGREE[n])
    got = {e.law: (e.status, e.witness) for e in report.entries}
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
    assert len(calls) == sum(map(len, c.dual.lam_matrix))


def test_singular_braiding_is_reported(calc, monkeypatch):
    # zeroing the last row drops the flip entry of that row
    monkeypatch.setattr(calc.dual, "lam_matrix",
                        calc.dual.lam_matrix[:-1] + [{}])
    report = bicovariance_suite(calc, 1)
    status = {e.law: e.status for e in report.entries}
    assert status["braiding-invertible"] == "fail"
    assert [e.witness for e in report.entries
            if e.law == "braiding-invertible"] == ["matrix is singular"]
    assert status["braiding-classical-limit"] == "fail"
    assert status["alt-quadratic-rule"] == "fail"
    assert not report.passed()


# Every law of one suite run on a family with one corrupted generator entry:
# (N, family) -> law -> (status, witness), recorded from the dense word
# matrices that came before the sparse rows.
EXPECTED_FAMILY = {
    (2, "f"): _expected(2, {
        "well-defined-f": "rule ((2, 2), (1, 1)) entry (3, 3)",
        "braiding-f-exchange": "t[1,2]",
        "mixed-exchange": "(i,j,k)=(1,0,3) on t[1,2]",
        "chi-f-exchange": "(k,l,n)=(2,3,3) on t[1,2]",
        "antipode-of-chi": "i=3 on t[1,1]",
        "f-inverse-law": "(k,i)=(3,3) on t[1,1]",
    }),
    (2, "chi"): _expected(2, {
        "well-defined-chi": "rule ((2, 2), (1, 1)) entry (0, 4)",
        "bracket-structure-constants":
            "(i,j)=((2, 1), (1, 1)) on t[1,1]*t[1,2]",
        "mixed-exchange": "(i,j,k)=(1,0,3) on t[1,1]*t[1,2]",
        "chi-f-exchange": "(k,l,n)=(3,0,1) on t[1,1]*t[1,2]",
        "antipode-of-chi": "i=3 on t[1,1]*t[1,1]",
        "q-jacobi": "(i,j,k)=(0,2,0) on t[1,1]*t[1,2]",
    }),
    (3, "f"): _expected(3, {
        "well-defined-f": "rule ((3, 3), (1, 3)) entry (8, 6)",
        "braiding-f-exchange": "t[1,3]",
        "mixed-exchange": "(i,j,k)=(2,0,8) on t[1,3]",
        "chi-f-exchange": "(k,l,n)=(6,8,8) on t[1,3]",
        "antipode-of-chi": "i=8 on t[1,1]",
        "f-inverse-law": "(k,i)=(8,8) on t[1,1]",
    }),
    (3, "chi"): _expected(3, {
        "well-defined-chi": "rule ((3, 3), (1, 1)) entry (0, 9)",
        "antipode-of-chi": "i=8 on t[1,1]",
    }),
    # the families no other law reads, recorded from the suite on the
    # sparse tables: each fails its own well-definedness law only
    (2, "L+"): _expected(2, {
        "well-defined-L+": "rule ((2, 2), (1, 1)) entry (1, 1)",
    }),
    (2, "L-"): _expected(2, {
        "well-defined-L-": "rule ((2, 2), (1, 1)) entry (1, 1)",
    }),
    (2, "eps"): _expected(2, {
        "well-defined-eps": "rule ((2, 2), (1, 1)) entry (0, 0)",
    }),
    (3, "L+"): _expected(3, {
        "well-defined-L+": "rule ((3, 3), (3, 1)) entry (0, 2)",
    }),
    (3, "L-"): _expected(3, {
        "well-defined-L-": "rule ((3, 3), (1, 3)) entry (2, 0)",
    }),
    (3, "eps"): _expected(3, {
        "well-defined-eps": "rule ((1, 3), (2, 2), (3, 1)) entry (0, 0)",
    }),
}

# the DualStructure attribute of each bent family
FAMILY_ATTR = {"f": "f", "chi": "ext", "L+": "lplus", "L-": "lminus",
               "eps": "eps"}


def corrupted_family(fam):
    """A fresh copy of fam whose last nonzero entry (row-major) of the last
    generator's table is multiplied by q."""
    g = fam.qg.rs.gens[-1]
    i, j = [(i, j) for i in range(fam.size) for j in range(fam.size)
            if Functional(fam, i, j, "x").on_generator(*g)][-1]
    table = [copy.copy(row) for row in fam.gen_tables[g]]
    table[i][j] = table[i][j] * Q
    tables = dict(fam.gen_tables)
    tables[g] = table
    return CorepFamily(fam.qg, fam.size, tables, fam.reversed, fam.name)


def test_bent_unit_value_is_named(calc, monkeypatch):
    on_unit = Functional.on_unit
    monkeypatch.setattr(Functional, "on_unit", lambda f: ONE
                        if f.label == "L+[1;2]" else on_unit(f))
    report = bicovariance_suite(calc, 1)
    assert [(e.law, e.witness) for e in report.entries
            if e.gating and not e.ok()] == [("unit-values", "L+[1;2]")]


@pytest.mark.parametrize("n, kind", sorted(EXPECTED_FAMILY))
def test_corrupted_family_found_where_it_was(n, kind, calc, calc3,
                                             monkeypatch):
    c = calculus_for(n, calc, calc3)
    attr = FAMILY_ATTR[kind]
    if kind == "eps":
        bent = Functional(corrupted_family(c.dual.eps.family), 0, 0, "eps")
    else:
        bent = corrupted_family(getattr(c.dual, attr))
    monkeypatch.setattr(c.dual, attr, bent)
    report = bicovariance_suite(c, DEGREE[n])
    got = {e.law: (e.status, e.witness) for e in report.entries}
    assert got == EXPECTED_FAMILY[(n, kind)]
    assert not report.passed()


# ---------------------------------------------------------------------------
# the leibniz pair sweeps against a copy that recomputes every value

PAIR_LAWS = ("leibniz-d", "leibniz-sector-trace", "leibniz-sector-counit",
             "leibniz-partial-twisted", "leibniz-partial-plain")


def recomputing_pair_rows(calc, degree):
    """law -> (status, witness) of the four pair sweeps of leibniz_suite,
    written so that each pair recomputes its products, d values and
    convolutions where it reads them."""
    qg, space = calc.qg, calc.space
    elems = [AlgebraElement.from_word(qg.rs, w)
             for w in qg.rs.normal_words(degree)]
    pairs = [(a, b) for a in elems for b in elems]

    def pair_str(a, b):
        return "%s, %s" % (render_element(a), render_element(b))

    def leibniz_d():
        for a, b in pairs:
            lhs = calc.d(a * b)
            rhs = calc.d(a).wedge(space.from_algebra(b)) + \
                space.from_algebra(a).wedge(calc.d(b))
            if lhs != rhs:
                yield pair_str(a, b)

    def leibniz_sector(f00):
        for a, b in pairs:
            lhs = convolve(f00, a * b) - (a * b)
            rhs = (convolve(f00, a) - a) * convolve(f00, b) + \
                a * (convolve(f00, b) - b)
            if lhs != rhs:
                yield pair_str(a, b)

    trace = calc.dual.sectors["trace"]
    plain_failures = []

    def leibniz_partial_rows():
        partials = [calc.partial(e) for e in elems]
        for a, pa in zip(elems, partials):
            twist = space.from_algebra(convolve(trace, a))
            row_failures = []
            for b, pb in zip(elems, partials):
                lhs = calc.partial(a * b)
                pa_b = pa.wedge(space.from_algebra(b))
                plain = pa_b + space.from_algebra(a).wedge(pb)
                twisted = pa_b + twist.wedge(pb)
                if lhs != twisted:
                    row_failures.append(pair_str(a, b))
                if lhs != plain:
                    plain_failures.append((a, b))
            if row_failures:
                yield row_failures[-1]

    witnesses = {"leibniz-d": next(iter(leibniz_d()), None),
                 "leibniz-sector-trace": next(iter(leibniz_sector(trace)), None),
                 "leibniz-sector-counit":
                     next(iter(leibniz_sector(calc.dual.sectors["counit"])),
                          None),
                 "leibniz-partial-twisted":
                     next(iter(leibniz_partial_rows()), None)}
    witnesses["leibniz-partial-plain"] = \
        pair_str(*plain_failures[0]) if plain_failures else None
    return {law: ("pass" if wit is None else "fail", wit)
            for law, wit in witnesses.items()}


def bent_sector(f00):
    """The sector functional f00 with its value on t[2,2] times q, on a
    family of its own, so that its convolution memo is its own.  It is
    still multiplicative on words, but its generator table breaks A's
    rules, so it is no longer a character of A."""
    qg = f00.family.qg
    values = {g: f00.on_generator(*g) for g in qg.rs.gens}
    values[(2, 2)] = values[(2, 2)] * Q
    return scalar_functional(qg, values, f00.label)


def _pair_rows(calc, degree):
    return {e.law: (e.status, e.witness)
            for e in leibniz_suite(calc, degree, samples=0).entries
            if e.law in PAIR_LAWS}


def test_leibniz_sweeps_match_recomputing_copy(calc):
    rows = _pair_rows(calc, 2)
    assert rows == recomputing_pair_rows(calc, 2)
    assert all(rows[law][0] == "pass" for law in PAIR_LAWS[:4])


def test_leibniz_sweeps_keep_first_witnesses(calc, monkeypatch):
    # d(t[2,1]*t[2,2]^3) doubled in the d memo, which two pairs of degree-2
    # words read, and both sector functionals bent: the twisted rule first
    # fails on a row with several failures, before those pairs
    mon = ((2, 1), (2, 2), (2, 2), (2, 2))
    image = calc._d_basis(mon, ())
    monkeypatch.setitem(calc._d_cache, (mon, ()),
                        {w: c + c for w, c in image.items()})
    sectors = calc.dual.sectors
    for name in SECTORS:
        monkeypatch.setitem(sectors, name, bent_sector(sectors[name]))
    rows = _pair_rows(calc, 2)
    assert rows == recomputing_pair_rows(calc, 2)
    assert all(rows[law][0] == "fail" for law in PAIR_LAWS[:4]), rows


@pytest.mark.parametrize("name", SECTORS)
def test_bent_generator_fails_its_sector_law(name, calc, monkeypatch):
    # a multiplicative f00 that breaks A's rules: its own law fails on the
    # first pair whose product a rule rewrites, and the other law passes
    sectors = calc.dual.sectors
    monkeypatch.setitem(sectors, name, bent_sector(sectors[name]))
    rows = _pair_rows(calc, 2)
    for tag in SECTORS:
        assert rows["leibniz-sector-" + tag] == (
            ("fail", "t[1,2], t[2,1]") if tag == name else _PASS)


def test_leibniz_graded_without_samples_fails(calc):
    entries = {e.law: e for e in leibniz_suite(calc, 1, samples=0).entries}
    assert (entries["leibniz-graded"].status,
            entries["leibniz-graded"].witness) == \
        ("fail", "no instance evaluated (0 skipped)")


# ---------------------------------------------------------------------------
# the hopf suite at N=2, degree 2, on a bent antipode or coproduct value:
# mutant -> law -> (status, witness), recorded from the suite as it was
# before its laws ran through CheckReport.law

BENT = ((1, 2),)
EXPECTED_HOPF = {
    "kappa(t[1,2]) * q": {
        "coassociativity": _PASS,
        "counit": _PASS,
        "antipode": ("fail", "t[1,1]"),
    },
    "phi(t[1,2]) term t[1,1] x t[1,2] * q": {
        "coassociativity": ("fail", "t[1,1]"),
        "counit": ("fail", "t[1,2]"),
        "antipode": ("fail", "t[1,2]"),
    },
}


@pytest.mark.parametrize("kind", sorted(EXPECTED_HOPF))
def test_hopf_mutant_found_where_it_was(kind, calc, monkeypatch):
    qg = calc.qg
    if kind.startswith("kappa"):
        antipode_word = qg.antipode_word
        monkeypatch.setattr(qg, "antipode_word", lambda w: antipode_word(w)
                            .scalar_mul(Q) if w == BENT else antipode_word(w))
    else:
        coproduct_word = qg.coproduct_word
        term = (((1, 1),), BENT)

        def bent(w):
            out = coproduct_word(w)
            if w == BENT:
                out = dict(out)
                out[term] = out[term] * Q
            return out

        # the coproducts of longer words are built from the bent one, so
        # they go to a memo of their own
        monkeypatch.setattr(qg, "_cop_cache", {})
        monkeypatch.setattr(qg, "coproduct_word", bent)
    report = hopf_suite(calc, 2)
    assert {e.law: (e.status, e.witness) for e in report.entries} == \
        EXPECTED_HOPF[kind]
    assert not report.passed()
