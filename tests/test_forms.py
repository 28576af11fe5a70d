import math
import random
import re
import sys
from fractions import Fraction

import pytest

from qdc import algebra
from qdc.scalars import PoleError, SpecializationError, Scalar, ZERO, ONE
from qdc.algebra import AlgebraElement
from qdc.calculus import assemble
from qdc.forms import (FormElement, FormsError, GradeCapError, WedgeTable,
                       SPECIALIZATION_POINTS, left_coaction, z_form_comparison)
from qdc.functionals import convolve
from qdc.linalg import (add_term, add_scaled, rref_sparse, mat_inverse,
                        rank_at_specializations)


class TestWedgeTable:
    def test_dimensions(self, calc):
        assert calc.space.table.dimensions() == [1, 4, 6, 4, 1, 0]

    def test_a_large_cap_stores_only_nonempty_grades(self):
        # the N=2 grades end at 4, so a cap near 10^6 costs no more
        cap = 10 ** 6
        table = assemble(grade_cap=cap).space.table
        assert table.max_grade == cap + 2
        assert sorted(table.basis) == [0, 1, 2, 3, 4]
        assert table.basis[5] == table.basis[cap] == []
        assert table.dimension(cap + 2) == 0
        # reading an empty grade stores nothing
        assert sorted(table.basis) == [0, 1, 2, 3, 4]
        assert len(table.rs.normal_words(cap)) == 16

    def test_kernel_dimension(self, calc):
        assert len(calc.space.table.relation_vectors) == 10

    def test_rank_specializations_agree(self, calc):
        for k, info in calc.space.table.spec_ranks.items():
            for q0, rank in info["numeric"].items():
                assert rank == info["symbolic"], (k, q0)
        assert calc.space.table.warnings == []

    def test_classical_rank_at_one(self, calc):
        # at q0 = 1 the degree-2 relations span the symmetric square
        table = calc.space.table
        rows = []
        for v in table.relation_vectors:
            row = {}
            for c, coeff in v.items():
                row[divmod(c, 4)] = coeff.evaluate_at(1)
            rows.append({k: x for k, x in row.items() if x})
        cols = [(i, j) for i in range(4) for j in range(4)]
        rank = len(rref_sparse(rows, cols)[1])
        assert rank == 10
        assert 16 - rank == 6

    def test_idempotent_reduction(self, calc):
        table = calc.space.table
        for k in range(table.max_grade + 1):
            for w in table.basis[k]:
                assert table.reduce_word(w) == {w: ONE}

    def test_relation_representative_reduces_to_zero(self, calc):
        table = calc.space.table
        v = table.relation_vectors[0]
        out = {}
        for c, coeff in v.items():
            for w, sc in table.reduce_word(divmod(c, 4)).items():
                out[w] = out.get(w, ZERO) + coeff * sc
        assert all(x.is_zero() for x in out.values())

    def test_braiding_stability_of_relations(self, calc, dual):
        # fixed vectors stay fixed: sigma(v) = v entrywise
        lam = dual.lam_matrix
        for v in calc.space.table.relation_vectors:
            for kl in range(16):
                acc = ZERO
                for ij, coeff in v.items():
                    acc = acc + lam[ij].get(kl, ZERO) * coeff
                assert acc == v.get(kl, ZERO)

    def test_first_empty_grade(self, calc):
        assert calc.space.table.first_empty_grade() == 5

    def test_grade_cap_error(self, calc):
        with pytest.raises(GradeCapError):
            calc.space.table.reduce_word((0,) * 7)

    def test_sl3_grades_are_binomial(self, calc3):
        # the N=3 table at the default cap (max grade 5) has the classical
        # dimensions C(9, k), and its grade-2 rank holds at every
        # specialization
        table = WedgeTable(calc3.dual.lam_matrix, 5)
        assert table.dimensions() == [math.comb(9, k) for k in range(6)]
        assert table.warnings == []
        assert table.first_empty_grade() == 10


class EliminatedWedge:
    """The reference: the exterior algebra grade by grade, as the wedge
    table built it before it rewrote.

    Grade k is built from (grade k-1 basis) x letter: under the
    lexicographic word order every prefix of a reduced word is reduced, so
    the grade-k relations are the relation vectors appended to the basis
    words of grade k-2, rewritten in those coordinates.  Each grade is one
    rref_sparse over its column words, largest first, with its rank at
    every specialization point.
    """

    def __init__(self, relation_vectors, m, max_grade):
        self.basis = {0: [()], 1: [(i,) for i in range(m)]}
        self.columns = {}
        self.pivot_rows = {}
        self.ranks = {}
        self._reduced = {}
        for k in range(2, max_grade + 1):
            rows = []
            for u in self.basis[k - 2]:
                for v in relation_vectors:
                    row = {}
                    for c, coeff in v.items():
                        a, b = divmod(c, m)
                        for w, sc in self.reduce(u + (a,)).items():
                            add_term(row, w + (b,), sc * coeff)
                    rows.append(row)
            columns = sorted((w + (b,) for w in self.basis[k - 1]
                              for b in range(m)), reverse=True)
            basis_rows = []
            self.pivot_rows[k], pivots = rref_sparse(rows, columns, basis_rows)
            self.ranks[k] = (len(pivots), rank_at_specializations(
                rows, columns, SPECIALIZATION_POINTS, basis_rows))
            self.columns[k] = columns
            pivot_set = set(pivots)
            self.basis[k] = sorted(w for w in columns if w not in pivot_set)

    def reduce(self, word):
        hit = self._reduced.get(word)
        if hit is None:
            if len(word) < 2:
                hit = {word: ONE}
            else:
                pivot_rows = self.pivot_rows[len(word)]
                hit = {}
                for u, c in self.reduce(word[:-1]).items():
                    w = u + word[-1:]
                    row = pivot_rows.get(w)
                    if row is None:
                        add_term(hit, w, c)
                    else:
                        add_scaled(hit, row, -c, skip=w)
            self._reduced[word] = hit
        return hit


class TestRewrittenWedge:
    """The grade-2 rules, rewritten at every grade, against the per-grade
    elimination: the same basis and the same normal form of every column
    word, N=2 and N=3 through grade 4 and N=4 through grade 3."""

    @pytest.mark.parametrize("n, top", [(2, 4), (3, 4), (4, 3)])
    def test_normal_forms_match_the_elimination(self, n, top, calc, calc3,
                                                calc4):
        c = {2: calc, 3: calc3, 4: calc4}[n]
        table = WedgeTable(c.dual.lam_matrix, top)
        ref = EliminatedWedge(table.relation_vectors, table.M, top)
        for k in range(top + 1):
            assert table.basis[k] == ref.basis[k], k
        for k in range(2, top + 1):
            symbolic, numeric = ref.ranks[k]
            assert numeric == dict.fromkeys(SPECIALIZATION_POINTS, symbolic), k
            for w in ref.columns[k]:
                assert table.reduce_word(w) == ref.reduce(w), w

    def test_one_elimination_at_any_grade(self, calc, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return rref_sparse(*args)

        monkeypatch.setattr(algebra, "rref_sparse", counted)
        table = WedgeTable(calc.dual.lam_matrix, 5)
        assert table.first_empty_grade() == 5
        assert len(calls) == 1

    def test_bent_rule_is_refused_by_its_overlap(self, calc, monkeypatch):
        # the rule w[2,2] /\ w[1,2] -> (-q^4 + q^2) w[1,1] /\ w[1,2]
        # - q^2 w[1,2] /\ w[2,2], with its first coefficient times q
        def bent(rows, columns, sources=None):
            pivot_rows, pivots = rref_sparse(rows, columns, sources)
            pivot_rows[(3, 1)][(0, 1)] *= Scalar.q()
            return pivot_rows, pivots

        monkeypatch.setattr(algebra, "rref_sparse", bent)
        with pytest.raises(FormsError, match=re.escape(
                "overlap w[2,2] /\\ w[2,1] /\\ w[1,2]")):
            WedgeTable(calc.dual.lam_matrix, 3)

    def test_rule_with_a_pole_is_refused(self, calc, monkeypatch):
        # a coefficient 1/(q - 2) has a pole at the specialization point 2
        def with_pole(rows, columns, sources=None):
            pivot_rows, pivots = rref_sparse(rows, columns, sources)
            pivot_rows[(3, 1)][(0, 1)] = ONE / (Scalar.q() - Scalar.from_int(2))
            return pivot_rows, pivots

        monkeypatch.setattr(algebra, "rref_sparse", with_pole)
        with pytest.raises(PoleError):
            WedgeTable(calc.dual.lam_matrix, 3)

    def test_rule_with_a_fractional_exponent_is_refused(self, calc,
                                                        monkeypatch):
        # q^(1/3) has no rational value at any specialization point
        def fractional(rows, columns, sources=None):
            pivot_rows, pivots = rref_sparse(rows, columns, sources)
            pivot_rows[(3, 1)][(0, 1)] = Scalar.q_power(Fraction(1, 3))
            return pivot_rows, pivots

        monkeypatch.setattr(algebra, "rref_sparse", fractional)
        with pytest.raises(SpecializationError,
                           match="fractional q-exponents have no rational"):
            WedgeTable(calc.dual.lam_matrix, 3)


def _by_definition(qg, f, word):
    """f * word = sum of w1 f(w2) over the coproduct pairs of word."""
    out = {}
    for (w1, w2), c in qg.coproduct_word(word).items():
        add_term(out, w1, c * f.on_word(w2))
    return AlgebraElement(qg.rs, out)


class TestConvolutionByDefinition:
    """The letter-by-letter recurrences of convolve and of the pass of
    one-forms against the coproduct of the whole word."""

    @staticmethod
    def _entries(dual):
        f, ext = dual.f, dual.ext
        kd_f = f.compose_antipode()
        size = dual.lplus.size
        return ([fam.entry(i, j) for fam in (f, kd_f)
                 for i in range(f.size) for j in range(f.size)]
                + [ext.entry(0, j) for j in range(ext.size)]
                + [dual.lplus.entry(i, j) for i in range(size)
                   for j in range(size)]
                + list(dual.sectors.values()))

    @pytest.mark.parametrize("n, degree", [(2, 4), (3, 2)])
    def test_convolve(self, n, degree, calc, calc3):
        c = calc if n == 2 else calc3
        entries = self._entries(c.dual)
        assert c.dual.f.compose_antipode().reversed
        for mon in c.qg.rs.normal_words(degree):
            a = AlgebraElement.from_word(c.qg.rs, mon)
            for f in entries:
                assert convolve(f, a) == _by_definition(c.qg, f, mon), \
                    (f.label, mon)

    @pytest.mark.parametrize("n, degree", [(2, 4), (3, 2), (4, 2)])
    def test_pass_rows(self, n, degree, calc, calc3, calc4):
        c = {2: calc, 3: calc3, 4: calc4}[n]
        f = c.dual.f
        for mon in c.qg.rs.normal_words(degree):
            a = AlgebraElement.from_word(c.qg.rs, mon)
            for letter in range(c.space.M):
                expected = {}
                for j in range(c.space.M):
                    v = _by_definition(c.qg, f.entry(letter, j), mon)
                    if not v.is_zero():
                        expected[(j,)] = v
                assert c.space.pass_algebra_through((letter,), a) == \
                    expected, (letter, mon)


class TestBimodule:
    def test_unit_action(self, calc, qg):
        w = calc.space.one_form(2)
        assert w.wedge(calc.space.from_algebra(AlgebraElement.one(qg.rs))) \
            == w

    def test_pass_algebra_through_expansion(self, calc, calc3):
        # omega_letter a = sum_j (f^letter_j * a) omega_j, j ascending, each
        # coefficient's terms in the order convolve gives them
        for c, degree in ((calc, 4), (calc3, 2)):
            rs = c.qg.rs
            for mon in rs.normal_words(degree):
                a = AlgebraElement.from_word(rs, mon)
                for letter in range(c.space.M):
                    got = c.space.pass_algebra_through((letter,), a)
                    expected = {}
                    for j in range(c.space.M):
                        v = convolve(c.dual.f.entry(letter, j), a)
                        if not v.is_zero():
                            expected[(j,)] = v
                    assert got == expected, (letter, mon)
                    assert list(got) == sorted(got)
                    assert all(list(got[k].terms) == list(v.terms)
                               for k, v in expected.items())

    def test_pass_memo_is_the_only_commutation_memo(self):
        # a fresh calculus, because the session fixtures share their memos
        c = assemble()
        rs = c.qg.rs
        elems = [AlgebraElement.from_word(rs, w) for w in rs.normal_words(2)]
        for a in elems:
            for b in elems:
                assert c.d(a * b) == c.d(a).wedge(c.space.from_algebra(b)) + \
                    c.space.from_algebra(a).wedge(c.d(b))
        assert c.space._pass_cache
        assert not c.dual.f._conv_cache

    def test_long_words_take_no_coproduct(self):
        # a fresh calculus, whose coproduct memo holds only what assembly
        # put there
        c = assemble()
        rs = c.qg.rs
        cop = {w: dict(terms) for w, terms in c.qg._cop_cache.items()}
        mon = ((1, 1), (1, 2), (1, 2), (2, 2), (2, 2), (2, 2))
        assert rs.reduce_word(mon) == {mon: ONE}
        a = AlgebraElement.from_word(rs, mon)
        assert not c.d(a).is_zero()
        assert not c.space.one_form(1).wedge(
            c.space.from_algebra(a)).is_zero()
        assert not convolve(c.dual.sectors["trace"], a).is_zero()
        assert {w: dict(terms) for w, terms in c.qg._cop_cache.items()} \
            == cop

    def test_a_word_longer_than_the_stack(self):
        # both recurrences extend a prefix in a loop, not by recursion:
        # w[1,1] t[1,2]^n = q^n t[1,2]^n w[1,1] and trace-f * t[1,2]^n =
        # q^-n t[1,2]^n
        c = assemble()
        n = sys.getrecursionlimit() + 100
        a = AlgebraElement.from_word(c.qg.rs, ((1, 2),) * n)
        assert c.space.one_form(0).wedge(c.space.from_algebra(a)) == \
            c.space.one_form(0, a.scalar_mul(Scalar.q_power(n)))
        assert convolve(c.dual.sectors["trace"], a) == \
            a.scalar_mul(Scalar.q_power(-n))

    def test_associativity(self, calc, qg):
        rng = random.Random(7)
        words = qg.rs.normal_words(1)
        for _ in range(10):
            a = AlgebraElement.from_word(qg.rs, words[rng.randrange(len(words))])
            b = AlgebraElement.from_word(qg.rs, words[rng.randrange(len(words))])
            for i in range(4):
                w = calc.space.one_form(i)
                fa, fb, fab = (calc.space.from_algebra(e)
                               for e in (a, b, a * b))
                assert w.wedge(fa).wedge(fb) == w.wedge(fab)

    def test_well_defined_over_ideal(self, calc, qg):
        for lhs, rhs in qg.rs.rules.items():
            le = AlgebraElement.from_word(qg.rs, lhs)
            re = AlgebraElement(qg.rs, rhs)
            for i in range(4):
                assert calc.space.pass_algebra_through((i,), le) == \
                    calc.space.pass_algebra_through((i,), re)


class TestWedgeProduct:
    def test_canonical_square_vanishes(self, calc):
        assert calc.X.wedge(calc.X).is_zero()

    def test_grade_additivity(self, calc, qg):
        x = calc.space.from_algebra(qg.generator(1, 1)).wedge(
            calc.space.one_form(1))
        y = calc.space.one_form(2)
        z = x.wedge(y)
        assert z.grades() == [2]

    def test_bilinearity(self, calc, qg):
        x = calc.space.one_form(0)
        y = calc.space.one_form(1)
        z = calc.space.one_form(2)
        lhs = x.wedge(y + z)
        assert lhs == x.wedge(y) + x.wedge(z)

    def test_associative(self, calc):
        x, y, z = (calc.space.one_form(i) for i in (0, 1, 2))
        assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))

    def test_coefficient_expansion(self, calc, qg, dual):
        # (a w_i) /\ (b w_j) routes b past w_i before reduction
        a = qg.generator(1, 1)
        b = qg.generator(2, 2)
        i, j = 1, 2
        lhs = calc.space.one_form(i, coeff=a).wedge(
            calc.space.one_form(j, coeff=b))
        expected = calc.space.zero()
        for k in range(4):
            c = convolve(dual.f.entry(i, k), b)
            if c.is_zero():
                continue
            piece = FormElement(calc.space, {
                w: (a * c).scalar_mul(s)
                for w, s in calc.space.table.reduce_word((k, j)).items()})
            expected = expected + piece
        assert lhs == expected

    def test_certified_zero_top_grade(self, calc):
        top_word = calc.space.table.basis[4][0]
        top = FormElement(calc.space,
                          {top_word: AlgebraElement.one(calc.qg.rs)})
        assert top.wedge(calc.space.one_form(0)).is_zero()

    def test_cap_error(self, calc):
        top_word = calc.space.table.basis[4][0]
        top = FormElement(calc.space,
                          {top_word: AlgebraElement.one(calc.qg.rs)})
        two = calc.space.one_form(0).wedge(calc.space.one_form(1))
        with pytest.raises(GradeCapError):
            top.wedge(two)


class TestLeftCoaction:
    def test_basis_forms_invariant(self, calc):
        for i in range(4):
            co = left_coaction(calc.space, calc.space.one_form(i))
            assert co == {(): calc.space.one_form(i)}

    def test_bimodule_law(self, calc, qg):
        a = qg.generator(1, 1)
        x = calc.space.from_algebra(a).wedge(calc.space.one_form(2))
        co = left_coaction(calc.space, x)
        expected = {}
        for (w1, w2), c in qg.coproduct(a).items():
            fe = FormElement(calc.space, {(2,): AlgebraElement(qg.rs, {w2: c})})
            expected[w1] = expected.get(w1, calc.space.zero()) + fe
        assert co == {k: v for k, v in expected.items()
                            if not v.is_zero()}

    def test_counit_collapse(self, calc, qg):
        rng = random.Random(11)
        x = calc.random_form(rng, 1)
        co = left_coaction(calc.space, x)
        collapsed = calc.space.zero()
        for w, fe in co.items():
            collapsed = collapsed + fe.scalar_mul(qg.counit_word(w))
        assert collapsed == x


class TestAlternativeRule:
    # N -> (rule rank, kernel rank, union rank)
    DIMS = {2: (13, 10, 16), 3: (63, 45, 78), 4: (196, 136, 238)}

    @pytest.mark.parametrize("n", sorted(DIMS))
    def test_reported_dimensions(self, n, calc, calc3, calc4):
        c = {2: calc, 3: calc3, 4: calc4}[n]
        lam = c.dual.lam_matrix
        out = z_form_comparison(lam, mat_inverse(lam, len(lam)),
                                c.space.table.relation_vectors)
        z_rank, kernel_rank, union_rank = self.DIMS[n]
        assert out == {"z_rank": z_rank, "kernel_rank": kernel_rank,
                       "union_rank": union_rank, "equal": False}

    @staticmethod
    def forward_ranks(lam, inverse, relation_vectors):
        """The ranks as z_form_comparison took them before it eliminated
        largest word first: each row divided by q^2 - q^-2, columns in
        their own order."""
        mm = len(lam)
        q2 = Scalar.q_power(2)
        denom = q2 - (ONE / q2)
        rows_z = []
        for i in range(mm):
            row = {}
            for k in range(mm):
                v = lam[k].get(i, ZERO) - inverse[k].get(i, ZERO)
                if v:
                    row[k] = v / denom
            add_term(row, i, ONE)
            rows_z.append(row)
        z_pivots, zp = rref_sparse(rows_z, range(mm))
        _, bp = rref_sparse(list(z_pivots.values()) + relation_vectors,
                            range(mm))
        return len(zp), len(relation_vectors), len(bp)

    @pytest.mark.parametrize("n", sorted(DIMS))
    def test_ranks_do_not_depend_on_the_column_order(self, n, calc, calc3,
                                                     calc4):
        c = {2: calc, 3: calc3, 4: calc4}[n]
        lam = c.dual.lam_matrix
        inverse = mat_inverse(lam, len(lam))
        vectors = c.space.table.relation_vectors
        out = z_form_comparison(lam, inverse, vectors)
        assert self.forward_ranks(lam, inverse, vectors) == \
            (out["z_rank"], out["kernel_rank"], out["union_rank"])


# ---------------------------------------------------------------------------
# the accumulate kernels against the raw-then-reduce code they replaced

def raw_product(a, b):
    """a * b: every term pair summed into a dict of raw words first, then
    each raw word reduced."""
    raw = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            add_term(raw, w1 + w2, c1 * c2)
    return AlgebraElement(a.rs, a.rs.reduce_terms(raw))


def _add_scaled_elements(out, reduced, c, passed):
    """out += (c * passed) * reduced, out holding AlgebraElements."""
    if reduced:
        cp = raw_product(c, passed)
        for wr, sc in reduced.items():
            add_term(out, wr, cp.scalar_mul(sc))


def raw_mul_right(x, a):
    space = x.space
    out = {}
    for w, c in x.terms.items():
        if not w:
            add_term(out, w, raw_product(c, a))
            continue
        for w2, passed in space.pass_algebra_through(w, a).items():
            _add_scaled_elements(out, space.table.reduce_word(w2), c, passed)
    return FormElement(space, out)


def raw_wedge(x, y):
    space = x.space
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            if not w1:
                add_term(out, w2, raw_product(c1, c2))
                continue
            for w1p, passed in space.pass_algebra_through(w1, c2).items():
                _add_scaled_elements(out, space.table.reduce_word(w1p + w2),
                                     c1, passed)
    return FormElement(space, out)


class TestAccumulateKernels:
    """Products, right actions and wedges equal the raw-then-reduce values
    on every pair of normal words, and on x = a + d(a) (grades 0 and 1)
    against b and d(b)."""

    @pytest.mark.parametrize("n, degree", [(2, 3), (3, 1)])
    def test_equal_to_raw_then_reduce(self, n, degree, calc, calc3):
        c = calc if n == 2 else calc3
        rs = c.qg.rs
        elems = [AlgebraElement.from_word(rs, w)
                 for w in rs.normal_words(degree)]
        d_elems = [c.d(e) for e in elems]
        mixed = [c.space.from_algebra(e) + de for e, de in zip(elems, d_elems)]
        for a, x in zip(elems, mixed):
            for b, db in zip(elems, d_elems):
                assert a * b == raw_product(a, b), (a, b)
                assert x.wedge(c.space.from_algebra(b)) == \
                    raw_mul_right(x, b), (a, b)
                assert x.wedge(db) == raw_wedge(x, db), (a, b)
        for x in d_elems:
            for coeff in x.terms.values():
                for b in elems:
                    assert coeff * b == raw_product(coeff, b), (coeff, b)
