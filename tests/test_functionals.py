import copy
import itertools
from fractions import Fraction

import pytest

from qdc.scalars import Scalar, ZERO, ONE, Q, parse_scalar, qlambda
from qdc.algebra import AlgebraElement
from qdc import functionals
from qdc.functionals import (make_C, make_lambda, adjoint_values,
                             convolve, q_lie_bracket, flatten_pair,
                             scalar_functional, validate_scalar_functional,
                             CorepFamily, Functional, FunctionalError,
                             InvalidFunctionalError)
from qdc.linalg import (kernel_basis, rref_sparse, identity, mat_mul,
                        mat_inverse, add_term, braid_defect)
from qdc.calculus import OuterCalculus, assemble
from qdc.cli import SUITES, run_suite
from qdc.suites import bicovariance_suite


HALF = Fraction(1, 2)


def entries(rows):
    """{(row, col): value} of a matrix of sparse rows, in row-major order."""
    return {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}


class TestRegularFunctionals:
    def test_generator_tables_scaled_r(self, calc, dual):
        r = calc.R
        scale_p = Scalar.q_power(-HALF)
        scale_m = Scalar.q_power(HALF)
        for a, b, c, d in itertools.product((1, 2), repeat=4):
            assert dual.lplus.entry(a - 1, b - 1).on_generator(c, d) == \
                r.val(a, c, b, d) * scale_p
            assert dual.lminus.entry(a - 1, b - 1).on_generator(c, d) == \
                r.rminus_entries.get((a, c, b, d), ZERO) * scale_m

    def test_unit_values(self, dual):
        for i in range(2):
            for j in range(2):
                expected = ONE if i == j else ZERO
                assert dual.lplus.entry(i, j).on_unit() == expected
                assert dual.lminus.entry(i, j).on_unit() == expected

    def test_product_law(self, dual, qg):
        # (L+)^1_2 on t11 t11 equals the stated convolution sum
        x = qg.generator(1, 1)
        elem = x * x
        lhs = dual.lplus.entry(0, 1).value(elem)
        rhs = ZERO
        for g in range(2):
            rhs = rhs + dual.lplus.entry(0, g).on_generator(1, 1) * \
                dual.lplus.entry(g, 1).on_generator(1, 1)
        assert lhs == rhs

    def test_rewrite_invariance_includes_determinant(self, dual):
        assert dual.lplus.check_rewrite_invariance() is None
        assert dual.lminus.check_rewrite_invariance() is None

    def test_unnormalized_tables_fail_on_determinant(self, qg):
        # (L+)(t^c_d) = R^{ac}_{bd}, without the q^(-1/N) scale
        tables = {g: [{} for _ in range(qg.N)] for g in qg.rs.gens}
        for (a, c, b, d), v in qg.R.entries.items():
            tables[(c, d)][a - 1][b - 1] = v
        raw = CorepFamily(qg, qg.N, tables, name="L+")
        assert raw.check_rewrite_invariance() is not None

    def test_rewrite_witness_is_first_differing_entry(self, dual, qg):
        # the counit entry of the chi family on t[2,2] times q: row 0 then
        # differs across the rule t22 t11 -> ... at columns 0, 1 and 4, and
        # the witness is the first of them in row-major order
        ext = dual.ext
        g = (2, 2)
        table = [copy.copy(row) for row in ext.gen_tables[g]]
        table[0][0] = table[0][0] * Q
        tables = dict(ext.gen_tables)
        tables[g] = table
        fam = CorepFamily(qg, ext.size, tables, ext.reversed, ext.name)
        lhs = (g, (1, 1))
        rhs = AlgebraElement(qg.rs, qg.rs.rules[lhs])
        row = [Functional(fam, 0, j, "x") for j in range(fam.size)]
        assert [j for j, f in enumerate(row)
                if f.on_word(lhs) != f.value(rhs)] == [0, 1, 4]
        assert fam.check_rewrite_invariance() == (lhs, 0, 0)


class TestCharacteristicFunctionals:
    def test_unit_is_kronecker(self, dual):
        for i in range(4):
            for j in range(4):
                assert dual.f.entry(i, j).on_unit() == \
                    (ONE if i == j else ZERO)

    def test_no_fractional_exponents(self, dual, qg):
        for g in qg.rs.gens:
            t = dual.f.gen_tables[g]
            for row in t:
                for v in row.values():
                    assert not (v.num.has_fractional_exponents()
                                or v.den.has_fractional_exponents())

    def test_product_law_on_words(self, dual, qg):
        words = [w for w in qg.rs.normal_words(2) if len(w) == 2]
        for w in words:
            m = dual.f.word_matrix(w)
            m1 = dual.f.word_matrix(w[:1])
            m2 = dual.f.word_matrix(w[1:])
            for i in range(4):
                for j in range(4):
                    acc = ZERO
                    for k in range(4):
                        acc = acc + m1[i].get(k, ZERO) * m2[k].get(j, ZERO)
                    assert m[i].get(j, ZERO) == acc

    @pytest.mark.parametrize("antipode", [False, True])
    def test_word_matrix_is_one_product_per_new_word(self, antipode, dual, qg,
                                                    monkeypatch):
        """A new word's matrix is its cached prefix's times the last
        generator's table, on the left for the reversed family kd(f); the
        result is the product over the whole word from the identity."""
        base = dual.f.compose_antipode() if antipode else dual.f
        fam = CorepFamily(qg, base.size, base.gen_tables, base.reversed)
        calls = []

        def counted(a, b):
            calls.append(1)
            return mat_mul(a, b)

        monkeypatch.setattr(functionals, "mat_mul", counted)
        word = ((1, 2), (2, 1), (1, 1), (2, 2))
        assert fam.word_matrix(word[:1]) is base.gen_tables[word[0]]
        assert not calls
        assert len(fam.word_matrix(word)) == fam.size
        assert len(calls) == 3
        fam.word_matrix(word + ((1, 2),))
        assert len(calls) == 4
        want = identity(fam.size)
        for g in (reversed(word) if fam.reversed else word):
            want = mat_mul(want, base.gen_tables[g])
        assert fam.word_matrix(word) == want

    def test_column_concentration_at_last_diagonal(self, dual, qg):
        last = flatten_pair(2, 2, 2)
        for g in qg.rs.gens:
            t = dual.f.gen_tables[g]
            for i in range(4):
                if i != last:
                    assert t[i].get(last, ZERO).is_zero()


CHI_TABLE = {
    ((1, 1), (1, 1)): "-1/(q + 1)",
    ((1, 1), (2, 2)): "(q^3 + q^2 - 1)/(q + 1)",
    ((1, 2), (2, 1)): "-q",
    ((2, 1), (1, 2)): "-q",
    ((2, 2), (1, 1)): "q/(q + 1)",
    ((2, 2), (2, 2)): "-1/(q + 1)",
}


class TestVectorFields:
    def test_vanish_on_unit(self, dual):
        for i in range(4):
            assert dual.chi[i].on_unit().is_zero()

    def test_generator_table_frozen(self, dual):
        for i, pair in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
            for g in [(1, 1), (1, 2), (2, 1), (2, 2)]:
                v = dual.chi[i].on_generator(*g)
                expected = CHI_TABLE.get((pair, g))
                if expected is None:
                    assert v.is_zero()
                else:
                    assert v == parse_scalar(expected)

    def test_numeric_cross_check_at_two(self, calc, dual):
        # independent pipeline: rebuild the composition with Fractions at
        # q0 = 2 (scaled regular functionals, antipode table, convolution)
        q0 = Fraction(2)
        qg = calc.qg
        r = calc.R
        # evaluate entries of the unnormalized tables; the q^(+-1/2) factors
        # cancel in the composition, so omit them consistently
        lp = {}
        lm = {}
        for (c, d) in qg.rs.gens:
            lp[(c, d)] = [[r.val(a, c, b, d).evaluate_at(q0)
                           for b in (1, 2)] for a in (1, 2)]
            lm[(c, d)] = [[r.rminus_entries.get((a, c, b, d), ZERO)
                           .evaluate_at(q0)
                           for b in (1, 2)] for a in (1, 2)]
        kappa = {g: {w: c.evaluate_at(q0)
                     for w, c in qg.antipode_table[g].terms.items()}
                 for g in qg.rs.gens}

        def lp_word(word):
            m = [[Fraction(i == j) for j in (0, 1)] for i in (0, 1)]
            for g in word:
                t = lp[g]
                m = [[sum(m[i][k] * t[k][j] for k in (0, 1)) for j in (0, 1)]
                     for i in (0, 1)]
            return m

        def kd_lp_on_gen(g):
            out = [[Fraction(0)] * 2 for _ in range(2)]
            for w, c in kappa[g].items():
                m = lp_word(w)
                for i in (0, 1):
                    for j in (0, 1):
                        out[i][j] += c * m[i][j]
            return out

        lam0 = Fraction(3, 2)
        for i, (c1, c2) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
            for (c, d) in qg.rs.gens:
                acc = Fraction(0)
                for b in (1, 2):
                    for g in (1, 2):
                        acc += kd_lp_on_gen((c, g))[c1 - 1][b - 1] * \
                            lm[(g, d)][b - 1][c2 - 1]
                if c1 == c2 and c == d:
                    acc -= 1
                expected = acc / lam0
                got = dual.chi[i].on_generator(c, d).evaluate_at(q0)
                assert got == expected, (i, c, d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_match_contraction(self, n, calc, calc3, calc4):
        # the chi row of the extended family, read off f, against the
        # contraction kd(L+) L- it stands for: values and key order
        dual = {2: calc, 3: calc3, 4: calc4}[n].dual
        want = chi_rows_by_contraction(dual)
        got = {g: t[0] for g, t in dual.ext.gen_tables.items()}
        assert list(got) == list(want)
        for g, row in want.items():
            assert list(got[g].items()) == list(row.items()), g

    def test_twisted_derivation_law(self, dual, qg):
        # chi(ab) = chi_j(a) f^j_i(b) + eps(a) chi_i(b) on random pairs
        words = qg.rs.normal_words(2)
        for wa in words[:8]:
            for wb in words[:8]:
                a = AlgebraElement.from_word(qg.rs, wa)
                b = AlgebraElement.from_word(qg.rs, wb)
                ab = a * b
                for i in range(4):
                    lhs = dual.chi[i].value(ab)
                    rhs = qg.counit(a) * dual.chi[i].value(b)
                    for j in range(4):
                        rhs = rhs + dual.chi[j].value(a) * \
                            dual.f.entry(j, i).value(b)
                    assert lhs == rhs


def chi_rows_by_contraction(dual):
    """Row 0 of the extended family [[eps, chi], [0, f]] on each generator
    t_cd: (sum over g, b of kd(L+)(t_cg)[c1][b] (L-)(t_gd)[b][c2], minus
    delta_cd delta_{c1 c2}) / lam, summed in that order."""
    qg = dual.qg
    n = qg.N
    kd = dual.lplus.compose_antipode()
    lm = dual.lminus
    rows = {}
    for (c, d) in qg.rs.gens:
        acc = {}
        for g in range(1, n + 1):
            lt = lm.gen_tables[(g, d)]
            for c1, row in enumerate(kd.gen_tables[(c, g)]):
                for b, x in row.items():
                    for c2, y in lt[b].items():
                        add_term(acc, c1 * n + c2, x * y)
        top = {}
        if c == d:
            top[0] = ONE
            for c1 in range(n):
                add_term(acc, c1 * n + c1, -ONE)
        top.update((1 + k, v / qlambda()) for k, v in acc.items())
        rows[(c, d)] = top
    return rows


class TestBraiding:
    def test_braid_relation(self, dual):
        assert braid_defect(dual.lam_matrix, 4) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_weights_divided_once_each(self, n, calc, calc3, monkeypatch):
        # Lam and C are products of generator tables of the extended family,
        # rebuilt here from a copy without cached word matrices: they divide
        # nothing
        dual = (calc if n == 2 else calc3).dual
        divide = Scalar.__truediv__
        calls = []

        def counted(a, b):
            calls.append(b)
            return divide(a, b)

        monkeypatch.setattr(Scalar, "__truediv__", counted)
        ext = CorepFamily(dual.qg, dual.ext.size, dual.ext.gen_tables)
        adjoint = adjoint_values(ext, ext.compose_antipode())
        lam, C = make_lambda(adjoint), make_C(adjoint)
        assert calls == []
        assert lam == dual.lam_matrix
        assert C == dual.C

    @pytest.mark.parametrize("n", [2, 3])
    def test_handed_over_entries_match_a_dense_rebuild(self, n, calc, calc3):
        dual = (calc if n == 2 else calc3).dual
        dense = [((i, j), v)
                 for i, row in enumerate(dense_lambda_rows(dual.qg.R))
                 for j, v in enumerate(row) if v]
        assert list(entries(make_lambda(adjoint(dual))).items()) == dense

    @pytest.mark.parametrize("n", [2, 3])
    def test_sparse_contraction_matches_dense_sweep(self, n, calc, calc3):
        dual = (calc if n == 2 else calc3).dual
        assert entries(make_lambda(adjoint(dual))) == {
            (i, j): v for i, row in enumerate(dense_lambda_rows(dual.qg.R))
            for j, v in enumerate(row) if v}

    def test_invertible(self, dual, calc4):
        # Lam Lam^-1 = 1 exactly, at N=2 and at N=4 (a 256 x 256 matrix)
        for lam in (dual.lam_matrix, calc4.dual.lam_matrix):
            by_col = {}
            for (i, k), v in entries(lam).items():
                by_col.setdefault(k, []).append((i, v))
            prod = {}
            for (k, j), w in entries(mat_inverse(lam, len(lam))).items():
                for i, v in by_col.get(k, ()):
                    add_term(prod, (i, j), v * w)
            assert prod == {(i, i): ONE for i in range(len(lam))}

    def test_classical_limit_is_flip(self, dual):
        m = 4
        for i in range(16):
            for j in range(16):
                a, b = divmod(i, m)
                c, d = divmod(j, m)
                want = 1 if (a == d and b == c) else 0
                v = dual.lam_matrix[i].get(j, ZERO)
                assert v.evaluate_at(1) == want

    def test_fixed_space_dimension(self, dual):
        mat = [{i: -ONE} for i in range(16)]
        for (i, k), v in entries(dual.lam_matrix).items():
            add_term(mat[k], i, v)
        assert len(kernel_basis(mat, 16)) == 10

    def test_exchange_with_vector_fields(self, dual, qg):
        # chi_k f^n_l = Lam^{ij}_{kl} f^n_i chi_j on generators
        for g in qg.rs.gens:
            elem = AlgebraElement.generator(qg.rs, *g)
            tc = list(qg.coproduct(elem).items())
            for n in range(4):
                for k in range(4):
                    for l in range(4):
                        lhs = ZERO
                        rhs = ZERO
                        for (w1, w2), c in tc:
                            x1 = dual.ext.word_matrix(w1)
                            f2 = dual.f.word_matrix(w2)
                            lhs = lhs + c * x1[0].get(1 + k, ZERO) * \
                                f2[n].get(l, ZERO)
                        for (row, col), v in entries(dual.lam_matrix).items():
                            if col != k * 4 + l:
                                continue
                            i, j = divmod(row, 4)
                            for (w1, w2), c in tc:
                                f1 = dual.f.word_matrix(w1)
                                x2 = dual.ext.word_matrix(w2)
                                rhs = rhs + v * c * f1[n].get(i, ZERO) * \
                                    x2[0].get(1 + j, ZERO)
                        assert lhs == rhs


class TestStructureConstants:
    def test_bracket_relation_on_generators(self, dual, qg):
        for i in range(4):
            for j in range(4):
                br = q_lie_bracket(i, j, dual.chi, dual.lam_matrix)
                for g in qg.rs.gens:
                    lhs = br.on_word((g,))
                    rhs = ZERO
                    for k in range(4):
                        c = dual.C.get((i, j, k), ZERO)
                        if not c.is_zero():
                            rhs = rhs + c * dual.chi[k].on_generator(*g)
                    assert lhs == rhs

    def test_classical_limit_antisymmetric(self, dual):
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    a = dual.C.get((i, j, k), ZERO).evaluate_at(1)
                    b = dual.C.get((j, i, k), ZERO).evaluate_at(1)
                    assert a == -b

    def test_classical_limit_trace_direction_central(self, dual):
        diag = [flatten_pair(1, 1, 2), flatten_pair(2, 2, 2)]
        for i in range(4):
            for k in range(4):
                assert sum(dual.C.get((i, j, k), ZERO).evaluate_at(1)
                           for j in diag) == 0
                assert sum(dual.C.get((j, i, k), ZERO).evaluate_at(1)
                           for j in diag) == 0

    def test_classical_limit_nontrivial(self, dual):
        values = {k: v.evaluate_at(1) for k, v in dual.C.items()}
        assert any(v != 0 for v in values.values())

    def test_symmetric_combinations_annihilate(self, dual, qg):
        mat = [{i: -ONE} for i in range(16)]
        for (i, j), v in entries(dual.lam_matrix).items():
            add_term(mat[i], j, v)
        fixed = kernel_basis(mat, 16)
        assert fixed
        words = qg.rs.normal_words(2)
        for v in fixed:
            combos = [(divmod(c, 4), coeff) for c, coeff in v.items()]
            for w in words:
                total = ZERO
                for (k, l), coeff in combos:
                    br = q_lie_bracket(k, l, dual.chi, dual.lam_matrix)
                    total = total + coeff * br.on_word(w)
                assert total.is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_pair_solve(self, n, calc, calc3, calc4):
        dual = {2: calc, 3: calc3, 4: calc4}[n].dual
        assert make_C(adjoint(dual)) == \
            per_pair_C(dual.lam_matrix, dual.chi)

    @staticmethod
    def _chi_copy_column(tables):
        # chi[2,1] takes the values of chi[2,2]
        for t in tables.values():
            t[0].pop(3, None)
            if 4 in t[0]:
                t[0][3] = t[0][4]

    @staticmethod
    def _chi_copy_row(tables):
        # chi on t[2,1] takes its values on t[1,2]
        tables[(2, 1)][0] = dict(tables[(1, 2)][0])

    @staticmethod
    def _chi_zero_column(tables):
        # chi[1,2] is zero on the unit and every generator
        for t in tables.values():
            t[0].pop(1 + flatten_pair(1, 2, 2), None)

    @pytest.mark.parametrize("edit", [
        "_chi_copy_column", "_chi_copy_row", "_chi_zero_column"])
    def test_bent_chi_tables_fail_the_bracket_law(self, calc, edit,
                                                  monkeypatch):
        # C is read off the vector fields, not solved for, so vector fields
        # that no longer fit it are found by the bracket law of the suite
        dual = calc.dual
        tables = {g: [dict(row) for row in t]
                  for g, t in dual.ext.gen_tables.items()}
        getattr(self, edit)(tables)
        monkeypatch.setattr(dual, "ext", CorepFamily(
            dual.qg, dual.ext.size, tables, name="stub"))
        law = {e.law: e for e in bicovariance_suite(calc, 1).entries}[
            "bracket-structure-constants"]
        assert (law.status, law.witness) == \
            ("fail", "(i,j)=((1, 1), (1, 1)) on t[1,1]")


def adjoint(dual):
    """The adjoint values ext(M_i^l) that Lam and C of dual are read off."""
    return adjoint_values(dual.ext, dual.ext.compose_antipode())


def dense_lambda_rows(r):
    """The braiding contracted from R and R^-1 with the A-series weights
    q^(2a-1), by a sweep over all N^12 index tuples, skipping zero factors:
    the reference for make_lambda's reading of the adjoint matrix."""
    n = r.N
    m = n * n
    rng = range(1, n + 1)

    def rv(a, b, c, d):
        return r.val(b, a, d, c)

    def rinv(a, b, c, d):
        return r.inv_entries.get((b, a, d, c), ZERO)

    rows = [[ZERO] * (m * m) for _ in range(m * m)]
    for a1, a2, d1, d2, c1, c2, b1, b2 in itertools.product(rng, repeat=8):
        acc = ZERO
        for f2, g1, e1, g2 in itertools.product(rng, repeat=4):
            x1 = rv(f2, b1, c2, g1)
            x2 = rinv(c1, g1, e1, a1)
            x3 = rinv(a2, e1, g2, d1)
            x4 = rv(g2, d2, b2, f2)
            if x1 and x2 and x3 and x4:
                w = Scalar.q_power(2 * f2 - 1) / Scalar.q_power(2 * c2 - 1)
                acc = acc + w * x1 * x2 * x3 * x4
        i = flatten_pair(a1, a2, n) * m + flatten_pair(d1, d2, n)
        j = flatten_pair(c1, c2, n) * m + flatten_pair(b1, b2, n)
        rows[i][j] = acc
    return rows


def per_pair_C(lambda_matrix, chi):
    """C solved pair by pair from the bracket values on the unit and the
    generators, one q_lie_bracket and one elimination each: the reference
    for make_C's reading of the adjoint matrix."""
    m = len(chi)
    words = [()] + [(g,) for g in chi[0].family.qg.rs.gens]
    table = {}
    for i in range(m):
        for j in range(m):
            br = q_lie_bracket(i, j, chi, lambda_matrix)
            rows = []
            for w in words:
                row = {k: chi[k].on_word(w) for k in range(m)}
                row["rhs"] = -br.on_word(w)
                rows.append(row)
            piv, pivots = rref_sparse(rows, list(range(m)) + ["rhs"])
            if "rhs" in pivots:
                raise FunctionalError(
                    "bracket [%d,%d] does not lie in the vector-field span"
                    % (i, j))
            for k, p in sorted(piv.items()):
                if any(c not in (k, "rhs") for c in p):
                    raise FunctionalError(
                        "structure constants underdetermined at (%d,%d,%d)"
                        % (i, j, k))
                if "rhs" in p:
                    table[(i, j, k)] = -p["rhs"]
    return table


class TestSparseRowFormat:
    """Every generator table and cached word matrix is size sparse rows with
    int columns in range(size) and no stored zero: the sparse equality in
    check_rewrite_invariance compares rows as dicts."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_and_word_matrices_are_sparse_rows(self, n, calc, calc3):
        c = calc if n == 2 else calc3
        bicovariance_suite(c, 1)
        dual = c.dual
        made = [dual.f.compose_antipode(),
                dual.sectors["trace"].family,
                OuterCalculus(c).commutation]
        for fam in made:
            for w in c.qg.rs.normal_words(2):
                fam.word_matrix(w)
        for fam in [dual.lplus, dual.lminus, dual.f,
                    dual.ext, dual.eps.family] + made:
            mats = list(fam.gen_tables.values()) + list(fam._cache.values())
            assert len(fam._cache) > len(fam.gen_tables), fam.name
            for mat in mats:
                assert type(mat) is list and len(mat) == fam.size
                for row in mat:
                    assert type(row) is dict
                    for j, v in row.items():
                        assert type(j) is int and 0 <= j < fam.size
                        assert v, (fam.name, j)


class TestTraceCharacter:
    def test_values(self, dual):
        t = dual.sectors["trace"]
        assert t.on_generator(1, 1) == Q
        assert t.on_generator(2, 2) == ONE / Q
        assert t.on_generator(1, 2).is_zero()
        assert t.on_unit().is_one()

    def test_equals_counit_plus_lambda_chi(self, dual, qg):
        t = dual.sectors["trace"]
        last = flatten_pair(2, 2, 2)
        for w in qg.rs.normal_words(3):
            elem = AlgebraElement.from_word(qg.rs, w)
            expected = qg.counit(elem) + dual.lam * \
                dual.chi[last].value(elem)
            assert t.value(elem) == expected

    def test_built_once_per_calculus(self, monkeypatch):
        # the sector functionals come from DualStructure.sectors: a fresh
        # assembly and all five suites build eps and the trace character
        # once each, both through scalar_functional
        built = []

        def counted(*args):
            built.append(args[2])
            return scalar_functional(*args)

        monkeypatch.setattr(functionals, "scalar_functional", counted)
        calc = assemble()
        for name in SUITES:
            assert all(r.passed() for r in run_suite(calc, name, 1)), name
        assert built == ["eps", "trace-f"]
        assert list(calc.dual.sectors) == list(functionals.SECTORS)
        assert calc.f00 is calc.dual.sectors["trace"]
        assert calc.dual.sectors["counit"] is calc.dual.eps
        assert OuterCalculus(calc).twist is calc.dual.sectors["trace"]

    def test_other_diagonal_is_not_multiplicative(self, dual, qg):
        first = flatten_pair(1, 1, 2)
        vals = {}
        for g in qg.rs.gens:
            v = (ONE if g[0] == g[1] else ZERO) + \
                dual.lam * dual.chi[first].on_generator(*g)
            if not v.is_zero():
                vals[g] = v
        cand = scalar_functional(qg, vals, "bad-trace")
        with pytest.raises(InvalidFunctionalError):
            validate_scalar_functional(cand)


class TestConvolution:
    def test_counit_convolution_is_identity(self, dual, qg):
        for w in qg.rs.normal_words(3):
            a = AlgebraElement.from_word(qg.rs, w)
            assert convolve(dual.eps, a) == a

    def test_on_unit(self, dual, qg):
        one = AlgebraElement.one(qg.rs)
        f = dual.f.entry(1, 2)
        assert convolve(f, one) == one.scalar_mul(f.on_unit())

    def test_vector_field_convolution_on_generators(self, dual, qg):
        for i in range(4):
            for (c, d) in qg.rs.gens:
                got = convolve(dual.chi[i], qg.generator(c, d))
                expected = AlgebraElement.zero(qg.rs)
                for g in (1, 2):
                    v = dual.chi[i].on_generator(g, d)
                    if not v.is_zero():
                        expected = expected + qg.generator(c, g).scalar_mul(v)
                assert got == expected

    def test_evaluate_dispatch(self, dual, qg):
        elem = qg.generator(1, 1) * qg.generator(2, 2)
        assert dual.eps.value(elem) == qg.counit(elem)
