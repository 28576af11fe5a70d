import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdc import algebra, calculus, forms, functionals, linalg, suites
from qdc.scalars import Scalar, ZERO, ONE, Q, qlambda
from qdc.linalg import (add_scaled, add_term, kernel_basis, mat_inverse,
                        rank_at_specializations, rref_sparse, ValueNumbers,
                        mat_mul)


COLUMNS = 8
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# an entry c * q^e, nonzero and without poles at the points
entries = st.tuples(fractions.filter(bool), st.integers(min_value=-2, max_value=2))
base_rows = st.lists(st.dictionaries(st.integers(0, COLUMNS - 1), entries,
                                     max_size=5), max_size=8)
# derived rows: row i + f * row j, a duplicate when f = 0, a multiple when
# i = j, and zero when f = -1 and i = j
combos = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), fractions),
                  max_size=6)


def scalar_rows(base, derived):
    rows = [{c: Scalar.from_rational(x) * Scalar.q_power(e)
             for c, (x, e) in r.items()} for r in base]
    for i, j, f in derived:
        if rows:
            row = dict(rows[i % len(rows)])
            add_scaled(row, rows[j % len(rows)], Scalar.from_rational(f))
            rows.append(row)
    return rows + [{}]


class TestRankAtSpecializations:
    @settings(deadline=None)
    @given(base_rows, combos, st.permutations(range(COLUMNS)))
    def test_integer_rank_equals_fraction_rank(self, base, derived, order):
        rows = scalar_rows(base, derived)
        points = (2, 3, Fraction(1, 2))
        basis = []
        rref_sparse(rows, order, basis)
        got = rank_at_specializations(rows, order, points, basis)
        for q0 in points:
            frows = [{c: v.evaluate_at(q0) for c, v in r.items()} for r in rows]
            want = len(rref_sparse(frows, order)[1])
            assert got[q0] == want, q0

    def test_rank_drops_where_a_minor_vanishes(self):
        # the determinant 2q - 4 vanishes at q = 2 only
        rows = [{0: Scalar.q(), 1: Scalar.from_int(2)},
                {0: Scalar.from_int(2), 1: Scalar.from_int(2)}]
        copies = [dict(r) for r in rows]
        assert rank_at_specializations(rows, [0, 1], (2, 3), [0, 1]) == \
            {2: 1, 3: 2}
        assert rows == copies

    def test_value_zero_mod_the_prime_gets_its_exact_rank(self):
        # q + p - 2 is p at q = 2: nonzero over Q, zero mod p
        row = {0: Scalar.q() + Scalar.from_int(linalg.PRIME - 2)}
        assert rank_at_specializations([row], [0], (2, 3), [0]) == \
            {2: 1, 3: 1}

    def test_denominator_the_prime_divides_gets_its_exact_rank(self):
        # 1 / (q + p - 2) is 1/p at q = 2, which has no value mod p
        rows = [{0: ONE / (Scalar.q() + Scalar.from_int(linalg.PRIME - 2)),
                 1: ONE},
                {1: Scalar.q()}]
        assert rank_at_specializations(rows, [0, 1], (2, 3), [0, 1]) == \
            {2: 2, 3: 2}


def sparse_product(a, b):
    """a * b for lists of sparse rows, as a list of sparse rows."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            add_scaled(acc, b[k], x)
        out.append(acc)
    return out


class TestElimination:
    @settings(deadline=None)
    @given(base_rows, combos, st.integers(0, COLUMNS), st.booleans())
    def test_inverse_exactly_when_full_rank(self, base, derived, n, diagonal):
        rows = (scalar_rows(base, derived) + [{}] * COLUMNS)[:n]
        rows = [{c: v for c, v in r.items() if c < n} for r in rows]
        if diagonal:   # most such matrices are invertible
            for i, r in enumerate(rows):
                add_term(r, i, Scalar.q_power(i))
        copies = [dict(r) for r in rows]
        rank = len(rref_sparse(rows, range(n))[1])
        if rank < n:
            with pytest.raises(ValueError):
                mat_inverse(rows, n)
        else:
            inv = mat_inverse(rows, n)
            assert sparse_product(rows, inv) == [{i: ONE} for i in range(n)]
        assert rows == copies

    def test_empty_inverse(self):
        assert mat_inverse([], 0) == []

    @settings(deadline=None)
    @given(base_rows, combos, st.permutations(range(COLUMNS)))
    def test_sources_are_a_basis_of_the_rows(self, base, derived, order):
        rows = scalar_rows(base, derived)
        sources = []
        _, pivots = rref_sparse(rows, order, sources)
        kept = [rows[i] for i in sources]
        assert len(sources) == len(pivots)
        assert rref_sparse(kept, order)[1] == pivots

    def test_int_rows_stay_exact(self):
        # an int pivot must not turn the row into floats, which compare
        # equal to the exact values
        rows = [{0: 2, 1: 3}, {0: 4, 1: 5, 2: 1}]
        pivot_rows, _ = rref_sparse(rows, [0, 1, 2])
        assert pivot_rows == {0: {0: 1, 2: Fraction(3, 2)}, 1: {1: 1, 2: -1}}
        assert kernel_basis(rows[:1], 2) == [{0: Fraction(-3, 2), 1: 1}]
        values = [v for r in pivot_rows.values() for v in r.values()]
        assert all(type(v) is Fraction for v in values)

    @settings(deadline=None)
    @given(base_rows, combos)
    def test_kernel_basis(self, base, derived):
        rows = scalar_rows(base, derived)
        pivots = rref_sparse(rows, range(COLUMNS))[1]
        free = [c for c in range(COLUMNS) if c not in pivots]
        basis = kernel_basis(rows, COLUMNS)
        assert len(basis) == COLUMNS - len(pivots)
        for f, v in zip(free, basis):
            assert v[f] == ONE
            assert not any(c in v for c in free if c != f)
            for r in rows:
                acc = {}
                for c, x in r.items():
                    if c in v:
                        add_term(acc, 0, x * v[c])
                assert acc == {}


def cube_root_values():
    """Values on the q^(1/3) lattice, some reached in two ways."""
    z = Scalar.q_power(Fraction(1, 3))
    return [ZERO, ONE, Q, z, z * z, z ** 3, Scalar.q_power(Fraction(2, 3)),
            (ONE - z * z) / (ONE - z), ONE + z, qlambda(), Q - Q,
            z.inverse(), Scalar.q_power(Fraction(-1, 3)), ONE / Q,
            Scalar.from_rational(Fraction(-2, 3)) * z]


class TestValueNumbers:
    def test_equal_numbers_exactly_for_equal_values(self):
        vn = ValueNumbers()
        values = cube_root_values()
        numbers = [vn.number(v) for v in values]
        for a, na in zip(values, numbers):
            for b, nb in zip(values, numbers):
                assert (na == nb) == (a == b), (a, b)
            assert vn.values[na] == a
        assert len(set(numbers)) == len(set(values)) < len(values)

    def test_zero_is_zero(self):
        vn = ValueNumbers()
        z = Scalar.q_power(Fraction(1, 3))
        assert vn.number(ZERO) == vn.number(z - z) == 0
        n = vn.number(z)
        assert vn.mul(0, n) == vn.mul(n, 0) == 0
        assert vn.add(0, n) == vn.add(n, 0) == n
        assert vn.add(n, vn.number(-z)) == 0

    def test_mul_and_add_agree_with_scalar_arithmetic(self):
        rng = random.Random(20261018)
        pool = cube_root_values() + [
            Scalar.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            * Scalar.q_power(Fraction(rng.randint(-6, 6), 3))
            for _ in range(12)]
        vn = ValueNumbers()
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            na, nb = vn.number(a), vn.number(b)
            assert vn.values[vn.mul(na, nb)] == a * b
            assert vn.values[vn.add(na, nb)] == a + b
            assert vn.mul(na, nb) == vn.mul(nb, na) == vn.number(a * b)
            assert vn.add(na, nb) == vn.add(nb, na) == vn.number(a + b)

    def test_sparse_product_matches_dense_product(self):
        rng = random.Random(7)
        pool = cube_root_values()
        size = 6

        def dense():
            return [[rng.choice(pool) if rng.random() < 0.4 else ZERO
                     for _ in range(size)] for _ in range(size)]

        vn = ValueNumbers()

        def numbered(m):
            return [{j: vn.number(v) for j, v in enumerate(row) if v}
                    for row in m]

        def rows(m):
            return [{j: v for j, v in enumerate(row) if v} for row in m]

        for _ in range(10):
            a, b = dense(), dense()
            want = {i: row for i, row in enumerate(mat_mul(rows(a), rows(b)))
                    if row}
            got = vn.sp_mul(numbered(a), numbered(b))
            assert {i: {j: vn.values[n] for j, n in row.items()}
                    for i, row in enumerate(got) if row} == want

    @staticmethod
    def values_of(vn, rows):
        return [{j: vn.values[n] for j, n in row.items()} for row in rows]

    def test_sparse_product_on_the_braid_factors(self, calc3):
        # (1 x Lam) (Lam x 1) at N=3, the first product braid_defect takes
        lam = calc3.dual.lam_matrix
        m = calc3.dual.M
        mm = m * m
        lam_1 = [{} for _ in range(mm * m)]
        one_lam = [{} for _ in range(mm * m)]
        for i, row in enumerate(lam):
            for j, v in row.items():
                for k in range(m):
                    lam_1[i * m + k][j * m + k] = v
                    one_lam[k * mm + i][k * mm + j] = v
        vn = ValueNumbers()
        got = vn.sp_mul(vn.numbered(one_lam), vn.numbered(lam_1))
        assert self.values_of(vn, got) == mat_mul(one_lam, lam_1)
        assert sum(map(len, got)) > 0

    def test_sparse_product_whose_entries_cancel(self):
        # rows (x, y) and (x, -y) against (1, 1): every entry of the second
        # row sums to zero and leaves the accumulator again
        x, y = Scalar.q_power(Fraction(1, 3)), Q + ONE
        a = [{0: x, 1: y}, {0: x, 1: -y}, {0: x, 1: x}]
        b = [{0: y, 1: ONE, 2: y}, {0: x, 1: x / y, 2: x}]
        vn = ValueNumbers()
        got = vn.sp_mul(vn.numbered(a), vn.numbered(b))
        want = mat_mul(a, b)
        assert want[1] == {} and 1 in want[0]
        assert self.values_of(vn, got) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_numbered_jacobi_coefficients(self, n, calc, calc3):
        # against the Scalar table the suite built before it numbered it
        dual = {2: calc, 3: calc3}[n].dual
        m = dual.M
        c_lower = {}
        for (i, j, k), v in dual.C.items():
            c_lower.setdefault(i * m + j, []).append((k, v))
        lam_cols = functionals.by_lower_pair(dual.lam_matrix, m)
        want = {}
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    coef = {}
                    for l, cc in c_lower.get(j * m + k, ()):
                        add_term(coef, (i, l), cc)
                    for l, cc in c_lower.get(i * m + j, ()):
                        add_term(coef, (l, k), -cc)
                    for l, mm_, lv in lam_cols.get(j * m + k, ()):
                        for p, cc in c_lower.get(i * m + l, ()):
                            add_term(coef, (p, mm_), lv * cc)
                    if coef:
                        want[(i, j, k)] = {a * m + b: v
                                           for (a, b), v in coef.items()}
        vn = ValueNumbers()
        ijks, rows = suites.jacobi_coefficients(vn, c_lower, lam_cols, m)
        assert dict(zip(ijks, self.values_of(vn, rows))) == want
        assert len(ijks) == len(want) > 0


def eager_rref(rows, column_order):
    """rref_sparse as it was before its column index: each new pivot is
    eliminated from every pivot row, in creation order, and the new pivot
    row is divided entry by entry by its pivot."""
    col_rank = {c: k for k, c in enumerate(column_order)}
    pivot_rows = {}
    for r in rows:
        row = {c: v for c, v in r.items() if v}
        for c in [c for c in row if c in pivot_rows]:
            add_scaled(row, pivot_rows[c], -row.pop(c), skip=c)
        if not row:
            continue
        piv = min(row, key=lambda c: col_rank[c])
        pv = row[piv]
        newrow = {c: v / pv for c, v in row.items()}
        newrow[piv] = linalg._one_like(pv)
        for p in pivot_rows.values():
            f = p.pop(piv, None)
            if f is not None:
                add_scaled(p, newrow, -f, skip=piv)
        pivot_rows[piv] = newrow
    return pivot_rows, sorted(pivot_rows, key=lambda c: col_rank[c])


def recorded_systems(monkeypatch):
    """A list that gains (rows, column order) for each rref_sparse call the
    engine makes from now on, mat_inverse and kernel_basis included."""
    systems = []

    def recording(rows, column_order, sources=None):
        rows = [dict(r) for r in rows]
        systems.append((rows, list(column_order)))
        return rref_sparse(rows, column_order, sources)

    for module in (linalg, algebra, calculus, forms):
        monkeypatch.setattr(module, "rref_sparse", recording)
    return systems


class TestColumnIndexedElimination:
    """rref_sparse gives the eager loop's pivot rows on the engine's own
    systems at N=2, 3 and 4: the same values, pivot order and key order in
    each row."""

    DATA = os.path.join(os.path.dirname(__file__), "data")

    def assert_same_as_eager(self, systems):
        for rows, order in systems:
            got, got_pivots = rref_sparse(rows, order)
            want, want_pivots = eager_rref(rows, order)
            assert got_pivots == want_pivots
            assert [(p, list(r.items())) for p, r in got.items()] == \
                [(p, list(r.items())) for p, r in want.items()]

    @pytest.mark.parametrize("config, kwargs", [
        (None, {}), ("slq3.rmatrix", {"grade_cap": 1}),
        ("slq4.rmatrix", {"grade_cap": 1})], ids=["N2", "N3-cap1", "N4-cap1"])
    def test_assembly_braiding_inverse_and_z_forms(self, config, kwargs,
                                                   monkeypatch):
        text = calculus.DEFAULT_RMATRIX
        if config is not None:
            with open(os.path.join(self.DATA, config), encoding="utf-8") as fh:
                text = fh.read()
        systems = recorded_systems(monkeypatch)
        calc = calculus.assemble(text, **kwargs)
        lam = calc.dual.lam_matrix
        forms.z_form_comparison(lam, linalg.mat_inverse(lam, len(lam)),
                                calc.space.table.relation_vectors)
        monkeypatch.undo()
        # the rules of A, the grade-2 wedge rules, one split per grid
        # grade, ker(Lambda^T - 1), Lambda^-1 and the z-forms
        assert len(systems) > 8
        self.assert_same_as_eager(systems)
