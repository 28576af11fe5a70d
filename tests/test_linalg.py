import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qdc.scalars import Scalar, ZERO, ONE, Q, qlambda
from qdc.linalg import (add_scaled, rank_at_specializations, rref_sparse,
                        ValueNumbers, mat_mul)


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
        got = rank_at_specializations(rows, order, points)
        for q0 in points:
            frows = [{c: v.evaluate_at(q0) for c, v in r.items()} for r in rows]
            want = len(rref_sparse(frows, order)[1])
            assert got[q0] == want, q0

    def test_rank_drops_where_a_minor_vanishes(self):
        # the determinant 2q - 4 vanishes at q = 2 only
        rows = [{0: Scalar.q(), 1: Scalar.from_int(2)},
                {0: Scalar.from_int(2), 1: Scalar.from_int(2)}]
        copies = [dict(r) for r in rows]
        assert rank_at_specializations(rows, [0, 1], (2, 3)) == {2: 1, 3: 2}
        assert rows == copies


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
            out = {}
            for i, row in enumerate(m):
                r = {j: vn.number(v) for j, v in enumerate(row) if v}
                if r:
                    out[i] = r
            return out

        for _ in range(10):
            a, b = dense(), dense()
            want = {i: {j: v for j, v in enumerate(row) if v}
                    for i, row in enumerate(mat_mul(a, b)) if any(row)}
            got = vn.sp_mul(numbered(a), numbered(b))
            assert {i: {j: vn.values[n] for j, n in row.items()}
                    for i, row in got.items()} == want
