from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qdc.scalars import Scalar
from qdc.linalg import add_scaled, rank_at_specializations, rref_sparse


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
