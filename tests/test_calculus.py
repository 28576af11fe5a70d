import copy
import io
import itertools
import os
import random
from math import comb

import pytest

from qdc.scalars import Scalar, ZERO, ONE, Q
from qdc.linalg import add_scaled, mat_inverse, rref_sparse
from qdc.algebra import AlgebraElement
from qdc.forms import FormElement, GradeCapError, left_coaction
from qdc.functionals import (convolve, InvalidFunctionalError,
                             scalar_functional)
from qdc.calculus import (assemble, canonical_element, map_in_to_out,
                          map_out_to_in, roundtrip_check, CalculusError,
                          CheckReport, GridSplit, ProjectorPair, SKIPPED)
from qdc.bicomplex import cartan_check, grid_check
from qdc import cli


def assert_no_zero_coefficient(x):
    """No stored coefficient of x, nor of its algebra coefficients, is zero."""
    for c in x.terms.values():
        assert not c.is_zero()
        if isinstance(c, AlgebraElement):
            assert not any(v.is_zero() for v in c.terms.values())


def _d_memo(c):
    """A deep copy of d's memo: an entry that a caller mutated differs from
    its copy."""
    return {key: {w: dict(a.terms) for w, a in image.items()}
            for key, image in c._d_cache.items()}


def _cop_memo(qg):
    return {key: dict(terms) for key, terms in qg._cop_cache.items()}


class TestCanonicalElement:
    def test_trace_form(self, calc):
        X = canonical_element(calc.space)
        assert X.terms.keys() == {(0,), (3,)}
        assert X.render() == "w[1,1] + w[2,2]"

    def test_left_invariance(self, calc):
        assert left_coaction(calc.space, calc.X) == {(): calc.X}

    def test_unit_action(self, calc, qg):
        assert calc.X.wedge(calc.space.from_algebra(
            AlgebraElement.one(qg.rs))) == calc.X


class TestInnerDifferential:
    def test_d_of_unit(self, calc, qg):
        assert calc.d(AlgebraElement.one(qg.rs)).is_zero()

    def test_d_raises_grade(self, calc, qg):
        da = calc.d(qg.generator(1, 1))
        assert da.grades() == [1]
        d2 = calc.d(calc.space.one_form(1))
        assert d2.grades() == [2]

    def test_d_squared_on_generators(self, calc, qg):
        for g in qg.rs.gens:
            assert calc.d(calc.d(qg.generator(*g))).is_zero()

    def test_leibniz_random(self, calc, qg):
        rng = random.Random(3)
        words = qg.rs.normal_words(2)
        for _ in range(6):
            a = AlgebraElement.from_word(qg.rs, words[rng.randrange(len(words))])
            b = AlgebraElement.from_word(qg.rs, words[rng.randrange(len(words))])
            lhs = calc.d(a * b)
            rhs = calc.d(a).wedge(calc.space.from_algebra(b)) + \
                calc.space.from_algebra(a).wedge(calc.d(b))
            assert lhs == rhs

    def test_memo_matches_plain_commutator(self, calc, calc3):
        # d sums memoized images of basis elements; the plain graded
        # commutator recomputes every wedge and must give the same form
        def plain(c, x, k):
            left, right = c.X.wedge(x), x.wedge(c.X)
            piece = left - right if k % 2 == 0 else left + right
            return piece.scalar_mul(ONE / c.lam)

        rs = calc.qg.rs
        long_word = ((1, 1),) * 9
        long_mon = AlgebraElement.from_word(rs, long_word)
        assert list(long_mon.terms) == [long_word]
        cases = [(calc, calc.space.from_algebra(long_mon), 0),
                 (calc, calc.space.one_form(1, long_mon), 1)]
        for c, grades, seed in ((calc, range(4), 5), (calc3, range(2), 7)):
            rng = random.Random(seed)
            cases += [(c, c.random_form(rng, k), k)
                      for k in grades for _ in range(3)]
        for c, x, k in cases:
            assert c.d(x) == plain(c, x, k)
        # the length-9 images are memoized like every other
        for (c, x, k), w in zip(cases, [(), (1,)]):
            assert c._d_cache[(long_word, w)] == plain(c, x, k).terms

    def test_shared_images_stay_intact(self, calc, calc3):
        for c in (calc, calc3):
            qg = c.qg
            x = c.space.one_form(2, qg.generator(1, 2)) + \
                c.space.from_algebra(qg.generator(2, 1) * qg.generator(1, 1))
            before = c.d(x).render()
            memo = _d_memo(c)
            dx = c.d(x)
            assert dx.scalar_mul(ONE) is dx
            derived = [dx.scalar_mul(Q), dx + dx, dx - dx, -dx,
                       dx.scalar_mul(ZERO),
                       c.space.from_algebra(qg.generator(1, 1)).wedge(dx),
                       dx.wedge(c.space.from_algebra(qg.generator(2, 2))),
                       c.X.wedge(dx), dx.wedge(c.X),
                       c.space.one_form(0).wedge(dx), c.partial(x), c.delta(x),
                       *c.grid.split_component(dx)]
            assert all(isinstance(y, FormElement) for y in derived)
            for y in derived:
                assert_no_zero_coefficient(y)
            assert dx.render() == before
            assert c.d(x).render() == before
            assert c.d(c.d(x)).is_zero()
            assert _d_memo(c).items() >= memo.items()

    def test_random_forms_keep_the_contract(self, calc, calc3):
        # constructors trust their terms: every operation that builds terms
        # must keep zero coefficients out and leave shared memos alone
        s = Q + ONE
        for c, seed in ((calc, 13), (calc3, 17)):
            rng = random.Random(seed)
            qg, space = c.qg, c.space
            words = qg.rs.normal_words(2)
            for _ in range(3):
                x, y = c.random_form(rng, 1), c.random_form(rng, 1)
                b = AlgebraElement.from_word(
                    qg.rs, words[rng.randrange(len(words))]).scalar_mul(s)
                a = b + qg.generator(1, 1) - qg.generator(1, 1) * b
                c.d(x)
                d_memo, cop_memo = _d_memo(c), _cop_memo(qg)
                algebra = [a + a, a - a, -a, a.scalar_mul(s),
                           a.scalar_mul(ZERO), a * a, a * -a]
                forms = [x + y, x - y, x - x, -x, x.scalar_mul(s),
                         x.scalar_mul(ZERO), space.from_algebra(a).wedge(x),
                         x.wedge(space.from_algebra(a)),
                         space.from_algebra(a - a).wedge(x),
                         x.wedge(space.from_algebra(a - a)), x.wedge(y),
                         space.from_algebra(a).wedge(x), c.d(x), c.d(a),
                         c.partial(x), c.delta(x),
                         *c.grid.split_component(x + space.from_algebra(a))]
                for z in algebra + forms:
                    assert_no_zero_coefficient(z)
                    assert bool(z) is not z.is_zero()
                    assert z == -(-z) and hash(z) == hash(-(-z))
                    assert (z - z).is_zero() and not (z - z)
                    assert z + z == z.scalar_mul(Scalar.from_int(2))
                assert x + y == y + x and hash(x + y) == hash(y + x)
                assert x != space.from_algebra(a)
                for e in (a, b):
                    assert all(v for v in qg.coproduct(e).values())
                co = left_coaction(space, space.from_algebra(a).wedge(x))
                for fe in co.values():
                    assert_no_zero_coefficient(fe)
                    assert fe
                assert _d_memo(c).items() >= d_memo.items()
                assert _cop_memo(qg).items() >= cop_memo.items()

    def test_d_at_the_top_grade_hits_the_cap(self, calc3):
        # the cartan sweep skips an element whose d leaves the wedge table
        top = calc3.space.table.max_grade
        x = FormElement(calc3.space, {calc3.space.table.basis[top][0]:
                                      AlgebraElement.one(calc3.qg.rs)})
        with pytest.raises(GradeCapError):
            calc3.d(x)


class TestBasisExpansion:
    def test_unit_gives_zeros(self, calc, qg):
        one = AlgebraElement.one(qg.rs)
        assert all(c.is_zero() for c in calc.expand_d_in_basis(one))

    def test_matches_vector_field_convolutions(self, calc, qg, dual):
        for w in qg.rs.normal_words(2):
            a = AlgebraElement.from_word(qg.rs, w)
            coeffs = calc.expand_d_in_basis(a)
            for i in range(4):
                assert coeffs[i] == convolve(dual.chi[i], a)

    def test_linearity(self, calc, qg):
        a = qg.generator(1, 1)
        b = qg.generator(2, 1)
        ca = calc.expand_d_in_basis(a)
        cb = calc.expand_d_in_basis(b)
        cab = calc.expand_d_in_basis(a + b)
        for i in range(4):
            assert cab[i] == ca[i] + cb[i]


class TestCheckReport:
    def _entry(self, outcomes, gating=True):
        report = CheckReport("suite", 1)
        report.law("law", "a law", outcomes, gating=gating)
        (entry,) = report.entries
        return entry.status, entry.witness

    def test_gating_law_with_no_instance_fails(self):
        assert self._entry([]) == ("fail", "no instance evaluated (0 skipped)")

    def test_skipped_instances_are_counted(self):
        assert self._entry([SKIPPED] * 3) == \
            ("fail", "no instance evaluated (3 skipped)")
        assert self._entry([SKIPPED, None, SKIPPED]) == ("pass", None)

    def test_informative_law_with_no_instance_passes(self):
        assert self._entry([], gating=False) == ("pass", None)

    def test_first_witness_ends_the_sweep(self):
        def outcomes():
            yield None
            yield "first"
            raise AssertionError("advanced past the first witness")

        assert self._entry(outcomes()) == ("fail", "first")
        assert self._entry([None, "first", SKIPPED, "second"]) == \
            ("fail", "first")


class TestProjectors:
    def test_laws(self, calc):
        assert calc.projectors.defects() == (None, None, None)

    def test_defects_name_the_first_differing_entry(self, calc):
        # at N=2 only column 3 of J is nonzero, and Jperp = 1 - J has no
        # row 3; a stray entry J[0][1], with Jperp kept, breaks each law at
        # (0, 1) first
        pair = copy.copy(calc.projectors)
        assert {j for row in pair.J for j in row} == {3}
        pair.J = [dict(row) for row in pair.J]
        pair.J[0][1] = ONE
        assert pair.defects() == ("(0, 1)",) * 3
        assert calc.projectors.defects() == (None, None, None)

    @pytest.mark.parametrize("n", [2, 3])
    def test_columns_are_row1_parts(self, n, calc, calc3):
        # the three laws hold for J transposed too; this fixes J's
        # orientation: column j is the row-1 part of the one-form j
        c = calc if n == 2 else calc3
        space, J = c.space, c.projectors.J
        for j in range(space.M):
            col = {(i,): AlgebraElement.from_scalar(c.qg.rs, row[j])
                   for i, row in enumerate(J) if j in row}
            assert c.grid.split_component(space.one_form(j))[1] == \
                FormElement(space, col)

    def test_on_canonical_element(self, calc):
        row0, row1 = calc.grid.split_component(calc.X)
        assert row1 == calc.X
        assert row0.is_zero()

    def test_along_complement(self, calc):
        for i in calc.space.basis.complement:
            w = calc.space.one_form(i)
            row0, row1 = calc.grid.split_component(w)
            assert row1.is_zero()
            assert row0 == w


class TestSectorDifferential:
    @staticmethod
    def sector(calc, choice):
        """The extended calculus whose one-dimensional sector uses choice."""
        return map_out_to_in(map_in_to_out(calc), calc.dual.sectors[choice])

    def test_counit_choice_vanishes(self, calc, qg):
        ext = self.sector(calc, "counit")
        for w in qg.rs.normal_words(2):
            a = AlgebraElement.from_word(qg.rs, w)
            assert ext.delta_coeff(a).is_zero()

    def test_trace_choice_frozen_value(self, calc, qg):
        ext = self.sector(calc, "trace")
        a = qg.generator(1, 1)
        got = calc.space.from_algebra(ext.delta_coeff(a)).wedge(calc.X)
        coeff = a.scalar_mul(Q - ONE)
        assert got == calc.space.from_algebra(coeff).wedge(calc.X)

    def test_unit_vanishes(self, calc, qg):
        ext = self.sector(calc, "trace")
        assert ext.delta_coeff(AlgebraElement.one(qg.rs)).is_zero()


class TestSplit:
    def test_sum_reconstitutes(self, calc, qg):
        rng = random.Random(5)
        inputs = [calc.space.from_algebra(qg.generator(1, 2)),
                  calc.random_form(rng, 1), calc.random_form(rng, 2)]
        for x in inputs:
            p, dl = calc.grid.split_component(calc.d(x))
            assert p + dl == calc.d(x)

    def test_grade_zero_sector_is_canonical_multiple(self, calc, qg, dual):
        for g in qg.rs.gens:
            a = qg.generator(*g)
            _, dl = calc.grid.split_component(calc.d(a))
            coeff = convolve(dual.chi[3], a)
            assert dl == calc.space.from_algebra(coeff).wedge(calc.X)

    def test_partial_image_avoids_canonical_line(self, calc, qg):
        for w in qg.rs.normal_words(calc.degree_bound):
            a = AlgebraElement.from_word(qg.rs, w)
            p = calc.partial(a)
            u0, u1 = calc.grid.split_component(p)
            assert u1.is_zero()

    def test_empty_grade_reduces_no_word(self, calc, monkeypatch):
        # grade 5 of the N=2 table is empty, and so is row 0 of grade 4:
        # the split of grade 5 has no candidate and reduces no word
        table = calc.space.table
        assert not table.basis[5]
        grid = GridSplit(calc)
        grid.data(4)
        reduce_word = table.reduce_word
        calls = []

        def counted(word):
            calls.append(word)
            return reduce_word(word)

        monkeypatch.setattr(table, "reduce_word", counted)
        data = grid.data(5)
        assert calls == []
        assert (data["u0_words"], data["u1_words"], data["dims"],
                data["p1"]) == ([], [], (0, 0), {})


class TestMaps:
    def test_same_as_sees_a_changed_differential(self, calc):
        # negative control for the comparison behind roundtrip-identity
        outer = map_in_to_out(calc)
        bad = copy.copy(outer)
        bad.partial_coeffs = list(outer.partial_coeffs)
        first, two = outer.partial_coeffs[0], Scalar.from_int(2)
        bad.partial_coeffs[0] = [(chi, c * two) for chi, c in first]
        same, why = outer.same_as(bad, 2)
        assert not same and why.startswith("differential differs on ")
        assert outer.same_as(copy.copy(outer), 2) == (True, None)

    def test_bent_commutation_block_is_refused(self, monkeypatch, capsys):
        # f[1,1;1,1] on t[2,2] times q, a complement-block entry: the outer
        # block no longer respects the rule with left side t[2,2] t[1,1]
        bent = assemble()
        tables = bent.dual.f.gen_tables
        g = (2, 2)
        row = dict(tables[g][0])
        row[0] = row[0] * Q
        tables[g] = [row] + tables[g][1:]
        assert ((2, 2), (1, 1)) in bent.qg.rs.rules
        message = ("outer commutation block is not well defined: "
                   "rule ((2, 2), (1, 1))")
        with pytest.raises(CalculusError) as err:
            map_in_to_out(bent)
        assert str(err.value) == message
        monkeypatch.setattr(cli, "build_calculus", lambda cfg: bent)
        buf = io.StringIO()
        assert cli.run(["maps"], out=buf) == 2
        assert buf.getvalue() == ""
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_quotient_rank(self, calc):
        outer = map_in_to_out(calc)
        assert outer.rank == 3
        assert outer.labels == ["w[1,1]", "w[1,2]", "w[2,1]"]

    def test_extension_rank(self, calc):
        outer = map_in_to_out(calc)
        ext = map_out_to_in(outer, calc.dual.sectors["trace"])
        assert ext.rank == outer.rank + 1

    def test_roundtrip_both_sectors(self, calc):
        outer = map_in_to_out(calc)
        for choice in ("trace", "counit"):
            report = roundtrip_check(outer, calc.dual.sectors[choice], 3)
            assert report.passed(), report.render()

    def test_extension_distinguishes_sectors(self, calc, qg):
        outer = map_in_to_out(calc)
        ext_t = map_out_to_in(outer, calc.dual.sectors["trace"])
        ext_e = map_out_to_in(outer, calc.dual.sectors["counit"])
        tables = []
        for ext in (ext_t, ext_e):
            tables.append({g: ext.f00.on_generator(*g) for g in qg.rs.gens})
        assert tables[0] != tables[1]

    def test_corrupted_sector_functional_rejected(self, calc, qg):
        vals = {g: calc.f00.on_generator(*g) for g in qg.rs.gens}
        vals[(1, 1)] = vals[(1, 1)] + ONE
        bad = scalar_functional(qg, vals, "corrupted")
        outer = map_in_to_out(calc)
        with pytest.raises(InvalidFunctionalError):
            map_out_to_in(outer, bad)
        report = roundtrip_check(outer, bad, 2)
        assert not report.passed()
        assert any(e.status == "fail" and e.witness for e in report.entries)

    def test_degenerate_extension_keeps_partial(self, calc, qg):
        outer = map_in_to_out(calc)
        ext = map_out_to_in(outer, calc.dual.sectors["counit"])
        for g in qg.rs.gens:
            a = qg.generator(*g)
            assert ext.delta_coeff(a).is_zero()
            assert ext.outer.partial_table(a) == outer.partial_table(a)

    def test_outer_partial_matches_inner_projection(self, calc, qg):
        outer = map_in_to_out(calc)
        for w in qg.rs.normal_words(2):
            a = AlgebraElement.from_word(qg.rs, w)
            table = outer.partial_table(a)
            p = calc.partial(a)
            # reconstruct the complement expansion from the inner split
            terms = dict(p.terms)
            expected = []
            rm = calc.space.basis.removed_index
            for i in outer.letters:
                c = terms.get((i,), AlgebraElement.zero(qg.rs))
                expected.append(c)
            assert table == expected

    def test_unknown_f00_choice(self, calc):
        with pytest.raises(CalculusError):
            assemble(f00_choice="something-else")


class TestRowProjector:
    def test_sl3_grid_dimensions(self, calc3):
        dims = [calc3.grid.data(k)["dims"] for k in (1, 2, 3)]
        assert dims == [(8, 1), (28, 8), (56, 28)]

    def test_split_is_a_projection_and_sums_to_d(self, calc, calc3):
        cases = []
        for c, grades, seed in ((calc, range(calc.space.table.max_grade - 1), 11),
                                (calc3, (0, 1), 13)):
            rng = random.Random(seed)
            forms = [c.random_form(rng, k) for k in grades for _ in range(2)]
            # one mixed-grade element as well: the split takes any grade mix
            forms.append(sum(forms, c.space.zero()))
            cases += [(c, x) for x in forms]
        for c, x in cases:
            zero = c.space.zero()
            row0, row1 = c.grid.split_component(x)
            assert row0 + row1 == x
            assert c.grid.split_component(row0) == (row0, zero)
            assert c.grid.split_component(row1) == (zero, row1)
            assert c.partial(x) + c.delta(x) == c.d(x)

    def test_row_bases_split_to_their_rows(self, calc, calc3):
        # row 0 is spanned by the u0 words, row 1 by the u0 words of one
        # grade lower wedged by X; P1 must fix the one and kill the other
        for c, top in ((calc, calc.space.table.max_grade), (calc3, 3)):
            one, zero = AlgebraElement.one(c.qg.rs), c.space.zero()

            def word_form(w):
                return FormElement(c.space, {
                    u: one.scalar_mul(s)
                    for u, s in c.space.table.reduce_word(w).items()})

            for k in range(1, top + 1):
                data = c.grid.data(k)
                for w in data["u0_words"]:
                    x = word_form(w)
                    assert c.grid.split_component(x) == (x, zero)
                for w in data["u1_words"]:
                    x = word_form(w).wedge(c.X)
                    assert c.grid.split_component(x) == (zero, x)


def _swept_split(c, k, below):
    """The split of grade k built from every complement word of length k
    (below is grade k-1's split): one elimination picks the earliest
    independent candidates, and P1 reads the inverse of their matrix."""
    space = c.space
    table = space.table
    basis_words = table.basis[k]
    dim = len(basis_words)
    if not dim:
        return {"basis_words": basis_words, "u0_words": [], "u1_words": [],
                "dims": (0, 0), "cols": [], "p1": {}}
    cands = [(0, w, table.reduce_word(w))
             for w in itertools.product(space.basis.complement, repeat=k)]
    for w in below["u0_words"] if k else []:
        v = {}
        for d in space.basis.diagonal:
            add_scaled(v, table.reduce_word(w + (d,)), ONE)
        cands.append((1, w, v))
    rows = {}
    for j, (_, _, v) in enumerate(cands):
        for w, x in v.items():
            rows.setdefault(w, {})[j] = x
    _, pivots = rref_sparse(list(rows.values()), range(len(cands)))
    chosen = [cands[j] for j in pivots]
    assert len(chosen) == dim
    u0_words = [w for r, w, _ in chosen if r == 0]
    u1_words = [w for r, w, _ in chosen if r == 1]
    index = {w: i for i, w in enumerate(basis_words)}
    brows = [{} for _ in range(dim)]
    for j, (_, _, v) in enumerate(chosen):
        for w, x in v.items():
            brows[index[w]][j] = x
    binv = mat_inverse(brows, dim)
    p1 = {}
    for i, w in enumerate(basis_words):
        image = {}
        for slot in range(len(u0_words), dim):
            x = binv[slot].get(i)
            if x is not None:
                add_scaled(image, chosen[slot][2], x)
        if image:
            p1[w] = image
    return {"basis_words": basis_words, "u0_words": u0_words,
            "u1_words": u1_words, "dims": (len(u0_words), len(u1_words)),
            "cols": [v for _, _, v in chosen], "p1": p1}


class TestSplitFromGradeBelow:
    """GridSplit extends grade k-1's row-0 words by one complement letter;
    the sweep over every complement word chooses the same words, vectors
    and P1."""

    DATA = os.path.join(os.path.dirname(__file__), "data")

    def _assemble(self, name, **kwargs):
        with open(os.path.join(self.DATA, name), encoding="utf-8") as fh:
            return assemble(fh.read(), **kwargs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_split_as_the_sweep(self, n, calc, calc4):
        c = {1: lambda: self._assemble("slq1.rmatrix"),
             2: lambda: calc,
             3: lambda: self._assemble("slq3.rmatrix", grade_cap=3),
             4: lambda: calc4}[n]()
        grid = GridSplit(c)
        below = None
        for k in range(c.space.table.max_grade + 1):
            below = _swept_split(c, k, below)
            data = grid.data(k)
            assert data == below, k
            assert list(data["p1"]) == list(below["p1"]), k

    def test_sl3_rows_at_every_grade(self):
        # the N=3 forms have the grade dimensions of an exterior algebra on
        # 9 letters: row 0 those of one on the 8 complement letters, row 1
        # the same one grade lower, wedged by X
        c = self._assemble("slq3.rmatrix", grade_cap=8)
        for k in range(10):
            assert c.grid.data(k)["dims"] == \
                (comb(8, k), comb(8, k - 1) if k else 0), k


def _scaled_grid(c, grades, monkeypatch):
    """A fresh GridSplit of c whose candidate vectors, and so its chosen
    basis vectors, are scaled by distinct powers of q at each grade.

    table.reduce_word is wrapped while a grade is built.  The build reads
    the row-0 candidates first, one call per row-0 word of one grade lower
    and complement letter (one call, the empty word, at grade 0); each
    gets a power of its own.  A row-1 candidate sums one call per
    canonical letter after a row-0 word of one grade lower, and all of
    them get the power of that word, so each candidate is scaled as a
    whole.  grades must run up from 0.
    """
    grid = GridSplit(c)
    table = c.space.table
    reduce_word = table.reduce_word
    letters = len(c.space.basis.complement)
    for k in grades:
        calls, powers = [], {}
        row0_calls = len(grid.data(k - 1)["u0_words"]) * letters if k else 1

        def scaled(u, row0_calls=row0_calls):
            key = (0, len(calls)) if len(calls) < row0_calls \
                else (1, u[:-1])
            calls.append(u)
            s = Scalar.q_power(powers.setdefault(key, 1 + len(powers)))
            return {w: v * s for w, v in reduce_word(u).items()}

        with monkeypatch.context() as m:
            m.setattr(table, "reduce_word", scaled)
            grid.data(k)
    return grid


class TestScaledBasis:
    """The complement basis that GridSplit chooses is one choice among
    many: scaling its vectors changes no split, projector or verdict.
    Every chosen vector of the default basis has entries 1 and -1 only, so
    without the scale the basis-change inverse meets no other value."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_does_not_see_the_basis_scale(self, n, calc, calc3,
                                                monkeypatch):
        # grades 0-3: the cartan inputs (grades 0 and 1) are split up to
        # grade 3, and the grid of cap 3 (N=2) or 1 (N=3) reads no more
        c, degree = (calc, 2) if n == 2 else (calc3, 1)
        grades = range(4)
        grid = _scaled_grid(c, grades, monkeypatch)
        scaled = copy.copy(c)
        scaled.grid = grid
        for k in grades:
            data, ref = grid.data(k), c.grid.data(k)
            assert all(v not in (ONE, -ONE) for col in data["cols"]
                       for v in col.values())
            for key in ("u0_words", "u1_words", "dims", "p1"):
                assert data[key] == ref[key], (k, key)
        assert ProjectorPair(grid.data(1)["p1"], c.space.M).J == \
            c.projectors.J

        rng = random.Random(17)
        inputs = [c.space.from_algebra(AlgebraElement.from_word(c.qg.rs, w))
                  for w in c.qg.rs.normal_words(degree)]
        inputs += [c.random_form(rng, k) for k in (1, 2) for _ in range(3)]
        for x in inputs:
            assert scaled.split_d(x) == c.split_d(x)

        def rows(reports):
            return [(r.suite, e.law, e.status, e.witness)
                    for r in reports for e in r.entries]

        assert rows(cartan_check(scaled, degree)) == \
            rows(cartan_check(c, degree))
        assert rows([grid_check(scaled)]) == rows([grid_check(c)])
        # every split above read the scaled grades only
        assert sorted(grid._data) == list(grades)
