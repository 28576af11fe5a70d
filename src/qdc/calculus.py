"""Differentials and the reconstruction maps between calculus classes.

The inner calculus differentiates by a graded commutator with the canonical
trace one-form.  Projecting along the right-stable complement of that form
yields the outer calculus; extending an outer calculus by a one-dimensional
sector parametrized by a character gives it back.  Both directions are
explicit descriptor maps.  The round-trip check compares the outer
differential, read off the vector fields, with the row-0 part of the inner d
from the grid split, on every normal word up to the degree bound.
"""

from __future__ import annotations

import os

from .scalars import Scalar, ONE, render_scalar
from .linalg import (mat_mul, identity, rref_sparse, add_term, add_scaled,
                     sparse_sum, sparse_diff, first_difference)
from .algebra import QuantumGroup, AlgebraElement, load_rmatrix, render_word
from .functionals import (DualStructure, CorepFamily, convolve,
                          validate_scalar_functional, InvalidFunctionalError)
from .forms import FormSpace, FormElement


class CalculusError(Exception):
    pass


# ---------------------------------------------------------------------------
# check reports

class CheckEntry:
    def __init__(self, law, description, status, witness, gating):
        self.law = law
        self.description = description
        self.status = status          # "pass" | "fail"
        self.witness = witness
        self.gating = gating

    def ok(self):
        return self.status == "pass"

    def as_dict(self):
        d = {"law": self.law, "description": self.description,
             "status": self.status, "gating": self.gating}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


# the outcome of an instance that a law did not evaluate
SKIPPED = object()


class CheckReport:
    """Suite outcome: one entry per identity, witnesses on failure."""

    def __init__(self, suite, degree):
        self.suite = suite
        self.degree = degree
        self.entries = []

    def law(self, name, description, outcomes, gating=True):
        """Record one law from its outcomes, one per instance: None where
        the law holds, SKIPPED where it was not evaluated, or a witness
        string where it fails.  The first witness fails the law and ends the
        sweep, so a lazy generator evaluates no instance past it.  A gating
        law that evaluated no instance has shown nothing, so it fails too.
        """
        evaluated = skipped = 0
        witness = None
        for outcome in outcomes:
            if outcome is SKIPPED:
                skipped += 1
            elif outcome is None:
                evaluated += 1
            else:
                witness = outcome
                break
        if witness is None and gating and not evaluated:
            witness = "no instance evaluated (%d skipped)" % skipped
        self.entries.append(CheckEntry(name, description,
                                       "pass" if witness is None else "fail",
                                       witness, gating))

    def passed(self):
        return all(e.ok() for e in self.entries if e.gating)

    def as_dict(self):
        return {"suite": self.suite, "degree": self.degree,
                "passed": self.passed(),
                "entries": [e.as_dict() for e in self.entries]}

    def render(self):
        lines = ["suite %s (degree bound %d)" % (self.suite, self.degree)]
        for e in self.entries:
            mark = "PASS" if e.ok() else "FAIL"
            note = "" if e.gating else " [informative]"
            lines.append("  %-4s %s: %s%s" % (mark, e.law, e.description, note))
            if not e.ok() and e.witness:
                lines.append("       witness: %s" % e.witness)
        lines.append("  => %s" % ("PASS" if self.passed() else "FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# projectors and the bidegree grid

class ProjectorPair:
    """J projects onto the canonical line along the stable complement.

    J is the grade-1 row-1 projector of the grid split, as sparse rows:
    column j of J is the image of the one-form j.
    """

    def __init__(self, p1, m):
        self.M = m
        self.J = [{} for _ in range(m)]
        for (j,), image in p1.items():
            for (i,), v in image.items():
                self.J[i][j] = v
        self.Jperp = [sparse_diff(e, j) for e, j in zip(identity(m), self.J)]

    def defects(self):
        """(J o J = J, J o Jperp = 0, J + Jperp = id): None where a law holds,
        else the first (row, column) where its two sides differ."""
        complete = [sparse_sum(a, b) for a, b in zip(self.J, self.Jperp)]
        zero = [{} for _ in range(self.M)]
        diffs = (first_difference(mat_mul(self.J, self.J), self.J),
                 first_difference(mat_mul(self.J, self.Jperp), zero),
                 first_difference(complete, identity(self.M)))
        return tuple(None if d is None else str(d) for d in diffs)


class GridSplit:
    """Per-grade row split and its row-1 projector P1.

    Row 0 of grade k is spanned by complement words, each a row-0 word of
    grade k-1 and one more complement letter; row 1 by row-0 words of grade
    k-1 wedged by the canonical element on the right.  P1 projects onto row
    1 along row 0.  One elimination per grade chooses both bases and carries
    the rows of the inverse basis change that P1 reads.
    """

    def __init__(self, calc):
        self.calc = calc
        self._data = {}

    def data(self, k):
        if k not in self._data:
            self._data[k] = self._build(k)
        return self._data[k]

    def _build(self, k):
        space = self.calc.space
        table = space.table
        basis_words = table.basis[k]
        dim = len(basis_words)
        # candidates (row, word, vector) in order, the earliest independent
        # ones the basis: row-0 words of grade k-1 and one complement letter
        # (the chosen words are closed under prefixes), then the same words
        # wedged by the canonical element on the right, so that left
        # coefficients never cross the canonical line
        if k:
            prev = self.data(k - 1)["u0_words"]
            words = [w + (c,) for w in prev for c in space.basis.complement]
        else:
            prev, words = [], [()]
        cands = [(0, w, table.reduce_word(w)) for w in words]
        for w in prev:
            v = {}
            for c in space.basis.diagonal:
                add_scaled(v, table.reduce_word(w + (c,)), ONE)
            cands.append((1, w, v))
        # one elimination of (candidates | 1), a row per word: candidate
        # pivots are the basis B, an identity pivot a word the candidates
        # miss, and each basis pivot row holds a row of B^-1 beside it
        n = len(cands)
        rows = {w: {n + i: ONE} for i, w in enumerate(basis_words)}
        for j, (_, _, v) in enumerate(cands):
            for w, c in v.items():
                rows[w][j] = c
        pivot_rows, pivots = rref_sparse(list(rows.values()), range(n + dim))
        chosen = [cands[j] for j in pivots if j < n]
        u0_words = [w for r, w, _ in chosen if r == 0]
        u1_words = [w for r, w, _ in chosen if r == 1]
        d0, d1 = len(u0_words), len(u1_words)
        if d0 + d1 != dim:
            raise CalculusError(
                "grade %d does not split: %d + %d != %d" % (k, d0, d1, dim))
        cols = [v for _, _, v in chosen]
        p1 = {}
        for i, w in enumerate(basis_words):
            image = {}
            for j in pivots[d0:]:
                c = pivot_rows[j].get(n + i)
                if c is not None:
                    add_scaled(image, cands[j][2], c)
            if image:
                p1[w] = image
        return {"basis_words": basis_words, "u0_words": u0_words,
                "u1_words": u1_words, "dims": (d0, d1), "cols": cols,
                "p1": p1}

    def split_component(self, x):
        """(row-0 part, row-1 part) = (x - P1 x, P1 x) of a form element."""
        row1 = {}
        for w, c in x.terms.items():
            for w1, s in self.data(len(w))["p1"].get(w, {}).items():
                add_term(row1, w1, c.scalar_mul(s))
        row1 = FormElement(x.space, row1)
        return x - row1, row1


# ---------------------------------------------------------------------------
# the inner calculus descriptor

class Calculus:
    """Fully assembled inner calculus over one R-matrix."""

    mode = "inner"

    def __init__(self, qg, grade_cap=3, degree_bound=3, f00_choice="trace"):
        self.qg = qg
        self.R = qg.R
        self._d_cache = {}
        self.degree_bound = degree_bound
        self.grade_cap = grade_cap
        self.dual = DualStructure(qg)
        if f00_choice not in self.dual.sectors:
            raise CalculusError("unknown f00 choice %r" % (f00_choice,))
        self.f00 = self.dual.sectors[f00_choice]
        self.lam = self.dual.lam
        self._inv_lam = ONE / self.lam
        self.space = FormSpace(qg, self.dual.f, self.dual.lam_matrix,
                               max_grade=grade_cap + 2)
        self.X = canonical_element(self.space)
        self.grid = GridSplit(self)
        self.projectors = ProjectorPair(self.grid.data(1)["p1"], self.space.M)

    # -- differentials ------------------------------------------------------

    def as_form(self, x):
        if isinstance(x, AlgebraElement):
            return self.space.from_algebra(x)
        return x

    def d(self, x):
        """Graded commutator with the canonical element, over lambda.

        d is Q(q)-linear, so it is summed from its images on the basis
        elements mon * omega_w, each memoized with 1/lambda folded in.
        """
        x = self.as_form(x)
        out = {}
        for w, a in x.terms.items():
            for mon, c in a.terms.items():
                for w2, image in self._d_basis(mon, w).items():
                    add_term(out, w2, image.scalar_mul(c))
        return FormElement(self.space, out)

    def _d_basis(self, mon, w):
        """Terms of d(mon * omega_w); shared, so callers must not mutate."""
        key = (mon, w)
        hit = self._d_cache.get(key)
        if hit is None:
            e = FormElement(self.space,
                            {w: AlgebraElement(self.qg.rs, {mon: ONE})})
            left = self.X.wedge(e)
            right = e.wedge(self.X)
            piece = (left + right) if len(w) % 2 else (left - right)
            hit = piece.scalar_mul(self._inv_lam).terms
            self._d_cache[key] = hit
        return hit

    def expand_d_in_basis(self, a):
        """Coefficients of d(a) over the one-form basis."""
        if isinstance(a, FormElement):
            raise CalculusError("expand_d_in_basis takes a grade-0 element")
        da = self.d(a)
        zero = AlgebraElement.zero(self.qg.rs)
        out = [zero] * self.space.M
        for w, c in da.terms.items():
            out[w[0]] = c
        return out

    def split_d(self, x):
        """(partial x, delta x): d of each row of x, cut into the part that
        stays in that row and the part that moves to the other."""
        x0, x1 = self.grid.split_component(self.as_form(x))
        stay0, move0 = self.grid.split_component(self.d(x0))
        move1, stay1 = self.grid.split_component(self.d(x1))
        return stay0 + stay1, move0 + move1

    def partial(self, x):
        """The part of d that keeps a form's row."""
        return self.split_d(x)[0]

    def delta(self, x):
        """The part of d that moves a form to the other row."""
        return self.split_d(x)[1]

    # -- random elements for property sweeps --------------------------------

    def random_form(self, rng, grade):
        words = self.space.table.basis[grade]
        terms = {}
        mons = self.qg.rs.normal_words(1)
        for w in words:
            if rng.random() < 0.6:
                mon = mons[rng.randrange(len(mons))]
                c = Scalar.from_int(rng.randrange(-3, 4))
                if c.is_zero():
                    continue
                terms[w] = AlgebraElement(self.qg.rs, {mon: c})
        return FormElement(self.space, terms)


def canonical_element(space):
    """The trace one-form, the sum of the diagonal forms: the generator of
    the inner differential."""
    one = AlgebraElement.one(space.qg.rs)
    return FormElement(space, {(i,): one for i in space.basis.diagonal})


# ---------------------------------------------------------------------------
# outer and extended descriptors

class OuterCalculus:
    """The complement-sector calculus carved out of an inner one."""

    mode = "outer"

    def __init__(self, inner):
        qg = inner.qg
        basis = inner.space.basis
        self.inner = inner
        self.qg = qg
        self.letters = list(basis.complement)
        self.rank = len(self.letters)
        self.labels = [basis.label(i) for i in self.letters]
        pos = {g: p for p, g in enumerate(self.letters)}
        # the commutation block: f restricted to the complement letters
        tables = {}
        for g in qg.rs.gens:
            src = inner.dual.f.gen_tables[g]
            tables[g] = [{pos[j]: v for j, v in src[i].items() if j in pos}
                         for i in self.letters]
        self.commutation = CorepFamily(qg, self.rank, tables, name="f'")
        bad = self.commutation.check_rewrite_invariance()
        if bad is not None:
            raise CalculusError(
                "outer commutation block is not well defined: rule %r" % (bad[0],))
        chi = inner.dual.chi
        rm = basis.removed_index
        # each complement coefficient of the outer differential is a sum of
        # (chi entry, coefficient) convolutions
        self.partial_coeffs = []
        for g in self.letters:
            combo = [(chi[g], ONE)]
            if g in basis.diagonal:
                combo.append((chi[rm], -ONE))
            self.partial_coeffs.append(combo)

    def partial_table(self, a):
        """Coefficients of the outer differential over the complement basis."""
        out = []
        for combo in self.partial_coeffs:
            total = AlgebraElement.zero(self.qg.rs)
            for chi, c in combo:
                total = total + convolve(chi, a).scalar_mul(c)
            out.append(total)
        return out


class ExtendedCalculus:
    """An outer calculus completed by a one-dimensional sector."""

    mode = "extended-outer"

    def __init__(self, outer, f00):
        validate_scalar_functional(f00)
        if not f00.on_unit().is_one():
            raise InvalidFunctionalError("f00 must take value 1 on the unit")
        self.outer = outer
        self.qg = outer.qg
        self.f00 = f00
        self.rank = outer.rank + 1

    def delta_coeff(self, a):
        """delta(a) = (f00 * a - a) X, as the X-sector coefficient."""
        return convolve(self.f00, a) - a

    def summary(self):
        return {"mode": self.mode, "rank": self.rank,
                "f00": self.f00.label,
                "f00_generators": {
                    "t[%d,%d]" % g: render_scalar(self.f00.on_generator(*g))
                    for g in self.qg.rs.gens}}


def map_in_to_out(inner):
    """Quotient an inner calculus by its canonical line (the epimorphism)."""
    return OuterCalculus(inner)


def map_out_to_in(outer, f00):
    """Extend an outer calculus by the one-dimensional sector (the monomorphism)."""
    return ExtendedCalculus(outer, f00)


def roundtrip_check(outer, f00, degree):
    """Extend by f00, and compare the outer differential with the row-0 part
    of the inner d on every normal word; exact pass or witness."""
    report = CheckReport("roundtrip", degree)
    valid = "the chosen sector functional satisfies the product/unit laws"
    try:
        ext = map_out_to_in(outer, f00)
    except InvalidFunctionalError as err:
        report.law("extension-valid", valid, [str(err)])
        return report
    report.law("extension-valid", valid, [None])
    report.law("extension-rank", "extended one-form rank is rank(outer) + 1",
               [None if ext.rank == outer.rank + 1 else "rank %d" % ext.rank])
    inner, rs = outer.inner, outer.qg.rs

    def identity():
        for w in rs.normal_words(degree):
            a = AlgebraElement.from_word(rs, w)
            table = zip(outer.letters, outer.partial_table(a))
            want = FormElement(inner.space, {(g,): c for g, c in table if c})
            yield None if inner.partial(a) == want else \
                "differential differs on %s" % render_word(w)

    report.law("roundtrip-identity",
               "restricting the extension returns the outer calculus exactly",
               identity())
    if f00 is inner.dual.sectors["counit"]:
        report.law("degenerate-sector",
                   "the counit extension has vanishing sector differential",
                   (None if ext.delta_coeff(AlgebraElement.from_word(rs, w))
                    .is_zero() else render_word(w)
                    for w in rs.normal_words(degree)))
    return report


# ---------------------------------------------------------------------------
# assembly

# the packaged standard SL_q(2) config, read with a plain open so that
# importing qdc loads no importlib.resources
with open(os.path.join(os.path.dirname(__file__), "data", "slq2.rmatrix"),
          encoding="utf-8") as _fh:
    DEFAULT_RMATRIX = _fh.read()


def assemble(config_text=None, grade_cap=3, degree_bound=3,
             f00_choice="trace"):
    """Build the full inner-calculus descriptor from an R-matrix config."""
    text = config_text if config_text is not None else DEFAULT_RMATRIX
    r = load_rmatrix(text)
    qg = QuantumGroup(r)
    return Calculus(qg, grade_cap=grade_cap, degree_bound=degree_bound,
                    f00_choice=f00_choice)
