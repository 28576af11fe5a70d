"""Differentials and the reconstruction maps between calculus classes.

The inner calculus differentiates by a graded commutator with the canonical
trace one-form.  Projecting along the right-stable complement of that form
yields the outer calculus; extending an outer calculus by a one-dimensional
sector parametrized by a character gives it back.  Both directions are
implemented as explicit descriptor maps with an exact round-trip check.
"""

from __future__ import annotations

import itertools

from .scalars import Scalar, ZERO, ONE, qlambda, render_scalar
from .linalg import (mat_mul, mat_inverse, identity, mat_eq_zero, sparse_rank,
                     add_term)
from .algebra import (QuantumGroup, AlgebraElement, load_rmatrix,
                      render_element)
from .functionals import (DualStructure, CorepFamily, FunctionalMatrix,
                          ConvCombo, convolve, counit_functional,
                          validate_scalar_functional, InvalidFunctionalError,
                          DegenerateParameterError)
from .forms import FormSpace, FormElement, left_coaction


class CalculusError(Exception):
    pass


# ---------------------------------------------------------------------------
# check reports

class CheckEntry:
    def __init__(self, law, description, status, witness=None, gating=True):
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


class CheckReport:
    """Suite outcome: one entry per identity, witnesses on failure."""

    def __init__(self, suite, degree):
        self.suite = suite
        self.degree = degree
        self.entries = []

    def add(self, law, description, ok, witness=None, gating=True):
        status = "pass" if ok else "fail"
        if not ok and witness is None:
            witness = "(no witness recorded)"
        self.entries.append(CheckEntry(law, description, status, witness, gating))

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


def first_witness(witnesses):
    """The first witness a law's generator yields; None if the law holds.

    A law is written as a generator over its instances that yields a witness
    string for each failure, so taking the first stops the sweep there.
    """
    return next(iter(witnesses), None)


# ---------------------------------------------------------------------------
# projectors and the bidegree grid

class ProjectorPair:
    """J projects onto the canonical line along the stable complement."""

    def __init__(self, basis):
        m = basis.M
        rm = basis.removed_index
        can = basis.canonical_coeffs
        self.J = [[ZERO] * m for _ in range(m)]
        for i in range(m):
            if not can[i].is_zero():
                self.J[i][rm] = can[i]
        self.Jperp = [[(ONE if i == j else ZERO) - self.J[i][j]
                       for j in range(m)] for i in range(m)]
        self.basis = basis

    def apply(self, mat, x):
        """Apply a basis matrix to a grade-1 form element."""
        out = {}
        for (i,), c in x.terms.items():
            for r in range(self.basis.M):
                if not mat[r][i].is_zero():
                    add_term(out, (r,), c.scalar_mul(mat[r][i]))
        return FormElement(x.space, out)

    def laws_exact(self):
        m = self.basis.M
        jj = mat_mul(self.J, self.J)
        jp = mat_mul(self.J, self.Jperp)
        ident = identity(m)
        s = [[self.J[i][j] + self.Jperp[i][j] for j in range(m)] for i in range(m)]
        return (mat_eq_zero([[jj[i][j] - self.J[i][j] for j in range(m)]
                             for i in range(m)]),
                mat_eq_zero(jp),
                all(s[i][j] == ident[i][j] for i in range(m) for j in range(m)))


class GridSplit:
    """Per-grade direct-sum data: complement-word span and its X-wedge."""

    def __init__(self, calc):
        self.calc = calc
        self._data = {}

    def data(self, k):
        if k not in self._data:
            self._data[k] = self._build(k)
        return self._data[k]

    def _build(self, k):
        calc = self.calc
        table = calc.space.table
        basis_words = table.basis[k]
        index = {w: i for i, w in enumerate(basis_words)}
        dim = len(basis_words)

        def reduced_vec(word):
            v = [ZERO] * dim
            for w, c in table.reduce_word(word).items():
                v[index[w]] = c
            return v

        comp = calc.space.basis.complement
        u0_vectors, u0_words = [], []
        for w in itertools.product(comp, repeat=k):
            v = reduced_vec(w)
            if _extends_rank(u0_vectors, v):
                u0_vectors.append(v)
                u0_words.append(w)
        u1_vectors, u1_words = [], []
        if k >= 1:
            # row 1 is the complement span wedged by the canonical element on
            # the right: left coefficients then never cross the canonical line
            prev_words = self.data(k - 1)["u0_words"] if k - 1 >= 1 else [()]
            can = calc.space.basis.canonical_coeffs
            for w in prev_words:
                v = [ZERO] * dim
                for c, coeff in enumerate(can):
                    if coeff.is_zero():
                        continue
                    for wr, sc in table.reduce_word(w + (c,)).items():
                        v[index[wr]] = v[index[wr]] + coeff * sc
                if _extends_rank(u1_vectors + u0_vectors, v):
                    u1_vectors.append(v)
                    u1_words.append(w)
        d0, d1 = len(u0_vectors), len(u1_vectors)
        if d0 + d1 != dim:
            raise CalculusError(
                "grade %d does not split: %d + %d != %d" % (k, d0, d1, dim))
        cols = u0_vectors + u1_vectors
        bmat = [[cols[j][i] for j in range(dim)] for i in range(dim)]
        binv = mat_inverse(bmat)
        return {"basis_words": basis_words, "index": index,
                "u0_words": u0_words, "u1_words": u1_words,
                "dims": (d0, d1), "cols": cols, "binv": binv}

    def split_component(self, x, k):
        """(r=0 part, r=1 part) of a grade-k form element."""
        if k == 0 or not x.terms:
            return x, x.space.zero()
        d = self.data(k)
        dim = len(d["basis_words"])
        coeffs = [None] * dim
        for w, c in x.terms.items():
            coeffs[d["index"][w]] = c
        comps = []
        for slot in range(dim):
            acc = None
            for i in range(dim):
                c = coeffs[i]
                if c is None:
                    continue
                v = d["binv"][slot][i]
                if v.is_zero():
                    continue
                piece = c.scalar_mul(v)
                acc = piece if acc is None else acc + piece
            comps.append(acc)
        d0 = d["dims"][0]
        parts = []
        for lo, hi in ((0, d0), (d0, dim)):
            terms = {}
            for slot in range(lo, hi):
                c = comps[slot]
                if c is None or c.is_zero():
                    continue
                for i in range(dim):
                    v = d["cols"][slot][i]
                    if not v.is_zero():
                        add_term(terms, d["basis_words"][i], c.scalar_mul(v))
            parts.append(FormElement(x.space, terms))
        return parts[0], parts[1]


def _extends_rank(vectors, v):
    """True if v is independent of the span (small dense incremental check)."""
    if all(x.is_zero() for x in v):
        return False
    rows = [dict((i, x) for i, x in enumerate(u) if not x.is_zero())
            for u in vectors]
    rows.append({i: x for i, x in enumerate(v) if not x.is_zero()})
    return sparse_rank(rows, list(range(len(v)))) == len(vectors) + 1


# ---------------------------------------------------------------------------
# the inner calculus descriptor

class Calculus:
    """Fully assembled inner calculus over one R-matrix."""

    mode = "inner"

    def __init__(self, qg, lam=None, grade_cap=3, degree_bound=3,
                 f00_choice="trace"):
        if lam is None:
            lam = qlambda()
        if lam.is_zero():
            raise DegenerateParameterError("normalization constant is zero")
        self.qg = qg
        self.R = qg.R
        self.lam = lam
        self.degree_bound = degree_bound
        self.grade_cap = grade_cap
        self.dual = DualStructure(qg, lam)
        self.space = FormSpace(qg, self.dual.f, self.dual.lam_matrix,
                               max_grade=grade_cap + 2)
        self.X = canonical_element(self.space)
        self.projectors = ProjectorPair(self.space.basis)
        self.grid = GridSplit(self)
        self.f00_choice = f00_choice
        self.f00 = self.resolve_f00(f00_choice)
        co = left_coaction(self.space, self.X)
        if co.terms != {(): self.X}:
            raise CalculusError("canonical element is not left invariant")

    def resolve_f00(self, choice):
        if choice == "trace":
            return self.dual.trace_functional()
        if choice == "counit":
            return self.dual.eps
        raise CalculusError("unknown f00 choice %r" % (choice,))

    # -- differentials ------------------------------------------------------

    def as_form(self, x):
        if isinstance(x, AlgebraElement):
            return self.space.from_algebra(x)
        return x

    def d(self, x):
        """Graded commutator with the canonical element, over lambda."""
        x = self.as_form(x)
        out = self.space.zero()
        for k in sorted(x.grades()):
            comp = x.component(k)
            left = self.X.wedge(comp)
            right = comp.wedge(self.X)
            sign_flip = (k % 2 == 0)
            piece = (left - right) if sign_flip else (left + right)
            out = out + piece.scalar_mul(ONE / self.lam)
        return out

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

    def split_differential(self, x):
        """(complement part, canonical-line part) of d(x)."""
        x = self.as_form(x)
        dx = self.d(x)
        p_total, d_total = self.space.zero(), self.space.zero()
        for k in dx.grades():
            u0, u1 = self.grid.split_component(dx.component(k), k)
            p_total = p_total + u0
            d_total = d_total + u1
        return p_total, d_total

    def bidegree_components(self, x):
        """List of ((r, s), component) pieces of a form element."""
        x = self.as_form(x)
        out = []
        for k in x.grades():
            u0, u1 = self.grid.split_component(x.component(k), k)
            if not u0.is_zero():
                out.append(((0, k), u0))
            if not u1.is_zero():
                out.append(((1, k - 1), u1))
        return out

    def partial(self, x):
        """The s-raising part of d (complement part on r=0, all of d on r=1)."""
        total = self.space.zero()
        for (r, s), comp in self.bidegree_components(x):
            dcomp = self.d(comp)
            for k in dcomp.grades():
                u0, u1 = self.grid.split_component(dcomp.component(k), k)
                total = total + (u0 if r == 0 else u1)
        return total

    def delta(self, x):
        """The r-raising part of d (zero on r=1 up to the verified leak)."""
        total = self.space.zero()
        for (r, s), comp in self.bidegree_components(x):
            dcomp = self.d(comp)
            for k in dcomp.grades():
                u0, u1 = self.grid.split_component(dcomp.component(k), k)
                total = total + (u1 if r == 0 else u0)
        return total

    def delta_gamma0(self, a, f00=None):
        """The one-dimensional-sector differential ((f00 - eps) * a) X."""
        f00 = f00 or self.f00
        coeff = convolve(f00, a, side="left") - convolve(self.dual.eps, a,
                                                         side="left")
        return self.X.algebra_mul_left(coeff)

    # -- random elements for property sweeps --------------------------------

    def random_form(self, rng, grade, coeff_degree=1):
        words = self.space.table.basis[grade]
        terms = {}
        mons = self.qg.rs.normal_words(coeff_degree)
        for w in words:
            if rng.random() < 0.6:
                mon = mons[rng.randrange(len(mons))]
                c = Scalar.from_int(rng.randrange(-3, 4))
                if c.is_zero():
                    continue
                terms[w] = AlgebraElement(self.qg.rs, {mon: c}, reduce=False)
        return FormElement(self.space, terms)


def canonical_element(space):
    """The trace one-form, the generator of the inner differential."""
    out = {}
    for i, c in enumerate(space.basis.canonical_coeffs):
        if not c.is_zero():
            out[(i,)] = AlgebraElement.from_scalar(space.qg.rs, c)
    return FormElement(space, out)


def build_projectors(calc, f00_choice=None):
    """The projector pair onto the canonical line and its stable complement."""
    pair = calc.projectors
    if f00_choice is not None:
        calc.f00_choice = f00_choice
        calc.f00 = calc.resolve_f00(f00_choice)
    return pair


def inner_d(calc, x):
    return calc.d(x)


def expand_d_in_basis(calc, a):
    return calc.expand_d_in_basis(a)


def delta_differential(calc, a, f00=None):
    return calc.delta_gamma0(a, f00)


def split_differential(calc, x):
    return calc.split_differential(x)


# ---------------------------------------------------------------------------
# outer and extended descriptors

class OuterCalculus:
    """The complement-sector calculus carved out of an inner one."""

    mode = "outer"

    def __init__(self, inner):
        self.inner = inner
        qg = inner.qg
        basis = inner.space.basis
        self.qg = qg
        self.letters = list(basis.complement)
        self.rank = len(self.letters)
        self.labels = [basis.label(i) for i in self.letters]
        pos = {g: p for p, g in enumerate(self.letters)}
        m = inner.space.M
        f = inner.dual.f
        tables = {}
        for g in qg.rs.gens:
            src = f.family.gen_tables[g]
            t = [[src[i][j] for j in self.letters] for i in self.letters]
            tables[g] = t
        fam = CorepFamily(qg, self.rank, tables, name="f-outer")
        self.commutation = FunctionalMatrix(fam, qg.N, doubled=False,
                                            kind="corep", name="f'")
        bad = fam.check_rewrite_invariance()
        if bad is not None:
            raise CalculusError(
                "outer commutation block is not well defined: rule %r" % (bad[0],))
        chi = inner.dual.chi
        diag = [i for i, c in enumerate(basis.canonical_coeffs)
                if not c.is_zero()]
        rm = basis.removed_index
        self.partial_coeffs = []
        for g in self.letters:
            terms = [(ONE, (chi.entry(g),))]
            if g in diag:
                ratio = basis.canonical_coeffs[g] / basis.canonical_coeffs[rm]
                terms.append((-ratio, (chi.entry(rm),)))
            self.partial_coeffs.append(ConvCombo(qg, terms))
        self.twist = inner.dual.trace_functional()
        self._pos = pos

    def partial_table(self, a):
        """Coefficients of the outer differential over the complement basis."""
        return [convolve_combo(self.qg, combo, a)
                for combo in self.partial_coeffs]

    def commutation_generator_table(self):
        out = {}
        for al in range(self.rank):
            for be in range(self.rank):
                for g in self.qg.rs.gens:
                    v = self.commutation.entry(al, be).on_generator(*g)
                    if not v.is_zero():
                        out[(al, be, g)] = v
        return out

    def same_as(self, other, degree):
        """Rank, commutation tables and differential agreement up to degree."""
        if self.rank != other.rank:
            return False, "rank %d != %d" % (self.rank, other.rank)
        if self.commutation_generator_table() != other.commutation_generator_table():
            return False, "commutation tables differ on generators"
        for w in self.qg.rs.normal_words(degree):
            a = AlgebraElement.from_word(self.qg.rs, w)
            if self.partial_table(a) != other.partial_table(a):
                return False, "differential differs on %s" % render_element(a)
        return True, None


def convolve_combo(qg, combo, a):
    """(xi * a) for a formal combination xi of functionals (left side)."""
    terms = {}
    for (w1, w2), c in qg.coproduct(a).terms.items():
        v = combo.on_word(w2)
        if not v.is_zero():
            add_term(terms, w1, c * v)
    return AlgebraElement(qg.rs, terms, reduce=False)


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
        self.labels = ["X"] + list(outer.labels)

    def delta_coeff(self, a):
        """delta(a) = ((f00 - eps) * a) X, as the X-sector coefficient."""
        qg = self.qg
        eps = counit_functional(qg)
        return convolve(self.f00, a, side="left") - convolve(eps, a, side="left")

    def total_differential(self, a):
        """(partial + delta)(a) as (X coefficient, complement coefficients)."""
        return self.delta_coeff(a), self.outer.partial_table(a)

    def restrict_to_outer(self):
        return self.outer

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
    """Extend, restrict, and compare with the input; exact pass or witness."""
    report = CheckReport("roundtrip", degree)
    try:
        ext = map_out_to_in(outer, f00)
    except InvalidFunctionalError as err:
        report.add("extension-valid",
                   "the chosen sector functional satisfies the product/unit laws",
                   False, witness=str(err))
        return report
    report.add("extension-valid",
               "the chosen sector functional satisfies the product/unit laws",
               True)
    report.add("extension-rank",
               "extended one-form rank is rank(outer) + 1",
               ext.rank == outer.rank + 1,
               witness="rank %d" % ext.rank)
    recovered = ext.restrict_to_outer()
    same, why = outer.same_as(recovered, degree)
    report.add("roundtrip-identity",
               "restricting the extension returns the outer calculus exactly",
               same, witness=why)
    if f00.label == "eps":
        zero_delta = all(ext.delta_coeff(
            AlgebraElement.from_word(outer.qg.rs, w)).is_zero()
            for w in outer.qg.rs.normal_words(degree))
        report.add("degenerate-sector",
                   "the counit extension has vanishing sector differential",
                   zero_delta)
    return report


# ---------------------------------------------------------------------------
# assembly

DEFAULT_RMATRIX = """\
# standard A-series R-matrix, N=2
N 2
series A
entry 1 1 1 1 q
entry 1 2 1 2 1
entry 1 2 2 1 q - q^-1
entry 2 1 2 1 1
entry 2 2 2 2 q
"""


def assemble(config_text=None, lam=None, grade_cap=3, degree_bound=3,
             f00_choice="trace", sl_mode=True):
    """Build the full inner-calculus descriptor from an R-matrix config."""
    text = config_text if config_text is not None else DEFAULT_RMATRIX
    r = load_rmatrix(text)
    qg = QuantumGroup(r, sl_mode=sl_mode)
    return Calculus(qg, lam=lam, grade_cap=grade_cap,
                    degree_bound=degree_bound, f00_choice=f00_choice)
