"""The dual side: regular functionals, characteristic functionals, vector
fields, the braiding matrix and the q-structure constants.

Every functional family here is a matrix corepresentation of the word
monoid, a CorepFamily: evaluation on a monomial is a product of
per-generator matrices (reversed for families composed with the antipode).
Vector fields live in an extended family [[counit, chi], [0, f]] so that
one engine evaluates everything.  The braiding and the structure constants,
a plain dict, are entries of that family on the adjoint matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, qlambda
from .linalg import (mat_mul, identity, kernel_basis, add_term, add_scaled,
                     first_difference)
from .algebra import AlgebraElement


# the choices of the character f00 that parametrizes the one-dimensional
# sector: the trace character and the counit
SECTORS = ("trace", "counit")


class FunctionalError(Exception):
    pass


class InvalidFunctionalError(FunctionalError):
    """A scalar functional violates the product/unit laws on the relations."""


def flatten_pair(a1, a2, n):
    return (a1 - 1) * n + (a2 - 1)

def unflatten_pair(i, n):
    a, b = divmod(i, n)
    return (a + 1, b + 1)


class CorepFamily:
    """A matrix family F with F(xy) = F(x)F(y) (or the reversed law).

    Generator tables and word matrices are lists of size sparse rows
    {col: nonzero}, the format of linalg; a word matrix is cached as the
    product of its cached prefix and its last generator's table.  A doubled
    family indexes its rows and columns by pairs, i = (a1-1)N + a2.
    """

    def __init__(self, qg, size, gen_tables, reversed=False, name="F",
                 doubled=False):
        self.qg = qg
        self.size = size
        self.gen_tables = gen_tables
        self.reversed = reversed
        self.name = name
        self.doubled = doubled
        self._cache = {(): identity(size)}
        self._conv_cache = {}

    def word_matrix(self, word):
        m = self._cache.get(word)
        if m is None:
            # one product with the cached prefix: F(w g) = F(w) F(g), or
            # F(g) F(w) for a reversed family
            last = self.gen_tables[word[-1]]
            if len(word) == 1:
                m = last
            else:
                prefix = self.word_matrix(word[:-1])
                m = (mat_mul(last, prefix) if self.reversed
                     else mat_mul(prefix, last))
            self._cache[word] = m
        return m

    def on_element(self, elem):
        out = [{} for _ in range(self.size)]
        for w, c in elem.terms.items():
            for acc, row in zip(out, self.word_matrix(w)):
                add_scaled(acc, row, c)
        return out

    def compose_antipode(self):
        """The family x -> F(kappa(x)); its extension law is reversed."""
        qg = self.qg
        tables = {g: self.on_element(qg.antipode_table[g]) for g in qg.rs.gens}
        return CorepFamily(qg, self.size, tables, reversed=not self.reversed,
                           name="kd(%s)" % self.name)

    def entry(self, i, j):
        """The functional at row i, column j, labelled name[i;j]."""
        label = "%s[%s;%s]" % (self.name, self._fmt(i), self._fmt(j))
        return Functional(self, i, j, label)

    def _fmt(self, i):
        if self.doubled:
            return "%d,%d" % unflatten_pair(i, self.qg.N)
        return str(i + 1)

    def check_rewrite_invariance(self):
        """First (rule, row, col), in row-major order, where the family
        value differs across a rule."""
        for lhs, rhs in self.qg.rs.rules.items():
            lv = self.word_matrix(lhs)
            rv = self.on_element(AlgebraElement(self.qg.rs, rhs))
            bad = first_difference(lv, rv)
            if bad is not None:
                return (lhs,) + bad
        return None


class Functional:
    """One entry of a family: a linear functional on the quantum group."""

    def __init__(self, family, row, col, label):
        self.family = family
        self.row = row
        self.col = col
        self.label = label

    def on_word(self, word):
        return self.family.word_matrix(word)[self.row].get(self.col, ZERO)

    def value(self, elem):
        total = ZERO
        for w, c in elem.terms.items():
            v = self.on_word(w)
            if not v.is_zero():
                total = total + v * c
        return total

    def on_generator(self, a, b):
        return self.family.gen_tables[(a, b)][self.row].get(self.col, ZERO)

    def on_unit(self):
        return ONE if self.row == self.col else ZERO

    def __repr__(self):
        return "<functional %s>" % self.label


def scalar_functional(qg, gen_values, name):
    """A 1x1 corep family (an algebra character candidate) from generator values."""
    tables = {g: [{0: gen_values[g]} if gen_values.get(g) else {}]
              for g in qg.rs.gens}
    fam = CorepFamily(qg, 1, tables, name=name)
    return Functional(fam, 0, 0, name)


def validate_scalar_functional(f):
    """Product/unit-law check on the relations; raises on failure."""
    bad = f.family.check_rewrite_invariance()
    if bad is not None:
        raise InvalidFunctionalError(
            "functional %s violates the product law on rule %r"
            % (f.label, bad[0]))


# ---------------------------------------------------------------------------
# family constructors

def make_L(qg, sign):
    """Regular functional family: (L+)(t^c_d) = c+ R^{ac}_{bd}, (L-) from R21^-1.

    The normalization c+- = q^{-+1/N} makes the family well defined on the
    determinant relation.
    """
    n = qg.N
    scale = Scalar.q_power(Fraction(-sign, n))
    entries = qg.R.entries if sign > 0 else qg.R.rminus_entries
    tables = {g: [{} for _ in range(n)] for g in qg.rs.gens}
    for (a, c, b, d), v in entries.items():
        tables[(c, d)][a - 1][b - 1] = v * scale
    return CorepFamily(qg, n, tables, name="L+" if sign > 0 else "L-")


def make_f(qg, lplus, lminus):
    """Characteristic functionals f^{(a1,a2)}_{(b1,b2)} = kd(L+)^{b1}_{a1} (L-)^{a2}_{b2}."""
    n = qg.N
    m = n * n
    kd = lplus.compose_antipode()
    tables = {}
    for (c, d) in qg.rs.gens:
        t = [{} for _ in range(m)]
        # sum over g of kd(L+)(t_cg)[b1][a1] (L-)(t_gd)[a2][b2], 0-based
        for g in range(1, n + 1):
            lt = lminus.gen_tables[(g, d)]
            for b1, row in enumerate(kd.gen_tables[(c, g)]):
                for a1, x in row.items():
                    for a2, lrow in enumerate(lt):
                        for b2, y in lrow.items():
                            add_term(t[a1 * n + a2], b1 * n + b2, x * y)
        tables[(c, d)] = t
    return CorepFamily(qg, m, tables, name="f", doubled=True)


def generator_table(entries):
    """Dump rows (entry label, generator or 1, scalar) of the nonzero
    values of each functional on the unit and on each generator."""
    rows = []
    for f in entries:
        u = f.on_unit()
        if not u.is_zero():
            rows.append((f.label, "1", u))
        for g in f.family.qg.rs.gens:
            v = f.on_generator(*g)
            if not v.is_zero():
                rows.append((f.label, "t[%d,%d]" % g, v))
    return rows


def make_chi(f, lam):
    """Vector fields chi_i = (1/lam)(sum_b f^{(b,b)}_i - delta_i eps).

    The inner calculus is generated by X = sum_b omega_bb with
    d a = (1/lam)[X, a], and omega_j a = sum_i (f^j_i * a) omega_i, so the
    vector fields are read off the diagonal rows of f.  Returns the
    extended family [[eps, chi], [0, f]], so that the twisted product law
    is one matrix multiplication; chi_i is its row 0, column 1 + i.
    """
    qg = f.qg
    n = qg.N
    diagonal = [b * n + b for b in range(n)]
    ext_tables = {}
    for (c, d), table in f.gen_tables.items():
        acc = {}
        for i in diagonal:
            for k, v in table[i].items():
                add_term(acc, k, v)
        top = {}
        if c == d:
            top[0] = ONE
            for i in diagonal:
                add_term(acc, i, -ONE)
        top.update((1 + k, v / lam) for k, v in acc.items())
        # the f block is f's rows shifted by 1
        ext_tables[(c, d)] = [top] + [
            {1 + j: v for j, v in row.items()} for row in table]
    return CorepFamily(qg, 1 + f.size, ext_tables, name="[[eps,chi],[0,f]]")


# ---------------------------------------------------------------------------
# the braiding Lam, M^2 sparse rows: rows = upper pair (I,J), cols = lower

def fixed_vectors(lam):
    """Basis of ker(Lam - 1) as sparse vectors {column: value}."""
    rows = [dict(row) for row in lam]
    for i, row in enumerate(rows):
        add_term(row, i, -ONE)
    return kernel_basis(rows, len(rows))


def by_lower_pair(lam, m):
    """Lam^{kl}_{ij} by lower pair: column i*M + j -> [(k, l, value), ...]."""
    cols = {}
    for row, entries in enumerate(lam):
        for col, v in entries.items():
            cols.setdefault(col, []).append(divmod(row, m) + (v,))
    return cols


# ---------------------------------------------------------------------------
# Lam and C off the adjoint matrix M_i^l = t_ac kappa(t_db), i = (a, b),
# l = (c, d) (Woronowicz 1989): Lam^{kl}_{ij} = f^k_j(M_i^l) and
# C_{ij}^k = chi_j(M_i^k), both entries of the extended family on M

def adjoint_values(ext, ext_kappa):
    """[ext(M_i^l)] by i*M + l, each one product ext(t_ac) (ext kappa)(t_db)
    of generator tables; ext_kappa is ext.compose_antipode()."""
    n = ext.qg.N
    pairs = [unflatten_pair(i, n) for i in range(n * n)]
    return [mat_mul(ext.gen_tables[(a, c)], ext_kappa.gen_tables[(d, b)])
            for a, b in pairs for c, d in pairs]


def make_lambda(adjoint):
    """Braiding matrix Lam^{kl}_{ij} = f^k_j(M_i^l), as M^2 sparse rows
    (row k*M + l, column i*M + j), read off rows 1.. of ext(M_i^l); the
    braid relation and the exchange laws are certified by the check suites.
    """
    m = len(adjoint[0]) - 1
    lam = [{} for _ in range(m * m)]
    for il, value in enumerate(adjoint):
        i, l = divmod(il, m)
        for k, row in enumerate(value[1:]):
            for j, v in row.items():
                lam[k * m + l][i * m + j - 1] = v
    return [dict(sorted(row.items())) for row in lam]


def make_C(adjoint):
    """Structure constants {(i, j, k): C_{ij}^k = chi_j(M_i^k)} in sorted
    order, read off row 0 of ext(M_i^k).  They expand the bracket
    [chi_i, chi_j] = chi_i chi_j - Lam^{kl}_{ij} chi_k chi_l = C_{ij}^k chi_k,
    which the check suites verify on a degree-bounded span.
    """
    m = len(adjoint[0]) - 1
    table = {}
    for ik, value in enumerate(adjoint):
        i, k = divmod(ik, m)
        table.update(((i, j - 1, k), v) for j, v in value[0].items() if j)
    return dict(sorted(table.items()))


# ---------------------------------------------------------------------------
# convolution machinery

def convolve(f, a):
    """(f * a) = (id (x) f) o phi(a)."""
    fam = f.family
    line, other = (f.col, f.row) if fam.reversed else (f.row, f.col)
    out = {}
    for w0, c in a.terms.items():
        e = _convolve_word(fam, fam._conv_cache, line, w0).get(other)
        if e is not None:
            add_scaled(out, e.terms, c)
    return AlgebraElement(fam.qg.rs, out)


def _convolve_word(fam, cache, line, word):
    """One line of F * word, the sum over phi(word) of w1 F(w2): row line,
    {c: F^line_c * word}, of a plain family, and column line,
    {r: F^r_line * word}, of a reversed one.  Keys ascend, values are
    AlgebraElements, and lines are memoized in cache by (line, word); a
    line is shared: read it, never mutate it.

    No coproduct is taken.  One letter is read off the generator tables
    (_letter_line).  F is a corepresentation and phi an algebra map, so
    the line of a longer word w t is built from the line of its prefix
    and the lines of its last letter:
    F^r_c * (w t) = sum over k of (F^r_k * w)(F^k_c * t), and
    (F^k_c * w)(F^r_k * t) for a reversed family; either way entry x of
    the line of w t is the sum over k of line(w)[k] line_k(t)[x].
    FormSpace.pass_algebra_through reads f's rows here, with its own memo.
    """
    out = cache.get((line, word))
    if out is not None:
        return out
    rs = fam.qg.rs
    if not word:
        return {line: AlgebraElement.one(rs)}
    # the longest memoized prefix, then one letter at a time: a loop, not
    # a recursion, so that a long word cannot exhaust the stack
    n = len(word) - 1
    while n > 1 and (line, word[:n]) not in cache:
        n -= 1
    if n > 1:
        out = cache[(line, word[:n])]
    else:
        n, out = 1, _letter_line(fam, cache, line, word[0])
    for i in range(n, len(word)):
        terms = {}
        for k, e in out.items():
            for x, v in _letter_line(fam, cache, k, word[i]).items():
                rs.add_product(terms.setdefault(x, {}), e.terms, v.terms)
        out = _line(rs, terms)
        cache[(line, word[:i + 1])] = out
    return out


def _letter_line(fam, cache, line, letter):
    """The line of F * t_ab, memoized in cache by (line, (t_ab,)):
    F * t_ab = sum over g of t_ag F(t_gb), each t_ag reduced by A's rules
    (at N=1, t[1,1] -> 1)."""
    key = (line, (letter,))
    out = cache.get(key)
    if out is None:
        rs = fam.qg.rs
        a, b = letter
        terms = {}
        for g in range(1, fam.qg.N + 1):
            red = rs.reduce_word(((a, g),))
            table = fam.gen_tables[(g, b)]
            if fam.reversed:
                values = [(r, row[line]) for r, row in enumerate(table)
                          if line in row]
            else:
                values = table[line].items()
            for x, v in values:
                add_scaled(terms.setdefault(x, {}), red, v)
        out = cache[key] = _line(rs, terms)
    return out


def _line(rs, terms):
    return {x: AlgebraElement(rs, terms[x]) for x in sorted(terms)
            if terms[x]}


class ConvCombo:
    """Formal sum of convolution products f g of two functionals, with
    (f g)(w) = sum over the coproduct terms of w of f(w1) g(w2)."""

    def __init__(self, qg, terms):
        self.qg = qg
        self.terms = [(c, tuple(fs)) for c, fs in terms if not c.is_zero()]

    def on_word(self, word):
        total = ZERO
        for (w1, w2), cc in self.qg.coproduct_word(word).items():
            for c, (f, g) in self.terms:
                v1 = f.on_word(w1)
                if not v1.is_zero():
                    v2 = g.on_word(w2)
                    if not v2.is_zero():
                        total = total + cc * c * v1 * v2
        return total


def q_lie_bracket(i, j, chi, lam):
    """[chi_i, chi_j] = chi_i chi_j - Lam^{kl}_{ij} chi_k chi_l as a
    ConvCombo, over the list chi of the vector fields."""
    m = len(chi)
    terms = [(ONE, (chi[i], chi[j]))]
    col = i * m + j
    for k in range(m):
        for l in range(m):
            coef = lam[k * m + l].get(col)
            if coef is not None:
                terms.append((-coef, (chi[k], chi[l])))
    return ConvCombo(chi[i].family.qg, terms)


# ---------------------------------------------------------------------------
# assembled dual structure

class DualStructure:
    """All functional families of one calculus, built from the same R."""

    def __init__(self, qg):
        self.qg = qg
        self.lam = qlambda()
        self.N = qg.N
        self.M = qg.N * qg.N
        self.lplus = make_L(qg, +1)
        self.lminus = make_L(qg, -1)
        self.f = make_f(qg, self.lplus, self.lminus)
        # the extended family [[eps, chi], [0, f]] and its chi entries
        self.ext = make_chi(self.f, self.lam)
        self.chi = [Functional(self.ext, 0, 1 + i,
                               "chi[%d,%d]" % unflatten_pair(i, self.N))
                    for i in range(self.M)]
        adjoint = adjoint_values(self.ext, self.ext.compose_antipode())
        self.lam_matrix = make_lambda(adjoint)
        self.C = make_C(adjoint)
        self.eps = scalar_functional(
            qg, {g: ONE for g in qg.rs.gens if g[0] == g[1]}, "eps")
        # the one-dimensional sector functionals f00 by SECTORS name: the
        # multiplicative trace character eps + lam * chi_(N,N), and eps
        idx = flatten_pair(self.N, self.N, self.N)
        vals = {}
        for g in qg.rs.gens:
            v = qg.counit_word((g,)) + \
                self.lam * self.chi[idx].on_generator(*g)
            if not v.is_zero():
                vals[g] = v
        trace = scalar_functional(qg, vals, "trace-f")
        validate_scalar_functional(trace)
        self.sectors = dict(zip(SECTORS, (trace, self.eps)))

    def all_functionals(self):
        out = [self.eps]
        for i in range(self.N):
            for j in range(self.N):
                out.append(self.lplus.entry(i, j))
                out.append(self.lminus.entry(i, j))
        for i in range(self.M):
            out.append(self.chi[i])
            for j in range(self.M):
                out.append(self.f.entry(i, j))
        return out
