"""The FRT quantum group as a presented algebra.

Generators t^a_b (stored as 1-based pairs), relations derived from an
R-matrix validated as one braided matrix B = PR (the braid relation, the
Hecke relation, and R^-1 read off the latter), normal-form rewriting under
a degree-lexicographic order, and the Hopf structure maps (coproduct,
counit, antipode).
"""

from __future__ import annotations

import itertools
import operator

from .scalars import Scalar, ZERO, ONE, parse_scalar, render_scalar, qlambda
from .linalg import (mat_mul, identity, first_difference, braid_defect,
                     rref_sparse, add_term, add_scaled, LinearCombination)


class AlgebraError(Exception):
    pass


# a power's longest word: the rewrite memo keeps every prefix it reduces
MAX_POWER_LENGTH = 1000


class RMatrixError(ValueError):
    """R-matrix failed validation (YBE, Hecke, or invertibility)."""


class PresentationError(AlgebraError):
    """The derived relations are inconsistent (a unit rewrites to zero)."""


# ---------------------------------------------------------------------------
# R-matrices

class RMatrix:
    """A validated solution R^{ac}_{bd} of the quantum Yang-Baxter equation.

    Entries are indexed (a, c, b, d) with (a, c) the upper and (b, d) the
    lower index pair.  Construction checks the braided form B = PR, whose
    row (c, a) and column (b, d) hold R^{ac}_{bd}: the Yang-Baxter equation
    of R is the braid relation of B, and the A series asks for the Hecke
    relation B (B - (q - q^-1)) = 1.  That relation makes B - (q - q^-1)
    the inverse of B, so R^{-1} and the second solution R21^{-1} are read
    off it with no elimination.
    """

    def __init__(self, n, entries, series="A"):
        self.N = n
        self.series = series
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        inverse = self._validate()
        # R = PB, so (R^-1)^{ac}_{bd} = R^{ca}_{db} - (q - q^-1) d_ad d_cb
        # is the entry (a, c) -> (d, b) of B^-1
        self.inv_entries = dict(sorted(
            ((i // n + 1, i % n + 1, j % n + 1, j // n + 1), v)
            for i, row in enumerate(inverse) for j, v in row.items()))
        # second solution: (R-)^{ac}_{bd} = (R^-1)^{ca}_{db}
        self.rminus_entries = {(c, a, d, b): v
                               for (a, c, b, d), v in self.inv_entries.items()}

    def val(self, a, c, b, d):
        return self.entries.get((a, c, b, d), ZERO)

    def _validate(self):
        """Refuse R unless B passes the gates; return B^-1, certified."""
        n = self.N
        # an invertible n^2 x n^2 matrix has a nonzero entry in every row;
        # refusing fewer entries first keeps a huge N from allocating rows
        if len(self.entries) < n * n:
            raise RMatrixError("R-matrix is singular")
        if self.series not in ("A",):
            raise RMatrixError(
                "series %r is reserved and not implemented" % self.series)
        braided = [{} for _ in range(n * n)]
        for (a, c, b, d), v in self.entries.items():
            braided[(c - 1) * n + a - 1][(b - 1) * n + d - 1] = v
        defect = braid_defect(braided, n)
        if defect is not None:
            raise RMatrixError(
                "Yang-Baxter equation fails at braided entry %r -> %r"
                % tuple(tuple(k // n ** p % n + 1 for p in (2, 1, 0))
                        for k in defect))
        # B (B - (q - q^-1)) - 1 is (B - q)(B + q^-1), the Hecke condition
        inverse = [dict(row) for row in braided]
        lam = qlambda()
        for i, row in enumerate(inverse):
            add_term(row, i, -lam)
        defect = first_difference(mat_mul(braided, inverse), identity(n * n))
        if defect is not None:
            raise RMatrixError(
                "Hecke condition fails at braided entry %r -> %r"
                % tuple((k // n + 1, k % n + 1) for k in defect))
        return inverse


def load_rmatrix(text):
    """Parse the R-matrix config format (fields N, series, entry lines)."""
    n = None
    series = "A"
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "N":
            n = int(rest) if rest.strip().isdecimal() else 0
            if n < 1:
                raise RMatrixError("N must be a positive integer on line %d: %r"
                                   % (lineno, raw))
        elif key == "series":
            series = rest.strip()
        elif key == "entry":
            fields = rest.split(None, 4)
            if len(fields) != 5:
                raise RMatrixError("bad entry line %d: %r" % (lineno, raw))
            try:
                index = tuple(int(x) for x in fields[:4])
                value = parse_scalar(fields[4])
            except (ValueError, ArithmeticError) as err:
                raise RMatrixError("bad entry line %d: %r (%s: %s)"
                                   % (lineno, raw, type(err).__name__, err))
            if index in entries:
                raise RMatrixError("duplicate entry %d %d %d %d on line %d"
                                   % (index + (lineno,)))
            entries[index] = value
        else:
            raise RMatrixError("unknown config key %r on line %d" % (key, lineno))
    if n is None:
        raise RMatrixError("config is missing the field N")
    for (a, c, b, d) in entries:
        for x in (a, c, b, d):
            if not 1 <= x <= n:
                raise RMatrixError("entry index %r out of range 1..%d"
                                   % ((a, c, b, d), n))
    return RMatrix(n, entries, series=series)


def dump_rmatrix(r):
    """Canonical text form; load(dump(R)) reproduces R bit-exactly."""
    lines = ["N %d" % r.N, "series %s" % r.series]
    for key in sorted(r.entries):
        lines.append("entry %d %d %d %d %s"
                     % (key + (render_scalar(r.entries[key]),)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# words and the rewrite system

class RewriteSystem:
    """Oriented rewriting rules over an ordered alphabet of letters.

    Each rule maps a leading word to a combination of words that are
    smaller in the degree-lexicographic order, so rewriting terminates.
    Once every overlap of two leading words resolves (first_ambiguity is
    None), the normal words are a basis of the quotient in every degree
    (Bergman 1978, the diamond lemma).  The wedge table certifies its
    grade-2 rules this way.  The RTT rules of A are not certified: they
    resolve at N=1 and N=2, and at N=3 and N=4 the determinant rule
    overlaps a quadratic rule without resolving (ROADMAP item 2).
    """

    def __init__(self, gens, rules):
        self.gens = list(gens)
        self.rank = {g: i for i, g in enumerate(self.gens)}
        self.rules = rules
        self.lhs_lengths = sorted({len(w) for w in rules}, reverse=True)
        self._cache = {(): {(): ONE}}

    @classmethod
    def from_relations(cls, gens, relations, sources=None):
        """The rules of the span of relations (dicts word -> Scalar).

        One elimination over the relations' words, largest first, makes
        each pivot row lead + rest the rule lead -> -rest.  sources is
        passed to rref_sparse, which lists in it the relations that made
        the rules.
        """
        gens = list(gens)
        words = sorted({w for rel in relations for w in rel},
                       key=cls(gens, {}).word_key, reverse=True)
        pivot_rows, _ = rref_sparse(relations, words, sources)
        return cls(gens, {lead: {w: -c for w, c in row.items() if w != lead}
                          for lead, row in pivot_rows.items()})

    def word_key(self, w):
        return (len(w), tuple(self.rank[g] for g in w))

    def reduce_word(self, word):
        """Normal form of a single word, as a dict word -> Scalar; memoized,
        so shared: read it, never mutate it.

        A word is its prefix's normal form times the last letter, where the
        only redexes end at that letter; the longest one is rewritten.  The
        normal forms this needs first wait on a stack, not in a recursion,
        so that a long word cannot exhaust the interpreter's stack.
        """
        cache = self._cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        todo = [word]
        while todo:
            w = todo.pop()
            if w in cache:
                continue
            prefix = cache.get(w[:-1])
            if prefix is None:
                todo += [w, w[:-1]]
                continue
            result, missing = {}, []
            for u, c in prefix.items():
                x = u + w[-1:]
                hit = self._rule_ending(x)
                if hit is None:
                    add_term(result, x, c)
                    continue
                ln, rhs = hit
                for rw, rc in rhs.items():
                    y = x[:-ln] + rw
                    if y in cache:
                        add_scaled(result, cache[y], c * rc)
                    else:
                        missing.append(y)
            if missing:
                todo += [w] + missing
            else:
                cache[w] = result
        return cache[word]

    def _rule_ending(self, w):
        """(length, right-hand side) of the longest rule whose leading word
        ends w, or None."""
        for ln in self.lhs_lengths:
            rhs = self.rules.get(w[-ln:]) if ln <= len(w) else None
            if rhs is not None:
                return ln, rhs
        return None

    def first_ambiguity(self):
        """The first overlap word whose two one-step rewrites reduce to
        different normal forms, or None if every overlap resolves.

        An overlap joins leading words u and v where a proper suffix of u
        is a prefix of v; leading words are taken in word order.
        """
        leads = sorted(self.rules, key=self.word_key)
        for u, v in itertools.product(leads, repeat=2):
            for k in range(1, min(len(u) - 1, len(v)) + 1):
                if u[-k:] != v[:k]:
                    continue
                tail, head = v[k:], u[:-k]
                left = self.reduce_terms(
                    {w + tail: c for w, c in self.rules[u].items()})
                right = self.reduce_terms(
                    {head + w: c for w, c in self.rules[v].items()})
                if left != right:
                    return u + tail
        return None

    def add_product(self, acc, left, right):
        """acc += left * right in place, for term dicts over normal words;
        each term pair's normal form is added straight into acc."""
        reduce_word = self.reduce_word
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                w = w1 + w2
                red = reduce_word(w)
                if w in red:
                    # a normal word reduces to itself with coefficient one
                    add_term(acc, w, c1 * c2)
                else:
                    add_scaled(acc, red, c1 * c2)

    def reduce_terms(self, terms):
        out = {}
        for w, c in terms.items():
            if c:
                add_scaled(out, self.reduce_word(w), c)
        return out

    def normal_words(self, max_degree):
        """All normal-form monomials of degree <= max_degree, ordered.
        Every prefix of a normal word is normal, so the first empty degree
        ends the search."""
        words = [()]
        layer = [()]
        for _ in range(max_degree):
            layer = [w + (g,) for w in layer for g in self.gens
                     if self._rule_ending(w + (g,)) is None]
            if not layer:
                break
            words.extend(layer)
        words.sort(key=self.word_key)
        return words


def quantum_minor_terms(rows, cols):
    """The quantum minor over the given rows and columns as raw terms: the
    sum over permutations s of (-q)^inv(s) t[r1,c_s1]...t[rk,c_sk].  Over
    all rows and columns it is the quantum determinant."""
    terms = {}
    minus_q = Scalar.q_power(1, -1)
    for perm in itertools.permutations(cols):
        inv = sum(1 for x, y in itertools.combinations(perm, 2) if x > y)
        terms[tuple(zip(rows, perm))] = minus_q ** inv
    return terms


def derive_relations(r, sl_mode=True):
    """Oriented rewrite system for R T2 T1 = T1 T2 R (plus det = 1).

    An elimination cancels whole words, not subwords, so det - 1 is first
    reduced by the quadratic rules; its largest normal word then leads
    the determinant rule.
    """
    rng = range(1, r.N + 1)
    gens = list(itertools.product(rng, repeat=2))
    rows = []
    for a, b, c, d in itertools.product(rng, repeat=4):
        terms = {}
        for e, f in itertools.product(rng, repeat=2):
            add_term(terms, ((f, d), (e, c)), r.val(a, b, e, f))
            add_term(terms, ((a, e), (b, f)), -r.val(e, f, c, d))
        rows.append(terms)
    rs = RewriteSystem.from_relations(gens, rows)
    if sl_mode:
        det = quantum_minor_terms(rng, rng)
        add_term(det, (), -ONE)
        rows.append(rs.reduce_terms(det))
        rs = RewriteSystem.from_relations(gens, rows)
    if () in rs.rules:
        raise PresentationError(
            "inconsistent relations: a nonzero constant reduces to zero")
    return rs


# ---------------------------------------------------------------------------
# algebra elements

class AlgebraElement(LinearCombination):
    """Normal-form noncommutative polynomial in the generators: terms maps
    normal words to Scalars."""

    __slots__ = ("rs",)

    _scale = staticmethod(operator.mul)

    def __init__(self, rs, terms):
        self.rs = rs
        self.terms = terms
        self._hash = None

    def _with(self, terms):
        return AlgebraElement(self.rs, terms)

    @classmethod
    def zero(cls, rs):
        return cls(rs, {})

    @classmethod
    def one(cls, rs):
        return cls(rs, {(): ONE})

    @classmethod
    def from_scalar(cls, rs, s):
        return cls(rs, {(): s} if s else {})

    @classmethod
    def generator(cls, rs, a, b):
        if (a, b) not in rs.rank:
            raise AlgebraError("unknown generator t[%d,%d] for N=%d"
                               % (a, b, rs.gens[-1][0]))
        return cls.from_word(rs, ((a, b),))

    @classmethod
    def from_word(cls, rs, word):
        return cls(rs, rs.reduce_terms({tuple(word): ONE}))

    def __mul__(self, other):
        out = {}
        self.rs.add_product(out, self.terms, other.terms)
        return AlgebraElement(self.rs, out)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise AlgebraError("nonnegative integer power expected")
        if k * max(map(len, self.terms), default=0) > MAX_POWER_LENGTH:
            raise AlgebraError("power beyond %d letters" % MAX_POWER_LENGTH)
        out = AlgebraElement.one(self.rs)
        for _ in range(k):
            out = out * self
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: self.rs.word_key(wc[0]))

    def __str__(self):
        return render_element(self)

    __repr__ = __str__


def render_word(word):
    if not word:
        return "1"
    return "*".join("t[%d,%d]" % g for g in word)


def _coeff_prefix(c):
    s = render_scalar(c)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    if ("+" in s[1:] or "-" in s[1:] or "/" in s) and not s.startswith("("):
        s = "(%s)" % s
    return s + "*"


def render_element(e):
    if not e.terms:
        return "0"
    parts = []
    for w, c in e.sorted_terms():
        if not w:
            parts.append(render_scalar(c))
        else:
            parts.append(_coeff_prefix(c) + render_word(w))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# the Hopf structure

class QuantumGroup:
    """Bundles the R-matrix, rewrite system and Hopf maps of one quantum group."""

    def __init__(self, rmatrix, sl_mode=True):
        self.R = rmatrix
        self.N = rmatrix.N
        self.rs = derive_relations(rmatrix, sl_mode=sl_mode)
        # the bialgebra is Hopf only on the unit-determinant quotient; the
        # GL-mode presentation carries no antipode
        self.antipode_table = self._minor_antipode() if sl_mode else None
        if sl_mode:
            self._check_antipode_axiom()
        self._cop_cache = {}
        self._antipode_cache = {}

    # -- coproduct ----------------------------------------------------------

    def coproduct_word(self, word):
        """Coproduct of a monomial, as a dict from pairs of normal words to
        Scalars; memoized, so shared: read it, never mutate it.

        phi(w t_ab) = sum over g of phi(w) (t_ag (x) t_gb), each leg
        renormalized.  Its callers take it of words up to the degree
        bound: the hopf and bicovariance suites, ConvCombo.on_word,
        adjoint and, through coproduct, left_coaction.  Convolution and
        the commutation of forms with A read generator tables instead
        (functionals._convolve_word, FormSpace.pass_algebra_through).
        """
        cached = self._cop_cache.get(word)
        if cached is not None:
            return cached
        if word:
            reduce_word = self.rs.reduce_word
            a, b = word[-1]
            out = {}
            for (w1, w2), c in self.coproduct_word(word[:-1]).items():
                for g in range(1, self.N + 1):
                    right = reduce_word(w2 + ((g, b),))
                    for u1, c1 in reduce_word(w1 + ((a, g),)).items():
                        cc = c * c1
                        for u2, c2 in right.items():
                            add_term(out, (u1, u2), cc * c2)
        else:
            out = {((), ()): ONE}
        self._cop_cache[word] = out
        return out

    def coproduct(self, elem):
        terms = {}
        for w, c in elem.terms.items():
            add_scaled(terms, self.coproduct_word(w), c)
        return terms

    # -- counit -------------------------------------------------------------

    def counit_word(self, word):
        for (a, b) in word:
            if a != b:
                return ZERO
        return ONE

    def counit(self, elem):
        total = ZERO
        for w, c in elem.terms.items():
            if self.counit_word(w).is_one():
                total = total + c
        return total

    # -- antipode -----------------------------------------------------------

    def _minor_antipode(self):
        """kappa(t[i,j]) = (-q)^(i-j) det_q(T without row j and column i)
        (Faddeev-Reshetikhin-Takhtajan 1990; Klimyk-Schmuedgen 1997, 9.2).
        Like the determinant rule, the formula fits the standard
        orientation of R; _check_antipode_axiom refuses any other."""
        rng = range(1, self.N + 1)
        minus_q = Scalar.q_power(1, -1)
        table = {}
        for i in rng:
            for j in rng:
                minor = quantum_minor_terms([r for r in rng if r != j],
                                            [c for c in rng if c != i])
                table[(i, j)] = AlgebraElement(
                    self.rs, self.rs.reduce_terms(minor)).scalar_mul(
                        minus_q ** (i - j))
        return table

    def _check_antipode_axiom(self):
        """Certify kappa(T) as a two-sided inverse of T in M_N(A):
        sum_g kappa(t_ag) t_gb = delta_ab = sum_g t_ag kappa(t_gb).  An
        inverse in a ring is unique, so no other table can be an antipode."""
        rng = range(1, self.N + 1)
        kappa = self.antipode_table
        one = AlgebraElement.one(self.rs)
        zero = AlgebraElement.zero(self.rs)
        for a in rng:
            for b in rng:
                left = right = zero
                for g in rng:
                    left = left + kappa[(a, g)] * self.generator(g, b)
                    right = right + self.generator(a, g) * kappa[(g, b)]
                expect = one if a == b else zero
                if left != expect or right != expect:
                    raise PresentationError(
                        "antipode axiom fails on generator t[%d,%d]" % (a, b))

    def antipode_word(self, word):
        if self.antipode_table is None:
            raise AlgebraError("no antipode without the determinant relation")
        cached = self._antipode_cache.get(word)
        if cached is not None:
            return cached
        out = AlgebraElement.one(self.rs)
        for g in reversed(word):
            out = out * self.antipode_table[g]
        self._antipode_cache[word] = out
        return out

    def antipode(self, elem):
        terms = {}
        for w, c in elem.terms.items():
            add_scaled(terms, self.antipode_word(w).terms, c)
        return AlgebraElement(self.rs, terms)

    # -- adjoint ------------------------------------------------------------

    def adjoint(self, elem):
        """ad(a): the middle coproduct leg tensor antipode(first) * third,
        as a dict from pairs of normal words to Scalars.  The triple
        coproduct is (phi (x) id) phi."""
        out = {}
        for (w12, w3), c in self.coproduct(elem).items():
            third = AlgebraElement.from_word(self.rs, w3)
            for (w1, w2), c12 in self.coproduct_word(w12).items():
                right = self.antipode_word(w1) * third
                for u, cu in right.terms.items():
                    add_term(out, (w2, u), c * c12 * cu)
        return out

    # -- helpers ------------------------------------------------------------

    def quantum_determinant(self):
        rng = range(1, self.N + 1)
        return AlgebraElement(self.rs,
                              self.rs.reduce_terms(quantum_minor_terms(rng, rng)))

    def generator(self, a, b):
        return AlgebraElement.generator(self.rs, a, b)
