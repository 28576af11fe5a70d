"""The bimodule of one-forms and its exterior algebra.

One-forms carry left algebra coefficients; commuting an algebra element
past a basis form expands through the characteristic functionals,
omega_i a = sum_j (f^i_j * a) omega_j, read letter by letter off f's
generator tables with no coproduct of a's words.  The wedge quotient
divides out the fixed subspace of the braiding: its grade-2 rules,
certified on their overlaps, give exact normal forms in every grade.
"""

from __future__ import annotations

from math import isqrt

from .scalars import Scalar, ONE, check_values_at
from .linalg import (rref_sparse, rank_at_specializations, add_term,
                     add_scaled, sparse_diff, transpose, LinearCombination)
from .algebra import AlgebraElement, RewriteSystem, render_element
from .functionals import flatten_pair, fixed_vectors, _convolve_word


class FormsError(Exception):
    pass


class GradeCapError(FormsError):
    """A wedge product or differential left the table's grade range."""


class OneFormBasis:
    """The invariant one-form basis omega_a^b, flattened row-major."""

    def __init__(self, n):
        self.N = n
        self.M = n * n
        self.pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        # the canonical trace element is the sum of the diagonal forms
        self.diagonal = [flatten_pair(a, a, n) for a in range(1, n + 1)]
        # complement directions: every basis form except omega_(N,N)
        self.removed_index = flatten_pair(n, n, n)
        self.complement = [i for i in range(self.M) if i != self.removed_index]

    def label(self, i):
        return "w[%d,%d]" % self.pairs[i]

    def render_word(self, word):
        if not word:
            return "1"
        return " /\\ ".join(self.label(i) for i in word)

    def index(self, a, b):
        if not (1 <= a <= self.N and 1 <= b <= self.N):
            raise FormsError("unknown one-form w[%d,%d] for N=%d" % (a, b, self.N))
        return flatten_pair(a, b, self.N)


SPECIALIZATION_POINTS = (2, 3, 5)


class WedgeTable:
    """The exterior algebra as a rewrite system of its grade-2 rules.

    The quadratic relations are the fixed vectors of the braiding.  One
    elimination over the grade-2 words, largest first, makes each pivot
    word a leading word that rewrites to smaller words.  For quadratic
    rules every overlap has degree 3, and once those overlaps resolve the
    normal words are a basis in every grade (Bergman 1978, the diamond
    lemma; Polishchuk-Positselski 2005, ch. 4), so a table whose overlaps
    do not resolve is refused, and every grade is reached by rewriting.
    """

    def __init__(self, lam, max_grade):
        if max_grade < 2:
            raise FormsError("wedge table needs max_grade >= 2")
        m = self.M = isqrt(len(lam))
        self.max_grade = max_grade
        # the quadratic wedge relations: fixed vectors of the braiding acting
        # on coefficient rows, i.e. the kernel of (transposed Lam) - id
        self.relation_vectors = fixed_vectors(transpose(lam, len(lam)))
        rows = [{divmod(c, m): v for c, v in vec.items()}
                for vec in self.relation_vectors]
        basis_rows = []
        self.rs = RewriteSystem.from_relations(range(m), rows, basis_rows)
        rank = len(self.rs.rules)
        numeric = rank_at_specializations(self.relation_vectors, range(m * m),
                                          SPECIALIZATION_POINTS, basis_rows)
        self.spec_ranks = {2: {"symbolic": rank, "numeric": numeric}}
        self.warnings = ["grade 2 relation rank drops from %d to %d at q0=%s"
                         % (rank, rk, q0)
                         for q0, rk in numeric.items() if rk != rank]
        # a coefficient with a pole at a point raises PoleError
        check_values_at((c for body in self.rs.rules.values()
                         for c in body.values()), SPECIALIZATION_POINTS)
        overlap = self.rs.first_ambiguity()
        if overlap is not None:
            raise FormsError("wedge rules do not resolve the overlap %s"
                             % OneFormBasis(isqrt(m)).render_word(overlap))
        self.basis = {k: [] for k in range(max_grade + 1)}
        for w in self.rs.normal_words(max_grade):
            self.basis[len(w)].append(w)

    def dimension(self, k):
        if k > self.max_grade:
            raise GradeCapError("grade %d beyond table cap %d" % (k, self.max_grade))
        return len(self.basis[k])

    def dimensions(self):
        return [len(self.basis[k]) for k in range(self.max_grade + 1)]

    def reduce_word(self, word):
        """Expand a wedge word over the normal words of its grade.

        The result is shared with the rewrite memo: read it, never mutate it.
        """
        if len(word) > self.max_grade:
            raise GradeCapError("grade %d beyond table cap %d"
                                % (len(word), self.max_grade))
        return self.rs.reduce_word(word)

    def first_empty_grade(self):
        """Smallest grade with no normal word, or None up to grade M + 1.

        Grade M + 1 is where the classical exterior algebra on M letters
        ends.  Normal words are counted by their last letter, so no grade
        is listed, past the table cap or within it.
        """
        rules = self.rs.rules
        counts = [1] * self.M   # the normal words of grade 1
        for k in range(1, self.M + 2):
            if not any(counts):
                return k
            counts = [sum(n for a, n in enumerate(counts)
                          if (a, b) not in rules) for b in range(self.M)]
        return None


class FormSpace:
    """Bundles the basis, wedge table and commutation functionals."""

    def __init__(self, qg, f, lam, max_grade=4):
        self.qg = qg
        self.basis = OneFormBasis(qg.N)
        self.f = f
        self.table = WedgeTable(lam, max_grade)
        self.M = self.basis.M
        self._pass_cache = {}

    def zero(self):
        return FormElement(self, {})

    def from_algebra(self, a):
        return FormElement(self, {(): a} if a else {})

    def one_form(self, i, coeff=None):
        c = coeff if coeff is not None else AlgebraElement.one(self.qg.rs)
        return FormElement(self, {(i,): c} if c else {})

    def _pass_letter_word(self, letter, mon):
        """omega_letter times a monomial: the map j -> f^letter_j * mon,
        j ascending, so that omega_letter mon = sum_j (f^letter_j * mon)
        omega_j; memoized in _pass_cache, so shared: read it, never
        mutate it.

        No coproduct is taken: this is row letter of f * mon, which
        functionals._convolve_word reads off f's generator tables.  For a
        word w t, when omega_letter w = sum_j c_j omega_j, the coefficient
        of omega_k in omega_letter (w t) is sum_j c_j (f^j_k * t).
        """
        return _convolve_word(self.f, self._pass_cache, letter, mon)

    def pass_algebra_through(self, word, a):
        """Expand word * a as sum coeff_w' * w' using the commutation law."""
        segments = {(): a}
        for letter in reversed(word):
            nxt = {}
            for suffix, coeff in segments.items():
                for mon, sc in coeff.terms.items():
                    for j, c in self._pass_letter_word(letter, mon).items():
                        add_term(nxt, (j,) + suffix, c.scalar_mul(sc))
            segments = nxt
        return segments


def _accumulate(out, reduced, c, a):
    """out[w] += s * (c * a) for each term s * w of reduced, the product
    taken once; out maps wedge words to plain term dicts (see _form)."""
    if reduced:
        terms = (c * a).terms
        for w, s in reduced.items():
            acc = out.get(w)
            if acc is None:
                out[w] = acc = {}
            if s.is_one():
                for mon, v in terms.items():
                    add_term(acc, mon, v)
            else:
                add_scaled(acc, terms, s)


def _form(space, out):
    """The form whose coefficients _accumulate gathered in out."""
    rs = space.qg.rs
    return FormElement(space, {w: AlgebraElement(rs, terms)
                               for w, terms in out.items() if terms})


class FormElement(LinearCombination):
    """Graded element: terms maps reduced wedge words (tuples of one-form
    indices) to left algebra coefficients."""

    __slots__ = ("space",)

    _scale = staticmethod(AlgebraElement.scalar_mul)

    def __init__(self, space, terms):
        self.space = space
        self.terms = terms
        self._hash = None

    def _with(self, terms):
        return FormElement(self.space, terms)

    def grades(self):
        return sorted({len(w) for w in self.terms})

    def algebra_mul_left(self, a):
        out = {}
        for w, c in self.terms.items():
            add_term(out, w, a * c)
        return FormElement(self.space, out)

    def algebra_mul_right(self, a):
        """Commute a past every wedge word; exact bimodule action."""
        space = self.space
        out = {}
        for w, c in self.terms.items():
            if not w:
                _accumulate(out, {w: ONE}, c, a)
                continue
            for w2, passed in space.pass_algebra_through(w, a).items():
                _accumulate(out, space.table.reduce_word(w2), c, passed)
        return _form(space, out)

    def wedge(self, other):
        space = self.space
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > space.table.max_grade:
                    raise GradeCapError(
                        "wedge of grades %d and %d beyond table cap %d"
                        % (len(w1), len(w2), space.table.max_grade))
                if not w1:
                    _accumulate(out, {w2: ONE}, c1, c2)
                    continue
                for w1p, passed in space.pass_algebra_through(w1, c2).items():
                    _accumulate(out, space.table.reduce_word(w1p + w2),
                                c1, passed)
        return _form(space, out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: (len(wc[0]), wc[0]))

    def render(self):
        if not self.terms:
            return "0"
        render_word = self.space.basis.render_word
        parts = []
        for w, c in self.sorted_terms():
            cs = render_element(c)
            if not w:
                parts.append("(%s)" % cs if _needs_parens(cs) else cs)
                continue
            wstr = render_word(w)
            if cs == "1":
                parts.append(wstr)
            elif cs == "-1":
                parts.append("-" + wstr)
            else:
                parts.append(("(%s)*" % cs if _needs_parens(cs) else cs + "*") + wstr)
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.render()

    __repr__ = __str__


def _needs_parens(s):
    return ("+" in s[1:]) or ("-" in s[1:]) or ("*" in s) or ("/" in s)


def left_coaction(space, x):
    """phi_Gamma(a.w) = phi(a) (1 (x) w); basis words are left invariant.

    The image in A (x) Gamma is a dict from normal words (the left leg) to
    forms.
    """
    qg = space.qg
    out = {}
    for w, c in x.terms.items():
        for (w1, w2), sc in qg.coproduct(c).items():
            add_term(out, w1, FormElement(space, {w: AlgebraElement(
                qg.rs, {w2: sc})}))
    return out


def z_form_comparison(lam, inverse, relation_vectors):
    """Compare the alternative quadratic-relation rule with the braid kernel.

    The alternative rule generates relations e_{ij} + Z^{kl}_{ij} e_{kl} with
    Z = (Lam - Lam^-1)/(q^2 - q^-2); returns dimensions and whether the two
    relation subspaces agree (they are expected to differ off the series the
    rule was stated for, and the discrepancy is reported, not hidden).
    Lam and its inverse are sparse rows, and relation_vectors is the wedge
    table's basis of the braid kernel.
    """
    mm = len(lam)
    q2 = Scalar.q_power(2)
    denom = q2 - (ONE / q2)
    # each relation scaled by the denominator: the same line, no division
    rows_z = transpose([sparse_diff(a, b) for a, b in zip(lam, inverse)], mm)
    for i, row in enumerate(rows_z):
        add_term(row, i, denom)
    # largest word first, as RewriteSystem.from_relations orders the same
    # space; only ranks leave, and they do not depend on the order
    cols = range(mm - 1, -1, -1)
    z_pivots, zp = rref_sparse(rows_z, cols)
    # the rule's pivot rows span its relations, so they stand in for them
    _, bp = rref_sparse(list(z_pivots.values()) + relation_vectors, cols)
    kernel_rank = len(relation_vectors)
    return {
        "z_rank": len(zp),
        "kernel_rank": kernel_rank,
        "union_rank": len(bp),
        "equal": len(zp) == kernel_rank == len(bp),
    }
