"""Named verification suites producing check reports.

Each suite sweeps exact identities over a degree-bounded spanning set of
normal monomials (and basis forms where relevant).  Heavy identities are
evaluated through cached per-monomial family matrices and sparse
contractions.

A law is one CheckReport.law call, mostly on a generator that yields one
outcome per instance: None where the identity holds, SKIPPED where it is
not evaluated, a witness string where it fails.  The witness is the first
failing instance, and no instance past it is evaluated.  Laws sharing one
sweep fill lists of outcomes instead, each up to its own first witness.
"""

from __future__ import annotations

import random

from .scalars import ZERO, ONE
from .linalg import (add_term, sparse_diff, mat_inverse, transpose,
                     first_difference, braid_defect, ValueNumbers)
from .algebra import AlgebraElement, render_element, render_word
from .functionals import (convolve, unflatten_pair, fixed_vectors,
                          by_lower_pair)
from .forms import left_coaction, z_form_comparison
from .calculus import CheckReport, SKIPPED


def _open(outcomes):
    """Whether a joint sweep's outcomes for a law hold no witness yet."""
    return not outcomes or outcomes[-1] is None


# ---------------------------------------------------------------------------
# hopf suite

def hopf_suite(calc, degree=None):
    qg = calc.qg
    rs = qg.rs
    degree = degree if degree is not None else calc.degree_bound
    report = CheckReport("hopf", degree)
    words = rs.normal_words(degree)

    def coassociativity():
        for w in words:
            left, right = {}, {}
            for (w1, w2), c in qg.coproduct_word(w).items():
                for (u1, u2), cc in qg.coproduct_word(w1).items():
                    add_term(left, (u1, u2, w2), c * cc)
                for (u1, u2), cc in qg.coproduct_word(w2).items():
                    add_term(right, (w1, u1, u2), c * cc)
            yield None if left == right else render_word(w)

    report.law("coassociativity",
               "(phi x id) phi = (id x phi) phi on monomials", coassociativity())

    def counit():
        for w in words:
            elem = AlgebraElement.from_word(rs, w).terms
            left, right = {}, {}
            for (w1, w2), c in qg.coproduct_word(w).items():
                if qg.counit_word(w1).is_one():
                    add_term(left, w2, c)
                if qg.counit_word(w2).is_one():
                    add_term(right, w1, c)
            yield None if left == elem == right else render_word(w)

    report.law("counit", "(eps x id) phi = id = (id x eps) phi", counit())

    def antipode():
        for w in words:
            target = AlgebraElement.from_scalar(rs, qg.counit_word(w))
            left = right = AlgebraElement.zero(rs)
            for (w1, w2), c in qg.coproduct_word(w).items():
                left = left + (qg.antipode_word(w1) *
                               AlgebraElement.from_word(rs, w2)).scalar_mul(c)
                right = right + (AlgebraElement.from_word(rs, w1) *
                                 qg.antipode_word(w2)).scalar_mul(c)
            yield None if left == target == right else render_word(w)

    report.law("antipode", "m(kappa x id) phi = eps 1 = m(id x kappa) phi",
               antipode())
    return report


# ---------------------------------------------------------------------------
# bicovariance suite

class _Tables:
    """Per-word tables of one bicovariance run, built once per word as
    sparse rows of numbers of vn, one ValueNumbers for the whole run.

    E(u) is row 0 of the extended family, (eps, chi), above the rows of f
    shifted one column, and Ebar(u) the same from the two families composed
    with the antipode.  The tables are three sums over the coproduct pairs
    (w1, w2) of a word w with coefficient c:

        P(w) = sum c E(w1) (x) E(w2), row a*S + b, column x*S + y, S = M + 1
        L(w) = sum c E(w1) Ebar(w2)   and   R(w) = sum c Ebar(w1) E(w2)
    """

    def __init__(self, dual, words):
        m = dual.M
        self.s = s = m + 1
        self.vn = vn = ValueNumbers()
        self.cop = {}
        legs = set(words)
        for w in words:
            self.cop[w] = [(w1, w2, vn.number(c)) for (w1, w2), c
                           in dual.qg.coproduct_word(w).items()]
            legs.update(u for w1, w2, _ in self.cop[w] for u in (w1, w2))
        kd_ext, kd_f = dual.ext.compose_antipode(), dual.f.compose_antipode()
        self.E, self.Ebar = {}, {}
        for u in legs:
            # E's column 0 is the counit itself, not the family's column 0,
            # so that antipode-of-chi rests on the hopf counit law alone
            top = {**dual.ext.word_matrix(u)[0], 0: dual.qg.counit_word(u)}
            self.E[u] = self._rows(top, dual.f, u)
            self.Ebar[u] = self._rows(kd_ext.word_matrix(u)[0], kd_f, u)
        # P's rows in the blocks B (the chi chi row), H, H' and K
        self.block_rows = ([0], [(1 + i) * s for i in range(m)],
                           [1 + i for i in range(m)],
                           [(1 + i) * s + 1 + j for i in range(m)
                            for j in range(m)])
        # P's columns (1 + x, 1 + y), renumbered x*M + y in the blocks
        self.inner = {(1 + x) * s + 1 + y: x * m + y
                      for x in range(m) for y in range(m)}
        self._tables = {}

    def _rows(self, top, f, u):
        num = self.vn.number
        return [{j: num(v) for j, v in top.items() if v}] + [
            {1 + j: num(v) for j, v in row.items()}
            for row in f.word_matrix(u)]

    def __getitem__(self, w):
        """(B, H, H', K, L, R) of w: L(w), R(w) and the blocks of P(w),
        B[0][i*M + j] = (chi_i chi_j)(w), H[i][j*M + k] = (f^i_j chi_k)(w),
        H'[i][k*M + j] = (chi_k f^i_j)(w), K[i*M + j][p*M + q] =
        (f^i_p f^j_q)(w)."""
        out = self._tables.get(w)
        if out is None:
            mul, add_term = self.vn.mul, self.vn.add_term
            s, E, Ebar = self.s, self.E, self.Ebar
            P = [{} for _ in range(s * s)]
            L, R = [{} for _ in range(s)], [{} for _ in range(s)]
            for w1, w2, c in self.cop[w]:
                e2 = list(enumerate(E[w2]))
                for a, row1 in enumerate(E[w1]):
                    for x, v in row1.items():
                        cv, x = mul(c, v), x * s
                        for b, row2 in e2:
                            acc = P[a * s + b]
                            for y, u in row2.items():
                                add_term(acc, x + y, mul(cv, u))
                for table, left, right in ((L, E[w1], Ebar[w2]),
                                           (R, Ebar[w1], E[w2])):
                    for acc, row1 in zip(table, left):
                        for k, v in row1.items():
                            cv = mul(c, v)
                            for y, u in right[k].items():
                                add_term(acc, y, mul(cv, u))
            inner = self.inner
            out = self._tables[w] = tuple(
                [{inner[x]: n for x, n in P[r].items() if x in inner}
                 for r in rows] for rows in self.block_rows) + (L, R)
        return out


def jacobi_coefficients(vn, c_lower, lam_cols, m):
    """The word-independent coefficients of the braided Jacobi identity

        C_{jk}^l T[i][l] - C_{ij}^l T[l][k] + Lam^{lm}_{jk} C_{il}^p T[p][m] = 0

    on the bracket table T of every word, as numbers of vn: the triples
    (i, j, k) that have a coefficient, and for each a sparse row mapping
    a*M + b to the number of the coefficient of T[a][b].  c_lower maps
    i*M + j to the pairs (k, C_{ij}^k), and lam_cols is by_lower_pair of Lam.
    """
    num, mul, add_term = vn.number, vn.mul, vn.add_term
    c_pos = {ij: [(k, num(v)) for k, v in kv] for ij, kv in c_lower.items()}
    c_neg = {ij: [(k, num(-v)) for k, v in kv] for ij, kv in c_lower.items()}
    ijks, rows = [], []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                row = {}
                for l, cc in c_pos.get(j * m + k, ()):
                    add_term(row, i * m + l, cc)
                for l, cc in c_neg.get(i * m + j, ()):
                    add_term(row, l * m + k, cc)
                for l, mm_, lv in lam_cols.get(j * m + k, ()):
                    lv = num(lv)
                    for p, cc in c_pos.get(i * m + l, ()):
                        add_term(row, p * m + mm_, mul(lv, cc))
                if row:
                    ijks.append((i, j, k))
                    rows.append(row)
    return ijks, rows


def bicovariance_suite(calc, degree=None):
    dual = calc.dual
    qg = calc.qg
    m = dual.M
    degree = degree if degree is not None else calc.degree_bound
    report = CheckReport("bicovariance", degree)
    words = qg.rs.normal_words(degree)
    tabs = _Tables(dual, words)
    lam = dual.lam_matrix
    # C_{ij}^k by lower pair, i*M + j -> [(k, value), ...], and as the
    # matrix C[k][i*M + j] of M sparse rows
    c_lower, c_rows = {}, [{} for _ in range(m)]
    for (i, j, k), v in dual.C.items():
        c_lower.setdefault(i * m + j, []).append((k, v))
        c_rows[k][i * m + j] = v

    for fn, fam in [("L+", dual.lplus), ("L-", dual.lminus), ("f", dual.f),
                    ("chi", dual.ext), ("eps", dual.eps.family)]:
        bad = fam.check_rewrite_invariance()
        report.law("well-defined-%s" % fn,
                   "family %s is rewrite-invariant on every relation" % fn,
                   [None if bad is None
                    else "rule %r entry %r" % (bad[0], bad[1:])])

    # each entry with the value it takes on 1
    units = [(dual.f.entry(i, j), ONE if i == j else ZERO)
             for i in range(m) for j in range(m)]
    units += [(chi, ZERO) for chi in dual.chi]
    units += [(dual.lplus.entry(i, j), ONE if i == j else ZERO)
              for i in range(qg.N) for j in range(qg.N)]
    report.law("unit-values", "f(1) = delta, chi(1) = 0, L(1) = delta",
               (None if e.on_unit() == v else e.label for e, v in units))

    defect = braid_defect(lam, m)
    report.law("braiding-braid-relation",
               "the braiding matrix satisfies the braid relation exactly",
               [None if defect is None else str(defect)])
    try:
        lam_inv, singular = mat_inverse(lam, m * m), None
    except ValueError as err:
        lam_inv, singular = None, str(err)
    report.law("braiding-invertible", "the braiding matrix is invertible",
               [singular])

    # the braiding at q0 = 1 is the flip (a, b) (c, d) -> (b, a) (d, c);
    # only the nonzero entries are evaluated, and the witness is the first
    # (row, column) that differs
    at_one = [{j: v.evaluate_at(1) for j, v in row.items()} for row in lam]
    at_one = [{j: x for j, x in row.items() if x} for row in at_one]
    flip = first_difference(at_one, [{(i % m) * m + i // m: 1}
                                     for i in range(m * m)])
    report.law("braiding-classical-limit",
               "at q0 = 1 the braiding specializes to the flip",
               [None if flip is None else str(flip)])

    # bracket relation: chi_i chi_j - Lam^{kl}_{ij} chi_k chi_l =
    # C_{ij}^k chi_k, the bracket row T = B - B Lam = B (1 - Lam) equal to
    # chi C, with chi = row 0 of E(w) without its counit column
    vn = tabs.vn
    lam_n, c_n = vn.numbered(lam), vn.numbered(c_rows)
    one_minus_lam = vn.numbered([sparse_diff({i: ONE}, row)
                                 for i, row in enumerate(lam)])

    def bracket(w):
        return vn.sp_mul(tabs[w][0], one_minus_lam)

    def bracket_structure_constants():
        for w in words:
            chi = [{j - 1: n for j, n in tabs.E[w][0].items() if j}]
            bad = first_difference(bracket(w), vn.sp_mul(chi, c_n))
            yield None if bad is None else "(i,j)=%r on %s" % (
                tuple(unflatten_pair(i, qg.N) for i in divmod(bad[1], m)),
                render_word(w))

    report.law("bracket-structure-constants",
               "the vector-field bracket expands over the structure constants",
               bracket_structure_constants())

    # the exchange laws, one identity of sparse products per word, with
    # K, H and H' the blocks of P(w) and F = f(w)
    def braiding_f_exchange():
        # Lam K = K Lam
        for w in words:
            K = tabs[w][3]
            ok = vn.sp_mul(lam_n, K) == vn.sp_mul(K, lam_n)
            yield None if ok else render_word(w)

    report.law("braiding-f-exchange",
               "the braiding commutes with the doubled f-family action",
               braiding_f_exchange())

    def mixed_exchange():
        # H + C K = H' Lam + F C, a witness at (i, j*M + k)
        for w in words:
            _, H, H1, K, _, _ = tabs[w]
            F = vn.numbered(dual.f.word_matrix(w))
            bad = first_difference(vn.sp_add(H, vn.sp_mul(c_n, K)),
                                   vn.sp_add(vn.sp_mul(H1, lam_n),
                                             vn.sp_mul(F, c_n)))
            yield None if bad is None else "(i,j,k)=(%d,%d,%d) on %s" % (
                (bad[0],) + divmod(bad[1], m) + (render_word(w),))

    report.law("mixed-exchange",
               "the mixed structure-constant/f/chi exchange identity",
               mixed_exchange())

    def chi_f_exchange():
        # H Lam = H', a witness at (n, k*M + l)
        for w in words:
            _, H, H1, _, _, _ = tabs[w]
            bad = first_difference(vn.sp_mul(H, lam_n), H1)
            yield None if bad is None else "(k,l,n)=(%d,%d,%d) on %s" % (
                divmod(bad[1], m) + (bad[0], render_word(w)))

    report.law("chi-f-exchange",
               "vector fields exchange with f through the braiding",
               chi_f_exchange())

    # coalgebra of the dual: kappa_d(chi_i) = -chi_j kappa_d(f^j_i), so
    # row 0 of L(w) vanishes past its column 0, which holds eps(w).  Its
    # column 1 + i is sum c eps(w1) kappa_d(chi_i)(w2) plus
    # (chi_j kappa_d(f^j_i))(w), and the first term is kappa_d(chi_i)(w)
    # wherever the hopf counit law holds: there this law compares the two
    # sides on w itself
    def antipode_of_chi():
        for w in words:
            i = min((j for j in tabs[w][4][0] if j), default=None)
            yield None if i is None else "i=%d on %s" % (i - 1, render_word(w))

    report.law("antipode-of-chi",
               "kappa-dual of a vector field expands over kappa-dual f",
               antipode_of_chi())

    # inverse law: kd(f^k_j) f^j_i = delta eps = f^k_j kd(f^j_i), the f
    # blocks of R(w) and L(w), a witness at (k, 1 + i) of either
    def f_inverse_law():
        for w in words:
            e = vn.number(qg.counit_word(w))
            want = [{1 + k: e} if e else {} for k in range(m)]
            bad = min((b for b in (first_difference(t[1:], want)
                                   for t in tabs[w][4:])
                       if b is not None), default=None)
            yield None if bad is None else "(k,i)=(%d,%d) on %s" % (
                bad[0], bad[1] - 1, render_word(w))

    report.law("f-inverse-law",
               "kappa-dual f is the convolution inverse of f", f_inverse_law())

    # invariant combinations annihilate under the bracket: T v for each v
    # in ker(Lam - 1), as one product with the columns v
    fixed = fixed_vectors(lam)
    fixed_cols = vn.numbered(transpose(fixed, m * m))

    def symmetric_vanishing():
        sums = [vn.sp_mul(bracket(w), fixed_cols)[0] for w in words]
        for r in range(len(fixed)):
            for w, total in zip(words, sums):
                yield None if r not in total else render_word(w)

    report.law("symmetric-vanishing",
               "braiding-invariant pairs have vanishing bracket",
               symmetric_vanishing())
    relations = len(calc.space.table.relation_vectors)
    report.law("symmetric-space-dim",
               "the invariant subspace matches the wedge relation count",
               [None if len(fixed) == relations
                else "%d vs %d" % (len(fixed), relations)])

    # q-Jacobi via the verified bracket expansion: each word's bracket row
    # times the coefficient columns
    ijks, jacobi = jacobi_coefficients(vn, c_lower, by_lower_pair(lam, m), m)
    jacobi_cols = transpose(jacobi, m * m)

    def q_jacobi():
        for w in words:
            totals = vn.sp_mul(bracket(w), jacobi_cols)[0]
            for r, ijk in enumerate(ijks):
                yield None if r not in totals else \
                    "(i,j,k)=(%d,%d,%d) on %s" % (ijk + (render_word(w),))

    report.law("q-jacobi", "the braided Jacobi identity for the bracket",
               q_jacobi())

    if lam_inv is None:
        alt = "the rule needs Lam^-1 and the braiding is singular"
    else:
        zf = z_form_comparison(lam, lam_inv,
                               calc.space.table.relation_vectors)
        alt = None if zf["equal"] else "dims: rule %d, kernel %d, union %d" \
            % (zf["z_rank"], zf["kernel_rank"], zf["union_rank"])
    report.law("alt-quadratic-rule",
               "alternative quadratic relation rule agrees with the braid "
               "kernel (expected to differ for this series; reported, not "
               "gated)", [alt], gating=False)
    return report


# ---------------------------------------------------------------------------
# leibniz / inner-structure suite

def leibniz_suite(calc, degree=None, samples=6):
    qg = calc.qg
    space = calc.space
    degree = degree if degree is not None else calc.degree_bound
    report = CheckReport("leibniz", degree)
    rng = random.Random(20260809)
    words = qg.rs.normal_words(degree)
    elems = [AlgebraElement.from_word(qg.rs, w) for w in words]
    forms = [space.from_algebra(e) for e in elems]
    d_elems = [calc.d(e) for e in elems]
    # a function lies in row 0, so partial(e) is the row-0 part of d(e)
    partials = [calc.grid.split_component(de)[0] for de in d_elems]
    sectors = calc.dual.sectors
    trace = sectors["trace"]
    # sector name -> (f00, [f00 * e], [f00 * e - e]): the sector
    # differential e -> f00 * e - e
    sector_data = {}
    for tag, f00 in sectors.items():
        conv = [convolve(f00, e) for e in elems]
        sector_data[tag] = (f00, conv, [c - e for c, e in zip(conv, elems)])

    def pair_str(a, b):
        return "%s, %s" % (render_element(a), render_element(b))

    # One joint sweep of the pairs (a, b), where each product ab is built
    # once and dropped after its pair, with one outcome per pair for every
    # rule.  leibniz-d and the partial rules share each d(ab): partial(ab)
    # is the row-0 part of d(ab).
    out_d, out_twisted, out_plain = [], [], []
    out_sector = {tag: [] for tag in sectors}
    for i, (a, fa, da, pa, ta) in enumerate(zip(
            elems, forms, d_elems, partials, sector_data["trace"][1])):
        if not any(map(_open, [out_d, out_twisted, out_plain,
                               *out_sector.values()])):
            break
        twist = space.from_algebra(ta)
        for j, (b, fb, db, pb) in enumerate(zip(elems, forms, d_elems,
                                                partials)):
            ab = a * b
            for tag, (f00, conv, sector) in sector_data.items():
                out = out_sector[tag]
                if _open(out):
                    lhs = convolve(f00, ab) - ab
                    rhs = sector[i] * conv[j] + a * sector[j]
                    out.append(None if lhs == rhs else pair_str(a, b))
            if not any(map(_open, [out_d, out_twisted, out_plain])):
                continue
            dab = calc.d(ab)
            if _open(out_d):
                rhs = da.wedge(fb) + fa.wedge(db)
                out_d.append(None if dab == rhs else pair_str(a, b))
            if _open(out_twisted) or _open(out_plain):
                lhs = calc.grid.split_component(dab)[0]
                pa_b = pa.wedge(fb)
                for out, left in ((out_twisted, twist), (out_plain, fa)):
                    if _open(out):
                        ok = lhs == pa_b + left.wedge(pb)
                        out.append(None if ok else pair_str(a, b))

    report.law("leibniz-d", "d(ab) = (da) b + a (db) on monomial pairs", out_d)

    def leibniz_graded():
        for _ in range(samples):
            x = calc.random_form(rng, 1)
            y = calc.random_form(rng, 1)
            if x.is_zero() or y.is_zero():
                yield SKIPPED
                continue
            lhs = calc.d(x.wedge(y))
            rhs = calc.d(x).wedge(y) - x.wedge(calc.d(y))
            yield None if lhs == rhs else "%s ; %s" % (x.render(), y.render())

    report.law("leibniz-graded",
               "d(x /\\ y) = dx /\\ y - x /\\ dy on grade-1 pairs",
               leibniz_graded())

    for tag in sectors:
        report.law("leibniz-sector-%s" % tag,
                   "the one-dimensional-sector differential obeys the "
                   "Leibniz rule (f00 = %s)" % tag, out_sector[tag])

    report.law("leibniz-partial-twisted",
               "the complement differential obeys the trace-twisted "
               "Leibniz rule", out_twisted)
    report.law("leibniz-partial-plain",
               "plain Leibniz for the complement differential "
               "(measured; the twisted rule is the exact law)",
               out_plain, gating=False)

    j1, j2, j3 = calc.projectors.defects()
    report.law("projector-idempotent", "J o J = J", [j1])
    report.law("projector-orthogonal", "J o Jperp = 0", [j2])
    report.law("projector-complete", "J + Jperp = id", [j3])

    # right-module property of J (measured)
    def projector_right_module():
        for i in range(space.M):
            for g in qg.rs.gens:
                a = space.from_algebra(qg.generator(*g))
                w = space.one_form(i)
                lhs = calc.grid.split_component(w)[1].wedge(a)
                rhs = calc.grid.split_component(w.wedge(a))[1]
                yield None if lhs == rhs else \
                    "J(%s t[%d,%d])" % (space.basis.label(i), g[0], g[1])

    report.law("projector-right-module",
               "J commutes with right multiplication (measured, informative)",
               projector_right_module(), gating=False)

    # canonical line as a right module (measured) and its projected rule,
    # in one sweep of the words
    X = calc.X
    out_span, out_rule = [], []
    for w in words:
        if not (_open(out_span) or _open(out_rule)):
            break
        a = AlgebraElement.from_word(qg.rs, w)
        u0, u1 = calc.grid.split_component(X.wedge(space.from_algebra(a)))
        if _open(out_span):
            out_span.append(None if u0.is_zero() else "X %s has complement "
                            "part %s" % (render_word(w), u0.render()))
        if _open(out_rule):
            rule = space.from_algebra(convolve(trace, a)).wedge(X)
            out_rule.append(None if u1 == rule else render_word(w))
    report.law("canonical-line-submodule",
               "the canonical line is a right submodule (measured; fails for "
               "a connected calculus)", out_span, gating=False)
    report.law("canonical-line-projected-rule",
               "J(X a) = (trace-f * a) X exactly", out_rule)

    xx = X.wedge(X)
    report.law("canonical-square",
               "X /\\ X = 0 holds in the quotient (computed, not forced)",
               [None if xx.is_zero() else xx.render()])

    # complement is right stable
    def complement_right_stable():
        for i in space.basis.complement:
            for g in qg.rs.gens:
                got = space.one_form(i).wedge(
                    space.from_algebra(qg.generator(*g)))
                ok = calc.grid.split_component(got)[1].is_zero()
                yield None if ok else "%s t[%d,%d]" % (
                    space.basis.label(i), g[0], g[1])

    report.law("complement-right-stable",
               "the complement of the canonical line is right stable",
               complement_right_stable())

    # duality: <da, chi_j> = chi_j(a) with <omega_i, chi_j> = delta
    def duality_pairing():
        for w in words:
            a = AlgebraElement.from_word(qg.rs, w)
            coeffs = calc.expand_d_in_basis(a)
            for j in range(space.M):
                ok = qg.counit(coeffs[j]) == calc.dual.chi[j].value(a)
                yield None if ok else "j=%d on %s" % (j, render_word(w))

    report.law("duality-pairing",
               "pairing d(a) against the dual vector fields returns chi(a)",
               duality_pairing())

    # bicovariance of d under the left coaction
    test_forms = [space.from_algebra(qg.generator(*g)) for g in qg.rs.gens]
    test_forms += [space.one_form(i, qg.generator(1, 1))
                   for i in range(space.M)]

    def d_left_covariant():
        for x in test_forms:
            rhs = {}
            for w, fe in left_coaction(space, x).items():
                add_term(rhs, w, calc.d(fe))
            ok = left_coaction(space, calc.d(x)) == rhs
            yield None if ok else x.render()

    report.law("d-left-covariant",
               "the left coaction intertwines d", d_left_covariant())

    # expand-d tie-in
    def d_chi_expansion():
        for w in words:
            a = AlgebraElement.from_word(qg.rs, w)
            coeffs = calc.expand_d_in_basis(a)
            for i in range(space.M):
                ok = coeffs[i] == convolve(calc.dual.chi[i], a)
                yield None if ok else "i=%d on %s" % (i, render_word(w))

    report.law("d-chi-expansion",
               "basis expansion of d matches the vector-field convolutions",
               d_chi_expansion())

    report.law("right-coaction-intertwiner",
               "right-coaction intertwiner identity: not implemented "
               "(right coaction is out of scope)", (), gating=False)
    return report
