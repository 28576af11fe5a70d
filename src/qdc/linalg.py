"""Exact linear algebra over Q(q) (or any exact field via duck typing).

A matrix is a list of sparse rows, dicts mapping column keys to nonzero
field elements; rref_sparse is the one elimination over them, mat_mul
their product and braid_defect the one check of the braid relation.  Field elements must support +, -, *, / and a truth value
that means "nonzero", as int, Fraction and Scalar have.

The sparse accumulate kernel (add_term, add_scaled, sparse_sum,
sparse_diff) is the one place where a linear combination stored as a dict
key -> coefficient gains a term, so no stored coefficient is ever zero.
LinearCombination wraps such a dict with the vector-space operations;
algebra elements and forms are its subclasses, while rows, coproducts and
coaction images stay plain dicts.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ZERO, ONE


# ---------------------------------------------------------------------------
# the sparse accumulate kernel

def add_term(terms, key, value):
    """terms[key] += value in place; a key whose sum is zero is dropped."""
    cur = terms.get(key)
    if cur is not None:
        value = cur + value
    if value:
        terms[key] = value
    else:
        terms.pop(key, None)


def add_scaled(terms, other, factor, skip=None):
    """terms += factor * other in place, leaving out other's entry at skip."""
    for key, value in other.items():
        if key != skip:
            add_term(terms, key, factor * value)


def sparse_sum(a, b):
    """a + b as a new dict."""
    out = dict(a)
    for key, value in b.items():
        add_term(out, key, value)
    return out


def sparse_diff(a, b):
    """a - b as a new dict."""
    out = dict(a)
    for key, value in b.items():
        add_term(out, key, -value)
    return out


class LinearCombination:
    """A finite linear combination: terms maps keys to nonzero coefficients.

    Constructors trust their terms: whoever builds the dict keeps zeros out
    of it, through the kernel above.  An element never mutates its terms,
    so they may be a memo's shared dict.  A subclass adds its context slot,
    _with (a sibling with other terms) and _scale (a coefficient times a
    Scalar).
    """

    __slots__ = ("terms", "_hash")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._with(sparse_sum(self.terms, other.terms))

    def __sub__(self, other):
        return self._with(sparse_diff(self.terms, other.terms))

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def scalar_mul(self, s):
        """s * self for a Scalar s; scaling by one returns self."""
        if s.is_one():
            return self
        if not s:
            return self._with({})
        scale = self._scale
        return self._with({k: scale(c, s) for k, c in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash


class ValueNumbers:
    """The distinct Scalars of one sweep, numbered 0 (zero), 1, 2, ...

    Scalars are canonical: equal values compare and hash equal.  So two
    numbers are equal exactly when their values are, a sweep that repeats
    a few values many times can compare ints, and mul and add run each
    distinct product and sum of Q(q) once.  One instance serves one
    sweep; nothing is shared between instances.
    """

    def __init__(self):
        self.values = [ZERO]
        self._numbers = {ZERO: 0}
        self._mul = {}
        self._add = {}

    def number(self, value):
        """The number of value, numbering it if it is new."""
        n = self._numbers.get(value)
        if n is None:
            n = self._numbers[value] = len(self.values)
            self.values.append(value)
        return n

    def mul(self, a, b):
        """The number of values[a] * values[b]."""
        if not a or not b:
            return 0
        key = (a, b) if a <= b else (b, a)
        n = self._mul.get(key)
        if n is None:
            n = self._mul[key] = self.number(self.values[a] * self.values[b])
        return n

    def add(self, a, b):
        """The number of values[a] + values[b]."""
        if not a:
            return b
        if not b:
            return a
        key = (a, b) if a <= b else (b, a)
        n = self._add.get(key)
        if n is None:
            n = self._add[key] = self.number(self.values[a] + self.values[b])
        return n

    def add_term(self, terms, key, n):
        """terms[key] += values[n] over numbers, as add_term does on values."""
        cur = terms.get(key)
        if cur is not None:
            n = self.add(cur, n)
        if n:
            terms[key] = n
        else:
            terms.pop(key, None)

    def numbered(self, rows):
        """Matrix rows of values as rows of their numbers."""
        return [{j: self.number(v) for j, v in row.items()} for row in rows]

    def sp_mul(self, a, b):
        """The product of two matrices of number-valued sparse rows, as
        mat_mul takes the product of value-valued ones.

        mul and add_term inlined over their memos: stored numbers are
        nonzero, so each product is too, and only a sum can cancel.
        """
        values, number, muls, adds = (self.values, self.number, self._mul,
                                      self._add)
        out = []
        for row in a:
            acc = {}
            for k, v in row.items():
                for j, w in b[k].items():
                    key = (v, w) if v <= w else (w, v)
                    n = muls.get(key)
                    if n is None:
                        n = muls[key] = number(values[v] * values[w])
                    cur = acc.get(j)
                    if cur is None:
                        acc[j] = n
                        continue
                    key = (cur, n) if cur <= n else (n, cur)
                    s = adds.get(key)
                    if s is None:
                        s = adds[key] = number(values[cur] + values[n])
                    if s:
                        acc[j] = s
                    else:
                        del acc[j]
            out.append(acc)
        return out

    def sp_add(self, a, b):
        """The sum of two matrices of number-valued sparse rows."""
        out = []
        for ra, rb in zip(a, b):
            acc = dict(ra)
            for j, n in rb.items():
                self.add_term(acc, j, n)
            out.append(acc)
        return out


def rref_sparse(rows, column_order, sources=None):
    """Reduced row echelon form of sparse rows.

    Pivots are chosen greedily along column_order, so the pivot set is the
    earliest independent set in that order.  Returns (pivot_rows, pivot_cols)
    where pivot_rows[c] is the fully reduced row with leading 1 at column c,
    expressed over non-pivot columns only.  If sources is a list, the index
    of each row that made a pivot is appended to it: those rows are the
    earliest basis of the row space.

    A new pivot is eliminated only from the pivot rows that hold its
    column, found through an index from each non-pivot column to the
    creation numbers of the pivot rows that may hold it (a row that lost
    the column through cancellation stays listed and is passed over).
    """
    col_rank = {c: k for k, c in enumerate(column_order)}
    pivot_rows = {}
    created = []   # pivot rows in creation order
    holders = {}   # non-pivot column -> creation numbers of rows holding it
    for i, r in enumerate(rows):
        row = {c: v for c, v in r.items() if v}
        # pivot rows only reach non-pivot columns, so one pass clears them all
        for c in [c for c in row if c in pivot_rows]:
            add_scaled(row, pivot_rows[c], -row.pop(c), skip=c)
        if not row:
            continue
        if sources is not None:
            sources.append(i)
        piv = min(row, key=col_rank.__getitem__)
        one = _one_like(row[piv])
        inv = one / row[piv]
        newrow = {c: v * inv for c, v in row.items()}
        newrow[piv] = one
        others = [c for c in newrow if c != piv]
        stale = holders.pop(piv, ())
        for c in others:
            holders.setdefault(c, set()).add(len(created))
        created.append(newrow)
        # eliminate the new pivot from the pivot rows that hold it
        for k in sorted(stale):
            p = created[k]
            f = p.pop(piv, None)
            if f is not None:
                add_scaled(p, newrow, -f, skip=piv)
                for c in others:
                    holders[c].add(k)
        pivot_rows[piv] = newrow
    return pivot_rows, sorted(pivot_rows, key=col_rank.__getitem__)


# ---------------------------------------------------------------------------
# matrices as lists of sparse rows

def _one_like(x):
    if isinstance(x, Scalar):
        return ONE
    return Fraction(1)


def identity(n):
    return [{i: ONE} for i in range(n)]


def mat_mul(a, b):
    """The product of two matrices of sparse rows, as sparse rows."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                add_term(acc, j, x * y)
        out.append(acc)
    return out


def transpose(rows, n_cols):
    """The transpose of sparse rows over n_cols columns, as sparse rows."""
    out = [{} for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def first_difference(a, b):
    """The first (row, column), in row-major order, where two matrices of
    sparse rows differ; None if they are equal."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return i, min(j for j in ra.keys() | rb.keys()
                          if ra.get(j) != rb.get(j))
    return None


def braid_defect(b, m):
    """None if the braid relation holds for B, the m^2 sparse rows of an
    operator on V x V with dim V = m (pair (i, j) at i*m + j); else the
    first (row, column) where the two sides differ, in V x V x V.

    With Q = (1 x B)(B x 1) the two sides are (B x 1) Q and Q (1 x B):
    three sparse products, run over the numbers of the few distinct entry
    values.  The witness is the first mismatch in row-major order, which
    does not depend on how the products are grouped.
    """
    mm = m * m
    vn = ValueNumbers()
    b1 = [{} for _ in range(mm * m)]
    b2 = [{} for _ in range(mm * m)]
    for i, row in enumerate(vn.numbered(b)):
        for j, v in row.items():
            for k in range(m):
                b1[i * m + k][j * m + k] = v
                b2[k * mm + i][k * mm + j] = v
    q = vn.sp_mul(b2, b1)
    return first_difference(vn.sp_mul(b1, q), vn.sp_mul(q, b2))


def mat_inverse(rows, n):
    """Inverse of the n x n matrix with sparse rows, as sparse rows.

    One rref_sparse of (A | 1): A is invertible exactly when the pivots
    are its own n columns, and then each pivot row carries a row of A^-1
    in the identity's columns.  Raises ValueError if A is singular.
    """
    if n == 0:
        return []
    one = next((_one_like(v) for r in rows for v in r.values() if v), None)
    if one is None:
        raise ValueError("matrix is singular")
    aug = [dict(r) for r in rows]
    for i, r in enumerate(aug):
        r[n + i] = one
    pivot_rows, pivots = rref_sparse(aug, range(2 * n))
    if pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return [{c - n: v for c, v in pivot_rows[i].items() if c >= n}
            for i in range(n)]


def kernel_basis(rows, n_cols):
    """Basis of the right kernel {v : A v = 0} of sparse rows over n_cols
    columns: one sparse vector per free column, 1 there, in column order."""
    pivot_rows, _ = rref_sparse(rows, range(n_cols))
    one = next((_one_like(v) for r in rows for v in r.values() if v), ONE)
    basis = []
    for free in range(n_cols):
        if free in pivot_rows:
            continue
        v = {free: one}
        for p, row in pivot_rows.items():
            c = row.get(free)
            if c:
                v[p] = -c
        basis.append(dict(sorted(v.items())))
    return basis


# the prime of the rank certificate, 2^31 - 1
PRIME = 2 ** 31 - 1


def rank_at_specializations(rows, column_order, points, basis):
    """Rank of the same sparse system with q specialized to each point.

    Entries must be Scalars without poles at the points, and basis must
    index rows that are a basis of the row space over Q(q), as the rows
    that made rref_sparse's pivots are; returns a dict point -> rank.

    The rank at q0 is at most the generic rank len(basis), and at least
    the rank over F_p, p = PRIME, of the basis rows' values reduced mod p.
    So where that reduction has full rank, len(basis) is the exact rank.
    Elsewhere (a true drop, a value that is 0 mod p, or a denominator
    that p divides) the rank is taken from the whole evaluated system by
    rref_sparse over the rationals.
    """
    col_rank = {c: k for k, c in enumerate(column_order)}
    index = {}   # rows repeat few distinct entries
    coded = [[(col_rank[c], index.setdefault(v, len(index)))
              for c, v in rows[i].items()] for i in basis]
    out = {}
    for q0 in points:
        at = [_mod_prime(v.evaluate_at(q0)) for v in index]
        if None not in at and _independent_mod_prime(coded, at):
            out[q0] = len(basis)
        else:
            exact = [{c: v.evaluate_at(q0) for c, v in r.items()} for r in rows]
            out[q0] = len(rref_sparse(exact, column_order)[1])
    return out


def _mod_prime(x):
    """The Fraction x mod PRIME, or None if PRIME divides its denominator."""
    d = x.denominator % PRIME
    return x.numerator * pow(d, -1, PRIME) % PRIME if d else None


def _independent_mod_prime(rows, at):
    """Whether rows of (column, value number) pairs, a value number n
    standing for at[n], are linearly independent over F_p.

    Forward elimination: a pivot row leads with 1 at its least column and
    is stored without it, so clearing a row's least column only brings in
    greater ones.
    """
    tails = {}   # leading column -> the rest of its pivot row
    for r in rows:
        row = {c: at[n] for c, n in r if at[n]}
        while row:
            lead = min(row)
            tail = tails.get(lead)
            if tail is None:
                inv = pow(row.pop(lead), -1, PRIME)
                tails[lead] = {c: v * inv % PRIME for c, v in row.items()}
                break
            f = row.pop(lead)
            for c, v in tail.items():
                x = (row.get(c, 0) - f * v) % PRIME
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
        else:
            return False
    return True
