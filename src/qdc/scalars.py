"""Exact arithmetic in the coefficient field Q(q).

A Scalar is a reduced fraction of Laurent polynomials in the deformation
parameter q with rational coefficients.  Everything is exact; there is no
floating point anywhere.  A coefficient is an int when it is integral and a
Fraction only when it is not.

Exponents live on one integer lattice per polynomial: a LaurentPoly keeps
an int D >= 1 and int keys k, the key k standing for q^(k/D), so the
q^(1/N)-normalized functional tables stay representable without Fraction
exponents.  D is minimal (gcd(D, every key) = 1): it is 1 for every
polynomial with integer exponents, and equal polynomials have equal keys
and D.  Operands on the same lattice touch only ints; operands on two
lattices are lifted to the lcm once, and a result with D > 1 is brought
back to its minimal D by one gcd pass.

Reduction takes the gcd of numerator and denominator over the integers,
from primitive parts and pseudo-remainders (Gauss's lemma; Knuth, TAOCP
vol. 2, 4.6.1).  Products cancel crosswise (Henrici), so a product of
reduced fractions only takes gcds of a numerator with the other factor's
denominator, and none over equal denominators; a sum takes none when one
denominator is 1, and a monomial denominator needs only a shift and scale.
A product with a factor equal to one returns the other factor, and each
distinct fraction that needs a gcd is reduced once per process.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from . import expr


class ScalarError(ArithmeticError):
    pass


class ScalarDivisionError(ScalarError):
    """Division by the zero scalar."""


class PoleError(ScalarError):
    """Specialization hit a root of the denominator."""


class SpecializationError(ScalarError):
    """Specialization point is not admissible (q0 = 0 or fractional powers)."""


# the grammar's one error class, under the name this module always used
ScalarParseError = expr.ExprError

_FRACTIONAL = "fractional q-exponents have no rational value"


def _coef(x):
    """x as a coefficient: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("rational coefficient expected, got %r" % (x,))


def _quo(a, b):
    """The exact quotient a / b of two coefficients, as a coefficient."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coef(Fraction(a, b))


def _pruned(terms):
    """terms without its zero coefficients; integral Fraction coefficients
    become ints."""
    out = {}
    for e, c in terms.items():
        if c:
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            out[e] = c
    return out


def _scaled(terms, c):
    """terms with every coefficient times the nonzero coefficient c."""
    return _pruned({e: cc * c for e, cc in terms.items()})


def _lattice(terms, D):
    """The LaurentPoly whose key k means q^(k/D), on its minimal lattice:
    D is divided by the gcd of D and every key.  terms has int keys and
    no zero coefficients."""
    if D != 1:
        g = D
        for k in terms:
            g = gcd(g, k)
            if g == 1:
                break
        if g != 1:
            terms = {k // g: c for k, c in terms.items()}
            D //= g
    return _make(terms, D)


def _lift(p, D):
    """A new dict of p's terms read on the lattice D, which p.D divides."""
    m = D // p.D
    return {k * m: c for k, c in p.terms.items()}


_new = object.__new__
_ONE_TERMS = {0: 1}


class LaurentPoly:
    """Laurent polynomial in q^(1/D): a map int key k -> nonzero rational,
    the key k standing for q^(k/D).

    D is minimal, gcd(D, every key) = 1, so it is 1 for zero, constants and
    every polynomial with integer exponents, and equal polynomials have
    equal (terms, D).
    """

    __slots__ = ("terms", "D", "_hash")

    def __init__(self, terms=None):
        """terms maps exponents, ints or Fractions, to rationals."""
        out, D = {}, 1
        for e, c in (terms or {}).items():
            c = _coef(c)
            if c:
                if type(e) is not int:
                    e = Fraction(e)
                    if e.denominator == 1:
                        e = e.numerator
                    else:
                        D = lcm(D, e.denominator)
                out[e] = c
        if D != 1:
            # the lcm of reduced denominators is already minimal
            out = {int(e * D): c for e, c in out.items()}
        self.terms, self.D, self._hash = out, D, None

    @staticmethod
    def _make(terms, D=1):
        """Trusted constructor: terms is already as _lattice returns it."""
        p = _new(LaurentPoly)
        p.terms = terms
        p.D = D
        p._hash = None
        return p

    @classmethod
    def q(cls):
        return cls({1: 1})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == _ONE_TERMS

    def max_exp(self):
        """The true highest exponent k/D: an int when it is integral."""
        k = max(self.terms)
        e, r = divmod(k, self.D)
        return Fraction(k, self.D) if r else e

    def leading_coeff(self):
        return self.terms[max(self.terms)]

    def has_fractional_exponents(self):
        return self.D != 1

    def __add__(self, other):
        D = self.D
        b = other.terms
        if D == other.D:
            terms = self.terms.copy()
        else:
            D = lcm(D, other.D)
            terms = _lift(self, D)
            if D != other.D:
                b = _lift(other, D)
        for e, c in b.items():
            s = terms.get(e, 0) + c
            if not s:
                del terms[e]
            elif type(s) is int or s.denominator != 1:
                terms[e] = s
            else:
                terms[e] = s.numerator
        return _make(terms) if D == 1 else _lattice(terms, D)

    def __neg__(self):
        return _make({e: -c for e, c in self.terms.items()}, self.D)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if not a or not b:
            return _make({})
        D = self.D
        if D != other.D:
            D = lcm(D, other.D)
            if D != self.D:
                a = _lift(self, D)
            if D != other.D:
                b = _lift(other, D)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a single term c q^e shifts and scales the other factor:
            # exponents stay distinct and no product vanishes
            (e, c), = b.items()
            if c == 1:
                terms = {e1 + e: c1 for e1, c1 in a.items()}
            else:
                terms = {}
                for e1, c1 in a.items():
                    p = c1 * c
                    if type(p) is not int and p.denominator == 1:
                        p = p.numerator
                    terms[e1 + e] = p
        else:
            # only products larger than the engine's own pay the span test
            if len(a) * len(b) > MAX_SPAN and \
                    max(a) - min(a) + max(b) - min(b) > MAX_SPAN:
                raise ScalarError("q-exponent span beyond %d lattice steps"
                                  % MAX_SPAN)
            terms = {}
            get = terms.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    terms[e] = get(e, 0) + c1 * c2
            terms = _pruned(terms)
        return _make(terms) if D == 1 else _lattice(terms, D)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.D == other.D
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.D, frozenset(self.terms.items())))
        return self._hash

    def evaluate(self, q0):
        q0 = Fraction(_coef(q0))
        if q0 == 0:
            raise SpecializationError("cannot specialize at q0 = 0")
        if self.has_fractional_exponents():
            raise SpecializationError(_FRACTIONAL)
        # with q0 = a/b the value is (sum of c a^(e-lo) b^(hi-e)) a^lo / b^hi:
        # the sum is taken in ints over the coefficients' common denominator
        # and one Fraction is built at the end
        terms = self.terms
        if not terms:
            return Fraction(0)
        a, b = q0.numerator, q0.denominator
        lo, hi = min(terms), max(terms)
        den = lcm(*(c.denominator for c in terms.values()))
        num = 0
        for e, c in terms.items():
            num += (c.numerator * (den // c.denominator)
                    * a ** (e - lo) * b ** (hi - e))
        if lo >= 0:
            num *= a ** lo
        else:
            den *= a ** -lo
        if hi >= 0:
            den *= b ** hi
        else:
            num *= b ** -hi
        return Fraction(num, den)

    def __str__(self):
        return render_poly(self)

    __repr__ = __str__


_make = LaurentPoly._make
_ZERO_POLY = _make({})
_ONE_POLY = _make({0: 1})


# polynomial helpers: dicts of int keys >= 0 on one lattice, read as
# polynomials in s = q^(1/D)

def _divide(a, b):
    """The quotient a / b of two polynomials when b divides a."""
    rem = dict(a)
    quo = {}
    dmax = max(b)
    dlead = b[dmax]
    while rem:
        rmax = max(rem)
        if rmax < dmax:
            break
        f = _quo(rem[rmax], dlead)
        k = rmax - dmax
        quo[k] = f
        for e, c in b.items():
            s = rem.get(e + k, 0) - f * c
            if s:
                rem[e + k] = s
            else:
                rem.pop(e + k, None)
    return quo


def _dense(p):
    """Coefficients of the polynomial p, highest exponent first."""
    top = max(p)
    cs = [0] * (top + 1)
    for e, c in p.items():
        cs[top - e] = c
    return cs


def _primitive(cs):
    """The primitive part of a nonzero coefficient list: integers with
    content 1 and a positive leading coefficient."""
    den = 1
    for c in cs:
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den != 1:
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*cs)
    if cs[0] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of a mod b (integer lists, highest first,
    len(a) >= len(b)); leading zeros stripped, so [] means b divides a."""
    lead, n = b[0], len(b)
    tail = b[1:]
    while len(a) >= n:
        c = a[0]
        if c:
            g = gcd(c, lead)
            m, f = lead // g, c // g
            a = ([m * x - f * y for x, y in zip(a[1:n], tail)]
                 + [m * x for x in a[n:]])
        else:
            a = a[1:]
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _poly_gcd(a, b):
    """Gcd of two nonzero polynomials: integer coefficients, content 1 and
    a positive leading coefficient."""
    a, b = _primitive(_dense(a)), _primitive(_dense(b))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            break
        a, b = b, _primitive(r)
    else:
        return _ONE_TERMS
    top = len(b) - 1
    return {top - i: c for i, c in enumerate(b) if c}


def _scalar(num, den):
    """Trusted Scalar constructor: num/den already meets the invariants."""
    s = _new(Scalar)
    s.num, s.den, s._hash = num, den, None
    return s


class Scalar:
    """Canonical element of Q(q): numerator / denominator, reduced.

    Invariants: the denominator is nonzero, has lowest exponent 0 and leading
    coefficient 1, and shares no polynomial factor with the numerator.  Equal
    fractions always compare structurally equal.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = _ONE_POLY
        self.num, self.den = _normalize(num, den)
        self._hash = None

    @classmethod
    def q(cls):
        return Q

    @classmethod
    def from_rational(cls, c):
        c = _coef(c)
        if not c:
            return _ZERO
        return _scalar(LaurentPoly.const(c), _ONE_POLY)

    @classmethod
    def from_int(cls, n):
        return cls.from_rational(n)

    @classmethod
    def q_power(cls, exp, coeff=1):
        coeff = _coef(coeff)
        if not coeff:
            return _ZERO
        return _scalar(LaurentPoly.monomial(exp, coeff), _ONE_POLY)

    def is_zero(self):
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other):
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        return _sum(self.num, self.den, other.num, other.den)

    def __sub__(self, other):
        if not other.num.terms:
            return self
        return _sum(self.num, self.den, -other.num, other.den)

    def __neg__(self):
        return _scalar(-self.num, self.den)

    def __mul__(self, other):
        return _mul(self, other)

    def __truediv__(self, other):
        if not other.num.terms:
            raise ScalarDivisionError("division by zero scalar")
        if not self.num.terms:
            return _ZERO
        return _mul(self, _inverse(other))

    def inverse(self):
        return _ONE / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer power expected")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = _ONE
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def evaluate_at(self, q0):
        """The rational number self(q0); exact, with pole detection."""
        q0 = Fraction(_coef(q0))
        if q0 == 0:
            raise SpecializationError("cannot specialize at q0 = 0")
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError("pole at q0 = %s" % q0)
        return self.num.evaluate(q0) / d

    def __str__(self):
        return render_scalar(self)

    __repr__ = __str__


def check_values_at(values, points):
    """Raise what evaluate_at raises for the first of values, in order,
    that has no value at one of the nonzero points, tried in order.

    A reduced fraction has poles only at roots of its denominator, so only
    the distinct denominators are evaluated, each once per point, and a
    numerator is only asked for its exponent lattice.
    """
    roots = {}   # denominator -> the first point where it vanishes, or None
    for value in values:
        den = value.den
        if den not in roots:
            roots[den] = next((q0 for q0 in points if not den.evaluate(q0)),
                              None)
        root = roots[den]
        # evaluate_at reads the numerator at each point before the root
        if root != points[0] and value.num.has_fractional_exponents():
            raise SpecializationError(_FRACTIONAL)
        if root is not None:
            raise PoleError("pole at q0 = %s" % Fraction(root))


def _sum(an, ad, bn, bd):
    """an/ad + bn/bd for reduced fractions, bn nonzero."""
    if ad.D == bd.D and ad.terms == bd.terms:
        num = an + bn
        if not num.terms:
            return _ZERO
        if ad.terms == _ONE_TERMS:
            return _scalar(num, ad)
        return Scalar(num, ad)
    # with one denominator 1 the sum is already reduced
    if ad.terms == _ONE_TERMS:
        return _scalar(an * bd + bn, bd)
    if bd.terms == _ONE_TERMS:
        return _scalar(an + bn * ad, ad)
    return Scalar(an * bd + bn * ad, ad * bd)


def _mul(a, b):
    """a * b, cancelling each numerator against the other denominator."""
    an, bn = a.num, b.num
    if not an.terms or not bn.terms:
        return _ZERO
    ad, bd = a.den, b.den
    # a factor equal to one hands back the other; scalars are immutable
    if an.terms == _ONE_TERMS and ad.terms == _ONE_TERMS:
        return b
    if bn.terms == _ONE_TERMS and bd.terms == _ONE_TERMS:
        return a
    if ad.D == bd.D and ad.terms == bd.terms:
        return _scalar(an * bn, ad if ad.terms == _ONE_TERMS else ad * bd)
    if bd.terms != _ONE_TERMS:
        an, bd = _normalize(an, bd)
    if ad.terms != _ONE_TERMS:
        bn, ad = _normalize(bn, ad)
    return _scalar(an * bn, ad * bd)


def _inverse(a):
    """1/a for a nonzero Scalar; a reduced fraction needs no gcd here."""
    num, den = a.num, a.den
    # c q^(-low/D) takes num to lowest exponent 0 and leading coefficient 1
    t = _lattice({-min(num.terms): _quo(1, num.terms[max(num.terms)])}, num.D)
    return _scalar(den * t, num * t)


def _normalize(num, den):
    """Canonical representative of num/den; see Scalar invariants."""
    if den.is_zero():
        raise ScalarDivisionError("zero denominator")
    if num.is_zero():
        return _ZERO_POLY, _ONE_POLY
    if len(den.terms) == 1:
        (e, c), = den.terms.items()
        return num * _lattice({-e: _quo(1, c)}, den.D), _ONE_POLY
    key = (num, den)
    out = _REDUCED.get(key)
    if out is None:
        out = _REDUCED[key] = _reduce(num, den)
    return out


# The largest exponent span, in lattice steps, that _reduce takes a gcd
# over and that a product of two many-term polynomials may reach.  The
# gcd's pseudo-remainders cost time quadratic in the span, and no check
# at N = 2..5 reduces a span above 50.
MAX_SPAN = 1000

# (num, den) -> _reduce(num, den).  The canonical form is a pure function of
# the two polynomials, so one memo serves every calculus in the process.
_REDUCED = {}


def _reduce(num, den):
    """Canonical num/den by the gcd: num nonzero, den of two or more terms.
    Both are read on their common lattice, where every exponent is an int.
    A span beyond MAX_SPAN is refused."""
    D = num.D
    if D == den.D:
        a, b = num.terms, den.terms
    else:
        D = lcm(D, den.D)
        a, b = _lift(num, D), _lift(den, D)
    sn, sd = min(a), min(b)
    a = {e - sn: c for e, c in a.items()}
    b = {e - sd: c for e, c in b.items()}
    if len(a) > 1:
        if max(a) > MAX_SPAN or max(b) > MAX_SPAN:
            raise ScalarError("q-exponent span beyond %d lattice steps"
                              % MAX_SPAN)
        g = _poly_gcd(a, b)
        if g != _ONE_TERMS:
            a, b = _divide(a, g), _divide(b, g)
    lead = b[max(b)]
    if lead != 1:
        inv = _quo(1, lead)
        a, b = _scaled(a, inv), _scaled(b, inv)
    shift = sn - sd
    return _lattice({e + shift: c for e, c in a.items()}, D), _lattice(b, D)


ZERO = _ZERO = _scalar(_ZERO_POLY, _ONE_POLY)
ONE = _ONE = _scalar(_ONE_POLY, _ONE_POLY)
Q = _scalar(LaurentPoly.q(), _ONE_POLY)


def qlambda():
    """The default normalization constant q - q^-1."""
    return _scalar(LaurentPoly({1: 1, -1: -1}), _ONE_POLY)


# ---------------------------------------------------------------------------
# rendering

def _render_exp(k, D):
    """The exponent k/D, reduced."""
    g = gcd(k, D)
    if g == D:
        return str(k // D)
    return "(%d/%d)" % (k // g, D // g)


def _render_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def render_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    D = p.D
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        if e == 0:
            body = _render_coeff(abs(c))
        else:
            base = "q" if e == D else "q^%s" % _render_exp(e, D)
            body = base if abs(c) == 1 else "%s*%s" % (_render_coeff(abs(c)), base)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def render_scalar(s):
    if s.den.is_one():
        return render_poly(s.num)
    return "(%s)/(%s)" % (render_poly(s.num), render_poly(s.den))


# ---------------------------------------------------------------------------
# parsing: the scalar part of the textual grammar of qdc.expr

def scalar_power(s, e):
    """s^e for an int or Fraction exponent e; a non-integral e applies
    only to a power of q, where it multiplies the exponent.  An integer
    power whose numerator or denominator would span more than MAX_SPAN
    lattice steps is refused before any product is taken."""
    if isinstance(e, Fraction):
        if e.denominator == 1:
            e = e.numerator
        elif (s.den.is_one() and len(s.num.terms) == 1
              and s.num.leading_coeff() == 1):
            return Scalar.q_power(s.num.max_exp() * e)
        else:
            raise ScalarError("fractional powers only apply to powers of q")
    for p in (s.num, s.den):
        if p.terms and abs(e) * (max(p.terms) - min(p.terms)) > MAX_SPAN:
            raise ScalarError("q-exponent span beyond %d lattice steps"
                              % MAX_SPAN)
    return s ** e


_FOLD_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                "/": operator.truediv}


def parse_scalar(text):
    """Parse a scalar such as '(q - q^-1)/(q^2 + 1)' with qdc.expr; a
    generator, form or operator outside Q(q) is a ScalarParseError."""
    return _fold(expr.parse(text))


def _fold(node):
    kind = node[0]
    if kind == "int":
        return Scalar.from_int(node[1])
    if kind == "q":
        return Q
    if kind == "neg":
        return -_fold(node[1])
    if kind == "pow":
        return scalar_power(_fold(node[1]), node[2])
    if kind not in _FOLD_BINARY:
        raise ScalarParseError("%s is not a scalar" % expr.print_ast(node))
    return _FOLD_BINARY[kind](_fold(node[1]), _fold(node[2]))
