"""Exact arithmetic in the coefficient field Q(q).

A Scalar is a reduced fraction of Laurent polynomials in the deformation
parameter q with rational coefficients.  Everything is exact; there is no
floating point anywhere.  Exponents are normally integers, but fractional
exponents (stored as Fraction) are supported so that q^(1/N)-normalized
functional tables stay representable.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ArithmeticError):
    pass


class ScalarDivisionError(ScalarError):
    """Division by the zero scalar."""


class PoleError(ScalarError):
    """Specialization hit a root of the denominator."""


class SpecializationError(ScalarError):
    """Specialization point is not admissible (q0 = 0 or fractional powers)."""


class ScalarParseError(ValueError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("rational coefficient expected, got %r" % (x,))


class LaurentPoly:
    """Laurent polynomial in q: a map exponent -> nonzero rational."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _fr(c)
                if c:
                    if isinstance(e, Fraction) and e.denominator == 1:
                        e = int(e)
                    clean[e] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q(cls):
        return cls({1: 1})

    @classmethod
    def const(cls, c):
        return cls({0: _fr(c)})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: _fr(coeff)})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: Fraction(1)}

    def min_exp(self):
        return min(self.terms)

    def max_exp(self):
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.max_exp()]

    def has_fractional_exponents(self):
        return any(isinstance(e, Fraction) for e in self.terms)

    def shift(self, k):
        """Multiply by q^k."""
        if not self.terms or k == 0:
            return self
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def scale_exponents(self, r):
        """Substitute q -> q^r (exponents multiplied by r)."""
        out = {}
        for e, c in self.terms.items():
            ne = e * r
            if isinstance(ne, Fraction) and ne.denominator == 1:
                ne = int(ne)
            out[ne] = c
        return LaurentPoly(out)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentPoly(terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) - c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentPoly(terms)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return LaurentPoly()
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return LaurentPoly(terms)

    def scalar_mul(self, c):
        c = _fr(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly({e: cc * c for e, cc in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def evaluate(self, q0):
        q0 = _fr(q0)
        if q0 == 0:
            raise SpecializationError("cannot specialize at q0 = 0")
        if self.has_fractional_exponents():
            raise SpecializationError("fractional q-exponents have no rational value")
        return sum((c * q0 ** e for e, c in self.terms.items()), Fraction(0))

    # polynomial helpers; these require integer exponents >= 0

    def _polydiv(self, other):
        assert other.terms
        rem = dict(self.terms)
        quo = {}
        dmax = other.max_exp()
        dlead = other.terms[dmax]
        while rem:
            rmax = max(rem)
            if rmax < dmax:
                break
            f = rem[rmax] / dlead
            k = rmax - dmax
            quo[k] = f
            for e, c in other.terms.items():
                s = rem.get(e + k, 0) - f * c
                if s:
                    rem[e + k] = s
                else:
                    rem.pop(e + k, None)
        return LaurentPoly(quo), LaurentPoly(rem)

    def __str__(self):
        return render_poly(self)

    __repr__ = __str__


def _poly_gcd(a, b):
    """Monic gcd of two polynomials (integer exponents >= 0)."""
    while not b.is_zero():
        _, r = a._polydiv(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scalar_mul(1 / a.leading_coeff())


def _common_exponent_scale(*polys):
    """Smallest r such that every exponent times r is an integer."""
    r = 1
    for p in polys:
        for e in p.terms:
            if isinstance(e, Fraction):
                d = e.denominator
                g = _gcd_int(r, d)
                r = r * d // g
    return r


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


class Scalar:
    """Canonical element of Q(q): numerator / denominator, reduced.

    Invariants: the denominator is nonzero, has lowest exponent 0 and leading
    coefficient 1, and shares no polynomial factor with the numerator.  Equal
    fractions always compare structurally equal.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = LaurentPoly.one()
        if _normalized:
            self.num, self.den = num, den
        else:
            self.num, self.den = _normalize(num, den)
        self._hash = None

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def q(cls):
        return cls(LaurentPoly.q(), _normalized=True)

    @classmethod
    def from_rational(cls, c):
        c = _fr(c)
        if not c:
            return _ZERO
        return cls(LaurentPoly.const(c), _normalized=True)

    @classmethod
    def from_int(cls, n):
        return cls.from_rational(n)

    @classmethod
    def q_power(cls, exp, coeff=1):
        coeff = _fr(coeff)
        if not coeff:
            return _ZERO
        return cls(LaurentPoly.monomial(exp, coeff), _normalized=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other):
        if other.is_zero():
            return self
        if self.den == other.den:
            return Scalar(self.num - other.num, self.den)
        return Scalar(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __neg__(self):
        return Scalar(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return _ZERO
        if self.den.is_one() and other.den.is_one():
            return Scalar(self.num * other.num, _normalized=True)
        return Scalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ScalarDivisionError("division by zero scalar")
        if self.is_zero():
            return _ZERO
        return Scalar(self.num * other.den, self.den * other.num)

    def inverse(self):
        return _ONE / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer power expected")
        if n == 0:
            return _ONE
        base = self if n > 0 else self.inverse()
        out = _ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def has_fractional_exponents(self):
        return (self.num.has_fractional_exponents()
                or self.den.has_fractional_exponents())

    def evaluate_at(self, q0):
        """The rational number self(q0); exact, with pole detection."""
        q0 = _fr(q0)
        if q0 == 0:
            raise SpecializationError("cannot specialize at q0 = 0")
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError("pole at q0 = %s" % q0)
        return self.num.evaluate(q0) / d

    def __str__(self):
        return render_scalar(self)

    __repr__ = __str__


def _normalize(num, den):
    """Canonical representative of num/den; see Scalar invariants."""
    if den.is_zero():
        raise ScalarDivisionError("zero denominator")
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    r = _common_exponent_scale(num, den)
    if r != 1:
        num = num.scale_exponents(r)
        den = den.scale_exponents(r)
    sn, sd = num.min_exp(), den.min_exp()
    num = num.shift(-sn)
    den = den.shift(-sd)
    g = _poly_gcd(num, den)
    if not g.is_one():
        num, _ = num._polydiv(g)
        den, _ = den._polydiv(g)
    lead = den.leading_coeff()
    if lead != 1:
        num = num.scalar_mul(1 / lead)
        den = den.scalar_mul(1 / lead)
    num = num.shift(sn - sd)
    if r != 1:
        inv = Fraction(1, r)
        num = num.scale_exponents(inv)
        den = den.scale_exponents(inv)
    return num, den


ZERO = _ZERO = Scalar(LaurentPoly.zero(), _normalized=True)
ONE = _ONE = Scalar(LaurentPoly.one(), _normalized=True)
Q = Scalar(LaurentPoly.q(), _normalized=True)


def evaluate_at(a, q0):
    return a.evaluate_at(q0)


def qlambda():
    """The default normalization constant q - q^-1."""
    return Scalar(LaurentPoly({1: 1, -1: -1}), _normalized=True)


# ---------------------------------------------------------------------------
# rendering

def _render_exp(e):
    if isinstance(e, Fraction):
        return "(%d/%d)" % (e.numerator, e.denominator)
    if e < 0:
        return str(e)
    return str(e)


def _render_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def render_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        if e == 0:
            body = _render_coeff(abs(c))
        else:
            base = "q" if e == 1 else "q^%s" % _render_exp(e)
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
# parsing (the textual grammar shared with the CLI: + - * / ^ parentheses,
# integer literals, and the variable q with integer or (p/r) exponents)

class _ScalarTokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.pos = i
        if i >= len(t):
            return None
        return t[i]

    def take(self):
        c = self.peek()
        if c is not None:
            self.pos += 1
        return c

    def number(self):
        t = self.text
        i = self.pos
        j = i
        while j < len(t) and t[j].isdigit():
            j += 1
        self.pos = j
        return int(t[i:j])


def parse_scalar(text):
    """Parse the scalar grammar, e.g. '(q - q^-1)/(q^2 + 1)'."""
    toks = _ScalarTokens(text)
    val = _parse_sum(toks)
    if toks.peek() is not None:
        raise ScalarParseError("trailing input in scalar", toks.pos)
    return val


def _parse_sum(toks):
    val = _parse_product(toks)
    while True:
        c = toks.peek()
        if c == "+":
            toks.take()
            val = val + _parse_product(toks)
        elif c == "-":
            toks.take()
            val = val - _parse_product(toks)
        else:
            return val


def _parse_product(toks):
    val = _parse_power(toks)
    while True:
        c = toks.peek()
        if c == "*":
            toks.take()
            val = val * _parse_power(toks)
        elif c == "/":
            toks.take()
            try:
                val = val / _parse_power(toks)
            except ScalarDivisionError:
                raise ScalarParseError("division by zero in scalar", toks.pos)
        else:
            return val


def _parse_power(toks):
    val = _parse_atom(toks)
    if toks.peek() == "^":
        toks.take()
        exp = _parse_exponent(toks)
        if isinstance(exp, Fraction):
            if not (val.den.is_one() and len(val.num.terms) == 1
                    and val.num.leading_coeff() == 1):
                raise ScalarParseError("fractional exponent only allowed on q",
                                       toks.pos)
            return Scalar.q_power(val.num.max_exp() * exp)
        return val ** exp
    return val


def _parse_exponent(toks):
    c = toks.peek()
    if c == "(":
        toks.take()
        num = _parse_signed_int(toks)
        if toks.peek() != "/":
            raise ScalarParseError("expected / in fractional exponent", toks.pos)
        toks.take()
        den = _parse_signed_int(toks)
        if toks.peek() != ")":
            raise ScalarParseError("expected ) after fractional exponent", toks.pos)
        toks.take()
        f = Fraction(num, den)
        return int(f) if f.denominator == 1 else f
    return _parse_signed_int(toks)


def _parse_signed_int(toks):
    sign = 1
    c = toks.peek()
    if c == "-":
        toks.take()
        sign = -1
    elif c == "+":
        toks.take()
    c = toks.peek()
    if c is None or not c.isdigit():
        raise ScalarParseError("expected integer", toks.pos)
    return sign * toks.number()


def _parse_atom(toks):
    c = toks.peek()
    if c is None:
        raise ScalarParseError("unexpected end of scalar", toks.pos)
    if c == "(":
        toks.take()
        val = _parse_sum(toks)
        if toks.peek() != ")":
            raise ScalarParseError("expected )", toks.pos)
        toks.take()
        return val
    if c == "-":
        toks.take()
        return -_parse_power(toks)
    if c.isdigit():
        return Scalar.from_int(toks.number())
    if c == "q":
        toks.take()
        nxt = toks.text[toks.pos:toks.pos + 1]
        if nxt.isalnum():
            raise ScalarParseError("unknown symbol in scalar", toks.pos)
        return Q
    raise ScalarParseError("unexpected character %r in scalar" % c, toks.pos)
