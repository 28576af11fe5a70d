"""The textual grammar: tokenizer, parser and printer, syntax only.

Grammar: integers, the parameter q, generators t[a,b], one-forms w[a,b],
the canonical element X, differentials d(...), del(...), dlt(...),
operators + - * / ^ and the wedge /\\ with precedence ^ > * / > /\\ > + -.
An exponent is an integer or (p/r), optionally negated.  Expressions and
R-matrix scalars are both read with this one parser; what a tree means is
up to the caller (qdc.cli evaluates it, qdc.scalars folds its scalar part).
"""

from __future__ import annotations

from fractions import Fraction


class ExprError(ValueError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# tokenizer

_NAMES = ("del", "dlt", "d", "t", "w", "X", "q")


def tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("/\\", i):
            toks.append(("wedge", "/\\", i))
            i += 2
            continue
        if c in "+-*/^()[],":
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in _NAMES:
                raise ExprError("unknown symbol %r" % name, i)
            toks.append(("name", name, i))
            i = j
            continue
        raise ExprError("unexpected character %r" % c, i)
    return toks


# ---------------------------------------------------------------------------
# parser (precedence climbing); AST nodes are tuples

_PREC = {"+": 0, "-": 0, "wedge": 1, "*": 2, "/": 2, "^": 3}

# Deepest nesting parse accepts.  Parsing, evaluating and printing a tree
# recurse once or twice per level, so a deeper tree would exhaust Python's
# recursion limit.
MAX_DEPTH = 200


class _Stream:
    def __init__(self, toks, text):
        self.toks = toks
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ExprError("unexpected end of input", len(self.text))
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ExprError("expected %r, found %r" % (kind, t[1]), t[2])
        return t


def parse(text):
    """Parse an expression; returns an AST of nested tuples.  An expression
    nested deeper than MAX_DEPTH levels is refused."""
    toks = tokenize(text)
    stream = _Stream(toks, text)
    ast = _parse_expr(stream, 0)
    rest = stream.peek()
    if rest is not None:
        raise ExprError("trailing input %r" % (rest[1],), rest[2])
    # each node takes at least one token, so only a long input can build a
    # deep tree without deep recursion: a chain such as 1 + 1 + ... + 1
    if len(toks) > MAX_DEPTH and _height(ast) > MAX_DEPTH:
        raise ExprError("expression nested too deeply")
    return ast


def _height(ast):
    """The number of levels of a tree, counted without recursion."""
    height, stack = 0, [(ast, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in node[1:]
                     if isinstance(child, tuple))
    return height


def _parse_expr(s, min_prec):
    s.depth += 1
    if s.depth > MAX_DEPTH:
        t = s.peek()
        raise ExprError("expression nested too deeply",
                        t[2] if t else len(s.text))
    lhs = _parse_atom(s)
    while True:
        t = s.peek()
        if t is None or t[0] not in _PREC:
            break
        op = t[0]
        prec = _PREC[op]
        if prec < min_prec:
            break
        s.next()
        if op == "^":
            rhs = _parse_exponent(s)
            lhs = ("pow", lhs, rhs)
            continue
        rhs = _parse_expr(s, prec + 1)
        lhs = (op, lhs, rhs)
    s.depth -= 1
    return lhs


def _parse_exponent(s):
    t = s.peek()
    sign = 1
    if t is not None and t[0] == "-":
        s.next()
        sign = -1
    if s.peek() is not None and s.peek()[0] == "(":
        s.next()
        num = _parse_signed_int(s)
        s.expect("/")
        den = _parse_signed_int(s)
        close = s.expect(")")
        if den == 0:
            raise ExprError("zero denominator in exponent", close[2])
        return sign * Fraction(num, den)
    t = s.expect("int")
    return sign * t[1]


def _parse_signed_int(s):
    sign = 1
    if s.peek() is not None and s.peek()[0] == "-":
        s.next()
        sign = -1
    return sign * s.expect("int")[1]


def _parse_atom(s):
    t = s.next()
    kind, val, pos = t
    if kind == "(":
        inner = _parse_expr(s, 0)
        s.expect(")")
        return inner
    if kind == "-":
        # unary minus binds looser than exponentiation: -q^2 = -(q^2)
        return ("neg", _parse_expr(s, _PREC["^"]))
    if kind == "int":
        return ("int", val)
    if kind == "name":
        if val == "q":
            return ("q",)
        if val == "X":
            return ("X",)
        if val in ("d", "del", "dlt"):
            s.expect("(")
            inner = _parse_expr(s, 0)
            s.expect(")")
            return (val, inner)
        if val in ("t", "w"):
            s.expect("[")
            a = _parse_signed_int(s)
            s.expect(",")
            b = _parse_signed_int(s)
            s.expect("]")
            return (val, a, b, pos)
    raise ExprError("unexpected token %r" % (val,), pos)


def print_ast(ast):
    """Canonical rendering of a parse tree (round-trips through parse)."""
    kind = ast[0]
    if kind == "int":
        return str(ast[1])
    if kind == "q":
        return "q"
    if kind == "X":
        return "X"
    if kind in ("t", "w"):
        return "%s[%d,%d]" % (kind, ast[1], ast[2])
    if kind in ("d", "del", "dlt"):
        return "%s(%s)" % (kind, print_ast(ast[1]))
    if kind == "neg":
        return "-%s" % _wrap(ast[1], 9)
    if kind == "pow":
        e = ast[2]
        es = str(e) if isinstance(e, int) else "(%d/%d)" % (e.numerator,
                                                            e.denominator)
        return "%s^%s" % (_wrap(ast[1], 9), es)
    op = {"+": " + ", "-": " - ", "*": "*", "/": "/", "wedge": " /\\ "}[kind]
    prec = _PREC[kind]
    return "%s%s%s" % (_wrap(ast[1], prec), op, _wrap(ast[2], prec + 1))


def _wrap(ast, outer_prec):
    inner = print_ast(ast)
    kind = ast[0]
    if kind in _PREC and _PREC[kind] < outer_prec:
        return "(%s)" % inner
    if kind == "neg" and outer_prec > 0:
        return "(%s)" % inner
    return inner
