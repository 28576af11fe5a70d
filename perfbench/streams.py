"""Seeded expression streams for the benchmark's eval phase.

The stream is plain text in qdc's expression grammar; qdc sees nothing of
the seed.  Every block of sixteen expressions has the same mix of kinds, in
a seeded order, so that different seeds give streams of the same cost
profile with different operands:

- ``d`` of a fresh monomial, degrees cycling through 1..max_degree;
- Leibniz residuals ``d(A*B) - d(A)*B - A*d(B)``;
- ``d(d(x))``;
- ``del(x) + dlt(x) - d(x)``;
- wedges of one-forms with a scalar coefficient;
- pure-scalar expressions, with half-integer powers of q.

Each entry is ``(check, text)``: ``check`` says how the oracle judges the
result ("identity": renders exactly ``0``; "value": re-parses to itself;
"scalar": agrees with sympy).
"""

from __future__ import annotations

import itertools
import random

# As many cheap kinds (wedge, scalar) as costly ones (the identities), so the
# median latency falls inside the range of ``d`` and not in a gap between
# cost clusters, where it would jump with small changes of the mix.
BLOCK = ("d",) * 4 + ("leibniz", "dd", "split") * 2 + ("wedge", "scalar") * 3

CHECK_OF = {"d": "value", "wedge": "value", "leibniz": "identity",
            "dd": "identity", "split": "identity", "scalar": "scalar"}

# Scalar divisors: nonzero in Q(q), so no generated division can fail.
DIVISORS = ("(q^2 + 1)", "(q + 2)", "(q^(1/2) + 1)", "(q - q^-1)",
            "(2*q + 3)", "(q^3 - 2)")
ATOMS = ("q", "q^-1", "q^(1/2)", "q^(-1/2)", "2", "3", "5", "(q - q^-1)",
         "(q + 1)")


class _Gen:
    """Expression shapes (degrees, splits, form counts) cycle in a fixed
    order; the seed picks only the generators, one-forms, scalars and the
    order within a block.  So the cost of a stream hardly depends on the
    seed."""

    def __init__(self, seed, n, max_degree):
        self.rng = random.Random(seed)
        self.n = n
        self.degrees = itertools.cycle(range(1, max_degree + 1))
        total = max(2, max_degree)
        self.splits = itertools.cycle([(a, t - a) for t in range(2, total + 1)
                                       for a in range(1, t)])
        operands = list(itertools.product(
            range(1, max(1, max_degree // 2) + 1), (False, True)))
        self.operands = {"dd": itertools.cycle(operands),
                         "split": itertools.cycle(operands)}
        self.form_counts = itertools.cycle((2, 3))

    def generator(self):
        return "t[%d,%d]" % (self.rng.randint(1, self.n),
                             self.rng.randint(1, self.n))

    def one_form(self):
        return "w[%d,%d]" % (self.rng.randint(1, self.n),
                             self.rng.randint(1, self.n))

    def monomial(self, degree):
        return "*".join(self.generator() for _ in range(degree))

    def operand(self, kind):
        """A monomial, every other time times a one-form."""
        degree, with_form = next(self.operands[kind])
        mono = self.monomial(degree)
        return "%s*%s" % (mono, self.one_form()) if with_form else mono

    def scalar(self, depth):
        if depth == 0:
            return self.rng.choice(ATOMS)
        op = self.rng.choice("+-*/^")
        if op == "/":
            return "(%s)/%s" % (self.scalar(depth - 1),
                                self.rng.choice(DIVISORS))
        if op == "^":
            return "(%s)^%d" % (self.scalar(depth - 1), self.rng.randint(2, 3))
        return "(%s %s %s)" % (self.scalar(depth - 1), op,
                               self.scalar(depth - 1))

    def expression(self, kind):
        if kind == "d":
            return "d(%s)" % self.monomial(next(self.degrees))
        if kind == "leibniz":
            left, right = next(self.splits)
            a, b = self.monomial(left), self.monomial(right)
            return "d(%s*%s) - d(%s)*%s - %s*d(%s)" % (a, b, a, b, a, b)
        if kind == "dd":
            return "d(d(%s))" % self.operand(kind)
        if kind == "split":
            x = self.operand(kind)
            return "del(%s) + dlt(%s) - d(%s)" % (x, x, x)
        if kind == "wedge":
            forms = [self.one_form() for _ in range(next(self.form_counts))]
            return "(%s) * %s" % (self.scalar(1), " /\\ ".join(forms))
        if kind == "scalar":
            return self.scalar(3)
        raise ValueError("unknown expression kind %r" % kind)


def generate(seed, n, max_degree, count):
    """``count`` (check, text) pairs for an N=n session, from ``seed``."""
    gen = _Gen(seed, n, max_degree)
    out = []
    while len(out) < count:
        block = list(BLOCK)
        gen.rng.shuffle(block)
        out.extend((CHECK_OF[k], gen.expression(k)) for k in block)
    return out[:count]
