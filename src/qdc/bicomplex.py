"""The two-row double complex carried by the split differential.

Row r counts canonical-element factors (at most one, since its square
vanishes in the wedge), column s counts complement factors.  The grid is
computed from exact subspace decompositions, and the three split
conditions plus their sum are verified identity by identity.
"""

from __future__ import annotations

import random

from .algebra import AlgebraElement, render_word
from .forms import GradeCapError
from .calculus import CheckReport, SKIPPED


class BicomplexGrid:
    """Cell dimensions and basis words of the (r, s) grid, up to the
    calculus's grade cap."""

    def __init__(self, calc):
        self.calc = calc
        self.cap = calc.grade_cap
        self.cells = {}
        basis = calc.space.basis
        for k in range(self.cap + 1):
            data = calc.grid.data(k)
            d0, d1 = data["dims"]
            u0_labels = [basis.render_word(w) for w in data["u0_words"]]
            u1_labels = [basis.render_word(w) + " /\\ X" if w else "X"
                         for w in data["u1_words"]]
            self.cells[(0, k)] = {"dim": d0, "basis": u0_labels}
            if k >= 1:
                self.cells[(1, k - 1)] = {"dim": d1, "basis": u1_labels}
        self.cells[(0, 0)] = {"dim": 1, "basis": ["1"], "marker": "grade-0"}

    def dim(self, r, s):
        cell = self.cells.get((r, s))
        return cell["dim"] if cell else 0

    def additivity_holds(self, k):
        total = self.calc.space.table.dimension(k)
        return total == self.dim(0, k) + self.dim(1, k - 1)

    def as_dict(self):
        out = {"cap": self.cap, "cells": []}
        for (r, s) in sorted(self.cells):
            cell = self.cells[(r, s)]
            entry = {"r": r, "s": s, "dim": cell["dim"], "basis": cell["basis"]}
            if "marker" in cell:
                entry["marker"] = cell["marker"]
            out["cells"].append(entry)
        out["wedge_dimensions"] = self.calc.space.table.dimensions()[:self.cap + 1]
        empty = self.calc.space.table.first_empty_grade()
        out["first_empty_grade"] = empty
        return out

    def render(self):
        lines = ["bicomplex grid (cap %d)" % self.cap]
        for (r, s) in sorted(self.cells):
            cell = self.cells[(r, s)]
            mark = "  [%s]" % cell["marker"] if "marker" in cell else ""
            lines.append("  (r=%d, s=%d) dim %d: %s%s"
                         % (r, s, cell["dim"], ", ".join(cell["basis"]) or "-",
                            mark))
        dims = self.calc.space.table.dimensions()[:self.cap + 1]
        lines.append("  total wedge dimensions by grade: %s" % dims)
        empty = self.calc.space.table.first_empty_grade()
        lines.append("  first empty wedge grade: %s"
                     % ("not reached within probe" if empty is None else empty))
        return "\n".join(lines)


def cartan_check(calc, degree=None, samples=0, seed=20260809):
    """The split conditions: total, square of each part, anticommutation,
    as two reports, one per sector functional: trace, then counit.

    Each input x is split three times: (partial x, delta x) = split_d(x),
    then each part again; the four conditions read those four values, d o d
    as their sum since d = partial + delta.  With the counit the
    one-dimensional differential is the zero map, so that report reads
    (partial partial x, 0, 0, 0) from the same splits.  An input that a
    split takes out of the grade range is skipped in both reports.
    """
    degree = degree if degree is not None else calc.degree_bound
    rng = random.Random(seed)
    elements = []
    for w in calc.qg.rs.normal_words(degree):
        elements.append(("monomial %s" % render_word(w),
                         calc.space.from_algebra(
                             AlgebraElement.from_word(calc.qg.rs, w))))
    for i in range(calc.space.M):
        elements.append(("basis form %s" % calc.space.basis.label(i),
                         calc.space.one_form(i)))
    max_input = calc.space.table.max_grade - 2
    for g in range(calc.grade_cap + 1):
        for t in range(samples):
            x = calc.random_form(rng, min(g, max_input))
            if not x.is_zero():
                elements.append(("random grade-%d #%d" % (min(g, max_input), t), x))

    # each law reads (partial partial x, delta partial x, partial delta x,
    # delta delta x)
    checks = [
        ("d-squared", "d o d = 0 (total differential)",
         lambda pp, dp, pd, dd: pp + dp + pd + dd),
        ("partial-squared", "partial o partial = 0", lambda pp, dp, pd, dd: pp),
        ("delta-squared", "delta o delta = 0", lambda pp, dp, pd, dd: dd),
        ("anticommute", "partial delta + delta partial = 0",
         lambda pp, dp, pd, dd: pd + dp),
    ]

    # index -> the four values, or None where a split left the grade range;
    # filled as the laws first reach each input
    parts = {}
    zero = calc.space.zero()

    def outcomes(op, counit):
        for i, (name, x) in enumerate(elements):
            if max(x.grades(), default=0) > max_input:
                yield SKIPPED
                continue
            if i not in parts:
                try:
                    px, dx = calc.split_d(x)
                    parts[i] = calc.split_d(px) + calc.split_d(dx)
                except GradeCapError:
                    parts[i] = None
            if parts[i] is None:
                yield SKIPPED
                continue
            values = (parts[i][0], zero, zero, zero) if counit else parts[i]
            val = op(*values)
            yield None if val.is_zero() else "%s -> %s" % (name, val.render())

    reports = []
    for counit in (False, True):
        report = CheckReport("cartan", degree)
        for law, desc, op in checks:
            report.law(law, desc, outcomes(op, counit))
        reports.append(report)
    return reports


def grid_check(calc):
    """Dimension additivity of the grid, as a report."""
    grid = BicomplexGrid(calc)
    report = CheckReport("bicomplex-grid", calc.degree_bound)
    for k in range(1, grid.cap + 1):
        report.law("additivity-grade-%d" % k,
                   "wedge dimension at grade %d splits over the two rows" % k,
                   [None if grid.additivity_holds(k) else "dim %d vs %d + %d"
                    % (calc.space.table.dimension(k), grid.dim(0, k),
                       grid.dim(1, k - 1))])
    return report
