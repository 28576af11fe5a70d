"""Correctness oracles that do not come from qdc.

- ``EXPECTED``: hand-written verdict tables, one (suite, law, gating,
  status) row per check entry, in report order.  Every gating law is PASS;
  the non-gating laws carry their documented outcomes for the connected
  inner calculus (e.g. ``projector-right-module`` is FAIL).
- ``wedge_dims_ok``: exterior-algebra dimensions are binomial coefficients
  C(M, k) of the one-form dimension M = N^2.
- ``scalar_agrees``: a pure-scalar expression and qdc's rendering of it are
  equal as rational functions, by sympy's ``cancel``.  sympy is imported
  only here, in the parent process, so it never shows in a session's time
  or memory.
"""

from __future__ import annotations

import math

_HOPF = [("hopf", law, True, "pass")
         for law in ("coassociativity", "counit", "antipode")]

_BICOVARIANCE = [("bicovariance", law, True, "pass") for law in (
    "well-defined-L+", "well-defined-L-", "well-defined-f",
    "well-defined-chi", "well-defined-eps", "unit-values",
    "braiding-braid-relation", "braiding-invertible",
    "braiding-classical-limit", "bracket-structure-constants",
    "braiding-f-exchange", "mixed-exchange", "chi-f-exchange",
    "antipode-of-chi", "f-inverse-law", "symmetric-vanishing",
    "symmetric-space-dim", "q-jacobi")] + [
    ("bicovariance", "alt-quadratic-rule", False, "fail")]

_LEIBNIZ = [
    ("leibniz", "leibniz-d", True, "pass"),
    ("leibniz", "leibniz-graded", True, "pass"),
    ("leibniz", "leibniz-sector-trace", True, "pass"),
    ("leibniz", "leibniz-sector-counit", True, "pass"),
    ("leibniz", "leibniz-partial-twisted", True, "pass"),
    ("leibniz", "leibniz-partial-plain", False, "fail"),
    ("leibniz", "projector-idempotent", True, "pass"),
    ("leibniz", "projector-orthogonal", True, "pass"),
    ("leibniz", "projector-complete", True, "pass"),
    ("leibniz", "projector-right-module", False, "fail"),
    ("leibniz", "canonical-line-submodule", False, "fail"),
    ("leibniz", "canonical-line-projected-rule", True, "pass"),
    ("leibniz", "canonical-square", True, "pass"),
    ("leibniz", "complement-right-stable", True, "pass"),
    ("leibniz", "duality-pairing", True, "pass"),
    ("leibniz", "d-left-covariant", True, "pass"),
    ("leibniz", "d-chi-expansion", True, "pass"),
    ("leibniz", "right-coaction-intertwiner", False, "pass"),
]

# cartan runs once per sector functional (trace, counit), then the grid.
_CARTAN = 2 * [("cartan", law, True, "pass") for law in (
    "d-squared", "partial-squared", "delta-squared", "anticommute")] + [
    ("bicomplex-grid", "additivity-grade-%d" % k, True, "pass")
    for k in (1, 2, 3)]

_ROUNDTRIP_LAWS = ("extension-valid", "extension-rank", "roundtrip-identity")
# roundtrip runs for trace, then counit; only counit is degenerate.
_ROUNDTRIP = [("roundtrip", law, True, "pass") for law in _ROUNDTRIP_LAWS] \
    + [("roundtrip", law, True, "pass")
       for law in _ROUNDTRIP_LAWS + ("degenerate-sector",)]

SUITE_ROWS = {"hopf": _HOPF, "bicovariance": _BICOVARIANCE,
              "leibniz": _LEIBNIZ, "cartan": _CARTAN,
              "roundtrip": _ROUNDTRIP}

# The workloads' suite lists share rows: a law's outcome depends on the
# calculus, and these three sessions agree on every law they run.
EXPECTED = {
    "check-sl2-d3": [r for s in ("hopf", "bicovariance", "leibniz", "cartan",
                                 "roundtrip") for r in SUITE_ROWS[s]],
    "sl3-d1": _HOPF + _BICOVARIANCE + _ROUNDTRIP,
    "eval-sl2-stream": list(_HOPF),
}


def verdict_failures(expected, rows):
    """Number of rows that differ from the table, or are gating and not PASS.

    A missing or extra row counts as one failure each.
    """
    rows = [tuple(r) for r in rows]
    failed = abs(len(rows) - len(expected))
    for got, want in zip(rows, expected):
        if got != tuple(want) or (got[2] and got[3] != "pass"):
            failed += 1
    return failed


def wedge_dims_ok(n, dims):
    m = n * n
    return list(dims) == [math.comb(m, k) for k in range(len(dims))]


class ScalarOracle:
    """Compares qdc's scalar renderings with sympy, one cached verdict each."""

    def __init__(self):
        import sympy
        self._sympy = sympy
        # q = s^6 with s > 0 makes every half- and third-power of q a
        # monomial in s, so both sides are rational functions of s.
        self._s = sympy.Symbol("s", positive=True)
        self._seen = {}

    def _value(self, text):
        return self._sympy.sympify(text.replace("^", "**"),
                                   locals={"q": self._s ** 6})

    def agrees(self, expression, rendering):
        key = (expression, rendering)
        if key not in self._seen:
            diff = self._value(expression) - self._value(rendering)
            self._seen[key] = self._sympy.cancel(diff) == 0
        return self._seen[key]
