"""Spans and counters around qdc's module entry points, from outside qdc.

``Tracer.install`` replaces each traced function or method with a wrapper
that counts the call and records a span: inclusive time (outermost call
only, so recursion is not double counted) and self time per layer
(inclusive time minus the child spans it contains).  Functions that other
qdc modules imported by name are replaced there too.  ``uninstall``
restores every original.

Nothing here changes what qdc computes, so counts repeat exactly for the
same inputs; times include the wrappers' own cost.
"""

from __future__ import annotations

import random
import time
from collections import Counter

LAYERS = ("scalars", "linalg", "algebra", "functionals", "forms",
          "calculus", "bicomplex", "suites", "cli")

# (module, attribute, span name, layer).  The span name is the metric
# prefix; the layer is the module whose code runs inside the span.
TARGETS = (
    ("scalars", "Scalar.__add__", "scalars.add", "scalars"),
    ("scalars", "Scalar.__sub__", "scalars.sub", "scalars"),
    ("scalars", "Scalar.__mul__", "scalars.mul", "scalars"),
    ("scalars", "Scalar.__truediv__", "scalars.div", "scalars"),
    ("scalars", "_normalize", "scalars.reductions", "scalars"),
    ("linalg", "rref_sparse", "linalg.rref_sparse", "linalg"),
    ("linalg", "kernel_basis", "linalg.kernel_basis", "linalg"),
    ("linalg", "rank_at_specializations", "linalg.rank_at_specializations",
     "linalg"),
    ("linalg", "mat_mul", "linalg.mat_mul", "linalg"),
    ("linalg", "mat_inverse", "linalg.mat_inverse", "linalg"),
    ("algebra", "load_rmatrix", "calculus.stage.rmatrix", "algebra"),
    ("algebra", "QuantumGroup.__init__", "calculus.stage.quantum_group",
     "algebra"),
    ("algebra", "AlgebraElement.__mul__", "algebra.mul", "algebra"),
    ("algebra", "RewriteSystem.reduce_word", "algebra.reduce_word",
     "algebra"),
    ("algebra", "QuantumGroup.coproduct_word", "algebra.coproduct", "algebra"),
    ("functionals", "DualStructure.__init__", "calculus.stage.dual",
     "functionals"),
    ("functionals", "make_lambda", "functionals.make_lambda", "functionals"),
    ("functionals", "make_C", "functionals.make_C", "functionals"),
    ("functionals", "CorepFamily.word_matrix", "functionals.word_matrix",
     "functionals"),
    ("functionals", "convolve", "functionals.convolve", "functionals"),
    ("forms", "FormSpace.__init__", "calculus.stage.form_space", "forms"),
    ("forms", "WedgeTable.__init__", "forms.wedge_table", "forms"),
    ("forms", "FormElement.wedge", "forms.wedge", "forms"),
    ("forms", "FormSpace.pass_algebra_through", "forms.pass_algebra_through",
     "forms"),
    ("calculus", "assemble", "calculus.assemble", "calculus"),
    ("calculus", "Calculus.d", "calculus.d", "calculus"),
    ("calculus", "GridSplit.split_component", "calculus.split_component",
     "calculus"),
    ("calculus", "Calculus.partial", "calculus.partial", "calculus"),
    ("calculus", "Calculus.delta", "calculus.delta", "calculus"),
    ("bicomplex", "cartan_check", "bicomplex.cartan_check", "bicomplex"),
    ("bicomplex", "grid_check", "bicomplex.grid_check", "bicomplex"),
    ("cli", "parse", "cli.parse", "cli"),
    ("cli", "evaluate_ast", "cli.evaluate", "cli"),
    ("cli", "render_value", "cli.render", "cli"),
)

SUITE_NAMES = ("hopf", "bicovariance", "leibniz", "cartan", "roundtrip")

# Per-layer metrics in report order: (name, unit, better).
METRICS = (
    ("scalars.mul_calls", "count", "lower"),
    ("scalars.add_calls", "count", "lower"),
    ("scalars.div_calls", "count", "lower"),
    ("scalars.reductions", "count", "lower"),
    ("scalars.mul_distinct_ratio", "ratio", "higher"),
    ("scalars.replay_mul_us", "us", "lower"),
    ("scalars.replay_add_us", "us", "lower"),
    ("algebra.mul_calls", "count", "lower"),
    ("algebra.mul_s", "s", "lower"),
    ("algebra.reduce_word_calls", "count", "lower"),
    ("algebra.rewrite_miss_ratio", "ratio", "lower"),
    ("algebra.coproduct_word_calls", "count", "lower"),
    ("algebra.coproduct_s", "s", "lower"),
    ("algebra.rewrite_cache_entries", "count", "lower"),
    ("functionals.make_lambda_s", "s", "lower"),
    ("functionals.make_C_s", "s", "lower"),
    ("functionals.word_matrix_calls", "count", "lower"),
    ("functionals.word_matrix_s", "s", "lower"),
    ("functionals.convolve_calls", "count", "lower"),
    ("functionals.convolve_s", "s", "lower"),
    ("functionals.conv_cache_entries", "count", "lower"),
    ("linalg.rref_sparse_calls", "count", "lower"),
    ("linalg.rref_sparse_s", "s", "lower"),
    ("linalg.kernel_basis_s", "s", "lower"),
    ("linalg.rank_at_specializations_s", "s", "lower"),
    ("forms.wedge_table_s", "s", "lower"),
    ("forms.wedge_calls", "count", "lower"),
    ("forms.wedge_s", "s", "lower"),
    ("forms.pass_algebra_through_calls", "count", "lower"),
    ("forms.pass_algebra_through_s", "s", "lower"),
    ("forms.pass_cache_entries", "count", "lower"),
    ("calculus.d_calls", "count", "lower"),
    ("calculus.d_s", "s", "lower"),
    ("calculus.split_component_calls", "count", "lower"),
    ("calculus.split_component_s", "s", "lower"),
    ("calculus.partial_s", "s", "lower"),
    ("calculus.delta_s", "s", "lower"),
    ("calculus.stage.rmatrix_s", "s", "lower"),
    ("calculus.stage.quantum_group_s", "s", "lower"),
    ("calculus.stage.dual_s", "s", "lower"),
    ("calculus.stage.form_space_s", "s", "lower"),
    ("bicomplex.cartan_check_s", "s", "lower"),
    ("bicomplex.grid_check_s", "s", "lower"),
) + tuple(("suites.%s_s" % s, "s", "lower") for s in SUITE_NAMES) + (
    ("suites.gating_laws", "count", "higher"),
    ("cli.parse_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
) + tuple(("%s.self_s" % layer, "s", "lower") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio", "lower"),
)


class _Reservoir:
    """Uniform seeded sample of everything offered (algorithm R)."""

    def __init__(self, rng, size):
        self.rng = rng
        self.size = size
        self.items = []
        self.seen = 0

    def offer(self, item):
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = int(self.rng.random() * self.seen)
            if j < self.size:
                self.items[j] = item


class Tracer:
    def __init__(self, modules, sample_seed, sample_size=4096):
        self.modules = modules          # short name -> imported qdc module
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._active = Counter()
        self._stack = [[0.0]]           # root frame: untraced caller time
        self._undo = []
        rng = random.Random(sample_seed)
        self.mul_pairs = set()
        self.mul_sample = _Reservoir(rng, sample_size)
        self.add_sample = _Reservoir(rng, sample_size)
        self.rewrite_growth = 0
        self.families = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        calls, inclusive, active = self.calls, self.inclusive, self._active
        stack, self_s, perf = self._stack, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                active[name] -= 1
                if not active[name]:
                    inclusive[name] += elapsed

        return traced

    def call(self, name, layer, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self._wrap(fn, name, layer)(*args)

    # -- observers that feed the derived metrics --------------------------

    def _observers(self):
        mods = self.modules
        scalar_cls = mods["scalars"].Scalar
        orig_mul, orig_add = scalar_cls.__mul__, scalar_cls.__add__
        pairs, mul_sample = self.mul_pairs, self.mul_sample
        add_sample = self.add_sample

        def mul(a, b):
            pairs.add((a, b))
            mul_sample.offer((a, b))
            return orig_mul(a, b)

        def add(a, b):
            add_sample.offer((a, b))
            return orig_add(a, b)

        orig_reduce = mods["algebra"].RewriteSystem.reduce_word

        def reduce_word(rs, word):
            before = len(rs._cache)
            out = orig_reduce(rs, word)
            self.rewrite_growth += len(rs._cache) - before
            return out

        family_cls = mods["functionals"].CorepFamily
        orig_init = family_cls.__init__

        def family_init(fam, *args, **kwargs):
            orig_init(fam, *args, **kwargs)
            self.families.append(fam)

        self._set(family_cls, "__init__", family_init)
        return {"scalars.mul": mul, "scalars.add": add,
                "algebra.reduce_word": reduce_word}

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        observers = self._observers()
        for mod_name, path, name, layer in TARGETS:
            owner = self.modules[mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            wrapped = self._wrap(observers.get(name, original), name, layer)
            if len(parts) > 1:
                self._set(owner, attr, wrapped)
                continue
            # a module-level function: replace it wherever it was imported
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self, calc, gating_laws, replay):
        """Every per-layer metric but ``trace.overhead_ratio``, which needs
        the untraced session too."""
        c, t = self.calls, self.inclusive
        mul_calls = c["scalars.mul"]
        reduce_calls = c["algebra.reduce_word"]
        values = {
            "scalars.mul_calls": mul_calls,
            "scalars.add_calls": c["scalars.add"] + c["scalars.sub"],
            "scalars.div_calls": c["scalars.div"],
            "scalars.reductions": c["scalars.reductions"],
            "scalars.mul_distinct_ratio":
                len(self.mul_pairs) / mul_calls if mul_calls else 0.0,
            "scalars.replay_mul_us": replay["mul"],
            "scalars.replay_add_us": replay["add"],
            "algebra.mul_calls": c["algebra.mul"],
            "algebra.mul_s": t["algebra.mul"],
            "algebra.reduce_word_calls": reduce_calls,
            "algebra.rewrite_miss_ratio":
                self.rewrite_growth / reduce_calls if reduce_calls else 0.0,
            "algebra.coproduct_word_calls": c["algebra.coproduct"],
            "algebra.coproduct_s": t["algebra.coproduct"],
            "algebra.rewrite_cache_entries": len(calc.qg.rs._cache),
            "functionals.make_lambda_s": t["functionals.make_lambda"],
            "functionals.make_C_s": t["functionals.make_C"],
            "functionals.word_matrix_calls": c["functionals.word_matrix"],
            "functionals.word_matrix_s": t["functionals.word_matrix"],
            "functionals.convolve_calls": c["functionals.convolve"],
            "functionals.convolve_s": t["functionals.convolve"],
            "functionals.conv_cache_entries":
                sum(len(f._conv_cache) for f in self.families),
            "linalg.rref_sparse_calls": c["linalg.rref_sparse"],
            "linalg.rref_sparse_s": t["linalg.rref_sparse"],
            "linalg.kernel_basis_s": t["linalg.kernel_basis"],
            "linalg.rank_at_specializations_s":
                t["linalg.rank_at_specializations"],
            "forms.wedge_table_s": t["forms.wedge_table"],
            "forms.wedge_calls": c["forms.wedge"],
            "forms.wedge_s": t["forms.wedge"],
            "forms.pass_algebra_through_calls":
                c["forms.pass_algebra_through"],
            "forms.pass_algebra_through_s": t["forms.pass_algebra_through"],
            "forms.pass_cache_entries": len(calc.space._pass_cache),
            "calculus.d_calls": c["calculus.d"],
            "calculus.d_s": t["calculus.d"],
            "calculus.split_component_calls": c["calculus.split_component"],
            "calculus.split_component_s": t["calculus.split_component"],
            "calculus.partial_s": t["calculus.partial"],
            "calculus.delta_s": t["calculus.delta"],
            "calculus.stage.rmatrix_s": t["calculus.stage.rmatrix"],
            "calculus.stage.quantum_group_s":
                t["calculus.stage.quantum_group"],
            "calculus.stage.dual_s": t["calculus.stage.dual"],
            "calculus.stage.form_space_s": t["calculus.stage.form_space"],
            "bicomplex.cartan_check_s": t["bicomplex.cartan_check"],
            "bicomplex.grid_check_s": t["bicomplex.grid_check"],
            "suites.gating_laws": gating_laws,
            "cli.parse_s": t["cli.parse"],
            "cli.evaluate_s": t["cli.evaluate"],
            "cli.render_s": t["cli.render"],
        }
        for suite in SUITE_NAMES:
            values["suites.%s_s" % suite] = t["suites.%s" % suite]
        for layer in LAYERS:
            values["%s.self_s" % layer] = self.self_s[layer]
        return values


def replay(pairs, op, repeats=5):
    """Mean microseconds per ``op(a, b)`` over ``pairs``; median of repeats."""
    if not pairs:
        return 0.0
    perf = time.perf_counter
    runs = []
    for _ in range(repeats):
        start = perf()
        for a, b in pairs:
            op(a, b)
        runs.append(perf() - start)
    runs.sort()
    return runs[len(runs) // 2] / len(pairs) * 1e6
