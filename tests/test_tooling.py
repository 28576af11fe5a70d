"""Repository hygiene checks on the engine's source."""

import ast
import json
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdc"


# Functions that only tests call, kept on purpose as public API.
TEST_ONLY_API = {
    # the Hopf structure map S; suites use the word-level antipode_word
    "antipode",
    # the adjoint coaction ad(a) of the paper, checked against its formula
    "adjoint",
    # the central element whose unit quotient gives SL_q(N)
    "quantum_determinant",
    # every functional of the dual structure, for whole-dual sweeps
    "all_functionals",
    # the bracket as a sum of convolution products, one pair at a time: the
    # reference that the structure constants are compared against
    "q_lie_bracket",
}


# Defaulted parameters that no call in src/ or perfbench/ passes, kept on
# purpose: (function, parameter) -> reason.  A constructor is named by its
# class.
TEST_ONLY_PARAMS = {
    ("QuantumGroup", "sl_mode"):
        "the GL presentation, which ROADMAP item 10 builds the SL quotient "
        "on or deletes",
    ("cartan_check", "seed"): "tests size their random sweeps",
    ("leibniz_suite", "samples"): "tests size their random sweeps",
    ("run", "out"): "the seam through which tests capture output",
}


def _trees(*dirs):
    for d in dirs:
        for p in sorted((ROOT / d).rglob("*.py")):
            yield ast.parse(p.read_text(encoding="utf-8"))


def _defined_functions(path):
    """(name, is_method, site) of each non-dunder function in one file;
    a method is a function defined directly in a class body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield (node.name, id(node) in methods,
                       "%s:%d" % (path.name, node.lineno))


def _data_attributes():
    """Attribute names that some code assigns: obj.x = ..., or x = ... in a
    class body.  A read of such a name may be data, not a method."""
    names = set()
    for tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.Assign):
                        names.update(t.id for t in item.targets
                                     if isinstance(t, ast.Name))
    return names


def _references(data, *dirs, own=frozenset()):
    """(functions, methods) referenced in dirs.  A module function counts
    through a bare name or an import; a method through an attribute call,
    or an attribute read of a name that is never data.  A method name in
    own, one that dirs define themselves, does not count."""
    functions, methods = set(), set()
    for tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                functions.add(node.id)
            elif isinstance(node, ast.alias):
                functions.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Attribute):
                methods.add(node.func.attr)
            elif isinstance(node, ast.Attribute) and node.attr not in data:
                methods.add(node.attr)
    return functions, methods - own


def _function_names(d):
    """Names of the functions and methods that the files in d define."""
    return {node.name for tree in _trees(d) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _unreached():
    """(name, site, reached by tests) of each function in src/qdc that
    neither src/ nor perfbench/ reaches.  perfbench calling a method of its
    own (SpeedProbe.scaled) does not reach a qdc method of the same name."""
    data = _data_attributes()
    src = _references(data, "src")
    bench = _references(data, "perfbench", own=_function_names("perfbench"))
    used = (src[0] | bench[0], src[1] | bench[1])
    tested = _references(data, "tests")
    return [(name, site, name in tested[is_method])
            for path in sorted(SRC.glob("*.py"))
            for name, is_method, site in _defined_functions(path)
            if name not in used[is_method]]


def test_every_helper_is_referenced():
    """Each function in src/qdc is referenced somewhere besides its
    definition, in src/, tests/ or perfbench/."""
    dead = ["%s (%s)" % (name, site)
            for name, site, tested in _unreached() if not tested]
    assert not dead, "unreferenced: %s" % ", ".join(dead)


def test_no_helper_only_tests_reach():
    """A function that only tests reach is deleted or named in TEST_ONLY_API;
    a name there that src/ or perfbench/ does reach is stale."""
    test_only = {name for name, _, tested in _unreached() if tested}
    assert test_only <= TEST_ONLY_API, \
        "only tests reach: %s" % ", ".join(sorted(test_only - TEST_ONLY_API))
    assert TEST_ONLY_API <= test_only, \
        "reached outside tests: %s" % ", ".join(sorted(TEST_ONLY_API - test_only))


def test_every_module_import_is_read():
    """Each name that a module-level import in src/qdc binds is read in that
    module.  _references counts an import alias as a reference, so a stale
    import would keep a dead helper alive past
    test_every_helper_is_referenced."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unread.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not unread, "imported but never read: %s" % ", ".join(unread)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_attributes_stay_in_their_module():
    """An underscore-prefixed attribute read of any object but self or cls
    in a src/qdc module names something that module defines: a function or
    method it defines, a name its class bodies assign, or an attribute it
    stores.  Another module reaches that state through a public name."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store):
                own.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and _private(node.attr) and node.attr not in own
                    and getattr(node.value, "id", None) not in ("self", "cls")):
                foreign.append("%s:%d %s" % (path.name, node.lineno,
                                              ast.unparse(node)))
    assert not foreign, "private attributes read from another module: %s" \
        % ", ".join(foreign)


def _defaulted_parameters():
    """(function, parameter, position) of each parameter with a default of a
    function or method in src/qdc.  A constructor is named by its class;
    position counts the arguments after self, and is None for a keyword-only
    parameter."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, args = node.name, node.args
            if name.startswith("__") and name != "__init__":
                continue
            positional = args.posonlyargs + args.args
            if id(node) in owner and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list):
                positional = positional[1:]
            if name == "__init__":
                name = owner[id(node)]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _calls(*dirs):
    """callee name -> [(positional count, has *args, keyword names)] of
    each call in dirs; a **kwargs shows as the keyword name None."""
    calls = {}
    for tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or \
                    getattr(node.func, "attr", None)
                calls.setdefault(name, []).append((
                    len(node.args),
                    any(isinstance(a, ast.Starred) for a in node.args),
                    {k.arg for k in node.keywords}))
    return calls


def test_no_parameter_only_tests_pass():
    """A defaulted parameter that no call in src/ or perfbench/ passes, by
    position or by keyword, is a constant or is named in TEST_ONLY_PARAMS;
    a name there that such a call does pass is stale."""
    calls = _calls("src", "perfbench")
    unpassed = set()
    for name, param, pos in _defaulted_parameters():
        if not any((pos is not None and (n > pos or star))
                   or param in keywords or None in keywords
                   for n, star, keywords in calls.get(name, ())):
            unpassed.add((name, param))
    assert unpassed <= TEST_ONLY_PARAMS.keys(), \
        "only tests pass: %s" % sorted(unpassed - TEST_ONLY_PARAMS.keys())
    assert TEST_ONLY_PARAMS.keys() <= unpassed, \
        "stale: %s" % sorted(TEST_ONLY_PARAMS.keys() - unpassed)


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    """Every (module, attribute) that perfbench/spans.py traces exists in qdc.

    The tracer wraps these names by string, so a rename in qdc would
    otherwise only show up as a failing traced benchmark run.
    """
    spans = _load_spans()
    missing = []
    for module, attribute, _, _ in spans.TARGETS:
        obj = importlib.import_module("qdc." + module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("qdc.%s.%s" % (module, attribute))
    assert not missing, "traced names missing from qdc: %s" % ", ".join(missing)


def test_traced_session_reads_its_metrics():
    """A traced session: perfbench's tracer installed on a fresh N=2
    calculus, hopf at degree 1, then every per-layer metric read.

    metrics() reads caches by attribute name (the rewrite memo, the pass
    memo, each family's convolution memo, the families that
    CorepFamily.__init__ registers), so renaming one fails here.
    """
    spans = _load_spans()
    mods = {name: importlib.import_module("qdc." + name)
            for name in spans.LAYERS}
    tracer = spans.Tracer(mods, sample_seed=1)
    tracer.install()
    try:
        calc = mods["calculus"].assemble()
        reports = tracer.call("suites.hopf", "suites", mods["cli"].run_suite,
                              calc, "hopf", 1)
    finally:
        tracer.uninstall()
    gating = sum(e.gating for r in reports for e in r.entries)
    values = tracer.metrics(calc, gating, {"mul": 0.0, "add": 0.0})
    assert set(values) == {name for name, _, _ in spans.METRICS} - \
        {"trace.overhead_ratio"}
    assert all(r.passed() for r in reports)
    assert values["suites.gating_laws"] == 3
    assert values["algebra.coproduct_word_calls"] > 0
    assert values["algebra.rewrite_cache_entries"] > 0
    assert calc.dual.f in tracer.families
    assert values["suites.hopf_s"] > 0


def _load_tool(name):
    path = ROOT / "tools" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(sha, seed, verdict_s, evals_per_s):
    """The last two lines of a perfbench --trace 0 run."""
    info = {"python": "3.11.7", "nproc": 2, "affinity": 2,
            "cpu_model": "Test CPU", "loadavg": [0.5, 0.5, 0.5],
            "git_sha": sha, "workload": "check-sl2-d3", "seed": seed,
            "stream_seed": seed, "seconds": 30.0, "trace": 0,
            "eval_samples": 1504, "eval_tail_percentile": 99}
    values = {"setup_s": 0.05, "verdict_s": verdict_s, "eval_p50_ms": 0.4,
              "eval_p99_ms": 3.0, "evals_per_s": evals_per_s,
              "peak_rss_mb": 21.0}
    result = {"correct": True, "attempted": 1738, "failed": 0,
              "metrics": {k: {"value": v, "unit": "-"}
                          for k, v in values.items()}}
    return "progress line\n%s\n%s\n" % (json.dumps({"info": info}),
                                        json.dumps(result))


def test_bench_record_from_two_runs(tmp_path, monkeypatch):
    tool = _load_tool("bench_record")
    change, parent = tmp_path / "1_change.txt", tmp_path / "2_parent.txt"
    change.write_text(_canned_run("c" * 40, 7, 1.5, 2000.0))
    parent.write_text(_canned_run("p" * 40, 7, 2.0, 1600.0))
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"memo": {"entries": 3}}))
    monkeypatch.chdir(tmp_path)
    args = ["--label", "t", "--change", "test change", "--parent-sha",
            "p" * 40, "--change-sha", "c" * 40, "--extra", str(extra)]
    assert tool.main(args + [str(change), str(parent)]) == 0

    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["shas"] == {"parent": "p" * 40, "change": "c" * 40}
    assert out["memo"] == {"entries": 3}
    assert out["machine"] == {"affinity": 2, "cpu_model": "Test CPU",
                              "nproc": 2, "python": "3.11.7"}
    assert out["command"].endswith("--seconds 30 --trace 0")
    runs = out["workloads"]["check-sl2-d3"]["runs"]
    assert [(r["side"], r["ran"], r["seed"]) for r in runs] == \
        [("change", "first", 7), ("parent", "second", 7)]
    assert runs[1]["metrics"]["verdict_s"] == 2.0
    medians = out["workloads"]["check-sl2-d3"]["medians"]
    assert set(medians) == {"setup_s", "verdict_s", "eval_p50_ms",
                            "eval_p99_ms", "evals_per_s", "peak_rss_mb"}
    verdict = medians["verdict_s"]
    assert verdict["parent_median"] == 2.0
    assert verdict["parent_quartiles"] == [2.0, 2.0]
    assert verdict["relative_change"] == -0.25
    assert verdict["change_better_pairs"] == 1 and verdict["pairs"] == 1
    # higher is better for throughput; a tie wins for neither side
    assert medians["evals_per_s"]["change_better_pairs"] == 1
    assert medians["setup_s"]["change_better_pairs"] == 0

    # a run of a third commit, or a seed with one side only, is refused
    other = tmp_path / "3_other.txt"
    other.write_text(_canned_run("o" * 40, 8, 1.0, 1.0))
    assert tool.main(args + [str(change), str(parent), str(other)]) == 2
    assert tool.main(args + [str(change)]) == 2


def _python(*args):
    """Standard output of a fresh interpreter on the engine's source, with
    the packaged default R-matrix."""
    env = {k: v for k, v in os.environ.items() if k != "QDC_DEFAULT_RMATRIX"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True).stdout


def test_cli_import_leaves_argparse_out():
    """Sessions import qdc.cli for run_suite and the evaluator; only the
    command line needs argparse."""
    # -S: no site hook may load it first
    loaded = _python("-S", "-c", "import sys, qdc.cli; "
                     "print('argparse' in sys.modules)")
    assert loaded == b"False\n"


def test_one_law_driver():
    """Every check entry is built by CheckReport.law: CheckEntry is
    constructed at one site in src/qdc, and the per-law helpers it replaced
    are gone."""
    sites = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "CheckEntry"]
    assert len(sites) == 1, sites
    assert not hasattr(importlib.import_module("qdc.calculus").CheckReport,
                       "add")
    assert "first_witness" not in _function_names("src")


def test_laws_keep_first_witnesses_and_compare_two_calculi():
    """No report.law call in src/qdc passes a reversed(...) outcome
    argument, so every law names its first failing instance; and the round
    trip compares the outer calculus with the inner one, not with itself:
    OuterCalculus defines no same_as, ExtendedCalculus no
    restrict_to_outer."""
    reversals = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) == "law":
                args = node.args + [k.value for k in node.keywords]
                reversals += ["%s:%d" % (path.name, node.lineno)
                              for arg in args if isinstance(arg, ast.Call)
                              and getattr(arg.func, "id", None) == "reversed"]
    assert reversals == []
    calculus = importlib.import_module("qdc.calculus")
    assert "same_as" not in vars(calculus.OuterCalculus)
    assert "restrict_to_outer" not in vars(calculus.ExtendedCalculus)


def test_braiding_is_plain_sparse_rows():
    """The braiding is a list of sparse rows like every other matrix: src
    defines no LambdaMatrix and reads no .sparse, and a scan for the first
    differing entry over the union of two key sets is written once, in
    linalg.first_difference."""
    scans = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and node.name == "LambdaMatrix"], path.name
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "sparse"], path.name
        # each function by its qualified name, a method under its class
        names = {id(f): f.name for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                names.update((id(f), "%s.%s" % (cls.name, f.name))
                             for f in cls.body if isinstance(f, ast.FunctionDef))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for n, line in enumerate(text.splitlines(), 1):
            if "keys() |" in line:
                inner = max((f for f in funcs if f.lineno <= n <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                scans.append("%s.%s" % (path.stem, names[id(inner)]
                                        if inner else "<module>"))
    assert scans == ["linalg.first_difference"]


def test_r_matrix_is_one_braided_matrix():
    """The R-matrix gate checks the braided form B = PR: Yang-Baxter is
    braid_defect of B, the one braid-relation check, which linalg alone
    defines and both RMatrix._validate and the bicovariance suite call,
    and R^-1 is read off the Hecke relation.  RMatrix calls no
    elimination, and src defines no _yang_baxter_sides or _invert."""
    names = _function_names("src")
    assert "_yang_baxter_sides" not in names and "_invert" not in names
    defined = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name == "braid_defect"]
    assert defined == ["linalg.py"]
    rmatrix = _top_level("algebra.py", "RMatrix")
    validate = next(f for f in rmatrix.body
                    if isinstance(f, ast.FunctionDef) and f.name == "_validate")
    for fn in (validate, _top_level("suites.py", "bicovariance_suite")):
        assert "braid_defect" in {_callee(node) for node in ast.walk(fn)
                                  if isinstance(node, ast.Call)}, fn.name
    calls = ["%s:%d" % (_callee(node), node.lineno)
             for node in ast.walk(rmatrix)
             if isinstance(node, ast.Call) and _callee(node) in ELIMINATIONS]
    assert not calls, calls


def _top_level(module, name):
    """The class or function name defined at the top level of src module."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return next(node for node in tree.body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name)


def test_antipode_is_not_solved():
    """The antipode comes from the quantum minors and is certified, not
    solved for: src defines no _solve_antipode, has no refusal for an
    underdetermined antipode, and QuantumGroup, _minor_antipode included,
    calls no elimination."""
    assert "_solve_antipode" not in _function_names("src")
    for path in sorted(SRC.glob("*.py")):
        assert "not uniquely determined" not in \
            path.read_text(encoding="utf-8"), path.name
    tree = ast.parse((SRC / "algebra.py").read_text(encoding="utf-8"))
    group = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "QuantumGroup")
    assert "_minor_antipode" in {f.name for f in group.body
                                 if isinstance(f, ast.FunctionDef)}
    calls = ["%s:%d" % (_callee(node), node.lineno) for node in ast.walk(group)
             if isinstance(node, ast.Call) and _callee(node) in ELIMINATIONS]
    assert not calls, calls


def test_braiding_and_structure_constants_are_not_solved():
    """Lam and C are read off the adjoint matrix, not contracted from R or
    solved for: make_lambda and make_C call no elimination, make_lambda
    reads no R entries, and src keeps no refusal of the C solve."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for refusal in ("does not lie in the vector-field span",
                        "structure constants underdetermined"):
            assert refusal not in text, (path.name, refusal)
    tree = ast.parse((SRC / "functionals.py").read_text(encoding="utf-8"))
    made = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name in ("make_lambda", "make_C")}
    assert sorted(made) == ["make_C", "make_lambda"]
    eliminations = {"rref_sparse", "kernel_basis", "mat_inverse"}
    calls = ["%s:%d" % (_callee(node), node.lineno)
             for fn in made.values() for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _callee(node) in eliminations]
    assert not calls, calls
    reads = [node.lineno for node in ast.walk(made["make_lambda"])
             if isinstance(node, ast.Attribute)
             and node.attr in ("entries", "inv_entries")]
    assert not reads, reads


# the calls that run an elimination
ELIMINATIONS = {"rref_sparse", "kernel_basis", "mat_inverse", "from_relations"}


def _callee(call):
    """The name a call is made through: f for f(...), m for x.m(...)."""
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_one_rewriting_engine():
    """The wedge table rewrites with algebra.RewriteSystem and keeps no
    reducer or rule reader of its own: forms.py defines no _build_grade or
    _reduce, stores no pivot_rows, WedgeTable.__init__ takes its rules from
    one RewriteSystem.from_relations call, and rref_sparse is called only
    in z_form_comparison."""
    tree = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_build_grade", "_reduce"}
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "pivot_rows"]
    table = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "WedgeTable")
    calls = ["%s:%d" % (f.name, node.lineno)
             for f in table.body if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f)
             if isinstance(node, ast.Call)
             and _callee(node) == "from_relations"
             and getattr(getattr(node.func, "value", None), "id", None)
             == "RewriteSystem"]
    assert len(calls) == 1 and calls[0].startswith("__init__:"), calls
    functions = [f for top in tree.body
                 for f in (top.body if isinstance(top, ast.ClassDef)
                           else [top])
                 if isinstance(f, ast.FunctionDef)]
    assert [f.name for f in functions
            if any(isinstance(node, ast.Call)
                   and _callee(node) == "rref_sparse"
                   for node in ast.walk(f))] == ["z_form_comparison"]


def test_one_product_on_forms():
    """The wedge is the only product of forms, the module actions included:
    of FormElement's methods only wedge commutes algebra elements past
    forms or reduces wedge words; forms.py defines no _accumulate, _form
    or _pass_letter_word; only FormSpace.pass_algebra_through calls
    _convolve_word there; and no code in src/ or tests/ names an
    algebra_mul_* member."""
    tree = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    functions = {("%s.%s" % (top.name, f.name) if top is not f else f.name): f
                 for top in tree.body
                 for f in (top.body if isinstance(top, ast.ClassDef)
                           else [top])
                 if isinstance(f, ast.FunctionDef)}

    def calling(*names):
        return sorted(name for name, f in functions.items()
                      if any(isinstance(node, ast.Call)
                             and _callee(node) in names
                             for node in ast.walk(f)))

    assert [name for name in calling("pass_algebra_through", "reduce_word")
            if name.startswith("FormElement.")] == ["FormElement.wedge"]
    assert not {name.rpartition(".")[2] for name in functions} \
        & {"_accumulate", "_form", "_pass_letter_word"}
    assert calling("_convolve_word") == ["FormSpace.pass_algebra_through"]
    named = set()
    for t in _trees("src", "tests"):
        for node in ast.walk(t):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.FunctionDef):
                named.add(node.name)
    assert not [n for n in named if n.startswith("algebra_mul_")]


def test_only_the_rewrite_system_writes_its_rules():
    """Rules become a RewriteSystem in one place: no code in src/qdc
    outside class RewriteSystem assigns .rules, .rules[...] or
    .lhs_lengths, or clears a ._cache."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "RewriteSystem"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            written = [t for target in targets for t in ast.walk(target)
                       if isinstance(t, ast.Attribute)
                       and t.attr in ("rules", "lhs_lengths")]
            cleared = (isinstance(node, ast.Call) and _callee(node) == "clear"
                       and getattr(getattr(node.func, "value", None), "attr",
                                   None) == "_cache")
            if written or cleared:
                sites.append("%s:%d" % (path.name, node.lineno))
    assert not sites, sites
