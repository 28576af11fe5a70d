"""Repository hygiene checks on the engine's source."""

import ast
import importlib
import importlib.util
import pathlib

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


def _references(data, *dirs):
    """(functions, methods) referenced in dirs.  A module function counts
    through a bare name or an import; a method through an attribute call,
    or an attribute read of a name that is never data."""
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
    return functions, methods


def _unreached():
    """(name, site, reached by tests) of each function in src/qdc that
    neither src/ nor perfbench/ reaches."""
    data = _data_attributes()
    used = _references(data, "src", "perfbench")
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


def test_traced_names_resolve():
    """Every (module, attribute) that perfbench/spans.py traces exists in qdc.

    The tracer wraps these names by string, so a rename in qdc would
    otherwise only show up as a failing traced benchmark run.
    """
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attribute, _, _ in spans.TARGETS:
        obj = importlib.import_module("qdc." + module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("qdc.%s.%s" % (module, attribute))
    assert not missing, "traced names missing from qdc: %s" % ", ".join(missing)
