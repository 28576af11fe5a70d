"""Repository hygiene checks on the engine's source."""

import ast
import collections
import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdc"


def _defined_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_helper_is_referenced():
    """Each function or method name occurs somewhere besides its definition.

    A name counts as referenced if it appears as a whole word anywhere in
    src/ or tests/ more often than it is defined.
    """
    words = collections.Counter()
    for d in (ROOT / "src", ROOT / "tests"):
        for p in d.rglob("*.py"):
            words.update(re.findall(r"\w+", p.read_text(encoding="utf-8")))
    defs = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for name, lineno in _defined_functions(path):
            defs[name].append("%s:%d" % (path.name, lineno))
    unreferenced = ["%s (%s)" % (name, site)
                    for name, sites in sorted(defs.items())
                    if words[name] <= len(sites) for site in sites]
    assert not unreferenced, "unreferenced: %s" % ", ".join(unreferenced)


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
