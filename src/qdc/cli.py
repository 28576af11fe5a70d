"""Command-line surface: expression evaluation, dumps, and check suites.

Expressions are parsed by qdc.expr (the grammar is documented there) and
evaluated here against an assembled calculus.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
from fractions import Fraction

from .expr import ExprError, parse, print_ast
from .scalars import (Scalar, ONE, ZERO, render_scalar, scalar_power,
                      ScalarError)
from .algebra import (AlgebraElement, dump_rmatrix,
                      render_element, render_word, AlgebraError, RMatrixError)
from .functionals import FunctionalError, SECTORS, generator_table
from .calculus import (assemble, map_in_to_out, map_out_to_in,
                       roundtrip_check, DEFAULT_RMATRIX, CalculusError)
from .forms import FormElement, FormsError
from .bicomplex import BicomplexGrid, cartan_check, grid_check
from .suites import hopf_suite, bicovariance_suite, leibniz_suite


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# evaluation

def evaluate_ast(ast, calc):
    kind = ast[0]
    sp = calc.space
    qg = calc.qg
    if kind == "int":
        return sp.from_algebra(AlgebraElement.from_scalar(
            qg.rs, Scalar.from_int(ast[1])))
    if kind == "q":
        return sp.from_algebra(AlgebraElement.from_scalar(qg.rs, Scalar.q()))
    if kind == "X":
        return calc.X
    if kind == "t":
        _, a, b, pos = ast
        if not (1 <= a <= qg.N and 1 <= b <= qg.N):
            raise ExprError("unknown symbol t[%d,%d] for N=%d" % (a, b, qg.N),
                            pos)
        return sp.from_algebra(qg.generator(a, b))
    if kind == "w":
        _, a, b, pos = ast
        if not (1 <= a <= qg.N and 1 <= b <= qg.N):
            raise ExprError("unknown symbol w[%d,%d] for N=%d" % (a, b, qg.N),
                            pos)
        return sp.one_form(sp.basis.index(a, b))
    if kind == "neg":
        return -evaluate_ast(ast[1], calc)
    if kind in ("+", "-"):
        x = evaluate_ast(ast[1], calc)
        y = evaluate_ast(ast[2], calc)
        return x + y if kind == "+" else x - y
    if kind == "*":
        x = evaluate_ast(ast[1], calc)
        y = evaluate_ast(ast[2], calc)
        return _mul_values(x, y)
    if kind == "wedge":
        x = evaluate_ast(ast[1], calc)
        y = evaluate_ast(ast[2], calc)
        return x.wedge(y)
    if kind == "/":
        x = evaluate_ast(ast[1], calc)
        y = evaluate_ast(ast[2], calc)
        s = _as_scalar(y)
        if s is None:
            raise CliError("division is only defined by scalar values")
        if s.is_zero():
            raise CliError("division by zero")
        return x.scalar_mul(ONE / s)
    if kind == "pow":
        x = evaluate_ast(ast[1], calc)
        e = ast[2]
        s = _as_scalar(x)
        if s is not None:
            return calc.space.from_algebra(AlgebraElement.from_scalar(
                calc.qg.rs, scalar_power(s, e)))
        if isinstance(e, Fraction) and e.denominator == 1:
            e = e.numerator
        alg = _as_algebra(x)
        if alg is None or not isinstance(e, int) or e < 0:
            raise CliError("powers of forms (or negative or fractional powers "
                           "of algebra elements) are not defined")
        return calc.space.from_algebra(alg ** e)
    if kind == "d":
        return calc.d(evaluate_ast(ast[1], calc))
    if kind == "del":
        return calc.partial(evaluate_ast(ast[1], calc))
    if kind == "dlt":
        return calc.delta(evaluate_ast(ast[1], calc))
    raise CliError("unhandled expression node %r" % (kind,))


def _mul_values(x, y):
    if _as_algebra(x) is None and _as_algebra(y) is None:
        raise CliError("use /\\ to multiply forms of positive grade")
    return x.wedge(y)


def _as_algebra(x):
    if x.is_zero():
        return AlgebraElement.zero(x.space.qg.rs)
    if x.grades() == [0]:
        return x.terms[()]
    return None


def _as_scalar(x):
    alg = _as_algebra(x)
    if alg is None:
        return None
    if alg.is_zero():
        return ZERO
    if set(alg.terms) == {()}:
        return alg.terms[()]
    return None


def render_value(x):
    alg = _as_algebra(x)
    if alg is not None:
        return render_element(alg)
    return x.render()


# ---------------------------------------------------------------------------
# session handling

SESSION_FORMAT = "qdc-session 1"


def write_session(path, r, f00, degree, cap):
    lines = ["format %s" % SESSION_FORMAT,
             "f00 %s" % f00,
             "degree %d" % degree,
             "cap %d" % cap,
             "begin rmatrix"]
    lines.append(dump_rmatrix(r).rstrip("\n"))
    lines.append("end rmatrix")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise CliError("cannot write descriptor %s: %s" % (path, err.strerror))


def _read_config(path, kind):
    """The text of a config file; an unreadable or non-UTF-8 file is a
    CliError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise CliError("cannot read %s %s: %s" % (kind, path, err.strerror))
    except UnicodeDecodeError as err:
        raise CliError("cannot read %s %s: not UTF-8 (%s at byte %d)"
                       % (kind, path, err.reason, err.start))


def read_session(path):
    cfg = {}
    rmatrix_lines = []
    in_rmatrix = False
    for lineno, raw in enumerate(io.StringIO(_read_config(path, "descriptor")),
                                 1):
        line = raw.rstrip("\n")
        if line.strip() == "begin rmatrix":
            in_rmatrix = True
            continue
        if line.strip() == "end rmatrix":
            in_rmatrix = False
            continue
        if in_rmatrix:
            rmatrix_lines.append(line)
            continue
        parts = line.split(None, 1)
        if not parts:
            continue
        key, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if key == "format":
            if rest != SESSION_FORMAT:
                raise CliError("unsupported session format %r" % rest)
        elif key == "f00":
            if rest.strip() not in SECTORS:
                raise CliError("session file %s: bad f00 %r"
                               % (path, rest.strip()))
            cfg["f00"] = rest.strip()
        elif key in ("degree", "cap"):
            try:
                cfg[key] = int(rest)
            except ValueError:
                raise CliError("session file %s: bad %s %r"
                               % (path, key, rest.strip()))
        else:
            raise CliError("session file %s: unknown key %r on line %d"
                           % (path, key, lineno))
    if not rmatrix_lines:
        raise CliError("session file %s carries no R-matrix block" % path)
    cfg["rmatrix"] = "\n".join(rmatrix_lines) + "\n"
    return cfg


CONFIG_DEFAULTS = {"f00": "trace", "degree": 3, "cap": 3}


def resolve_config(args):
    """The session config: flags override the descriptor, which overrides
    CONFIG_DEFAULTS; degree and cap must be at least 1."""
    if args.rmatrix:
        cfg = {"rmatrix": _read_config(args.rmatrix, "R-matrix config")}
    elif args.descriptor:
        if not os.path.exists(args.descriptor):
            raise CliError("descriptor %s is missing (run qdc init first)"
                           % args.descriptor)
        cfg = read_session(args.descriptor)
    elif os.environ.get("QDC_DEFAULT_RMATRIX"):
        cfg = {"rmatrix": _read_config(os.environ["QDC_DEFAULT_RMATRIX"],
                                       "R-matrix config")}
    else:
        cfg = {"rmatrix": DEFAULT_RMATRIX}
    for key, default in CONFIG_DEFAULTS.items():
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
        cfg.setdefault(key, default)
    for key in ("degree", "cap"):
        if cfg[key] < 1:
            raise CliError("%s must be at least 1, got %d" % (key, cfg[key]))
    return cfg


def build_calculus(cfg):
    return assemble(cfg["rmatrix"], grade_cap=cfg["cap"],
                    degree_bound=cfg["degree"], f00_choice=cfg["f00"])


# ---------------------------------------------------------------------------
# commands

def _write_json(out, payload):
    """The structured form of a command's output."""
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_init(args, out):
    cfg = resolve_config(args)
    calc = build_calculus(cfg)   # assembles and validates before persisting
    path = args.out or "qdc-session.qdc"
    write_session(path, calc.R, cfg["f00"], cfg["degree"], cfg["cap"])
    payload = {"written": path, "N": calc.qg.N,
               "one_form_dimension": calc.space.M,
               "wedge_dimensions": calc.space.table.dimensions()}
    if args.format == "structured":
        _write_json(out, payload)
    else:
        out.write("descriptor written to %s (N=%d, wedge dimensions %s)\n"
                  % (path, calc.qg.N, payload["wedge_dimensions"]))
    return 0


# relations lists the wedge rewrite rules of grades 2 up to this one
RELATIONS_MAX_GRADE = 4


def cmd_relations(args, out):
    cfg = resolve_config(args)
    calc = build_calculus(cfg)
    qg = calc.qg
    payload = {"algebra_rules": [], "wedge": {}}
    for lhs in sorted(qg.rs.rules, key=qg.rs.word_key):
        rhs = AlgebraElement(qg.rs, qg.rs.rules[lhs])
        payload["algebra_rules"].append([render_word(lhs), render_element(rhs)])
    f = calc.dual.f
    f_entries = [f.entry(i, j) for i in range(f.size) for j in range(f.size)]
    for key, entries in (("bimodule", f_entries),
                         ("vector_fields", calc.dual.chi)):
        payload[key] = [[label, gen, render_scalar(v)]
                        for label, gen, v in generator_table(entries)]
    space = calc.space
    table = space.table
    for k in range(2, min(table.max_grade, RELATIONS_MAX_GRADE) + 1):
        basis = set(table.basis[k])
        rows = []
        for w in itertools.product(range(table.M), repeat=k):
            if w in basis:
                continue
            red = FormElement(space, {
                u: AlgebraElement.from_scalar(qg.rs, c)
                for u, c in table.reduce_word(w).items()})
            rows.append([space.basis.render_word(w), red.render()])
        payload["wedge"][str(k)] = {
            "dimension": table.dimension(k),
            "basis": [space.basis.render_word(w) for w in table.basis[k]],
            "rules": rows,
        }
    if args.format == "structured":
        _write_json(out, payload)
    else:
        out.write("algebra rewrite rules:\n")
        for lhs, rhs in payload["algebra_rules"]:
            out.write("  %s -> %s\n" % (lhs, rhs))
        out.write("bimodule commutation table (functional, generator, value):\n")
        for row in payload["bimodule"]:
            out.write("  %s  %s  %s\n" % tuple(row))
        out.write("vector-field table:\n")
        for row in payload["vector_fields"]:
            out.write("  %s  %s  %s\n" % tuple(row))
        for k, info in sorted(payload["wedge"].items()):
            out.write("wedge grade %s: dimension %d\n" % (k, info["dimension"]))
            out.write("  basis: %s\n" % ", ".join(info["basis"]))
            for lhs, rhs in info["rules"]:
                out.write("  %s -> %s\n" % (lhs, rhs))
    return 0


def cmd_eval(args, out):
    cfg = resolve_config(args)
    ast = parse(args.expression)
    calc = build_calculus(cfg)
    rendered = render_value(evaluate_ast(ast, calc))
    if args.format == "structured":
        _write_json(out, {"expression": print_ast(ast), "value": rendered})
    else:
        out.write(rendered + "\n")
    return 0


SUITES = ("hopf", "bicovariance", "leibniz", "cartan", "roundtrip")


# random forms per grade that the cartan suite adds to its inputs
CARTAN_SAMPLES = 8


def run_suite(calc, name, degree):
    if name == "hopf":
        return [hopf_suite(calc, degree)]
    if name == "bicovariance":
        return [bicovariance_suite(calc, degree)]
    if name == "leibniz":
        return [leibniz_suite(calc, degree)]
    if name == "cartan":
        return cartan_check(calc, degree, samples=CARTAN_SAMPLES) + \
            [grid_check(calc)]
    if name == "roundtrip":
        outer = map_in_to_out(calc)
        return [roundtrip_check(outer, f00, degree)
                for f00 in calc.dual.sectors.values()]
    raise CliError("unknown suite %r (expected one of %s)"
                   % (name, ", ".join(SUITES)))


def cmd_check(args, out):
    cfg = resolve_config(args)
    calc = build_calculus(cfg)
    names = [args.suite] if args.suite else list(SUITES)
    reports = []
    for name in names:
        reports.extend(run_suite(calc, name, cfg["degree"]))
    if args.format == "structured":
        _write_json(out, [r.as_dict() for r in reports])
    else:
        for r in reports:
            out.write(r.render() + "\n")
    return 0 if all(r.passed() for r in reports) else 1


def cmd_maps(args, out):
    cfg = resolve_config(args)
    calc = build_calculus(cfg)
    outer = map_in_to_out(calc)
    f00 = calc.f00
    ext = map_out_to_in(outer, f00)
    reports = [roundtrip_check(outer, f, cfg["degree"])
               for f in calc.dual.sectors.values()]
    payload = {
        "inner": {"mode": calc.mode, "one_form_dimension": calc.space.M},
        "outer": {"mode": outer.mode, "rank": outer.rank,
                  "basis": outer.labels,
                  "twist": {"t[%d,%d]" % g:
                            render_scalar(outer.twist.on_generator(*g))
                            for g in calc.qg.rs.gens}},
        "extended": ext.summary(),
        "roundtrip": [r.as_dict() for r in reports],
    }
    if args.format == "structured":
        _write_json(out, payload)
    else:
        out.write("inner calculus: %d one-forms\n" % calc.space.M)
        out.write("quotient (outer) calculus: rank %d, basis %s\n"
                  % (outer.rank, ", ".join(outer.labels)))
        out.write("extension: rank %d with sector functional %s\n"
                  % (ext.rank, f00.label))
        for r in reports:
            out.write(r.render() + "\n")
    return 0 if all(r.passed() for r in reports) else 1


def cmd_bicomplex(args, out):
    cfg = resolve_config(args)
    calc = build_calculus(cfg)
    grid = BicomplexGrid(calc)
    if args.format == "structured":
        _write_json(out, grid.as_dict())
    else:
        out.write(grid.render() + "\n")
        out.write(grid_check(calc).render() + "\n")
    return 0


SHARED_FLAGS = [
    ("--rmatrix", {"help": "R-matrix config file"}),
    ("--descriptor", {"help": "session descriptor written by init"}),
    ("--degree", {"type": int, "help": "degree bound for checks"}),
    ("--cap", {"type": int, "help": "grade cap for forms"}),
    ("--f00", {"choices": SECTORS,
               "help": "sector functional of maps' extension and of init's "
                       "descriptor; every suite checks both"}),
    ("--format", {"choices": ("text", "structured")}),
]


def _add_shared(parser, default):
    for flag, kw in SHARED_FLAGS:
        parser.add_argument(flag, default=default, **kw)


def make_parser():
    """Shared flags may appear before or after the subcommand.  The
    subcommand's copies default to SUPPRESS, so a flag given after it
    overrides the same flag given before, and an absent one leaves the
    earlier value alone."""
    import argparse
    p = argparse.ArgumentParser(
        prog="qdc",
        description="exact bicovariant differential calculus engine")
    _add_shared(p, None)
    p.set_defaults(format="text")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        _add_shared(sp, argparse.SUPPRESS)
        return sp

    sp = command("init", "assemble and persist a descriptor")
    sp.add_argument("--out", help="output path (default qdc-session.qdc)")
    command("relations", "dump algebra, bimodule and wedge relations")
    sp = command("eval", "evaluate an expression to normal form")
    sp.add_argument("expression")
    sp = command("check", "run verification suites")
    sp.add_argument("--suite", choices=SUITES)
    command("maps", "quotient/extension maps and the round trip")
    command("bicomplex", "print the bidegree grid")
    return p


_COMMANDS = {"init": cmd_init, "relations": cmd_relations, "eval": cmd_eval,
             "check": cmd_check, "maps": cmd_maps, "bicomplex": cmd_bicomplex}


def run(argv, out=None):
    out = out if out is not None else sys.stdout
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (CliError, ExprError, RMatrixError, AlgebraError, FunctionalError,
            FormsError, CalculusError, ScalarError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


def main():
    try:
        sys.exit(run(sys.argv[1:]))
    except BrokenPipeError:
        sys.exit(0)


if __name__ == "__main__":
    main()
