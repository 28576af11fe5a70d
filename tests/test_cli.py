import io
import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from qdc.cli import (parse, print_ast, evaluate_ast, render_value,
                     run, ExprError, read_session)
from qdc.expr import tokenize
from qdc.calculus import DEFAULT_RMATRIX, assemble
from qdc.algebra import AlgebraElement, MAX_POWER_LENGTH
from qdc.scalars import MAX_SPAN


def out_of(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


class TestParser:
    def test_application_over_product(self):
        ast = parse("d(t[1,1]*t[1,2])")
        assert ast[0] == "d"
        assert ast[1][0] == "*"

    def test_scalar_scaled_wedge(self):
        ast = parse("(q - q^-1) * w[1,1] /\\ w[2,2]")
        assert ast[0] == "wedge"
        assert ast[1][0] == "*"

    def test_precedence_chain(self):
        # ^ > * > wedge > +
        ast = parse("q^2*w[1,1] /\\ w[2,2] + w[1,2] /\\ w[2,1]")
        assert ast[0] == "+"
        assert ast[1][0] == "wedge"
        assert ast[1][1][0] == "*"
        assert ast[1][1][1][0] == "pow"

    def test_left_associativity(self):
        ast = parse("t[1,1] - t[1,2] - t[2,1]")
        assert ast[0] == "-"
        assert ast[1][0] == "-"

    def test_unknown_symbol_with_position(self):
        with pytest.raises(ExprError) as err:
            tokenize("t[1,1] + foo")
        assert err.value.pos == 9

    def test_out_of_range_generator(self, calc):
        with pytest.raises(ExprError) as err:
            evaluate_ast(parse("t[1,3]"), calc)
        assert "t[1,3]" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(ExprError) as err:
            parse("d(t[1,1]")
        assert err.value.pos is not None

    def test_trailing_input(self):
        with pytest.raises(ExprError):
            parse("t[1,1] t[1,2]")

    @pytest.mark.parametrize("text", [
        "d(t[1,1]*t[1,2])",
        "(q - q^-1)*w[1,1] /\\ w[2,2]",
        "t[1,1]^3 + 2*t[1,2] - q^-1",
        "del(t[2,1]) + dlt(t[2,1])",
        "X /\\ w[1,2]",
    ])
    def test_print_parse_round_trip(self, text):
        ast = parse(text)
        assert parse(print_ast(ast)) == ast


class TestEvaluation:
    def test_engine_output_reparses_to_same_value(self, calc):
        for text in ("d(t[1,1])", "w[1,1] /\\ w[1,2] + X /\\ w[2,1]",
                     "t[2,2]*t[1,1]", "dlt(t[1,1]*t[1,2])"):
            value = evaluate_ast(parse(text), calc)
            rendered = render_value(value)
            again = evaluate_ast(parse(rendered), calc)
            assert again == value, text

    def test_d_expansion_matches_convolutions(self, calc):
        from qdc.functionals import convolve
        value = evaluate_ast(parse("d(t[1,1])"), calc)
        a = calc.qg.generator(1, 1)
        expected = calc.space.zero()
        for i in range(4):
            c = convolve(calc.dual.chi[i], a)
            if not c.is_zero():
                expected = expected + calc.space.from_algebra(c).wedge(
                    calc.space.one_form(i))
        assert value == expected

    def test_dd_is_zero(self, calc):
        assert evaluate_ast(parse("d(d(t[1,2]))"), calc).is_zero()

    def test_division_restricted_to_scalars(self, calc):
        from qdc.cli import CliError
        with pytest.raises(CliError):
            evaluate_ast(parse("t[1,1]/w[1,1]"), calc)
        half = evaluate_ast(parse("t[1,1]/2"), calc)
        assert render_value(half) == "(1/2)*t[1,1]"

    def test_integral_fraction_power_of_an_element(self, capsys):
        # the parser reads 4/2 as the Fraction 2, which q^(4/2) already took
        assert out_of(["eval", "t[1,1]^(4/2)"]) == \
            out_of(["eval", "t[1,1]^2"]) == (0, "t[1,1]*t[1,1]\n")
        assert out_of(["eval", "t[1,1]^(-2/1)"]) == (2, "")
        assert capsys.readouterr().err.startswith("error: powers of forms")

    def test_algebra_power_bound(self, monkeypatch, capsys):
        # a power may reach words of MAX_POWER_LENGTH letters; past that it
        # is refused before any product is taken
        assert out_of(["eval", "t[1,1]^%d" % MAX_POWER_LENGTH]) == \
            (0, "*".join(["t[1,1]"] * MAX_POWER_LENGTH) + "\n")
        calc = assemble()
        monkeypatch.setattr("qdc.cli.build_calculus", lambda cfg: calc)

        def no_product(self, other):
            raise AssertionError("multiplied before the bound")

        monkeypatch.setattr(AlgebraElement, "__mul__", no_product)
        for e in (MAX_POWER_LENGTH + 1, 4000):
            assert out_of(["eval", "t[1,1]^%d" % e]) == (2, "")
            assert capsys.readouterr().err == \
                "error: power beyond %d letters\n" % MAX_POWER_LENGTH


class TestCommands:
    def test_flag_after_the_subcommand_overrides_the_one_before(self,
                                                                capsys):
        hopf = ["check", "--suite", "hopf"]
        one = out_of(["--degree", "1"] + hopf)
        assert "suite hopf (degree bound 1)" in one[1]
        assert out_of(["--degree", "2"] + hopf + ["--degree", "1"]) == one
        # a flag absent after the subcommand leaves the one before alone
        assert out_of(["--format", "structured", "eval", "--cap", "1",
                       "q"]) == (0, '{\n  "expression": "q",\n'
                                    '  "value": "q"\n}\n')
        assert out_of(["--format", "structured", "eval", "--format", "text",
                       "q"]) == (0, "q\n")
        for argv in (["--help"], ["eval", "--help"]):
            with pytest.raises(SystemExit):
                run(argv)
            usage = capsys.readouterr().out
            assert "[--rmatrix RMATRIX]" in usage and "_P" not in usage

    def test_eval_command(self):
        code, text = out_of(["eval", "d(d(t[1,2]))"])
        assert code == 0 and text.strip() == "0"

    def test_eval_structured(self):
        code, text = out_of(["--format", "structured", "eval", "q^2"])
        assert code == 0
        assert json.loads(text)["value"] == "q^2"

    def test_check_cartan_exit_zero(self):
        code, _ = out_of(["--degree", "2", "check", "--suite", "cartan"])
        assert code == 0

    def test_check_roundtrip(self):
        code, text = out_of(["--degree", "2", "check", "--suite", "roundtrip"])
        assert code == 0
        assert "PASS" in text

    def test_deterministic_dumps(self):
        a = out_of(["relations"])
        b = out_of(["relations"])
        assert a == b
        g1 = out_of(["--format", "structured", "bicomplex"])
        g2 = out_of(["--format", "structured", "bicomplex"])
        assert g1 == g2

    def test_bicomplex_structured(self):
        code, text = out_of(["--format", "structured", "bicomplex"])
        assert code == 0
        data = json.loads(text)
        dims = {(c["r"], c["s"]): c["dim"] for c in data["cells"]}
        assert dims[(0, 1)] == 3 and dims[(1, 0)] == 1
        assert data["first_empty_grade"] == 5

    def test_init_and_descriptor_flow(self, tmp_path):
        sess = str(tmp_path / "s.qdc")
        code, _ = out_of(["init", "--out", sess])
        assert code == 0
        cfg = read_session(sess)
        assert cfg["f00"] == "trace" and cfg["degree"] == 3
        code, text = out_of(["--descriptor", sess, "eval", "del(t[2,1])"])
        assert code == 0 and text.strip() != ""

    def test_missing_descriptor_errors(self, tmp_path):
        code, _ = out_of(["--descriptor", str(tmp_path / "nope.qdc"),
                          "eval", "q"])
        assert code == 2

    def test_rmatrix_flag(self, tmp_path):
        p = tmp_path / "r.rmatrix"
        p.write_text(DEFAULT_RMATRIX)
        code, text = out_of(["--rmatrix", str(p), "eval", "t[1,2]*t[1,1]"])
        assert code == 0
        assert text.strip() == "(q^-1)*t[1,1]*t[1,2]"

    def test_env_default(self, tmp_path, monkeypatch):
        p = tmp_path / "r.rmatrix"
        p.write_text(DEFAULT_RMATRIX)
        monkeypatch.setenv("QDC_DEFAULT_RMATRIX", str(p))
        code, text = out_of(["eval", "q"])
        assert code == 0 and text.strip() == "q"

    def test_bad_rmatrix_rejected(self, tmp_path):
        p = tmp_path / "bad.rmatrix"
        p.write_text(DEFAULT_RMATRIX.replace("entry 1 2 2 1 q - q^-1",
                                             "entry 1 2 2 1 q"))
        code, _ = out_of(["--rmatrix", str(p), "eval", "q"])
        assert code == 2

    def test_maps_summary(self):
        code, text = out_of(["--degree", "2", "maps"])
        assert code == 0
        assert "rank 3" in text and "rank 4" in text


class TestErrorSurface:
    """Bad input ends in one `error:` line and exit code 2, not a traceback."""

    @pytest.mark.parametrize("config, argv", [
        (None, ["--rmatrix", "{tmp}/missing.rmatrix", "eval", "q"]),
        ("N 0\nseries A\n", ["eval", "q"]),
        (DEFAULT_RMATRIX.replace("entry 1 1 1 1 q\n",
                                 "entry 1 1 1 1 q^(1/0)\n"), ["eval", "q"]),
        (DEFAULT_RMATRIX + "entry 1 1 1 1 q\n", ["eval", "q"]),
        (None, ["--cap", "-1", "eval", "q"]),
        (None, ["eval", "q^(1/0)"]),
        (DEFAULT_RMATRIX.replace("entry 1 1 1 1 q\n",
                                 "entry 1 1 1 1 t[1,1]\n"), ["eval", "q"]),
        (b"N 2\xff\n", ["eval", "q"]),
        (b"N 2\xff\n", ["QDC_DEFAULT_RMATRIX={config}", "eval", "q"]),
        (None, ["--descriptor", "{tmp}", "eval", "q"]),
        (b"format qdc-session 1\xff\n",
         ["--descriptor", "{config}", "eval", "q"]),
        (None, ["init", "--out", "{tmp}/missing/x.qdc"]),
        ("format qdc-session 1\ndegre 1\nbegin rmatrix\n" + DEFAULT_RMATRIX
         + "end rmatrix\n", ["--descriptor", "{config}", "eval", "q"]),
        ("format qdc-session 1\nf00 trac\nbegin rmatrix\n" + DEFAULT_RMATRIX
         + "end rmatrix\n", ["--descriptor", "{config}", "eval", "q"]),
        (None, ["eval", "(" * 1200 + "q" + ")" * 1200]),
        (None, ["eval", "--", "-" * 1200 + "q"]),
        (None, ["eval", "+".join(["1"] * 3000)]),
        (DEFAULT_RMATRIX.replace(
            "entry 1 1 1 1 q\n",
            "entry 1 1 1 1 %sq%s\n" % ("(" * 700, ")" * 700)), ["eval", "q"]),
    ], ids=["missing-rmatrix", "n-zero", "zero-denominator-exponent",
            "duplicate-entry", "negative-cap", "zero-denominator-expression",
            "generator-in-entry", "non-utf8-rmatrix",
            "non-utf8-default-rmatrix", "directory-descriptor",
            "non-utf8-descriptor", "unwritable-out",
            "unknown-descriptor-key", "unknown-descriptor-f00",
            "nested-parentheses", "nested-unary-minus", "long-sum",
            "nested-entry"])
    def test_bad_input_exits_2(self, config, argv, tmp_path, capsys,
                               monkeypatch):
        # config is written to {config}, which is the --rmatrix unless argv
        # names it; leading NAME=value items set the environment, as in sh
        path = tmp_path / "r.rmatrix"
        if config is not None:
            path.write_bytes(config if isinstance(config, bytes)
                             else config.encode("utf-8"))
            if not any("{config}" in a for a in argv):
                argv = ["--rmatrix", "{config}"] + argv
        argv = [a.replace("{tmp}", str(tmp_path))
                .replace("{config}", str(path)) for a in argv]
        while "=" in argv[0]:
            name, _, value = argv.pop(0).partition("=")
            monkeypatch.setenv(name, value)
        code, text = out_of(argv)
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_n_is_singular_before_any_row_exists(self, tmp_path,
                                                      capsys):
        # an invertible N^2 x N^2 matrix has at least N^2 nonzero entries;
        # N = 100000 with none would otherwise build 10^10 rows first
        path = tmp_path / "r.rmatrix"
        path.write_text("N 100000\nseries A\n", encoding="utf-8")
        assert out_of(["--rmatrix", str(path), "eval", "q"]) == (2, "")
        assert capsys.readouterr().err == "error: R-matrix is singular\n"

    def test_singular_r_with_n2_entries_fails_a_gate(self, tmp_path, capsys):
        # a B that passes the Hecke relation is invertible, so a singular R
        # with enough entries to pass the count guard fails a gate instead
        path = tmp_path / "r.rmatrix"
        path.write_text("N 2\n" + "".join(
            "entry %s 1\n" % e for e in ["1 1 1 1", "1 1 2 2", "2 2 1 1",
                                         "2 2 2 2"]), encoding="utf-8")
        assert out_of(["--rmatrix", str(path), "eval", "q"]) == (2, "")
        assert capsys.readouterr().err == "error: Yang-Baxter equation " \
            "fails at braided entry (1, 1, 1) -> (1, 2, 2)\n"

    def test_relabelled_r_is_refused_by_the_antipode_axiom(self, capsys):
        # the standard R under i -> 3 - i passes the Yang-Baxter and Hecke
        # gates, but the quantum minors fit only the standard orientation
        path = os.path.join(os.path.dirname(__file__), "data",
                            "slq2_relabelled.rmatrix")
        assert out_of(["--rmatrix", path, "eval", "q"]) == (2, "")
        assert capsys.readouterr().err == \
            "error: antipode axiom fails on generator t[1,1]\n"


class TestDegreeAndCap:
    @pytest.mark.parametrize("flag, value", [
        ("--degree", "0"), ("--degree", "-1"), ("--cap", "0")])
    def test_values_below_one_rejected(self, flag, value, capsys):
        code, text = out_of([flag, value, "check", "--suite", "hopf"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_explicit_values_used_as_given(self):
        code, text = out_of(["--degree", "1", "check", "--suite", "hopf"])
        assert code == 0 and "suite hopf (degree bound 1)" in text
        code, text = out_of(["--cap", "1", "bicomplex"])
        assert code == 0 and text.startswith("bicomplex grid (cap 1)\n")


class TestOneGenerator:
    DATA = os.path.join(os.path.dirname(__file__), "data")

    @pytest.mark.parametrize("command", ["maps", "bicomplex"])
    def test_n1_commands_exit_zero(self, command):
        # rank-0 outer calculus and an empty grade 2: 0x0 matrices throughout
        code, text = out_of(["--rmatrix", os.path.join(self.DATA, "slq1.rmatrix"),
                             command])
        assert code == 0 and text

    def test_n1_check_fails_the_laws_with_no_instance(self):
        # every suite runs on the 0x0 matrices, but with M = 1 the Jacobi
        # coefficient list and the complement of the canonical line are
        # empty, so those two gating laws evaluate nothing and fail
        code, text = out_of(["--rmatrix", os.path.join(self.DATA, "slq1.rmatrix"),
                             "--format", "structured", "check"])
        failing = {(r["suite"], e["law"]): e["witness"]
                   for r in json.loads(text) for e in r["entries"]
                   if e["gating"] and e["status"] == "fail"}
        assert code == 1
        assert failing == dict.fromkeys(
            [("bicovariance", "q-jacobi"),
             ("leibniz", "complement-right-stable")],
            "no instance evaluated (0 skipped)")


def test_eval_parses_before_assembling(monkeypatch, capsys):
    def no_assembly(cfg):
        raise AssertionError("assembled before parsing")
    monkeypatch.setattr("qdc.cli.build_calculus", no_assembly)
    assert run(["eval", "t[1,"]) == 2
    assert capsys.readouterr().err.startswith("error: unexpected end of input")


@pytest.mark.parametrize("text, position", [("2²", 1), ("q^²", 2)])
def test_superscript_digit_is_an_unexpected_character(text, position, capsys):
    # str.isdigit accepts '²', which int() rejects
    assert run(["eval", text]) == 2
    assert capsys.readouterr().err == (
        "error: unexpected character '²' (at position %d)\n" % position)


# ---------------------------------------------------------------------------
# a fuzz of the expression grammar: any bounded expression, well formed or
# not, evaluates (exit 0) or ends in one error line (exit 2)

INDICES = st.integers(min_value=1, max_value=2)
EXPONENTS = st.one_of(
    st.integers(min_value=-3, max_value=3).map(str),
    st.builds("({}/{})".format, st.integers(min_value=-3, max_value=3),
              st.sampled_from([1, 2, 3, -2, 0])))
ATOMS = st.one_of(
    st.builds("t[{},{}]".format, INDICES, INDICES),
    st.builds("w[{},{}]".format, INDICES, INDICES),
    st.just("X"), st.just("q"),
    st.integers(min_value=0, max_value=3).map(str),
    EXPONENTS.map("q^{}".format),
    st.sampled_from(["t[0,1]", "w[3,2]"]))   # unknown for N=2


def expressions(depth):
    """Expression texts whose trees are at most depth deep."""
    if depth == 1:
        return ATOMS
    sub = expressions(depth - 1)
    return st.one_of(
        ATOMS,
        st.builds("({} {} {})".format, sub,
                  st.sampled_from(["+", "-", "*", "/", "/\\"]), sub),
        st.builds("({})^{}".format, sub, EXPONENTS),
        st.builds("{}({})".format, st.sampled_from(["d", "del", "dlt"]), sub),
        st.builds("(-{})".format, sub))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(expressions(4))
def test_eval_exits_with_0_or_2(text):
    assert run(["eval", text], out=io.StringIO()) in (0, 2), text


# ---------------------------------------------------------------------------
# a q-exponent span too wide to reduce is refused with one error line, not
# worked through: the pseudo-remainders of a gcd grow with the span squared,
# and an integer power's span grows with its exponent

def test_wide_exponent_span_is_refused(tmp_path, capsys):
    span = "q-exponent span beyond %d lattice steps" % MAX_SPAN
    path = tmp_path / "wide.rmatrix"
    # a lone wide entry fails the braid relation before any gcd is taken
    path.write_text(DEFAULT_RMATRIX + "entry 2 1 1 2 q^99999\n")
    assert run(["--rmatrix", str(path), "check"]) == 2
    assert capsys.readouterr().err == "error: Yang-Baxter equation fails " \
        "at braided entry (1, 1, 2) -> (1, 1, 2)\n"
    # an entry value whose own reduction needs the wide gcd
    line = "entry 1 1 1 1 (q^3000 + 1)/(q^3000 + q)"
    path.write_text(DEFAULT_RMATRIX + line + "\n")
    assert run(["--rmatrix", str(path), "check"]) == 2
    assert capsys.readouterr().err == \
        "error: bad entry line 9: %r (ScalarError: %s)\n" % (line, span)
    for text in ["(q^30000 + 1)/(q^30000 + q)", "(q + 1)^4000",
                 "(q + 1)^-4000", "(q + 1)^1000 * (q + 1)^1000"]:
        assert run(["eval", text]) == 2
        assert capsys.readouterr().err == "error: %s\n" % span


def test_a_product_may_reach_the_span_bound():
    # two spans of 500 add to MAX_SPAN, which a product may reach
    outs = []
    for text in ["(q + 1)^500 * (q + 1)^500", "(q + 1)^1000"]:
        buf = io.StringIO()
        assert run(["eval", text], out=buf) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# a fuzz of the config text: up to three edits to the packaged N=2 config,
# each line and value from a fixed menu; the config is refused (exit 2) or
# the expression evaluates (exit 0)

INDEX = st.integers(min_value=0, max_value=3)
VALUES = st.sampled_from(["q", "1", "0", "-1", "q^2", "q - q^-1",
                          "1/(q - q)", "q^(1/0)", "t[1,1]"])
LINES = st.one_of(
    st.sampled_from(["N 0", "N 1", "N 3", "N two", "N", "series B",
                     "series", "entry 1 1 1", "entry 1 1 1 1",
                     "entry x 1 1 1 q", "unknown 1"]),
    st.builds("entry {} {} {} {} {}".format, INDEX, INDEX, INDEX, INDEX,
              VALUES))
POSITION = st.integers(min_value=0, max_value=8)
EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["drop", "repeat"]), POSITION),
    st.tuples(st.just("insert"), POSITION, LINES),
    st.tuples(st.just("value"), POSITION, VALUES)), max_size=3)


def edited_config(edits):
    """The packaged config with each edit applied in turn: drop or repeat
    a line, insert one, or replace an entry line's value."""
    lines = DEFAULT_RMATRIX.splitlines()
    for kind, i, *arg in edits:
        if kind == "insert":
            lines.insert(i % (len(lines) + 1), arg[0])
        elif lines:
            i %= len(lines)
            if kind == "drop":
                del lines[i]
            elif kind == "repeat":
                lines.insert(i, lines[i])
            elif lines[i].startswith("entry"):
                lines[i] = " ".join(lines[i].split()[:5] + arg)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, derandomize=True, deadline=None)
@example(edits=[("insert", 8, "entry 2 1 1 2 q^99999999")])
@given(edits=EDITS)
def test_edited_config_exits_with_0_or_2(edits, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "edited.rmatrix"
    path.write_text(edited_config(edits))
    argv = ["--rmatrix", str(path), "--cap", "1", "--degree", "1",
            "eval", "d(t[1,1])"]
    assert run(argv, out=io.StringIO()) in (0, 2), edits
