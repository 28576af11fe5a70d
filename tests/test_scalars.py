from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qdc.scalars import (LaurentPoly, Scalar, ZERO, ONE, Q, qlambda,
                         parse_scalar, render_scalar, ScalarError,
                         ScalarDivisionError, PoleError, SpecializationError,
                         ScalarParseError, check_values_at, MAX_SPAN)
from qdc.scalars import _poly_gcd, _normalize, _reduce, _REDUCED
from qdc.algebra import AlgebraElement
from qdc.cli import parse, evaluate_ast, render_value


def poly(d):
    return LaurentPoly({e: Fraction(c) for e, c in d.items()})


coeffs = st.integers(min_value=-6, max_value=6)
exps = st.integers(min_value=-4, max_value=4)
polys = st.dictionaries(exps, coeffs, max_size=4).map(poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
scalars = st.builds(Scalar, polys, nonzero_polys)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


class TestNormalize:
    def test_polynomial_factor_cancels(self):
        s = Scalar(poly({2: 1, 0: -1}), poly({1: 1, 0: -1}))
        assert s == parse_scalar("q + 1")
        assert s.den.is_one()

    def test_zero_numerator(self):
        s = Scalar(poly({}), poly({3: 1}))
        assert s.is_zero()
        assert s.den.is_one()

    def test_laurent_numerator_kept(self):
        s = parse_scalar("q - q^-1")
        assert s.den.is_one()
        assert s.num == poly({1: 1, -1: -1})

    def test_denominator_normalization(self):
        # denominator ends up monic with lowest exponent zero
        s = Scalar(poly({0: 1}), poly({3: 2, 1: 4}))
        assert min(s.den.terms) == 0
        assert s.den.leading_coeff() == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ScalarDivisionError):
            Scalar(poly({0: 1}), poly({}))

    @given(scalars, nonzero_polys)
    def test_common_factor_invariance(self, s, f):
        assert Scalar(s.num * f, s.den * f) == s
        # the same fraction again is read from the reduced-fraction memo
        again = Scalar(s.num * f, s.den * f)
        assert again == s
        assert_normal_form(again)

    @pytest.mark.parametrize("num, den", [
        ({3: 1, 1: -1}, {2: 1, 0: -1}),
        ({Fraction(2, 3): 2, 0: -2}, {Fraction(4, 3): 3, Fraction(1, 3): -3}),
    ])
    def test_memo_hit_is_canonical(self, num, den):
        first = _normalize(poly(num), poly(den))
        # equal polynomials, but not the objects the memo was filled with
        key = (poly(num), poly(den))
        hit = _normalize(*key)
        assert hit is first is _REDUCED[key]
        assert hit == _reduce(*key)
        assert_normal_form(Scalar(*hit))


class TestFieldAxioms:
    @given(scalars, scalars, scalars)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(scalars, scalars, scalars)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars, scalars, scalars)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars, scalars)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, a):
        assert (a * (ONE / a)).is_one()

    @given(nonzero_scalars.filter(lambda s: not s.is_one()))
    def test_unit_factor_returns_other_operand(self, x):
        one = parse_scalar("q/q")
        assert one == ONE and one is not ONE
        assert x * one is x
        assert one * x is x

    def test_division_by_zero(self):
        with pytest.raises(ScalarDivisionError):
            ONE / ZERO

    def test_difference_of_squares(self):
        lam = qlambda()
        lhs = (Q + ONE / Q) * lam
        assert lhs == parse_scalar("q^2 - q^-2")

    def test_inverse_example(self):
        lam = qlambda()
        assert ((ONE / lam) * lam).is_one()


class TestCanonicalUniqueness:
    @given(scalars, scalars)
    def test_cross_multiplication(self, a, b):
        equal_fractions = (a.num * b.den == b.num * a.den)
        assert (a == b) == equal_fractions

    @given(scalars)
    def test_hash_consistency(self, a):
        b = Scalar(a.num, a.den)
        assert a == b and hash(a) == hash(b)


class TestEvaluation:
    def test_direct_substitution(self):
        assert qlambda().evaluate_at(2) == Fraction(3, 2)
        assert parse_scalar("(q^2 - 1)/(q - 1)").evaluate_at(3) == 4

    def test_pole(self):
        s = Scalar(poly({0: 1}), poly({1: 1, 0: -2}))
        with pytest.raises(PoleError):
            s.evaluate_at(2)

    def test_zero_point_rejected(self):
        with pytest.raises(SpecializationError):
            Q.evaluate_at(0)

    @given(scalars, scalars, st.sampled_from([2, 3, 5, 7, Fraction(1, 2)]))
    def test_homomorphism(self, a, b, q0):
        try:
            lhs = (a * b).evaluate_at(q0)
            ra, rb = a.evaluate_at(q0), b.evaluate_at(q0)
        except PoleError:
            return
        assert lhs == ra * rb

    def test_fractional_powers_not_evaluable(self):
        with pytest.raises(SpecializationError):
            Scalar.q_power(Fraction(1, 2)).evaluate_at(4)


rational_coeffs = st.one_of(
    coeffs, st.fractions(min_value=-6, max_value=6, max_denominator=7))
points = st.one_of(st.sampled_from([1, -1]),
                   st.integers(min_value=-9, max_value=9).filter(bool),
                   st.fractions(min_value=-9, max_value=9,
                                max_denominator=9).filter(bool))


def fraction_sum(p, q0):
    """p(q0) summed term by term in Fractions."""
    q0 = Fraction(q0)
    return sum((Fraction(c) * q0 ** e for e, c in p.terms.items()),
               Fraction(0))


class TestIntegerEvaluation:
    @given(st.dictionaries(st.integers(min_value=-6, max_value=6),
                           rational_coeffs, max_size=5), points)
    def test_equals_fraction_sum(self, terms, q0):
        p = LaurentPoly(terms)
        got = p.evaluate(q0)
        assert type(got) is Fraction and got == fraction_sum(p, q0)

    @given(scalars, points)
    def test_scalar_value_is_quotient_of_sums(self, s, q0):
        den = fraction_sum(s.den, q0)
        if den == 0:
            with pytest.raises(PoleError):
                s.evaluate_at(q0)
        else:
            assert s.evaluate_at(q0) == fraction_sum(s.num, q0) / den

    @pytest.mark.parametrize("value, q0, error, text", [
        (Q, 0, SpecializationError, "cannot specialize at q0 = 0"),
        (Q.num, 0, SpecializationError, "cannot specialize at q0 = 0"),
        (Scalar.q_power(Fraction(1, 2)), 4, SpecializationError,
         "fractional q-exponents have no rational value"),
        (LaurentPoly({Fraction(1, 3): 1, 1: 2}), 8, SpecializationError,
         "fractional q-exponents have no rational value"),
        (Scalar(poly({0: 1}), poly({1: 1, 0: -2})), 2, PoleError,
         "pole at q0 = 2"),
        (Scalar(poly({0: 1}), poly({1: 2, 0: -1})), Fraction(1, 2), PoleError,
         "pole at q0 = 1/2"),
    ])
    def test_errors_keep_their_texts(self, value, q0, error, text):
        evaluate = (value.evaluate_at if isinstance(value, Scalar)
                    else value.evaluate)
        with pytest.raises(error) as info:
            evaluate(q0)
        assert str(info.value) == text


def first_refusal(check, values, points):
    """(type, text) of what check(values, points) raises, or None."""
    try:
        check(values, points)
    except (PoleError, SpecializationError) as err:
        return type(err), str(err)
    return None


def evaluate_each(values, points):
    """The check as a loop of evaluate_at over values, then points."""
    for value in values:
        for q0 in points:
            value.evaluate_at(q0)


z3 = Scalar.q_power(Fraction(1, 3))
# fractional exponents and poles at each point, in numerator, denominator
# and both
refusals = [ONE / (Q - Scalar.from_int(p)) for p in (2, 3, 5)] + [
    z3, ONE / (ONE + z3), z3 / (Q - Scalar.from_int(2)),
    z3 / (Q - Scalar.from_int(3)), (Q + z3) / (Q * Q - Scalar.from_int(25))]


class TestCheckValuesAt:
    @given(st.lists(st.one_of(scalars, st.sampled_from(refusals)),
                    max_size=6),
           st.sampled_from([(2, 3, 5), (5, 3, 2), (3,)]))
    def test_raises_what_evaluate_at_raises_first(self, values, points):
        assert first_refusal(check_values_at, values, points) == \
            first_refusal(evaluate_each, values, points)

    def test_each_refusal_is_seen(self):
        for value in refusals:
            assert first_refusal(check_values_at, [ONE, value], (2, 3, 5))


class TestFractionalExponents:
    def test_square_root_squares_to_q(self):
        h = Scalar.q_power(Fraction(1, 2))
        assert h * h == Q
        assert (h * Scalar.q_power(Fraction(-1, 2))).is_one()

    def test_render_parse(self):
        h = Scalar.q_power(Fraction(1, 2))
        assert render_scalar(h) == "q^(1/2)"
        assert parse_scalar(render_scalar(h)) == h


class TestGrammar:
    @given(scalars)
    def test_round_trip(self, a):
        assert parse_scalar(render_scalar(a)) == a

    def test_shared_grammar_example(self):
        s = parse_scalar("(q - q^-1)/(q^2 + 1)")
        assert s.num == poly({1: 1, -1: -1})
        assert s.den == poly({2: 1, 0: 1})

    def test_rationals(self):
        assert parse_scalar("3/2") == Scalar.from_rational(Fraction(3, 2))
        assert parse_scalar("-5") == Scalar.from_int(-5)

    def test_errors_carry_position(self):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar("q + !")
        assert err.value.pos is not None
        with pytest.raises(ScalarParseError):
            parse_scalar("(q")
        with pytest.raises(ScalarParseError):
            parse_scalar("q 3")

    def test_integer_power_span_is_bounded(self):
        # |e| times the span of the numerator or the denominator may reach
        # MAX_SPAN lattice steps, not pass it; the product is never taken
        assert MAX_SPAN == 1000
        assert parse_scalar("(q^10 + 1)^100").num.max_exp() == 1000
        den = parse_scalar("(q^(1/2) + q)^-1000").den
        assert (den.D, max(den.terms) - min(den.terms)) == (2, 1000)
        assert parse_scalar("q^99999") == Scalar.q_power(99999)
        for text in ["(q^10 + 1)^101", "(q^10 + 1)^-101",
                     "(1/(q^10 + 1))^101", "(q^(1/2) + q)^1001",
                     "(q + 1)^100000"]:
            with pytest.raises(ScalarError) as err:
                parse_scalar(text)
            assert str(err.value) == \
                "q-exponent span beyond 1000 lattice steps"

    def test_polynomial_product_span_is_bounded(self):
        # a product of two many-term polynomials may reach MAX_SPAN lattice
        # steps, not pass it; few terms, as every product of the engine
        # has, are never refused
        wide = parse_scalar("(q + 1)^600").num
        half = parse_scalar("(q + 1)^400").num
        assert max((wide * half).terms) == 1000
        with pytest.raises(ScalarError) as err:
            wide * wide
        assert str(err.value) == "q-exponent span beyond 1000 lattice steps"
        sparse = parse_scalar("q^900 + q^450 + 1").num
        assert max((sparse * sparse).terms) == 1800

    @pytest.mark.parametrize("text", ["t[1,1]", "w[1,2]", "X", "d(q)",
                                      "w[1,1] /\\ w[2,2]"])
    def test_non_scalar_nodes_rejected(self, text):
        # the grammar parses these; the scalar fold refuses them
        with pytest.raises(ScalarParseError):
            parse_scalar(text)


# Wider strategies: non-integral rational coefficients and exponents in
# steps of 1/2, 1/3 and 1/6 (the q^(1/N) tables of N = 2 and N = 3, and the
# lattice that mixes them).

wide_coeffs = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                        st.integers(min_value=1, max_value=4))
wide_exps = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                      st.sampled_from([2, 3, 6]))
wide_polys = st.dictionaries(wide_exps, wide_coeffs,
                             max_size=3).map(LaurentPoly)
wide_nonzero_polys = wide_polys.filter(lambda p: not p.is_zero())
wide_scalars = st.builds(Scalar, wide_polys, wide_nonzero_polys)
wide_nonzero_scalars = wide_scalars.filter(lambda s: not s.is_zero())
small_powers = st.integers(min_value=-3, max_value=3)


def is_exact(x):
    """x is an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_exact_types(s):
    """Every coefficient of num and den is exact and every key an int."""
    for p in (s.num, s.den):
        assert isinstance(p, LaurentPoly)
        for e, c in p.terms.items():
            assert is_exact(c) and type(e) is int, (e, c)


def assert_lattice(p):
    """p's int keys k mean q^(k/D) on the minimal lattice: gcd(D, keys) = 1,
    so D is 1 for zero and every integer-exponent polynomial."""
    assert type(p.D) is int and p.D >= 1
    assert all(type(k) is int for k in p.terms), p.terms
    assert gcd(p.D, *p.terms) == 1, (p.terms, p.D)


def on_lattice(p, D):
    """p's terms with keys read on the finer lattice D."""
    return {k * (D // p.D): c for k, c in p.terms.items()}


def assert_normal_form(s):
    """Monic denominator with lowest exponent 0, coprime to the numerator,
    both on their minimal exponent lattices."""
    assert_lattice(s.num)
    assert_lattice(s.den)
    assert min(s.den.terms) == 0
    assert s.den.leading_coeff() == 1
    if s.is_zero():
        assert s.den.is_one()
        return
    # coprime as polynomials in s = q^(1/D) on the common lattice
    D = lcm(s.num.D, s.den.D)
    num, den = on_lattice(s.num, D), on_lattice(s.den, D)
    low = min(num)
    assert _poly_gcd({k - low: c for k, c in num.items()}, den) == {0: 1}


def operation_results(a, b, n):
    out = [a + b, a - b, a * b, parse_scalar(render_scalar(a))]
    if not b.is_zero():
        out += [a / b, b.inverse()]
    if n >= 0 or not a.is_zero():
        out.append(a ** n)
    return out


class TestWideFieldAxioms:
    @given(wide_scalars, wide_scalars, wide_scalars)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(wide_scalars, wide_scalars, wide_scalars)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(wide_scalars, wide_scalars, wide_scalars)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(wide_scalars, wide_scalars)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(wide_scalars)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()
        assert (a + -a).is_zero()

    @given(wide_nonzero_scalars, wide_scalars)
    def test_division_inverts_multiplication(self, a, b):
        assert (b * a) / a == b
        assert (a * a.inverse()).is_one()

    @given(wide_scalars, small_powers, small_powers)
    def test_power_laws(self, a, m, n):
        if a.is_zero() and min(m, n) < 0:
            return
        assert a ** (m + n) == a ** m * a ** n

    @given(wide_scalars, wide_nonzero_polys)
    def test_common_factor_invariance(self, s, f):
        assert Scalar(s.num * f, s.den * f) == s
        again = Scalar(s.num * f, s.den * f)
        assert again == s
        assert_normal_form(again)

    @given(wide_scalars)
    def test_round_trip(self, a):
        assert parse_scalar(render_scalar(a)) == a

    @settings(deadline=None)
    @given(a=wide_scalars)
    def test_expression_round_trip(self, calc, a):
        # the same text evaluated as a CLI expression renders back unchanged
        text = render_scalar(a)
        assert render_value(evaluate_ast(parse(text), calc)) == text


class TestRepresentationInvariants:
    @given(scalars, scalars, small_powers)
    def test_integer_exponents(self, a, b, n):
        for s in operation_results(a, b, n):
            assert_exact_types(s)
            assert_normal_form(s)
            assert s.num.D == s.den.D == 1

    @given(wide_scalars, wide_scalars, small_powers)
    def test_fractional_exponents(self, a, b, n):
        for s in operation_results(a, b, n):
            assert_exact_types(s)
            assert_normal_form(s)

    def test_integral_results_are_ints(self):
        half = Scalar.from_rational(Fraction(1, 2))
        s = (half + half) * parse_scalar("2*q - 4")
        assert s.num.terms == {1: 2, 0: -4}
        assert_exact_types(s)
        # a denominator with leading coefficient -1 is made monic exactly
        s = Scalar(poly({0: 1}), poly({1: -1, 0: 1}))
        assert s.num.terms == {0: -1} and s.den.terms == {1: 1, 0: -1}
        assert_exact_types(s)

    def test_monomial_denominator(self):
        s = Scalar(poly({3: 2, 1: 4}), poly({2: 2}))
        assert s.den.is_one()
        assert s.num == poly({1: 1, -1: 2})
        # a monomial denominator on another lattice: q / q^(1/3) = q^(2/3)
        s = Scalar(poly({1: 1}), LaurentPoly({Fraction(1, 3): 1}))
        assert s.den.is_one()
        assert (s.num.terms, s.num.D) == ({2: 1}, 3)


SIXTH_ROOT = Scalar.q_power(Fraction(1, 6))


class TestExponentLattice:
    # TestRepresentationInvariants checks the minimal lattice after every
    # operation; these check what minimality buys and where D comes from

    @given(st.one_of(scalars, wide_scalars), st.one_of(scalars, wide_scalars))
    def test_equal_values_hash_equal(self, a, b):
        r = SIXTH_ROOT
        pairs = [(a * b, b * a), (a + b, b + a), ((a + b) - b, a),
                 (a * r / r, a), ((a + r) - r, a), (a * r * r.inverse(), a),
                 (Scalar(a.num, a.den), a)]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert (x.num.D, x.den.D) == (y.num.D, y.den.D)

    def test_cube_roots_multiply_to_q(self):
        x = parse_scalar("q^(1/3)") * parse_scalar("q^(2/3)")
        assert x == Q and hash(x) == hash(Q)
        assert (x.num.terms, x.num.D) == ({1: 1}, 1)
        p = LaurentPoly({Fraction(1, 3): 1}) * LaurentPoly({Fraction(2, 3): 1})
        assert (p.terms, p.D) == ({1: 1}, 1)

    def test_cancelled_fractional_terms_drop_to_integer_lattice(self):
        s = parse_scalar("1 + q^(1/3) + q^(1/2)") + \
            parse_scalar("q - q^(1/3) - q^(1/2)")
        assert s == parse_scalar("1 + q")
        assert (s.num.terms, s.num.D) == ({0: 1, 1: 1}, 1)
        p = LaurentPoly({0: 1, Fraction(1, 3): 2}) + \
            LaurentPoly({Fraction(1, 3): -2, 2: 1})
        assert (p.terms, p.D) == ({0: 1, 2: 1}, 1)

    def test_mixed_lattices_lift_to_the_lcm(self):
        half, third = LaurentPoly({Fraction(1, 2): 1}), \
            LaurentPoly({Fraction(1, 3): 1})
        assert ((half + third).terms, (half + third).D) == ({3: 1, 2: 1}, 6)
        assert ((half * third).terms, (half * third).D) == ({5: 1}, 6)
        s = parse_scalar("(q^(1/2) + q^(1/3))/(1 - q^(1/6))")
        assert (s.num.D, s.den.D) == (6, 6)
        assert render_scalar(s) == "(-q^(1/2) - q^(1/3))/(q^(1/6) - 1)"

    def test_keys_and_true_exponents(self):
        p = LaurentPoly({Fraction(1, 2): 1, Fraction(-1, 3): 4, 1: -1,
                         Fraction(4, 2): 0})
        assert (p.terms, p.D) == ({3: 1, -2: 4, 6: -1}, 6)
        assert p.max_exp() == 1 and type(p.max_exp()) is int
        assert (p + LaurentPoly({1: 1})).max_exp() == Fraction(1, 2)
        for p in (LaurentPoly(), LaurentPoly({0: 5}),
                  LaurentPoly({Fraction(6, 3): 1, -1: 2})):
            assert p.D == 1 and all(type(k) is int for k in p.terms)


def scalars_in(x):
    """Every Scalar inside nested dicts, lists, tuples and .terms maps."""
    if isinstance(x, Scalar):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from scalars_in(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from scalars_in(v)
    elif hasattr(x, "terms"):
        yield from scalars_in(x.terms)


def test_sl3_calculus_exponent_keys_are_ints(calc3):
    """Every exponent key of an assembled N=3 calculus is an int on a
    minimal lattice, q^(1/3) tables included."""
    rs = calc3.qg.rs
    for g in rs.gens:
        calc3.d(AlgebraElement.generator(rs, *g))
    dual = calc3.dual
    parts = {"Lambda": dual.lam_matrix,
             "L+": dual.lplus.gen_tables,
             "L-": dual.lminus.gen_tables,
             "f": dual.f.gen_tables,
             "chi": dual.ext.gen_tables,
             "C": dual.C,
             "d memo": calc3._d_cache}
    lattices = set()
    for name, part in parts.items():
        found = list(scalars_in(part))
        assert found, name
        for s in found:
            for p in (s.num, s.den):
                assert_lattice(p)
                lattices.add(p.D)
    assert lattices == {1, 3}


def general_product(a, b):
    """The double-loop product of two LaurentPolys over their true
    exponents k/D, with no fast path."""
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            e = Fraction(k1, a.D) + Fraction(k2, b.D)
            terms[e] = terms.get(e, 0) + c1 * c2
    return LaurentPoly(terms)


mixed_exps = st.one_of(exps, wide_exps)
mixed_coeffs = st.one_of(coeffs, wide_coeffs).filter(bool)
mixed_polys = st.dictionaries(mixed_exps, mixed_coeffs,
                              max_size=4).map(LaurentPoly)
single_terms = st.builds(lambda e, c: LaurentPoly({e: c}), mixed_exps,
                         mixed_coeffs)


class TestSingleTermProduct:
    @given(mixed_polys, single_terms)
    def test_matches_general_product(self, p, t):
        want = general_product(p, t)
        for got in (p * t, t * p):
            assert (got.terms, got.D) == (want.terms, want.D)
            for e, c in got.terms.items():
                assert is_exact(c) and is_exact(e), (e, c)

    def test_integral_fraction_coefficient_becomes_int(self):
        p = LaurentPoly({0: Fraction(3, 2), 1: Fraction(-1, 2)})
        for got in (p * LaurentPoly({2: 2}), LaurentPoly({-1: -4}) * p):
            assert all(type(c) is int for c in got.terms.values())
        assert (p * LaurentPoly({2: 2})).terms == {2: 3, 3: -1}
        assert (p * LaurentPoly({1: Fraction(2, 3)})).terms == \
            {1: 1, 2: Fraction(-1, 3)}


def test_operations_agree_with_sympy():
    """sympy's cancel is an independent normal form for Q(q).  Exponents in
    steps of 1/2, 1/3 and 1/6 become integers by substituting q = s^D, D the
    common lattice of both operands."""
    sympy = pytest.importorskip("sympy")
    root = sympy.Symbol("s", positive=True)

    def to_sympy(s, q):
        return sympy.sympify(render_scalar(s).replace("^", "**"),
                             locals={"q": q})

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(scalars, wide_scalars),
           st.one_of(scalars, wide_scalars), small_powers)
    def check(a, b, n):
        q = root ** lcm(a.num.D, a.den.D, b.num.D, b.den.D)
        x, y = to_sympy(a, q), to_sympy(b, q)
        cases = [(x + y, a + b), (x - y, a - b), (x * y, a * b)]
        if not b.is_zero():
            cases.append((x / y, a / b))
        if n >= 0 or not a.is_zero():
            cases.append((x ** n, a ** n))
        for expected, got in cases:
            assert sympy.cancel(expected) == sympy.cancel(to_sympy(got, q))

    check()
