"""Expression grammar, lowering, and render/reparse round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclifford.cpoly import CliffordPoly
from qclifford.errors import (
    AlgebraMismatch,
    DivisionByZero,
    InvalidArgument,
    InvalidVariable,
    ParseError,
)
from qclifford.jackson import UniPoly
from qclifford.parser import lower, parse, parse_poly, parse_unipoly
from qclifford.qfield import ONE, Q, QScalar
from qclifford.randpoly import random_poly

from strategies import polys


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


class TestGrammar:
    def test_monomial(self):
        assert parse_poly("x1^2*x2*e1", 2) == x(1, 2) ** 2 * x(2, 2) * e(1, 2)

    def test_coefficient_subtree(self):
        expected = (1 + Q) * x(1, 2) - e(1, 2) * e(2, 2)
        assert parse_poly("(1+q)*x1 - e1*e2", 2) == expected

    def test_index_out_of_range(self):
        with pytest.raises(InvalidVariable):
            parse("x3", 2)
        with pytest.raises(InvalidVariable):
            parse("e4", 3)

    def test_x0_e0_allowed(self):
        P = parse_poly("x0*e0", 2)
        assert P.has_x0() and P.has_e0()
        for text in ("x0*e1 - x0*e1 + x1", "e0*x2 - e0*x2 + x1"):
            P = parse_poly(text, 2)
            assert not P.has_x0() and not P.has_e0()
            assert P == x(1, 2)
        assert parse_poly("x0*x1", 2).has_x0()
        assert parse_poly("e0*e1", 2).has_e0()

    def test_precedence(self):
        assert parse_poly("1+2*3", 1) == CliffordPoly.scalar(7, 1)
        assert parse_poly("2^3", 1) == CliffordPoly.scalar(8, 1)
        assert parse_poly("-x1^2", 1) == -(x(1, 1) ** 2)
        assert parse_poly("2*-3", 1) == CliffordPoly.scalar(-6, 1)
        assert parse_poly("1 - 2 - 3", 1) == CliffordPoly.scalar(-4, 1)

    def test_rational_literals(self):
        assert parse_poly("1/2", 1) == CliffordPoly.scalar(QScalar(Fraction(1, 2)), 1)
        assert parse_poly("3/2*x1", 1) == QScalar(Fraction(3, 2)) * x(1, 1)

    def test_division_by_scalar_expression(self):
        assert parse_poly("(1+q)/(1+q)", 1) == CliffordPoly.one(1)
        assert parse_poly("x1/q", 1) == (ONE / Q) * x(1, 1)

    def test_division_errors(self):
        with pytest.raises(DivisionByZero):
            parse_poly("1/(q-q)", 1)
        with pytest.raises(InvalidArgument):
            parse_poly("1/x1", 1)
        with pytest.raises(InvalidArgument):
            parse_poly("1/e1", 1)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse("x1 + + x2", 2)
        assert info.value.position == 5
        with pytest.raises(ParseError):
            parse("(x1", 2)
        with pytest.raises(ParseError):
            parse("x1 x2", 2)
        with pytest.raises(ParseError):
            parse("x1^q", 2)
        with pytest.raises(ParseError):
            parse("", 2)

    @pytest.mark.parametrize("text, position", [
        ("2\u00b2", 1),        # superscript two
        ("x1\u00b2", 2),
        ("e\u00b2", 1),
        ("x\u0661", 1),        # Arabic-Indic one
        ("\u0661\u0662*x1", 0),
    ])
    def test_tokens_are_ascii(self, text, position):
        with pytest.raises(ParseError) as info:
            parse(text, 2)
        assert info.value.position == position

    # digit runs past the interpreter's int-string limit (4300 digits by
    # default) in a literal, an exponent, a variable, a generator, and an
    # exponent of t
    @pytest.mark.parametrize("text, position, read", [
        ("1" * 5000, 0, lambda t: parse_poly(t, 2)),
        ("x1^" + "1" * 5000, 3, lambda t: parse_poly(t, 2)),
        ("x" + "1" * 5000, 0, lambda t: parse_poly(t, 2)),
        ("e" + "1" * 5000, 0, lambda t: parse_poly(t, 2)),
        ("t^" + "1" * 5000, 2, parse_unipoly),
    ], ids=["literal", "exponent", "variable", "generator", "t-exponent"])
    def test_overlong_digit_runs_carry_position(self, text, position, read):
        with pytest.raises(ParseError, match="5000 digits") as info:
            read(text)
        assert info.value.position == position
        assert parse_poly("1" * 100, 2) == CliffordPoly.scalar(int("1" * 100), 2)

    def test_whitespace_insensitive(self):
        assert parse_poly(" x1 * e1+ q * x2 ", 2) == parse_poly("x1*e1+q*x2", 2)
        assert parse_poly("x1\u00a0+\tx2", 2) == parse_poly("x1+x2", 2)


class TestLowering:
    def test_generator_anticommutation(self):
        assert parse_poly("e2*e1", 2) == -(e(1, 2) * e(2, 2))

    def test_q_is_central(self):
        assert parse_poly("q*x1 + x1*q", 2) == 2 * Q * x(1, 2)

    def test_variables_commute(self):
        assert parse_poly("x1*x2 - x2*x1", 2).is_zero()

    def test_negative_power_of_generator(self):
        assert parse_poly("e1^2", 2) == CliffordPoly.scalar(-1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(polys))
    def test_parsed_power_is_power(self, P):
        for n in range(6):
            assert parse_poly("(%s)^%d" % (P, n), P.m) == parse_poly(str(P), P.m) ** n

    def test_lower_checks_its_dimension(self):
        assert lower(parse("x1", 2), 2) == x(1, 2)
        assert lower(parse("x1 + 2*e2^3", 3), 3) == parse_poly("x1 - 2*e2", 3)
        for text in ("x1", "q", "3", "x1 + e2", "-(x1*x2)^2"):
            with pytest.raises(AlgebraMismatch):
                lower(parse(text, 2), 3)


ROUND_TRIP_CORPUS = [
    "0",
    "1",
    "-1",
    "q",
    "-q",
    "1/2",
    "q^2",
    "x1",
    "e1",
    "x1*e1",
    "x1 + x2",
    "x1 - x2",
    "x1^2*x2*e1 + (1+q)*x2^3",
    "(1+q)*x1 - e1*e2",
    "e1*e2*e3",
    "e3*e2*e1",
    "q*x1*x2*x3",
    "x1^4",
    "(1/2)*x1 + (1/3)*x2",
    "x1*x2*e1*e2 - x3^2*e3",
    "1 + q + q^2",
    "(1 + q)/(1 + q + q^2)*x1",
    "1/(1+q)*e1",
    "x0*e0",
    "x0^2 + x1^2",
    "x0*e0*e1 + x1",
    "-x1^3*e1",
    "2*x1 - 3*x2 + 4*x3",
    "(2+q)*x1*x2^2",
    "x1^2 - x2^2",
    "q^3*x1*e1*e2*e3",
    "(1-q)*x1",
    "(q-1)*x1",
    "-e1",
    "x2^2*e2",
    "x1*x2 + x2*x3 + x1*x3",
    "7/3",
    "q/2",
    "(1+2*q+q^2)*x1",
    "x1^2*x2^2*x3^2",
    "e1*e3",
    "x3*e1*e2*e3",
    "1 - x1 + x1^2 - x1^3",
    "(3/2+q)*x2",
    "x1*e2 - x2*e1",
    "5*x1^3 + q*x2",
    "x0^3*e0",
    "(1+q^2)*x0*x1*e0*e1",
    "x1 + x2 + x3 + 1",
    "q^4*x3^4",
    "2/3*q^2*x1*x2",
    "x2 - x1",
]


class TestRoundTrip:
    def test_corpus(self):
        assert len(ROUND_TRIP_CORPUS) >= 50
        for text in ROUND_TRIP_CORPUS:
            P = parse_poly(text, 3)
            rendered = str(P)
            assert parse_poly(rendered, 3) == P, text
            assert str(parse_poly(rendered, 3)) == rendered, text

    def test_random_polys_render_reparse(self):
        rng = random.Random(97)
        for _ in range(40):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 4, uses_x0=True, uses_e0=True)
            assert parse_poly(str(P), m) == P
            assert str(parse_poly(str(P), m)) == str(P)

    def test_fischer_style_denominators_reparse(self):
        from qclifford.fischer import fischer_step

        P = x(1, 2) ** 2
        s = fischer_step(P)
        assert parse_poly(str(s.monogenic), 2) == s.monogenic
        assert parse_poly(str(s.cofactor), 2) == s.cofactor

    def test_qscalar_rendering_round_trips(self):
        from qclifford.qfield import QPoly, q_binomial, q_bracket, q_factorial

        values = [
            q_bracket(5),
            ONE / q_factorial(3),
            q_binomial(4, 2) / q_bracket(7),
            QScalar(QPoly([Fraction(1, 2), -2, 1]), QPoly([0, 0, 1])),
            -Q ** 3,
            QScalar(0),
        ]
        for s in values:
            P = parse_poly(str(s), 1)
            assert P == CliffordPoly.scalar(s, 1), str(s)
            assert str(P) == str(s)


class TestUniParser:
    def test_basic(self):
        f = parse_unipoly("t^3 + t")
        assert f == UniPoly({3: ONE, 1: ONE})

    def test_q_coefficients(self):
        f = parse_unipoly("(1+q)*t^2 - 1/2")
        assert f == UniPoly({2: 1 + Q, 0: QScalar(Fraction(-1, 2))})

    def test_rejects_other_symbols(self):
        with pytest.raises(ParseError):
            parse_unipoly("x1")
        with pytest.raises(ParseError):
            parse_unipoly("e1 + t")

    def test_round_trip(self):
        for text in ("t", "1 + t + t^2", "(1/(1 + q))*t^2", "q*t - 1/2"):
            f = parse_unipoly(text)
            assert parse_unipoly(str(f)) == f


class TestNestingLimit:
    def test_limit_is_inclusive(self):
        from qclifford.parser import MAX_DEPTH

        assert parse_poly("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 1) == x(1, 1)
        assert parse_poly("-" * MAX_DEPTH + "x1", 1) == x(1, 1)
        assert parse_poly("-(" * (MAX_DEPTH // 2) + "x1" + ")" * (MAX_DEPTH // 2), 1) == x(1, 1)

    @pytest.mark.parametrize("text", [
        "(" * 101 + "x1" + ")" * 101,
        "(" * 3000 + "x1" + ")" * 3000,
        "-" * 3000 + "x1",
        "-(" * 51 + "x1" + ")" * 51,
    ])
    def test_deeper_input_is_parse_error(self, text):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_poly(text, 1)

    def test_one_dimensional_mode(self):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_unipoly("(" * 3000 + "t" + ")" * 3000)

    def test_long_chains_are_not_nesting(self):
        assert parse_poly(" + ".join(["x1"] * 3000), 1) == 3000 * x(1, 1)
        assert parse_poly(" - ".join(["x1"] * 3001), 1) == -2999 * x(1, 1)
        assert parse_poly("*".join(["e1"] * 3000), 1) == CliffordPoly.one(1)
