"""1D Jackson calculus: derivative, integral, q-exponentials, Leibniz."""

import random
from fractions import Fraction

import pytest

from qclifford.cpoly import CliffordPoly, q_shift
from qclifford.errors import InvalidArgument, InvalidParameter
from qclifford.jackson import (
    UniPoly,
    jackson_derivative,
    q_exp,
    q_integral,
    q_integral_series_oracle,
)
from qclifford.parser import parse_unipoly
from qclifford.qfield import ONE, Q, ZERO, QScalar, q_bracket
from qclifford.randpoly import random_scalar


def t(k=1):
    return UniPoly({k: ONE})


def subst_neg(f):
    """f(-t)."""
    return CliffordPoly(1, {a: -mv if a[1] & 1 else mv for a, mv in f.terms.items()})


def random_unipoly(rng, max_degree=4):
    return UniPoly(
        {rng.randint(0, max_degree): random_scalar(rng) for _ in range(rng.randint(1, 4))}
    )


class TestDerivative:
    def test_monomials(self):
        for k in range(1, 8):
            assert jackson_derivative(t(k)) == q_bracket(k) * t(k - 1)

    def test_constant(self):
        assert jackson_derivative(UniPoly({0: 5})).is_zero()

    def test_linearity_example(self):
        f = t(2) + t(1)
        assert jackson_derivative(f) == (1 + Q) * t(1) + UniPoly({0: ONE})

    def test_operator_leibniz(self):
        # d(t f) = q t d(f) + f
        rng = random.Random(83)
        for _ in range(20):
            f = random_unipoly(rng)
            lhs = jackson_derivative(t(1) * f)
            assert lhs == Q * t(1) * jackson_derivative(f) + f


class TestIntegral:
    def test_constant(self):
        for a in (1, 2, Fraction(3, 2)):
            assert q_integral(UniPoly({0: ONE}), 0, a) == QScalar(a)

    def test_linear(self):
        assert q_integral(t(1), 0, 1) == ONE / (1 + Q)

    def test_same_endpoints(self):
        f = t(2) + 3 * t(1)
        assert q_integral(f, Fraction(5, 7), Fraction(5, 7)) == ZERO

    def test_interval_additivity(self):
        f = t(3) + t(1)
        full = q_integral(f, 0, 2)
        assert full == q_integral(f, 0, 1) + q_integral(f, 1, 2)


class TestSeriesOracle:
    def test_constant_partial_sum(self):
        got = q_integral_series_oracle(UniPoly({0: ONE}), 1, Fraction(1, 2), 40)
        assert got == 1 - Fraction(1, 2**40)
        closed = q_integral(UniPoly({0: ONE}), 0, 1).evaluate(Fraction(1, 2))
        assert abs(closed - got) <= Fraction(1, 2**39)

    def test_linear_partial_sum(self):
        got = q_integral_series_oracle(t(1), 1, Fraction(1, 2), 60)
        closed = q_integral(t(1), 0, 1).evaluate(Fraction(1, 2))
        assert closed == Fraction(2, 3)
        assert abs(closed - got) <= Fraction(1, 2**58)

    def test_zero_terms(self):
        assert q_integral_series_oracle(t(1), 1, Fraction(1, 2), 0) == 0

    def test_parameter_range(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(InvalidParameter):
                q_integral_series_oracle(t(1), 1, bad, 10)

    def test_exact_geometric_tail(self):
        # the closed form minus the partial sum IS the geometric tail
        for q0 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for k in range(7):
                for terms in (5, 9):
                    a = Fraction(1)
                    closed = q_integral(t(k), 0, a).evaluate(q0)
                    partial = q_integral_series_oracle(t(k), a, q0, terms)
                    tail = (
                        (1 - q0)
                        * a ** (k + 1)
                        * q0 ** ((k + 1) * terms)
                        / (1 - q0 ** (k + 1))
                    )
                    assert closed - partial == tail
                    assert abs(closed - partial) <= tail


class TestQExp:
    def test_truncations(self):
        assert q_exp("E", 0) == UniPoly({0: ONE})
        assert q_exp("E", 2) == UniPoly({0: ONE, 1: ONE, 2: ONE / (1 + Q)})
        assert q_exp("e", 2) == UniPoly({0: ONE, 1: ONE, 2: Q / (1 + Q)})

    def test_bad_variant(self):
        with pytest.raises(InvalidArgument):
            q_exp("x", 3)
        with pytest.raises(InvalidArgument):
            q_exp("E", -1)

    def test_inverse_relation(self):
        # E_q(t) e_q(-t) = 1 degree-wise
        n = 8
        prod = q_exp("E", n) * subst_neg(q_exp("e", n))
        assert prod.coefficient((0, 0)).scalar_part() == ONE
        for k in range(1, n + 1):
            assert prod.coefficient((0, k)).scalar_part() == ZERO, k

    def test_eigen_relation_E(self):
        # d E_q = E_q truncated one order lower
        for n in range(1, 9):
            assert jackson_derivative(q_exp("E", n)) == q_exp("E", n - 1)

    def test_shifted_eigen_relation_e(self):
        # d e_q(t) = e_q(q t) truncated one order lower
        for n in range(1, 9):
            assert jackson_derivative(q_exp("e", n)) == q_shift(q_exp("e", n - 1), 1)


class TestLeibniz:
    def test_both_product_rules(self):
        rng = random.Random(89)
        for _ in range(30):
            f = random_unipoly(rng)
            g = random_unipoly(rng)
            d_fg = jackson_derivative(f * g)
            left = jackson_derivative(f) * g + q_shift(f, 1) * jackson_derivative(g)
            right = jackson_derivative(f) * q_shift(g, 1) + f * jackson_derivative(g)
            assert d_fg == left
            assert d_fg == right


class TestRendering:
    def test_strings(self):
        assert str(UniPoly({3: ONE, 1: ONE})) == "t + t^3"
        assert str(q_exp("E", 2)) == "1 + t + (1/(1 + q))*t^2"
        assert str(UniPoly()) == "0"


class TestPrintedInT:
    """The jackson verbs print polynomials in t that reparse through
    parse_unipoly; printed in x1 they would not parse."""

    def check(self, f):
        text = str(f)
        assert "x" not in text
        assert ("t" in text) == (f.total_degree() > 0)
        assert repr(f) == text
        assert parse_unipoly(text) == f

    def test_round_trip(self):
        rng = random.Random(97)
        for _ in range(40):
            f = random_unipoly(rng, max_degree=6)
            self.check(f)
            self.check(jackson_derivative(f))
            self.check(parse_unipoly(str(f)))
        for variant in "Ee":
            for n in range(9):
                self.check(q_exp(variant, n))

    def test_negative_degree(self):
        with pytest.raises(InvalidArgument):
            UniPoly({-1: ONE})

    def test_inherited_constructors_build_cliffordpolys(self):
        assert UniPoly.zero(1) == UniPoly()
        assert UniPoly.one(1) == t(0)
        assert type(UniPoly.variable(1, 1)) is CliffordPoly
