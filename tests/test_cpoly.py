"""Clifford-valued polynomial arithmetic, grading, q-shift, evaluation."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclifford.clifford import Multivector, conjugate
from qclifford.cpoly import (
    CliffordPoly,
    evaluate_poly,
    homogeneous_part,
    norm_squared,
    q_shift,
    vector_variable,
)
from qclifford.errors import AlgebraMismatch, InvalidArgument, InvalidVariable
from qclifford.qfield import ONE, Q, QPoly, QScalar, q_bracket
from qclifford.qops import q_partial
from qclifford.randpoly import random_poly

from oracles import mul_oracle
from strategies import polys


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


class TestArithmetic:
    def test_vector_monomial_squares(self):
        p = x(1, 2) * e(1, 2)
        assert p * p == -(x(1, 2) ** 2)

    def test_vector_variable_square(self):
        for m in range(1, 6):
            xv = vector_variable(m)
            assert xv * xv == -norm_squared(m)

    def test_anticommutation(self):
        a = x(1, 2) * e(1, 2)
        b = x(2, 2) * e(2, 2)
        assert (a * b + b * a).is_zero()

    def test_variables_commute(self):
        assert x(1, 2) * x(2, 2) == x(2, 2) * x(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(AlgebraMismatch):
            x(1, 2) * x(1, 3)


class TestVectorVariable:
    def test_m1(self):
        assert vector_variable(1) == x(1, 1) * e(1, 1)

    def test_m2(self):
        assert vector_variable(2) == x(1, 2) * e(1, 2) + x(2, 2) * e(2, 2)

    def test_three_grade_one_terms(self):
        xv = vector_variable(3)
        assert len(xv.terms) == 3
        for mv in xv.terms.values():
            assert all(mask.bit_count() == 1 for mask in mv.terms)


class TestHomogeneousPart:
    def test_selects_degree(self):
        P = CliffordPoly.one(2) + x(1, 2) + x(1, 2) * x(2, 2)
        assert homogeneous_part(P, 2) == x(1, 2) * x(2, 2)

    def test_idempotent_on_homogeneous(self):
        P = x(1, 2) * x(2, 2) + x(2, 2) ** 2
        assert homogeneous_part(P, 2) == P

    def test_zero(self):
        assert homogeneous_part(CliffordPoly.zero(2), 3).is_zero()

    def test_parts_sum_to_whole(self):
        rng = random.Random(7)
        for _ in range(20):
            P = random_poly(rng, 3, 4)
            total = CliffordPoly.zero(3)
            seen = set()
            for k in range(P.total_degree() + 1):
                part = homogeneous_part(P, k)
                assert seen.isdisjoint(part.terms)
                seen.update(part.terms)
                total = total + part
            assert total == P


class TestQShift:
    def test_square(self):
        assert q_shift(x(1, 2) ** 2, 1) == Q**2 * x(1, 2) ** 2

    def test_other_variable(self):
        P = x(1, 2) * x(2, 2)
        assert q_shift(P, 2) == Q * P

    def test_norm_squared(self):
        for m in (2, 3):
            for i in range(1, m + 1):
                expected = CliffordPoly.zero(m)
                for j in range(1, m + 1):
                    term = x(j, m) ** 2
                    expected = expected + (Q**2 * term if j == i else term)
                assert q_shift(norm_squared(m), i) == expected

    def test_shifts_commute(self):
        rng = random.Random(11)
        for _ in range(10):
            P = random_poly(rng, 3, 4)
            for i in range(1, 4):
                for j in range(1, 4):
                    assert q_shift(q_shift(P, i), j) == q_shift(q_shift(P, j), i)

    def test_bad_index(self):
        with pytest.raises(InvalidVariable):
            q_shift(x(1, 2), 3)


class TestEvaluatePoly:
    def test_simple(self):
        v = evaluate_poly(x(1, 1) * e(1, 1), [2], 3)
        assert v == Multivector(1, {0b10: QScalar(2)})

    def test_bracket_at_one(self):
        P = q_bracket(2) * x(1, 1)
        assert evaluate_poly(P, [1], 1) == Multivector.scalar(2, 1)

    def test_vector_square(self):
        xv = vector_variable(2)
        for q0 in (1, 2, Fraction(1, 2)):
            assert evaluate_poly(xv * xv, [1, 1], q0) == Multivector.scalar(-2, 2)

    def test_point_length(self):
        with pytest.raises(InvalidArgument):
            evaluate_poly(x(1, 2), [1, 2, 3], 1)

    def test_ring_homomorphism(self):
        rng = random.Random(13)
        for _ in range(15):
            a = random_poly(rng, 2, 3)
            b = random_poly(rng, 2, 3)
            pt = [Fraction(rng.randint(-2, 3)) for _ in range(2)]
            q0 = rng.choice([1, 2, Fraction(1, 2)])
            assert evaluate_poly(a * b, pt, q0) == evaluate_poly(a, pt, q0) * evaluate_poly(b, pt, q0)
            assert evaluate_poly(a + b, pt, q0) == evaluate_poly(a, pt, q0) + evaluate_poly(b, pt, q0)


class TestRingAxioms:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(polys(m), polys(m), polys(m))))
    def test_mul_associative_and_distributive(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(polys(m), polys(m))))
    def test_add_commutes_sub_inverts(self, pair):
        a, b = pair
        assert a + b == b + a
        assert a - b + b == a

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(polys))
    def test_power_is_repeated_product(self, P):
        for n in range(6):
            assert P**n == reduce(mul, [P] * n, CliffordPoly.one(P.m))


class TestScalarOperands:
    # one scalar, 3, spelled three ways, and q + e1*e2 and x1*e1 + q*x2 in
    # m = 2 with their threefold built through the validating constructors
    SPELLINGS = (3, Fraction(3), QScalar(3))
    MV = Multivector(2, {0: Q, 0b110: ONE})
    MV3 = Multivector(2, {0: QScalar(QPoly([0, 3])), 0b110: 3})
    P = CliffordPoly(2, {(0, 1, 0): Multivector(2, {0b10: ONE}), (0, 0, 1): Multivector(2, {0: Q})})
    P3 = CliffordPoly(2, {(0, 1, 0): Multivector(2, {0b10: 3}),
                          (0, 0, 1): Multivector(2, {0: QScalar(QPoly([0, 3]))})})

    @pytest.mark.parametrize("s", SPELLINGS, ids=["int", "Fraction", "QScalar"])
    def test_spellings_agree(self, s):
        assert self.MV * s == s * self.MV == self.MV3
        assert self.P * s == s * self.P == self.P3
        for value in (QScalar(3), Multivector.scalar(3, 2), CliffordPoly.scalar(3, 2)):
            assert value == s and s == value
            assert value != s + 1 and s + 1 != value

    @pytest.mark.parametrize("other", [1.5, "3", None, QPoly([3])],
                             ids=["float", "str", "None", "QPoly"])
    def test_other_operands_are_refused(self, other):
        for left in (QScalar(3), self.MV, self.P, Multivector.scalar(3, 2),
                     CliffordPoly.scalar(3, 2)):
            with pytest.raises(TypeError):
                left * other
            assert (left == other) is False
            assert (left != other) is True


def assert_canonical(value):
    """value equals its rebuild through the validating constructors, term
    for term, and holds no zero term at any level."""
    if isinstance(value, QScalar):
        rebuilt = QScalar(value.num, value.den)
        assert (rebuilt.num, rebuilt.den) == (value.num, value.den)
        return
    if isinstance(value, Multivector):
        rebuilt = Multivector(value.m, value.terms)
    else:
        rebuilt = CliffordPoly(value.m, value.terms)
    assert rebuilt == value
    assert rebuilt.terms == value.terms
    for coeff in value.terms.values():
        assert not coeff.is_zero()
        assert_canonical(coeff)


class TestCanonicalResults:
    """The operators build their results without the constructors' checks,
    so every result must be what those checks would have built."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(polys(m), polys(m))))
    def test_results_are_canonical(self, pair):
        a, b = pair
        m = a.m
        results = [a + b, a - b, -a, a * b, b * a, a - a, a + (-a), (a + b) - b,
                   a * b - b * a, Q * a, a * (1 / (1 + Q)), a * 0]
        results += [q_partial(a, i) for i in range(m + 1)]
        results += [q_shift(a, i) for i in range(m + 1)]
        results += [homogeneous_part(a, k) for k in range(7)]
        coeffs = [mv for P in (a, b, a * b) for mv in P.terms.values()]
        for u in coeffs:
            for v in coeffs:
                results += [u + v, u - v, u * v]
            results += [-u, conjugate(u), u * Q, (1 + Q) * u, u * (1 / (1 + Q)), u * 0,
                        u - u, u + (-u)]
        for r in results:
            assert_canonical(r)
        assert a - b == a + (-b)
        assert (a + b) - b == a
        assert (a - a).is_zero() and (a + (-a)).is_zero()
        one = CliffordPoly.one(m)
        assert one * a == a == a * one
        for mv in coeffs:
            for c in list(mv.terms.values()) + [c / (1 + Q) for c in mv.terms.values()]:
                assert ONE * c == c
                assert c * ONE == c


def one_term_operands(m):
    """One-term polynomials: x^beta, e_A, the scalars 1 and c, and
    c x^beta times a multivector of several blades."""
    betas = st.tuples(*[st.integers(min_value=0, max_value=2)] * (m + 1))
    blades = st.integers(min_value=0, max_value=2 ** (m + 1) - 1)
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    return st.one_of(
        betas.map(lambda b: CliffordPoly.monomial(m, b, Multivector.scalar(ONE, m))),
        blades.map(lambda A: CliffordPoly.from_multivector(Multivector.blade(A, m))),
        st.just(CliffordPoly.one(m)),
        coeffs.map(lambda c: CliffordPoly.scalar(c, m)),
        st.tuples(betas, st.dictionaries(blades, coeffs.map(QScalar), min_size=1, max_size=3))
        .map(lambda bt: CliffordPoly.monomial(m, bt[0], Multivector(m, bt[1]))),
    )


class TestProductsAgainstOracle:
    """Products by one term shift the other operand's multi-indices; every
    product must equal the double loop over both operands' terms."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(polys(m, extended=True), one_term_operands(m))))
    def test_one_term_on_either_side(self, pair):
        P, T = pair
        assert P * T == mul_oracle(P, T)
        assert T * P == mul_oracle(T, P)
        assert_canonical(P * T)
        assert_canonical(T * P)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(polys(m, extended=True), polys(m, extended=True))))
    def test_general_product(self, pair):
        a, b = pair
        assert a * b == mul_oracle(a, b)
        assert_canonical(a * b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(polys(m, extended=True), st.integers(min_value=0, max_value=2 ** (m + 1) - 1),
                            st.sampled_from([0, 1, -2, Fraction(1, 3), ONE, Q, 1 / (1 + Q)]))))
    def test_scalar_and_multivector_operands(self, triple):
        P, A, c = triple
        m = P.m
        mv = Multivector.blade(A, m) + Multivector.scalar(c, m)
        for cp, raw in ((CliffordPoly.scalar(c, m), c), (CliffordPoly.from_multivector(mv), mv)):
            assert raw * P == mul_oracle(cp, P)
            assert P * raw == mul_oracle(P, cp)
            assert_canonical(raw * P)
            assert_canonical(P * raw)

    def test_zero_divisor_drops_the_term(self):
        # (1 + e1e2e3)(1 - e1e2e3) = 0 in Cl(0,3)
        m = 3
        u = CliffordPoly.one(m) + e(1, m) * e(2, m) * e(3, m)
        v = CliffordPoly.one(m) - e(1, m) * e(2, m) * e(3, m)
        P = x(1, m) * v + x(2, m)
        assert (u * P).terms.keys() == {(0, 0, 1, 0)}
        assert u * P == mul_oracle(u, P) == x(2, m) * u
        assert (P * u).terms.keys() == {(0, 0, 1, 0)}
        assert P * u == mul_oracle(P, u)

    def test_zero_operands(self):
        for m in (1, 3):
            P = x(1, m) * e(m, m) + 2
            zero = CliffordPoly.zero(m)
            for product in (P * zero, zero * P, P * 0, 0 * P, P * Multivector.zero(m),
                            Multivector.zero(m) * P):
                assert product.is_zero() and product.terms == {}


class TestConstructorChecks:
    def test_dimension(self):
        with pytest.raises(InvalidArgument):
            CliffordPoly(0)

    @pytest.mark.parametrize("alpha", [(0, 1), (0, -1, 0)])
    def test_multi_index(self, alpha):
        with pytest.raises(InvalidArgument):
            CliffordPoly(2, {alpha: Multivector.scalar(ONE, 2)})

    def test_coefficient_algebra(self):
        with pytest.raises(AlgebraMismatch):
            CliffordPoly(2, {(0, 1, 0): Multivector.basis(3, 3)})


class TestRendering:
    def test_examples(self):
        P = x(1, 2) ** 2 * x(2, 2) * e(1, 2) + (1 + Q) * x(2, 2) ** 3
        assert str(P) == "x1^2*x2*e1 + (1 + q)*x2^3"
        assert str(CliffordPoly.zero(2)) == "0"
        assert str(-x(1, 1)) == "-x1"
        assert str(vector_variable(2) * vector_variable(2)) == "-x1^2 - x2^2"
