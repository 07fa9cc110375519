"""Q(q) field arithmetic and q-combinatorics."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, zip_longest
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclifford import _polyarith as pa
from qclifford.errors import DivisionByZero, InvalidArgument, PoleAtEvaluationPoint
from qclifford.qfield import ONE, Q, ZERO, QPoly, QScalar, q_binomial, q_bracket, q_factorial


# test-local oracle: integer coefficient lists, lowest degree first
def conv(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly(*coeffs):
    return QScalar(QPoly(coeffs))


def gaussian_binomial_oracle(n, k):
    """Sum q^(inversion count) over k-subsets of {0..n-1}."""
    coeffs = [0] * (k * (n - k) + 1)
    for subset in combinations(range(n), k):
        coeffs[sum(subset) - k * (k - 1) // 2] += 1
    return poly(*coeffs)


class TestArith:
    def test_add(self):
        assert Q + 1 == poly(1, 1)

    def test_div_cancels(self):
        assert poly(-1, 0, 1) / poly(-1, 1) == poly(1, 1)

    def test_mul_fractions(self):
        a = ONE / poly(-1, 1)
        b = ONE / poly(1, 1)
        assert a * b == ONE / poly(-1, 0, 1)

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / ZERO

    def test_sub(self):
        assert (Q - Q) == ZERO
        assert (1 - Q) == poly(1, -1)

    def test_pow(self):
        assert Q**3 == poly(0, 0, 0, 1)
        assert (ONE / Q) == Q**-1


class TestCanonicalForm:
    def test_den_monic(self):
        s = ONE / poly(2, 2)
        assert s.den.leading() == 1
        assert s == QScalar(QPoly([Fraction(1, 2)]), QPoly([1, 1]))

    def test_reduced(self):
        s = poly(-1, 0, 0, 1) / poly(-1, 1)  # (q^3-1)/(q-1)
        assert s == poly(1, 1, 1)
        assert s.den.is_one()

    def test_structural_equality(self):
        a = poly(0, 1, 1) / poly(0, 1)  # q(1+q)/q
        b = poly(1, 1)
        assert a == b and hash(a) == hash(b)

    def test_hash_agrees_with_int_and_fraction(self):
        for value in (0, 1, -3, Fraction(2, 3)):
            assert value in {QScalar(value): None}
            assert QScalar(value) in {value: None}
            assert hash(QScalar(value)) == hash(value)
        assert Fraction(7, 1) in {QScalar(7): None}
        assert QScalar(Fraction(7, 1)) in {7: None}
        assert Q not in {0: None, 1: None}

    def test_qpoly_is_not_a_scalar_operand(self):
        # a QPoly hashes apart from the equal-valued QScalar, so the two
        # may not compare equal
        one = QPoly([1])
        assert QScalar(1) != one and one != QScalar(1)
        assert len({one, QScalar(1)}) == 2
        with pytest.raises(TypeError):
            QScalar(1) + one
        with pytest.raises(TypeError):
            QScalar(1) * one

    def test_qpoly_takes_only_qpoly_operands(self):
        one = QPoly([1])
        for other in (QScalar(1), 2, Fraction(1, 2), 1.5, None):
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(one, other)
                with pytest.raises(TypeError):
                    op(other, one)

    def test_str(self):
        assert str(poly(1, 1, 1) / poly(0, 0, 1)) == "(1 + q + q^2)/q^2"
        assert str(ONE / poly(-1, 1)) == "1/(-1 + q)"
        assert str(poly(Fraction(1, 2), 2)) == "1/2 + 2*q"
        assert str(ZERO) == "0"
        assert str(poly(0, Fraction(-1, 2))) == "-1/2*q"
        assert str(poly(Fraction(1, 2), 0, 0, -1)) == "1/2 - q^3"
        assert str(-ONE / poly(3, 1)) == "-1/(3 + q)"
        assert str(poly(-1, -1) / poly(3, 1)) == "(-1 - q)/(3 + q)"


class TestQBracket:
    def test_zero(self):
        assert q_bracket(0) == ZERO

    def test_two(self):
        assert q_bracket(2) == poly(1, 1)

    def test_three(self):
        assert q_bracket(3) == poly(1, 1, 1)

    def test_recurrence(self):
        for u in range(21):
            assert q_bracket(u + 1) == Q * q_bracket(u) + 1

    def test_limit_at_one(self):
        for u in range(21):
            assert q_bracket(u).evaluate(1) == u

    def test_negative(self):
        with pytest.raises(InvalidArgument):
            q_bracket(-1)


class TestQFactorial:
    def test_zero(self):
        assert q_factorial(0) == ONE

    def test_two(self):
        assert q_factorial(2) == poly(1, 1)

    def test_three(self):
        # oracle: multiply the brackets by plain convolution
        expected = conv([1, 1], [1, 1, 1])
        assert expected == [1, 2, 2, 1]
        assert q_factorial(3) == poly(*expected)


class TestQBinomial:
    def test_choose_zero(self):
        for n in range(6):
            assert q_binomial(n, 0) == ONE

    def test_two_one(self):
        assert q_binomial(2, 1) == poly(1, 1)

    def test_four_two(self):
        assert q_binomial(4, 2) == poly(1, 1, 2, 1, 1)
        assert q_binomial(4, 2) == gaussian_binomial_oracle(4, 2)

    def test_against_subset_oracle(self):
        for n in range(11):
            for k in range(n + 1):
                assert q_binomial(n, k) == gaussian_binomial_oracle(n, k)

    def test_always_polynomial(self):
        for n in range(11):
            for k in range(n + 1):
                assert q_binomial(n, k).den.is_one()

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            q_binomial(2, 3)


class TestEvaluate:
    def test_bracket_at_one(self):
        assert q_bracket(5).evaluate(1) == 5

    def test_q_squared(self):
        assert (Q**2).evaluate(Fraction(1, 2)) == Fraction(1, 4)

    def test_pole(self):
        with pytest.raises(PoleAtEvaluationPoint):
            (ONE / poly(-1, 1)).evaluate(1)

    def test_pole_cancels(self):
        s = poly(-1, 0, 1) / poly(-1, 1)
        assert s.evaluate(1) == 2


class TestSubstQinv:
    def test_bracket(self):
        assert q_bracket(2).subst_qinv() == poly(1, 1) / poly(0, 1)

    def test_involution(self):
        s = poly(1, 2, 1) / poly(0, 3, 1)
        assert s.subst_qinv().subst_qinv() == s


small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)
qpolys = st.lists(small_fractions, max_size=4).map(QPoly)
qscalars = st.tuples(qpolys, qpolys.filter(lambda p: not p.is_zero())).map(
    lambda nd: QScalar(*nd)
)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(qscalars, qscalars, qscalars)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(qscalars, qscalars, qscalars)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(qscalars, qscalars)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(qscalars)
    def test_inverses(self, a):
        assert a + (-a) == ZERO
        if not a.is_zero():
            assert a * (ONE / a) == ONE
            assert (a / a) == ONE

    @settings(max_examples=60, deadline=None)
    @given(qscalars)
    def test_canonical_invariants(self, a):
        assert a.den.leading() == 1 or a.is_zero() and a.den.is_one()
        if a.is_zero():
            assert a.den.is_one()


class TestPowers:
    @settings(max_examples=60, deadline=None)
    @given(qscalars)
    def test_power_is_repeated_product(self, x):
        for n in range(6):
            assert x**n == reduce(mul, [x] * n, ONE)

    @settings(max_examples=60, deadline=None)
    @given(qscalars.filter(bool))
    def test_negative_power_is_power_of_inverse(self, x):
        inverse = ONE / x
        for n in range(6):
            assert x**-n == inverse**n == reduce(mul, [inverse] * n, ONE)


small_rationals = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


def _finite_at(a, q0):
    try:
        return a.evaluate(q0)
    except PoleAtEvaluationPoint:
        return None


class TestEvaluationHomomorphism:
    """Evaluation at a point that is no pole commutes with the field
    operations; this holds whatever the representation."""

    @settings(max_examples=100, deadline=None)
    @given(qscalars, qscalars, small_rationals)
    def test_operations_commute_with_evaluation(self, a, b, q0):
        va, vb = _finite_at(a, q0), _finite_at(b, q0)
        assume(va is not None and vb is not None)
        assert (a + b).evaluate(q0) == va + vb
        assert (a - b).evaluate(q0) == va - vb
        assert (a * b).evaluate(q0) == va * vb
        if vb:
            assert (a / b).evaluate(q0) == va / vb


def _assert_representation(p):
    assert isinstance(p.d, int) and p.d > 0
    assert all(isinstance(c, int) for c in p.ints)
    assert not p.ints or p.ints[-1] != 0
    assert gcd(p.d, *p.ints) == 1
    assert p.coeffs == tuple(Fraction(c, p.d) for c in p.ints)


class TestRepresentation:
    """A QPoly is the pair (ints, d) with coefficients ints[k] / d, no
    trailing zero, d > 0 and gcd(content(ints), d) == 1."""

    @settings(max_examples=100, deadline=None)
    @given(qscalars, qscalars)
    def test_invariant_on_canonical_scalars(self, a, b):
        for s in (a, b, a + b, a - b, a * b, -a, a.subst_qinv()):
            _assert_representation(s.num)
            _assert_representation(s.den)

    @settings(max_examples=100, deadline=None)
    @given(qpolys, qpolys)
    def test_sub_does_not_negate(self, a, b):
        expected = QPoly([x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(QPoly, "__neg__")
            diff = a - b
        assert diff == expected
        _assert_representation(diff)

    def test_equal_polynomials_are_equal_pairs(self):
        p = QPoly([Fraction(2, 2), 0])
        assert p == QPoly([1]) and hash(p) == hash(QPoly([1]))
        assert (p.ints, p.d) == ((1,), 1)
        half = QPoly([Fraction(1, 2)])
        assert half + half == QPoly([1]) and hash(half + half) == hash(QPoly([1]))
        assert (QPoly([0, Fraction(0, 3)]).ints, QPoly([0, Fraction(0, 3)]).d) == ((), 1)
        assert QPoly([Fraction(1, 2), Fraction(1, 3)]).coeffs == (Fraction(1, 2), Fraction(1, 3))


def _assert_canonical_equal(x, ref):
    assert (x.num, x.den) == (ref.num, ref.den)
    assert hash(x) == hash(ref)
    assert x.den.leading() == 1
    assert pa.gcd(x.num.ints, x.den.ints)[0] == [1]


def _over(s, f):
    return QScalar(s.num, s.den * f)


# operands whose denominators share a factor, and operands over one denominator
shared_factor_pairs = st.tuples(
    qscalars, qscalars, st.sampled_from([QPoly([1, 1]), QPoly([0, 1]), QPoly([-2, 1]),
                                         QPoly([1, 0, 1]), QPoly([1, 1]) * QPoly([0, 1])])
).map(lambda t: (_over(t[0], t[2]), _over(t[1], t[2])))
same_den_pairs = st.tuples(qpolys, qpolys, qpolys.filter(lambda p: p.degree > 0)).map(
    lambda t: (QScalar(t[0], t[2]), QScalar(t[1], t[2]))
)
operand_pairs = st.one_of(st.tuples(qscalars, qscalars), shared_factor_pairs, same_den_pairs)


class TestFastPathsAgreeWithCanonicalization:
    """The operators skip work their canonical inputs make redundant; each
    result must still equal the full canonicalisation QScalar(num, den)."""

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs)
    def test_operations(self, pair):
        a, b = pair
        _assert_canonical_equal(a + b, QScalar(a.num * b.den + b.num * a.den, a.den * b.den))
        _assert_canonical_equal(a - b, QScalar(a.num * b.den - b.num * a.den, a.den * b.den))
        _assert_canonical_equal(a * b, QScalar(a.num * b.num, a.den * b.den))
        _assert_canonical_equal(-a, QScalar(-a.num, a.den))
        if not b.is_zero():
            _assert_canonical_equal(a / b, QScalar(a.num * b.den, a.den * b.num))
            _assert_canonical_equal(b**-1, QScalar(b.den, b.num))
