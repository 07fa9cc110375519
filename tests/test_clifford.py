"""Cl(0,m) blades, geometric product, conjugation, scalar part."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclifford.clifford import Multivector, blade_product, conjugate, scalar_part
from qclifford.cpoly import CliffordPoly
from qclifford.errors import AlgebraMismatch, InvalidArgument, InvalidVariable
from qclifford.qfield import ONE, Q, ZERO, QScalar


def naive_blade_product(a, b):
    """Oracle: multiply index lists with explicit bubble sort and e_i^2 = -1."""
    factors = [i for i in range(a.bit_length()) if a >> i & 1]
    factors += [i for i in range(b.bit_length()) if b >> i & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(factors) - 1):
            if factors[k] > factors[k + 1]:
                factors[k], factors[k + 1] = factors[k + 1], factors[k]
                sign = -sign
                changed = True
    out = []
    k = 0
    while k < len(factors):
        if k + 1 < len(factors) and factors[k] == factors[k + 1]:
            sign = -sign
            k += 2
        else:
            out.append(factors[k])
            k += 1
    mask = 0
    for i in out:
        mask |= 1 << i
    return sign, mask


def e(i, m=3):
    return Multivector.basis(i, m)


def mv(m, terms):
    return Multivector(m, terms)


class TestBladeProduct:
    def test_disjoint_ascending(self):
        assert e(1, 2) * e(2, 2) == Multivector(2, {0b110: ONE})

    def test_square_is_minus_one(self):
        assert e(1, 2) * e(1, 2) == Multivector.scalar(-1, 2)

    def test_transposition(self):
        assert e(2, 2) * e(1, 2) == Multivector(2, {0b110: -ONE})

    def test_exhaustive_against_naive_oracle(self):
        # every blade pair up to m = 5 (with the e0 bit included)
        for a in range(64):
            for b in range(64):
                assert blade_product(a, b) == naive_blade_product(a, b)

    def test_anticommutation_rule(self):
        for m in range(1, 6):
            for i in range(1, m + 1):
                assert e(i, m) * e(i, m) == Multivector.scalar(-1, m)
                for j in range(i + 1, m + 1):
                    lhs = e(i, m) * e(j, m) + e(j, m) * e(i, m)
                    assert lhs.is_zero()


class TestConjugate:
    def test_identity(self):
        one = Multivector.scalar(1, 3)
        assert conjugate(one) == one

    def test_vector(self):
        assert conjugate(e(1)) == -e(1)

    def test_bivector(self):
        e12 = e(1) * e(2)
        assert conjugate(e12) == -e12

    def test_trivector(self):
        e123 = e(1) * e(2) * e(3)
        assert conjugate(e123) == e123


class TestScalarPart:
    def test_reads_identity_coefficient(self):
        a = Multivector(2, {0: QScalar(3), 0b10: QScalar(2)})
        assert scalar_part(a) == QScalar(3)

    def test_no_identity_component(self):
        assert scalar_part(e(1) * e(2)) == ZERO

    def test_conjugate_square_example(self):
        a = Multivector(2, {0b10: QScalar(2), 0b110: ONE})  # 2e1 + e1e2
        assert scalar_part(conjugate(a) * a) == QScalar(5)


class TestEquality:
    def test_scalars_compare_like_cliffordpoly(self):
        # Multivector, CliffordPoly and the scalars agree on equality
        assert Multivector.scalar(1, 2) == 1
        assert 1 == Multivector.scalar(1, 2)
        assert Multivector.zero(2) == 0
        assert Multivector.scalar(Fraction(1, 2), 2) == Fraction(1, 2)
        assert Multivector.scalar(Q, 3) == Q
        assert CliffordPoly.one(2) == Multivector.scalar(1, 2) == CliffordPoly.one(2)
        assert Multivector.scalar(1, 2) != 2
        assert e(1, 2) != 0
        assert e(1, 2) != 1
        assert Multivector.scalar(1, 2) != "1"


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(AlgebraMismatch):
            e(1, 2) * e(1, 3)
        with pytest.raises(AlgebraMismatch):
            e(1, 2) + e(1, 3)
        with pytest.raises(AlgebraMismatch):
            e(1, 2) - e(1, 3)

    def test_constructor_checks(self):
        with pytest.raises(InvalidVariable):
            Multivector(2, {1 << 4: ONE})
        with pytest.raises(InvalidArgument):
            Multivector(0)


small_scalars = st.one_of(
    st.integers(min_value=-3, max_value=3).map(QScalar),
    st.builds(lambda a, b: QScalar(a) + QScalar(b) * Q,
              st.integers(min_value=-2, max_value=2),
              st.integers(min_value=-2, max_value=2)),
)


def multivectors(m, max_bit=None):
    top = 2 ** (m + 1) if max_bit is None else max_bit
    return st.dictionaries(
        st.integers(min_value=0, max_value=top - 1).filter(lambda x: not x & 1),
        small_scalars,
        max_size=4,
    ).map(lambda t: Multivector(m, t))


class TestAlgebraLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(multivectors(m), multivectors(m), multivectors(m))))
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(multivectors(m), multivectors(m))))
    def test_conjugate_antiautomorphism(self, pair):
        a, b = pair
        assert conjugate(a * b) == conjugate(b) * conjugate(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(multivectors))
    def test_conjugate_involution(self, a):
        assert conjugate(conjugate(a)) == a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(multivectors))
    def test_conjugate_norm_is_sum_of_squares(self, a):
        expected = ZERO
        for c in a.terms.values():
            expected = expected + c * c
        assert scalar_part(conjugate(a) * a) == expected
        # nonnegative at any rational evaluation point
        val = scalar_part(conjugate(a) * a)
        for q0 in (1, 2):
            try:
                assert val.evaluate(q0) >= 0
            except ZeroDivisionError:
                pass


class TestRendering:
    def test_strings(self):
        assert str(Multivector.scalar(1, 2)) == "1"
        assert str(e(0, 2)) == "e0"
        assert str(e(1, 2) * e(2, 2)) == "e1*e2"
        assert str(-e(1, 2)) == "-e1"
        a = Multivector(2, {0: QScalar(3), 0b10: QScalar(2)})
        assert str(a) == "3 + 2*e1"
