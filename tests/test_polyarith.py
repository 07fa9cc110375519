"""The Z[q] kernel: gcd, exact division and pseudo-remainder on int lists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclifford import _polyarith as pa

# trimmed int coefficient lists, lowest degree first; [] is the zero polynomial
ints = st.lists(st.integers(min_value=-6, max_value=6), max_size=5).map(pa.trim)
nonzero = ints.filter(bool)
nonconstant = ints.filter(lambda a: len(a) > 1)


class TestGcd:
    @settings(max_examples=200, deadline=None)
    @given(ints, ints)
    def test_divides_both(self, a, b):
        g = pa.gcd(a, b)
        if not a and not b:
            assert g == []
            return
        assert g and g[-1] > 0
        pa.divexact(a, g)
        pa.divexact(b, g)

    @settings(max_examples=200, deadline=None)
    @given(nonzero, nonzero, nonconstant)
    def test_common_factor_divides_gcd(self, a, b, c):
        g = pa.gcd(pa.mul(a, c), pa.mul(b, c))
        pa.divexact(g, pa.primitive(c))

    @settings(max_examples=100, deadline=None)
    @given(nonzero)
    def test_gcd_with_zero_is_primitive_part(self, b):
        assert pa.gcd([], b) == pa.primitive(b)
        assert pa.gcd(b, []) == pa.primitive(b)

    @settings(max_examples=100, deadline=None)
    @given(ints, st.integers(min_value=-9, max_value=9).filter(bool))
    def test_gcd_with_nonzero_constant_is_one(self, a, c):
        assert pa.gcd(a, [c]) == [1]
        assert pa.gcd([c], a) == [1]

    def test_examples(self):
        # (q - 1)(q + 2) and 2(q - 1)(q + 3) share exactly q - 1
        assert pa.gcd(pa.mul([-1, 1], [2, 1]), pa.mul([-2, 2], [3, 1])) == [-1, 1]
        assert pa.gcd([2, 4], [3, 6]) == [1, 2]
        assert pa.gcd([1, 1], [-1, 1]) == [1]


class TestDivexact:
    @settings(max_examples=200, deadline=None)
    @given(ints, nonzero)
    def test_recovers_factor(self, a, b):
        assert pa.divexact(pa.mul(a, b), b) == a

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            pa.divexact([1, 1], [2])  # content not divisible
        with pytest.raises(ArithmeticError):
            pa.divexact([1, 0, 1], [1, 1])  # nonzero remainder
        with pytest.raises(ArithmeticError):
            pa.divexact([1], [0, 1])  # degree too small

    @settings(max_examples=200, deadline=None)
    @given(ints, nonconstant, nonzero)
    def test_inexact_remainder_raises(self, a, b, r):
        r = pa.trim(r[: len(b) - 1]) or [1]
        with pytest.raises(ArithmeticError):
            pa.divexact(pa.add(pa.mul(a, b), r), b)


class TestPseudoRem:
    @settings(max_examples=200, deadline=None)
    @given(ints, nonzero)
    def test_degree_below_divisor(self, a, b):
        r = pa.pseudo_rem(a, b)
        assert pa.deg(r) < pa.deg(b)

    @settings(max_examples=200, deadline=None)
    @given(ints, nonzero)
    def test_is_scaled_remainder(self, a, b):
        # lc(b)^s * a - r is a multiple of b for some 0 <= s <= deg(a) - deg(b) + 1
        r = pa.pseudo_rem(a, b)

        def multiple_of_b(p):
            try:
                pa.divexact(p, b)
            except ArithmeticError:
                return False
            return True

        top = max(pa.deg(a) - pa.deg(b) + 1, 0)
        assert any(multiple_of_b(pa.sub(pa.mul_int(a, b[-1] ** s), r)) for s in range(top + 1))
