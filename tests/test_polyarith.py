"""The Z[q] kernel (gcd, exact division) and the PRS oracle's pseudo-remainder."""

from math import gcd as int_gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import prs_gcd, pseudo_rem
from qclifford import _polyarith as pa

# trimmed int coefficient lists, lowest degree first; [] is the zero polynomial
ints = st.lists(st.integers(min_value=-6, max_value=6), max_size=5).map(pa.trim)
nonzero = ints.filter(bool)
nonconstant = ints.filter(lambda a: len(a) > 1)


class TestGcd:
    @settings(max_examples=200, deadline=None)
    @given(ints, ints)
    def test_divides_both(self, a, b):
        g = pa.gcd(a, b)[0]
        if not a and not b:
            assert g == []
            return
        assert g and g[-1] > 0
        pa.divexact(a, g)
        pa.divexact(b, g)

    @settings(max_examples=200, deadline=None)
    @given(nonzero, nonzero, nonconstant)
    def test_common_factor_divides_gcd(self, a, b, c):
        g = pa.gcd(pa.mul(a, c), pa.mul(b, c))[0]
        pa.divexact(g, pa.primitive(c))

    @settings(max_examples=100, deadline=None)
    @given(nonzero)
    def test_gcd_with_zero_is_primitive_part(self, b):
        assert pa.gcd([], b)[0] == pa.primitive(b)
        assert pa.gcd(b, [])[0] == pa.primitive(b)

    @settings(max_examples=100, deadline=None)
    @given(ints, st.integers(min_value=-9, max_value=9).filter(bool))
    def test_gcd_with_nonzero_constant_is_one(self, a, c):
        assert pa.gcd(a, [c])[0] == [1]
        assert pa.gcd([c], a)[0] == [1]

    def test_examples(self):
        # (q - 1)(q + 2) and 2(q - 1)(q + 3) share exactly q - 1
        assert pa.gcd(pa.mul([-1, 1], [2, 1]), pa.mul([-2, 2], [3, 1]))[0] == [-1, 1]
        assert pa.gcd([2, 4], [3, 6])[0] == [1, 2]
        assert pa.gcd([1, 1], [-1, 1])[0] == [1]


# factors with coefficients up to 2^100, degree <= 10, so a planted product has degree <= 30
big = st.integers(min_value=-2**100, max_value=2**100)
factors = st.lists(big, min_size=1, max_size=11).map(pa.trim).filter(bool)
contents = st.integers(min_value=-10**12, max_value=10**12).filter(bool)


class TestHeuristicGcd:
    """gcd against the primitive-PRS oracle, on inputs that reach retries."""

    @settings(max_examples=150, deadline=None)
    @given(factors, factors, factors, contents, contents)
    def test_planted_factor_matches_prs(self, a, b, c, ka, kb):
        A = pa.mul_int(pa.mul(a, c), ka)
        B = pa.mul_int(pa.mul(b, c), kb)
        g, qa, qb = pa.gcd(A, B)
        assert g == prs_gcd(A, B)
        assert g[-1] > 0 and pa.content(g) == 1
        assert pa.mul(g, qa) == A
        assert pa.mul(g, qb) == B

    @settings(max_examples=100, deadline=None)
    @given(factors, factors)
    def test_cofactors(self, a, b):
        g, qa, qb = pa.gcd(a, b)
        assert pa.mul(g, qa) == a and pa.mul(g, qb) == b

    def test_cyclotomic_closed_form(self):
        # gcd(q^n - 1, q^m - 1) = q^gcd(n, m) - 1
        for n in range(1, 61):
            qn = [-1] + [0] * (n - 1) + [1]
            for m in range(1, n + 1):
                qm = [-1] + [0] * (m - 1) + [1]
                d = int_gcd(n, m)
                g, cn, cm = pa.gcd(qn, qm)
                assert g == [-1] + [0] * (d - 1) + [1], (n, m)
                assert pa.mul(g, cn) == qn and pa.mul(g, cm) == qm

    def test_false_first_candidate_retries(self):
        a, b = [10, 1], [69, 1]  # q + 10 and q + 69 are coprime
        x = 2 * 10 + 29  # the first evaluation point
        h = int_gcd(pa._value(a, x), pa._value(b, x))
        assert (pa._value(a, x), pa._value(b, x), h) == (59, 118, 59)
        assert pa._digits(h, x) == a  # q + 10 does not divide q + 69
        assert pa.gcd(a, b) == ([1], a, b)

    def test_zero_and_constant_inputs(self):
        assert pa.gcd([], []) == ([], [], [])
        assert pa.gcd([], [-4, -6]) == ([2, 3], [], [-2])
        assert pa.gcd([-4, -6], []) == ([2, 3], [-2], [])
        assert pa.gcd([5], [1, 2, 3]) == ([1], [5], [1, 2, 3])


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
        r = pseudo_rem(a, b)
        assert pa.deg(r) < pa.deg(b)

    @settings(max_examples=200, deadline=None)
    @given(ints, nonzero)
    def test_is_scaled_remainder(self, a, b):
        # lc(b)^s * a - r is a multiple of b for some 0 <= s <= deg(a) - deg(b) + 1
        r = pseudo_rem(a, b)

        def multiple_of_b(p):
            try:
                pa.divexact(p, b)
            except ArithmeticError:
                return False
            return True

        top = max(pa.deg(a) - pa.deg(b) + 1, 0)
        assert any(multiple_of_b(pa.sub(pa.mul_int(a, b[-1] ** s), r)) for s in range(top + 1))
