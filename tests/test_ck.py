"""Cauchy-Kovalevskaya extension: examples, monogenicity, restriction."""

import random
from fractions import Fraction

import pytest

from qclifford import ck
from qclifford.ck import ck_extend, e0bar, extended_dirac, restrict_x0
from qclifford.cpoly import CliffordPoly
from qclifford.errors import SingularSystem, UsesExtendedAlgebra
from qclifford.qfield import Q, QScalar, q_bracket
from qclifford.randpoly import random_poly, random_scalar


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


class TestExtendedDirac:
    def test_x0_e0(self):
        F = x(0, 2) * e(0, 2)
        assert extended_dirac(F) == CliffordPoly.one(2)

    def test_fueter_variable_is_monogenic(self):
        for m in (1, 2, 3):
            for l in range(1, m + 1):
                F = x(l, m) - x(0, m) * e0bar(m) * e(l, m)
                assert extended_dirac(F).is_zero()

    def test_constant(self):
        assert extended_dirac(CliffordPoly.scalar(7, 3)).is_zero()


class TestPaperExamples:
    def test_coordinate(self):
        for m in (2, 3):
            for l in range(1, m + 1):
                expected = x(l, m) - x(0, m) * e0bar(m) * e(l, m)
                assert ck_extend(x(l, m)) == expected
        assert str(ck_extend(x(1, 2))) == "x1 + x0*e0*e1"

    def test_mixed_product(self):
        m = 3
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            f = x(i, m) * x(j, m)
            expected = f - x(0, m) * e0bar(m) * (x(j, m) * e(i, m) + x(i, m) * e(j, m))
            assert ck_extend(f) == expected
        assert str(ck_extend(x(1, 3) * x(2, 3))) == "x1*x2 + x0*x1*e0*e2 + x0*x2*e0*e1"

    def test_square(self):
        m = 2
        for i in (1, 2):
            f = x(i, m) ** 2
            expected = (
                f
                - q_bracket(2) * x(0, m) * x(i, m) * e0bar(m) * e(i, m)
                - x(0, m) ** 2
            )
            assert ck_extend(f) == expected
        assert str(ck_extend(x(1, 2) ** 2)) == "x1^2 + (1 + q)*x0*x1*e0*e1 - x0^2"


class TestContract:
    def test_monogenic_and_restricts(self):
        rng = random.Random(71)
        for _ in range(30):
            m = rng.randint(1, 4)
            f = random_poly(rng, m, 4)
            F = ck_extend(f)
            assert extended_dirac(F).is_zero()
            assert restrict_x0(F) == f

    def test_linearity(self):
        rng = random.Random(73)
        for _ in range(10):
            m = rng.randint(1, 3)
            f = random_poly(rng, m, 3)
            g = random_poly(rng, m, 3)
            a = random_scalar(rng)
            b = random_scalar(rng)
            assert ck_extend(a * f + b * g) == a * ck_extend(f) + b * ck_extend(g)

    def test_termination_at_degree(self):
        rng = random.Random(79)
        for _ in range(10):
            m = rng.randint(1, 3)
            f = random_poly(rng, m, 4)
            F = ck_extend(f)
            assert max((a[0] for a in F.terms), default=0) <= f.total_degree()

    def test_nonterminating_series_raises(self, monkeypatch):
        # with the Dirac step replaced by the identity the series never
        # reaches zero; the guard must not depend on assertions being on
        monkeypatch.setattr(ck, "_dirac_vector_part", lambda F: F)
        with pytest.raises(SingularSystem):
            ck_extend(x(1, 2))

    def test_rejects_extended_input(self):
        with pytest.raises(UsesExtendedAlgebra):
            ck_extend(x(0, 2))
        with pytest.raises(UsesExtendedAlgebra):
            ck_extend(e(0, 2) * x(1, 2))
        # cancelled x0/e0 content leaves a plain input; a product's does not
        m = 2
        for f in (
            x(0, m) * e(1, m) - x(0, m) * e(1, m) + x(1, m),
            e(0, m) * x(2, m) - e(0, m) * x(2, m) + x(1, m),
        ):
            assert not f.has_x0() and not f.has_e0()
            assert ck_extend(f) == ck_extend(x(1, m))
        for f in (x(0, m) * x(1, m), e(0, m) * e(1, m)):
            with pytest.raises(UsesExtendedAlgebra):
                ck_extend(f)


class TestNonMultiplicativity:
    def test_square_is_not_product_of_extensions(self):
        m = 2
        diff = ck_extend(x(1, m) ** 2) - ck_extend(x(1, m)) ** 2
        assert not diff.is_zero()
        # (1 - q) x0 x1 e0bar e1: vanishes exactly at q = 1
        assert diff == (1 - Q) * x(0, m) * x(1, m) * e0bar(m) * e(1, m)
        for mv in diff.terms.values():
            for c in mv.terms.values():
                assert c.evaluate(1) == 0
        assert any(
            c.evaluate(2) != 0 for mv in diff.terms.values() for c in mv.terms.values()
        )

    def test_symmetrized_product_recovers_mixed_case(self):
        m = 3
        half = QScalar(Fraction(1, 2))
        for i, j in [(1, 2), (2, 3), (1, 3)]:
            Fi = ck_extend(x(i, m))
            Fj = ck_extend(x(j, m))
            assert ck_extend(x(i, m) * x(j, m)) == half * (Fi * Fj + Fj * Fi)


class TestRestrict:
    def test_drops_x0_terms(self):
        F = x(0, 2) ** 2 + x(1, 2)
        assert restrict_x0(F) == x(1, 2)
        assert restrict_x0(x(0, 2) ** 2).is_zero()

    def test_identity_without_x0(self):
        P = x(1, 2) * x(2, 2) + CliffordPoly.one(2)
        assert restrict_x0(P) == P
