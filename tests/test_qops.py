"""q-deformed operators: examples, identity sweeps, numeric cross-checks."""

import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclifford.clifford import Multivector
from qclifford.cpoly import CliffordPoly, evaluate_poly, norm_squared, vector_variable
from qclifford.errors import InvalidArgument, UsesExtendedAlgebra
from qclifford.qfield import Q, QScalar, q_bracket
from qclifford.qops import (
    PARTIAL_RELATIONS,
    RELATION_NAMES,
    SYMMETRY_RELATIONS,
    _dirac_vector_part,
    check_relation,
    is_monogenic,
    q_dirac,
    q_euler,
    q_gamma,
    q_laplace,
    q_partial,
    resolve_relation,
)
from qclifford.randpoly import random_point, random_poly


from oracles import (
    classical_dirac,
    classical_euler,
    classical_gamma,
    classical_laplace,
    classical_partial,
    dirac_oracle,
    euler_oracle,
    gamma_oracle,
    laplace_oracle,
    quotient_oracle,
)
from strategies import polys


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


class TestQPartial:
    def test_monomial_rule(self):
        assert q_partial(x(1, 1) ** 0, 1).is_zero()
        for k in range(1, 6):
            assert q_partial(x(1, 1) ** k, 1) == q_bracket(k) * x(1, 1) ** (k - 1)

    def test_constant(self):
        assert q_partial(CliffordPoly.scalar(5, 2), 1).is_zero()

    def test_mixed_monomial(self):
        P = x(1, 2) ** 2 * x(2, 2)
        expected = (1 + Q) * x(1, 2) * x(2, 2)
        assert q_partial(P, 1) == expected
        assert q_partial(P, 1) == quotient_oracle(P, 1)

    def test_quotient_oracle_random(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 5)
            for i in range(1, m + 1):
                assert q_partial(P, i) == quotient_oracle(P, i)


class TestQDirac:
    def test_vector_variable(self):
        for m in range(1, 6):
            assert q_dirac(vector_variable(m)) == CliffordPoly.scalar(m, m)

    def test_square_monomial(self):
        for m in (1, 2, 3):
            for i in range(1, m + 1):
                assert q_dirac(x(i, m) ** 2) == -(q_bracket(2) * x(i, m) * e(i, m))

    def test_kernel_element(self):
        P = x(1, 2) * e(1, 2) - x(2, 2) * e(2, 2)
        assert q_dirac(P).is_zero()

    def test_rejects_extended_content(self):
        with pytest.raises(UsesExtendedAlgebra):
            q_dirac(CliffordPoly.variable(0, 2))
        with pytest.raises(UsesExtendedAlgebra):
            q_dirac(CliffordPoly.generator(0, 2))
        # the check reads the current terms: cancelled x0/e0 content is
        # plain, extension content made by a product is not
        m = 2
        for P in (
            x(0, m) * e(1, m) - x(0, m) * e(1, m) + x(1, m),
            e(0, m) * x(2, m) - e(0, m) * x(2, m) + x(1, m),
        ):
            assert not P.has_x0() and not P.has_e0()
            assert q_dirac(P) == q_dirac(x(1, m))
        for P in (x(0, m) * x(1, m), e(0, m) * e(1, m)):
            with pytest.raises(UsesExtendedAlgebra):
                q_dirac(P)


class TestTermMapsAgainstOracles:
    """The operators are one pass over the terms; each must equal its
    operator sum composed from q_partial and the double-loop product."""

    PAIRS = [(q_dirac, dirac_oracle), (q_euler, euler_oracle),
             (q_gamma, gamma_oracle), (q_laplace, laplace_oracle)]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(polys))
    def test_random_polynomials(self, P):
        for op, oracle in self.PAIRS:
            assert op(P) == oracle(P), op.__name__

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(lambda m: polys(m, extended=True)))
    def test_extended_content(self, P):
        # the CK extension applies the vector part to x0/e0 content
        assert _dirac_vector_part(P) == dirac_oracle(P)
        for op, oracle in self.PAIRS[1:]:
            assert op(P) == oracle(P), op.__name__

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_zero_and_constants(self, m):
        for P in (CliffordPoly.zero(m), CliffordPoly.scalar(3, m), e(m, m), 2 * e(0, m)):
            assert _dirac_vector_part(P).terms == {}
            for op, oracle in self.PAIRS[1:]:
                assert op(P).terms == {} and oracle(P).is_zero()

    def test_cancelling_sums(self):
        m = 3
        x0 = x(0, m)
        cases = [
            # D: -e1 e2 - e2 e1 = 0, also with an x0 factor (the CK path)
            (_dirac_vector_part, x(1, m) * e(2, m) + x(2, m) * e(1, m)),
            (_dirac_vector_part, x0 * (x(1, m) * e(2, m) + x(2, m) * e(1, m))),
            (_dirac_vector_part, x0 * (x(1, m) * e(2, m) + x(2, m) * e(1, m)) + x(3, m)),
            (q_dirac, x(1, m) * e(2, m) + x(2, m) * e(1, m) + x(3, m) * x(1, m)),
            # Gamma annihilates |x|^2; Laplace annihilates x1^2 - x2^2
            (q_gamma, x(1, m) ** 2 + x(2, m) ** 2 + x(3, m) ** 2),
            (q_gamma, x(1, m) ** 2 + x(2, m) ** 2 + x(3, m) * e(1, m)),
            (q_laplace, x(1, m) ** 2 - x(2, m) ** 2),
            (q_laplace, x(1, m) ** 2 * x(3, m) - x(2, m) ** 2 * x(3, m) + x(1, m) ** 2),
        ]
        oracles = {_dirac_vector_part: dirac_oracle, q_dirac: dirac_oracle,
                   q_gamma: gamma_oracle, q_laplace: laplace_oracle}
        for op, P in cases:
            assert op(P) == oracles[op](P), (op.__name__, str(P))
        for op, P in cases[:2] + cases[4:5] + cases[6:7]:
            assert op(P).terms == {}


class TestCachedConstantsArePrivate:
    """The operators share one copy of x_i, e_i, the vector variable and
    |x|^2 per (i, m); what the public constructors return is the caller's."""

    def test_mutated_constants_change_nothing(self):
        m = 3
        P, G = random_poly(random.Random(41), m, 3), random_poly(random.Random(43), m, 2)
        for name in RELATION_NAMES:
            assert check_relation(name, P, G).is_zero(), name
        makers = [lambda: vector_variable(m), lambda: norm_squared(m)]
        makers += [lambda i=i: CliffordPoly.variable(i, m) for i in range(m + 1)]
        makers += [lambda i=i: CliffordPoly.generator(i, m) for i in range(m + 1)]
        for make in makers:
            expected = str(make())
            value = make()
            for mv in value.terms.values():
                mv.terms.clear()
            value.terms.clear()
            value.terms[(0, 1, 1, 1)] = Multivector.scalar(7, m)
            assert str(make()) == expected
        assert str(vector_variable(m)) == "x1*e1 + x2*e2 + x3*e3"
        assert str(norm_squared(m)) == "x1^2 + x2^2 + x3^2"
        for name in RELATION_NAMES:
            assert check_relation(name, P, G).is_zero(), name


class TestQEuler:
    def test_partition_1_1_1(self):
        P = x(1, 3) * x(2, 3) * x(3, 3)
        assert q_euler(P) == 3 * P

    def test_partition_1_2(self):
        P = x(1, 3) * x(2, 3) ** 2
        assert q_euler(P) == (2 + Q) * P

    def test_partition_3(self):
        P = x(1, 3) ** 3
        assert q_euler(P) == (1 + Q + Q**2) * P

    def test_eigenvalue_law_random_monomials(self):
        rng = random.Random(5)
        for _ in range(25):
            m = rng.randint(1, 4)
            alpha = tuple([0] + [rng.randint(0, 4) for _ in range(m)])
            mono = CliffordPoly.monomial(m, alpha, Multivector.scalar(1, m))
            eig = sum((q_bracket(a) for a in alpha), QScalar(0))
            assert q_euler(mono) == eig * mono
            assert eig.evaluate(1) == sum(alpha)


class TestQGamma:
    def test_constant(self):
        assert q_gamma(CliffordPoly.scalar(4, 3)).is_zero()

    def test_single_variable(self):
        assert q_gamma(x(1, 2)) == x(2, 2) * e(1, 2) * e(2, 2)

    def test_product_decomposition(self):
        rng = random.Random(9)
        for _ in range(15):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 4)
            assert q_gamma(P) == vector_variable(m) * q_dirac(P) - q_euler(P)


class TestQLaplace:
    def test_square(self):
        assert q_laplace(x(1, 1) ** 2) == CliffordPoly.scalar(q_bracket(2), 1)

    def test_mixed(self):
        assert q_laplace(x(1, 2) * x(2, 2)).is_zero()

    def test_dirac_squared(self):
        rng = random.Random(17)
        for _ in range(15):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 4)
            assert q_dirac(q_dirac(P)) == -q_laplace(P)


class TestIsMonogenic:
    def test_constant(self):
        assert is_monogenic(CliffordPoly.scalar(2, 3))

    def test_fueter_like(self):
        assert is_monogenic(x(1, 2) * e(1, 2) - x(2, 2) * e(2, 2))

    def test_not_monogenic(self):
        assert not is_monogenic(x(1, 2))


class TestRelationCatalogue:
    def test_names_and_aliases(self):
        assert resolve_relation("weyl_i") == "weyl"
        assert resolve_relation("partial_commute_ij") == "partial_commute"
        with pytest.raises(InvalidArgument):
            resolve_relation("nope")
        assert set(SYMMETRY_RELATIONS) <= set(RELATION_NAMES)
        assert set(PARTIAL_RELATIONS) <= set(RELATION_NAMES)
        assert len(SYMMETRY_RELATIONS) == 12  # ten bullets + the two Gamma laws
        assert len(PARTIAL_RELATIONS) == 6

    def test_weyl_on_cube(self):
        assert check_relation("weyl", x(1, 1) ** 3).is_zero()

    def test_axiom_a1_anything(self):
        for P in (CliffordPoly.scalar(7, 3), x(2, 3) ** 2):
            assert check_relation("axiom_a1", P).is_zero()

    @pytest.mark.parametrize("name", RELATION_NAMES)
    def test_zero_residual_random_sweep(self, name):
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(20):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 5)
            G = random_poly(rng, m, 4)
            assert check_relation(name, P, G).is_zero(), name


class TestNumericCrossChecks:
    def test_difference_quotient_at_rational_points(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(1, 3)
            P = random_poly(rng, m, 4)
            pt = random_point(rng, m, nonzero=True)
            q0 = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3)])
            for i in range(1, m + 1):
                shifted_pt = list(pt)
                shifted_pt[i - 1] = q0 * pt[i - 1]
                diff = evaluate_poly(P, shifted_pt, q0) - evaluate_poly(P, pt, q0)
                scale = Fraction(1) / ((q0 - 1) * pt[i - 1])
                assert evaluate_poly(q_partial(P, i), pt, q0) == diff * scale

    def test_q_to_one_degeneration(self):
        rng = random.Random(29)
        pairs = [
            (q_dirac, classical_dirac),
            (q_euler, classical_euler),
            (q_gamma, classical_gamma),
            (q_laplace, classical_laplace),
        ]
        for _ in range(20):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 4)
            pt = random_point(rng, m)
            for q_op, c_op in pairs:
                assert evaluate_poly(q_op(P), pt, 1) == evaluate_poly(c_op(P), pt, 1)
            for i in range(1, m + 1):
                assert evaluate_poly(q_partial(P, i), pt, 1) == evaluate_poly(
                    classical_partial(P, i), pt, 1
                )
