"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All comparisons are exact (Q(q) equality or exact rationals); the only
tolerances are the geometric tail bounds of the q-integral series.
"""

import random
import time
import zlib
from contextlib import contextmanager
from fractions import Fraction

from oracles import (
    classical_dirac,
    classical_euler,
    classical_gamma,
    classical_laplace,
    classical_partial,
)

from qclifford.ck import ck_extend, e0bar, extended_dirac, restrict_x0
from qclifford.clifford import Multivector
from qclifford.cpoly import CliffordPoly, evaluate_poly, q_shift, vector_variable
from qclifford.fischer import (
    fischer_adjoint_check,
    fischer_full,
    fischer_inner,
    fischer_inner_operator,
    fischer_step,
    monogenic_dimension,
    monomial_multi_indices,
    space_basis,
    space_dimension,
)
from qclifford.jackson import (
    UniPoly,
    jackson_derivative,
    q_exp,
    q_integral,
    q_integral_series_oracle,
)
from qclifford.qfield import ONE, Q, ZERO, QScalar, q_bracket
from qclifford.qops import (
    PARTIAL_RELATIONS,
    RELATION_NAMES,
    SYMMETRY_RELATIONS,
    check_relation,
    is_monogenic,
    q_dirac,
    q_euler,
    q_gamma,
    q_laplace,
    q_partial,
)
from qclifford.randpoly import random_homogeneous_poly, random_point, random_poly


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print("ACCEPTANCE %d (%s): FAIL after %.2fs" % (number, name, elapsed), flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(
        "ACCEPTANCE %d (%s): PASS (%.2fs, budget %ds)"
        % (number, name, elapsed, budget_seconds),
        flush=True,
    )
    assert elapsed < budget_seconds, "budget exceeded: %.2fs" % elapsed


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


def test_criterion_1_euler_eigenvalue_table():
    with criterion(1, "Euler eigenvalue table m=3 k=3", 1):
        m = 3
        cases = [
            ("x1*x2*x3", x(1, m) * x(2, m) * x(3, m), QScalar(3)),
        ]
        two_plus_q = QScalar(2) + Q
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    cases.append(
                        ("x%d*x%d^2" % (i, j), x(i, m) * x(j, m) ** 2, two_plus_q)
                    )
        cube_eig = 1 + Q + Q**2
        for i in range(1, 4):
            cases.append(("x%d^3" % i, x(i, m) ** 3, cube_eig))
        assert len(cases) == 10
        for label, P, eigenvalue in cases:
            assert q_euler(P) == eigenvalue * P, label


def test_criterion_2_axiom_status():
    with criterion(2, "Dirac axioms: A1 value, A2 replacement, A3", 10):
        for m in range(1, 6):
            assert q_dirac(vector_variable(m)) == CliffordPoly.scalar(m, m)
        for m in (1, 2, 3):
            for k in range(5):
                for alpha in monomial_multi_indices(m, k):
                    for compact in range(1 << m):
                        P = CliffordPoly.monomial(
                            m, alpha, Multivector.blade(compact << 1, m)
                        )
                        assert check_relation("axiom_a2_replacement", P).is_zero()
                        assert q_dirac(q_dirac(P)) == -q_laplace(P)


def test_criterion_3_symmetry_suite():
    with criterion(3, "ten symmetry relations + gamma_def + gamma_product", 120):
        assert len(SYMMETRY_RELATIONS) == 12
        for name in SYMMETRY_RELATIONS:
            rng = random.Random(20260301 ^ zlib.crc32(name.encode()))
            for _ in range(100):
                m = rng.randint(1, 4)
                P = random_poly(rng, m, 5)
                assert check_relation(name, P).is_zero(), name


def test_criterion_3b_full_catalogue():
    # the remaining registered relations at the same sweep size, so every
    # RelationId is certified on >= 100 random polynomials
    with criterion(3, "remaining catalogue relations", 120):
        rest = [
            n
            for n in RELATION_NAMES
            if n not in SYMMETRY_RELATIONS and n not in PARTIAL_RELATIONS
        ]
        assert set(rest) == {
            "axiom_a1",
            "axiom_a2_replacement",
            "dirac_x2f_form1",
            "dirac_x2f_form2",
            "leibniz_left",
            "leibniz_right",
        }
        for name in rest:
            rng = random.Random(20260302 ^ zlib.crc32(name.encode()))
            for _ in range(100):
                m = rng.randint(1, 4)
                P = random_poly(rng, m, 5)
                G = random_poly(rng, m, 4)
                assert check_relation(name, P, G).is_zero(), name


def test_criterion_4_partial_relations():
    with criterion(4, "six q-partial commutation rules", 30):
        assert len(PARTIAL_RELATIONS) == 6
        for name in PARTIAL_RELATIONS:
            rng = random.Random(20260303 ^ zlib.crc32(name.encode()))
            for _ in range(100):
                m = rng.randint(1, 4)
                P = random_poly(rng, m, 5)
                assert check_relation(name, P).is_zero(), name


def test_criterion_5_fischer():
    with criterion(5, "Fischer product, adjointness, decomposition", 300):
        rng = random.Random(20260304)
        # differential-operator form of the inner product
        for _ in range(100):
            m = rng.randint(1, 3)
            k = rng.randint(0, 4)
            R1 = random_homogeneous_poly(rng, m, k)
            R2 = random_homogeneous_poly(rng, m, k)
            assert fischer_inner(R1, R2, k) == fischer_inner_operator(R1, R2)
        # adjointness of multiplication by the vector variable
        for _ in range(100):
            m = rng.randint(1, 3)
            k = rng.randint(0, 3)
            Qp = random_homogeneous_poly(rng, m, k)
            P = random_homogeneous_poly(rng, m, k + 1)
            lhs, rhs = fischer_adjoint_check(Qp, P)
            assert lhs == rhs
        # split soundness on the complete monomial-blade basis
        for m in (1, 2, 3):
            xv = vector_variable(m)
            for k in range(5):
                for alpha, mask in space_basis(m, k):
                    P = CliffordPoly.monomial(m, alpha, Multivector.blade(mask, m))
                    split = fischer_step(P)
                    assert split.monogenic + xv * split.cofactor == P
                    assert is_monogenic(split.monogenic)
                    assert fischer_inner(split.monogenic, xv * split.cofactor, k) == ZERO
        # towers recompose into monogenic components: every basis element
        # of every swept space, plus random homogeneous polynomials
        def check_tower(P):
            tower = fischer_full(P)
            assert tower.recompose() == P
            for comp in tower.components:
                assert is_monogenic(comp)

        for m in (1, 2, 3):
            for k in range(5):
                for alpha, mask in space_basis(m, k):
                    check_tower(CliffordPoly.monomial(m, alpha, Multivector.blade(mask, m)))
        for _ in range(10):
            m = rng.randint(1, 3)
            k = rng.randint(0, 3)
            check_tower(random_homogeneous_poly(rng, m, k))
        # solver nullity matches the direct-sum dimension count
        for m in (1, 2, 3):
            for k in range(1, 5):
                assert monogenic_dimension(m, k) == space_dimension(m, k) - space_dimension(
                    m, k - 1
                )


def test_criterion_6_ck_extension():
    with criterion(6, "Cauchy-Kovalevskaya extension", 60):
        # the three worked examples, frozen in canonical text form
        assert str(ck_extend(x(1, 2))) == "x1 + x0*e0*e1"
        assert str(ck_extend(x(1, 3) * x(2, 3))) == "x1*x2 + x0*x1*e0*e2 + x0*x2*e0*e1"
        assert str(ck_extend(x(1, 2) ** 2)) == "x1^2 + (1 + q)*x0*x1*e0*e1 - x0^2"
        # and in exact algebraic form
        m = 3
        for l in range(1, m + 1):
            assert ck_extend(x(l, m)) == x(l, m) - x(0, m) * e0bar(m) * e(l, m)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            f = x(i, m) * x(j, m)
            assert ck_extend(f) == f - x(0, m) * e0bar(m) * (
                x(j, m) * e(i, m) + x(i, m) * e(j, m)
            )
        for i in range(1, m + 1):
            f = x(i, m) ** 2
            assert (
                ck_extend(f)
                == f - q_bracket(2) * x(0, m) * x(i, m) * e0bar(m) * e(i, m) - x(0, m) ** 2
            )
        # contract on random inputs
        rng = random.Random(20260305)
        for _ in range(100):
            mm = rng.randint(1, 4)
            f = random_poly(rng, mm, 4)
            F = ck_extend(f)
            assert extended_dirac(F).is_zero()
            assert restrict_x0(F) == f
        # non-multiplicativity witness
        diff = ck_extend(x(1, 2) ** 2) - ck_extend(x(1, 2)) ** 2
        assert not diff.is_zero()
        coeffs = [c for mv in diff.terms.values() for c in mv.terms.values()]
        assert all(c.evaluate(1) == 0 for c in coeffs)
        assert any(c.evaluate(2) != 0 for c in coeffs)


def test_criterion_7_jackson():
    with criterion(7, "one-dimensional Jackson calculus", 30):
        order = 8
        # e_q(-t): t -> -t flips the sign of the odd terms
        e_neg = CliffordPoly(1, {a: -mv if a[1] & 1 else mv
                                 for a, mv in q_exp("e", order).terms.items()})
        prod = q_exp("E", order) * e_neg
        assert prod.coefficient((0, 0)).scalar_part() == ONE
        for k in range(1, order + 1):
            assert prod.coefficient((0, k)).scalar_part() == ZERO
        for n in range(1, order + 1):
            assert jackson_derivative(q_exp("E", n)) == q_exp("E", n - 1)
            assert jackson_derivative(q_exp("e", n)) == q_shift(q_exp("e", n - 1), 1)
        rng = random.Random(20260306)
        for _ in range(100):
            f = UniPoly({rng.randint(0, 5): QScalar(rng.randint(-3, 3)) * Q ** rng.randint(0, 2)
                         for _ in range(rng.randint(1, 4))})
            g = UniPoly({rng.randint(0, 5): QScalar(rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 4))})
            d_fg = jackson_derivative(f * g)
            assert d_fg == jackson_derivative(f) * g + q_shift(f, 1) * jackson_derivative(g)
            assert d_fg == jackson_derivative(f) * q_shift(g, 1) + f * jackson_derivative(g)
        terms = 12
        a = Fraction(1)
        for q0 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for k in range(7):
                closed = q_integral(UniPoly({k: ONE}), 0, a).evaluate(q0)
                partial = q_integral_series_oracle(UniPoly({k: ONE}), a, q0, terms)
                tail = (1 - q0) * a ** (k + 1) * q0 ** ((k + 1) * terms) / (
                    1 - q0 ** (k + 1)
                )
                assert abs(closed - partial) <= tail


def test_criterion_8_classical_degeneration():
    with criterion(8, "q -> 1 degeneration vs classical operators", 30):
        rng = random.Random(20260307)
        pairs = [
            (q_dirac, classical_dirac),
            (q_euler, classical_euler),
            (q_gamma, classical_gamma),
            (q_laplace, classical_laplace),
        ]
        for _ in range(100):
            m = rng.randint(1, 4)
            P = random_poly(rng, m, 4)
            pt = random_point(rng, m)
            for q_op, c_op in pairs:
                assert evaluate_poly(q_op(P), pt, 1) == evaluate_poly(c_op(P), pt, 1)
            for i in range(1, m + 1):
                assert evaluate_poly(q_partial(P, i), pt, 1) == evaluate_poly(
                    classical_partial(P, i), pt, 1
                )
