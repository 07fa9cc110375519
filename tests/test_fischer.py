"""Fischer inner product, adjointness, and the constructive decomposition."""

import random

import pytest

from oracles import graded_blocks
from qclifford import _polyarith as pa
from qclifford import fischer
from qclifford.clifford import Multivector
from qclifford.cpoly import CliffordPoly, vector_variable
from qclifford.errors import NotHomogeneous, SingularSystem
from qclifford.fischer import (
    FischerSplit,
    _class0_block,
    _step_solver,
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
from qclifford.qfield import ONE, Q, ZERO, QScalar, q_factorial
from qclifford.qops import is_monogenic, q_dirac, q_partial
from qclifford.randpoly import random_homogeneous_poly


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


def dense_solve_split(P):
    """Independent oracle: plain Gaussian elimination over QScalar for the
    system q_dirac(P - x Q) = 0, no fraction-free tricks."""
    m = P.m
    k = P.homogeneous_degree()
    basis = space_basis(m, k - 1)
    index = {be: i for i, be in enumerate(basis)}
    n = len(basis)
    xv = vector_variable(m)
    rows = [[ZERO] * (n + 1) for _ in range(n)]
    for j, (alpha, mask) in enumerate(basis):
        image = q_dirac(xv * CliffordPoly.monomial(m, alpha, Multivector.blade(mask, m)))
        for beta, mv in image.terms.items():
            for bmask, c in mv.terms.items():
                rows[index[(beta, bmask)]][j] = c
    for beta, mv in q_dirac(P).terms.items():
        for bmask, c in mv.terms.items():
            rows[index[(beta, bmask)]][n] = c
    for col in range(n):
        piv = next(r for r in range(col, n) if not rows[r][col].is_zero())
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = ONE / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    terms = {}
    for (alpha, mask), row in zip(basis, rows):
        if row[n].is_zero():
            continue
        cur = terms.get(alpha, Multivector.zero(m))
        terms[alpha] = cur + Multivector(m, {mask: row[n]})
    Qp = CliffordPoly(m, terms)
    return FischerSplit(P - xv * Qp, Qp)


class TestInnerProduct:
    def test_x1_squared(self):
        assert fischer_inner(x(1, 1) ** 2, x(1, 1) ** 2, 2) == q_factorial(2)

    def test_disjoint_supports(self):
        assert fischer_inner(x(1, 2) * x(2, 2), x(1, 2) ** 2, 2) == ZERO

    def test_blade_coefficient(self):
        P = e(1, 2) * x(1, 2)
        assert fischer_inner(P, P, 1) == ONE

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            fischer_inner(x(1, 2) + ONE * CliffordPoly.one(2), x(1, 2), 1)
        with pytest.raises(NotHomogeneous):
            fischer_inner(x(1, 2), x(1, 2), 2)

    def test_operator_form_equivalence_random(self):
        rng = random.Random(41)
        for _ in range(30):
            m = rng.randint(1, 3)
            k = rng.randint(0, 4)
            R1 = random_homogeneous_poly(rng, m, k)
            R2 = random_homogeneous_poly(rng, m, k)
            assert fischer_inner(R1, R2, k) == fischer_inner_operator(R1, R2)

    def test_positive_definite_at_numeric_q(self):
        rng = random.Random(43)
        for _ in range(20):
            m = rng.randint(1, 3)
            k = rng.randint(0, 3)
            R = random_homogeneous_poly(rng, m, k)
            if R.is_zero():
                continue
            val = fischer_inner(R, R, k)
            for q0 in (1, 2):
                assert val.evaluate(q0) > 0
            from fractions import Fraction

            assert val.evaluate(Fraction(1, 2)) > 0

    def test_derivative_kernel_orthogonality(self):
        # (d^q)^alpha x^beta = [alpha]_q! when alpha == beta else 0
        from qclifford.fischer import multi_factorial

        for m in (1, 2, 3):
            idxs = [a for k in range(5) for a in monomial_multi_indices(m, k)]
            for alpha in idxs:
                mono_b = {}
                for beta in idxs:
                    g = CliffordPoly.monomial(m, beta, Multivector.scalar(1, m))
                    for i, a in enumerate(alpha):
                        for _ in range(a):
                            g = q_partial(g, i)
                    if alpha == beta:
                        assert g == CliffordPoly.scalar(multi_factorial(alpha), m)
                    elif sum(beta) <= sum(alpha):
                        assert g.is_zero() or sum(beta) > sum(alpha)


class TestAdjointness:
    def test_unit_and_vector(self):
        lhs, rhs = fischer_adjoint_check(CliffordPoly.one(2), x(1, 2) * e(1, 2))
        assert lhs == ONE and rhs == ONE

    def test_disjoint_supports(self):
        lhs, rhs = fischer_adjoint_check(x(1, 3), x(2, 3) ** 2)
        assert lhs == ZERO and rhs == ZERO

    def test_random_pairs(self):
        rng = random.Random(47)
        for _ in range(40):
            m = rng.randint(1, 3)
            k = rng.randint(0, 3)
            Qp = random_homogeneous_poly(rng, m, k)
            P = random_homogeneous_poly(rng, m, k + 1)
            lhs, rhs = fischer_adjoint_check(Qp, P)
            assert lhs == rhs

    def test_degree_mismatch(self):
        with pytest.raises(NotHomogeneous):
            fischer_adjoint_check(x(1, 2), x(1, 2))


class TestFischerStep:
    def test_monogenic_input(self):
        P = x(1, 2) * e(1, 2) - x(2, 2) * e(2, 2)
        s = fischer_step(P)
        assert s.monogenic == P
        assert s.cofactor.is_zero()

    def test_pure_x_multiple(self):
        rng = random.Random(53)
        for _ in range(10):
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            R = random_homogeneous_poly(rng, m, k - 1)
            P = vector_variable(m) * R
            s = fischer_step(P)
            assert s.monogenic.is_zero()
            assert s.cofactor == R

    def test_degree_zero(self):
        P = CliffordPoly.scalar(5, 2)
        s = fischer_step(P)
        assert s.monogenic == P and s.cofactor.is_zero()

    def test_x1_squared_fixture(self):
        # regression fixture, derived by hand and double-checked by the
        # dense QScalar solver below
        P = x(1, 2) ** 2
        s = fischer_step(P)
        den = QScalar(3) + Q
        M = (x(1, 2) ** 2 - x(2, 2) ** 2 - (1 + Q) * x(1, 2) * x(2, 2) * e(1, 2) * e(2, 2)) * (
            ONE / den
        )
        Qexp = -((2 + Q) * x(1, 2) * e(1, 2) + x(2, 2) * e(2, 2)) * (ONE / den)
        assert s.monogenic == M
        assert s.cofactor == Qexp
        assert (
            str(s.monogenic)
            == "(1/(3 + q))*x1^2 + ((-1 - q)/(3 + q))*x1*x2*e1*e2 + (-1/(3 + q))*x2^2"
        )

    def test_against_dense_solver_oracle(self):
        rng = random.Random(59)
        for _ in range(8):
            m = rng.randint(1, 2)
            k = rng.randint(1, 3)
            P = random_homogeneous_poly(rng, m, k)
            if P.is_zero():
                continue
            s = fischer_step(P)
            o = dense_solve_split(P)
            assert s.monogenic == o.monogenic
            assert s.cofactor == o.cofactor

    def test_soundness_random(self):
        rng = random.Random(61)
        xvs = {m: vector_variable(m) for m in (1, 2, 3)}
        for _ in range(15):
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            P = random_homogeneous_poly(rng, m, k)
            s = fischer_step(P)
            assert s.monogenic + xvs[m] * s.cofactor == P
            assert is_monogenic(s.monogenic)
            assert fischer_inner(s.monogenic, xvs[m] * s.cofactor, k) == ZERO

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            fischer_step(x(1, 2) + x(1, 2) ** 2)

    def test_right_blade_equivariance(self):
        # x and q_dirac act from the left, so a split commutes with right
        # multiplication by any blade
        rng = random.Random(83)
        for _ in range(30):
            m = rng.randint(1, 3)
            k = rng.randint(1, 4)
            P = random_homogeneous_poly(rng, m, k)
            eB = CliffordPoly.from_multivector(
                Multivector.blade(rng.randrange(1 << m) << 1, m))
            s = fischer_step(P)
            t = fischer_step(P * eB)
            assert t.monogenic == s.monogenic * eB
            assert t.cofactor == s.cofactor * eB


class TestSolverCertificate:
    @staticmethod
    def int_poly(c):
        assert c.den.is_one() and c.num.d == 1
        return list(c.num.ints)

    @staticmethod
    def oracle_blocks(m, k):
        """The oracle's blocks of Q -> q_dirac(x Q) on the degree-(k-1)
        space, class 0 first, each as (its (alpha, mask) elements, block)."""
        xv = vector_variable(m)
        basis = space_basis(m, k - 1)
        blocks = graded_blocks(lambda R: q_dirac(xv * R), m, basis, basis)
        return [([basis[i] for i in ids], block) for ids, block in blocks]

    @pytest.mark.parametrize("m, kmax", [(1, 4), (2, 4), (3, 4), (4, 3)])
    def test_block_times_inverse_is_det_identity(self, m, kmax):
        # the class-0 block, assembled on the full basis apart from the
        # solver, times the solver's one inverse is det * I over Z[q]
        for k in range(1, kmax + 1):
            solver = _step_solver(m, k)
            (elements, block0), *_ = self.oracle_blocks(m, k)
            assert [alpha for alpha, _ in elements] == solver.alphas
            d = self.int_poly(solver.det)
            n = len(solver.alphas)
            for a in range(n):
                for b in range(n):
                    acc = []
                    for j in range(n):
                        inv_jb = solver.inv[j][b]
                        if not inv_jb.is_zero():
                            acc = pa.add(acc, pa.mul(block0[a][j], self.int_poly(inv_jb)))
                    assert acc == (d if a == b else []), (m, k, a, b)

    @pytest.mark.parametrize("m, kmax", [(1, 4), (2, 4), (3, 4), (4, 3)])
    def test_class_blocks_are_signed_copies(self, m, kmax):
        # the class-B block is S_B block_0 S_B, where e_A e_B = s e_(A xor B)
        # for the class-0 blade e_A of each multi-index, S_B = diag(s); with
        # the test above, S_B inv_0 S_B inverts every class
        for k in range(1, kmax + 1):
            (elements0, block0), *rest = self.oracle_blocks(m, k)
            assert len(rest) == (1 << m) - 1
            for elements, block in rest:
                signs = []
                B = elements[0][1] ^ elements0[0][1]
                for (alpha0, A), (alpha, mask) in zip(elements0, elements):
                    [(prod_mask, s)] = (Multivector.blade(A, m)
                                        * Multivector.blade(B, m)).terms.items()
                    assert alpha == alpha0 and prod_mask == mask and s in (ONE, -ONE)
                    signs.append(1 if s == ONE else -1)
                for i, row in enumerate(block0):
                    for j, entry in enumerate(row):
                        sign = signs[i] * signs[j]
                        assert block[i][j] == [sign * c for c in entry], (m, k, i, j)


def grading_class(alpha, mask):
    """Independent oracle: the bits alpha_l + [l in A] mod 2, l = 1..m."""
    return tuple((alpha[l] + (mask >> l & 1)) % 2 for l in range(1, len(alpha)))


class TestGrading:
    def test_operators_preserve_the_class(self):
        for m in (1, 2, 3):
            xv = vector_variable(m)
            for k in range(1, 5):
                for alpha, mask in space_basis(m, k):
                    b = CliffordPoly.monomial(m, alpha, Multivector.blade(mask, m))
                    g = grading_class(alpha, mask)
                    for image in (q_dirac(xv * b), q_dirac(b)):
                        assert not image.is_zero()
                        for beta, mv in image.terms.items():
                            for bmask in mv.terms:
                                assert grading_class(beta, bmask) == g

    def test_class_sizes(self):
        # every class holds one blade per multi-index
        for m in (1, 2, 3):
            for k in range(1, 5):
                n = len(monomial_multi_indices(m, k - 1))
                basis = space_basis(m, k - 1)
                blocks = graded_blocks(lambda R: q_dirac(vector_variable(m) * R), m,
                                       basis, basis)
                assert len(blocks) == 1 << m
                assert all(len(ids) == len(block) == n for ids, block in blocks)

    def test_cross_class_entry_raises(self):
        # right multiplication by e1 flips bit 1 of the class
        alphas = monomial_multi_indices(2, 1)
        with pytest.raises(SingularSystem):
            _class0_block(lambda R: R * e(1, 2), 2, alphas, alphas)


class TestFischerFull:
    def test_degree_zero_tower(self):
        P = CliffordPoly.scalar(3, 2)
        tower = fischer_full(P)
        assert tower.components == (P,)

    def test_x_times_monogenic(self):
        M = x(1, 2) * e(1, 2) - x(2, 2) * e(2, 2)
        P = vector_variable(2) * M
        tower = fischer_full(P)
        assert tower.components[0].is_zero()
        assert tower.components[1] == M
        assert tower.recompose() == P

    def test_cube_tower(self):
        P = x(1, 2) ** 3
        tower = fischer_full(P)
        assert len(tower.components) == 4
        assert tower.recompose() == P
        for comp in tower.components:
            assert is_monogenic(comp)

    def test_seeded_m4_degree4_tower(self):
        rng = random.Random(71)
        P = random_homogeneous_poly(rng, 4, 4)
        assert not P.is_zero()
        tower = fischer_full(P)
        assert len(tower.components) == 5
        assert tower.recompose() == P
        for comp in tower.components:
            assert is_monogenic(comp)

    def test_random_towers(self):
        rng = random.Random(67)
        for _ in range(10):
            m = rng.randint(1, 3)
            k = rng.randint(0, 3)
            P = random_homogeneous_poly(rng, m, k)
            tower = fischer_full(P)
            assert tower.recompose() == P
            for comp in tower.components:
                assert is_monogenic(comp)

    def test_results_compare_by_value(self):
        # perfbench's worker keeps a repeated input's output only while it
        # equals the earlier one, which needs value equality
        P, R = x(1, 2) ** 2 * e(1, 2), x(2, 2) ** 2 * e(1, 2)
        assert fischer_full(P) == fischer_full(P)
        assert fischer_step(P) == fischer_step(P)
        assert fischer_full(P) != fischer_full(R)
        assert fischer_step(P) != fischer_step(R)


class TestDimensions:
    def test_monogenic_dimension_formula(self):
        for m, kmax in ((1, 3), (2, 3), (3, 4), (4, 4)):
            for k in range(1, kmax + 1):
                assert monogenic_dimension(m, k) == space_dimension(m, k) - space_dimension(
                    m, k - 1
                )

    def test_degree_zero(self):
        assert monogenic_dimension(3, 0) == 8

    @pytest.mark.parametrize("m, k", [(3, 4), (4, 3)])
    def test_one_rank_for_all_classes(self, m, k, monkeypatch):
        # the 2^m class ranks of the oracle add up to what one rank of the
        # class-0 block gives
        rank_ff = fischer.rank_ff
        blocks = graded_blocks(q_dirac, m, space_basis(m, k), space_basis(m, k - 1))
        assert len(blocks) == 1 << m
        expected = space_dimension(m, k) - sum(rank_ff(block) for _, block in blocks)
        calls = []
        monkeypatch.setattr(fischer, "rank_ff", lambda block: calls.append(1) or rank_ff(block))
        assert monogenic_dimension.__wrapped__(m, k) == expected
        assert len(calls) == 1

    def test_space_dimension(self):
        assert space_dimension(3, 2) == 6 * 8
        assert len(space_basis(3, 2)) == 48
