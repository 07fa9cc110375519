"""Fischer inner product and the constructive Fischer decomposition.

The split P = M + x Q (M monogenic, Q of degree k-1) is computed by
solving the square linear system q_dirac(x Q) = q_dirac(P) over Q(q) in
the monomial-blade basis of the degree-(k-1) space.  x and q_dirac keep
the class of x^alpha e_A in Z_2^m, whose bit l is alpha_l + [l in A] mod 2.
A class holds one blade per multi-index: the class-0 element of alpha
is x^alpha e_p(alpha), p(alpha) the blade of the odd exponents.  Right
multiplication by e_B commutes with x and q_dirac and maps class g onto
g xor B, so every class block is a signed copy of the class-0 block of
size C(k+m-2, m-1).  That block is the only one built: it is inverted
once per (m, k) by fraction-free Gauss-Jordan elimination and cached, and
each split solves every class of its right-hand side with that one
inverse.  `monogenic_dimension` ranks the class-0 block of q_dirac once
and counts it 2^m times.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from ._linalg import invert_ff, rank_ff
from .clifford import Multivector, _multivector, blade_product
from .cpoly import CliffordPoly, _cliffordpoly, vector_variable
from .errors import NotHomogeneous, SingularSystem
from .qfield import ONE, ZERO, QPoly, QScalar, q_factorial
from .qops import q_dirac, q_partial


class FischerSplit(namedtuple("FischerSplit", "monogenic cofactor")):
    """P = monogenic + x * cofactor with q_dirac(monogenic) = 0.  A named
    tuple: it compares by value and unpacks as (monogenic, cofactor)."""

    __slots__ = ()

    def recompose(self):
        return self.monogenic + vector_variable(self.monogenic.m) * self.cofactor


class FischerTower(namedtuple("FischerTower", "components")):
    """components[s] is the monogenic part of degree k - s, so that the
    original polynomial equals sum_s x^s components[s].  A named tuple
    of one field, compared by value."""

    __slots__ = ()

    def recompose(self):
        comps = self.components
        xv = vector_variable(comps[0].m)
        acc = comps[-1]
        for comp in reversed(comps[:-1]):
            acc = comp + xv * acc
        return acc


def monomial_multi_indices(m, k):
    """All multi-indices of total degree k over x_1..x_m, graded-lex order
    (x_1 before x_2 before ...)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), k, m)
    return [(0,) + alpha for alpha in out]


def space_basis(m, k):
    """Basis of the degree-k Clifford-valued polynomials: multi-indices
    crossed with blade masks ascending (bit 0 is the e0 slot, never set
    here)."""
    return [
        (alpha, compact << 1)
        for alpha in monomial_multi_indices(m, k)
        for compact in range(1 << m)
    ]


def space_dimension(m, k):
    return comb(k + m - 1, m - 1) * (1 << m)


def _degree_of(P, k=None):
    d = P.homogeneous_degree()
    if d is None and not P.is_zero():
        raise NotHomogeneous("polynomial is not homogeneous")
    if k is not None and d is not None and d != k:
        raise NotHomogeneous("expected degree %d, found %d" % (k, d))
    return d


def multi_factorial(alpha):
    """[alpha]_q! = product of [alpha_i]_q! over the slots."""
    acc = ONE
    for a in alpha:
        if a:
            acc = acc * q_factorial(a)
    return acc


def fischer_inner(R1, R2, k):
    """Fischer inner product on degree-k polynomials:
    sum over multi-indices of [alpha]_q! (conj(a1) a2)_0."""
    _degree_of(R1, k)
    _degree_of(R2, k)
    acc = ZERO
    for alpha, mv1 in R1.terms.items():
        mv2 = R2.terms.get(alpha)
        if mv2 is None:
            continue
        acc = acc + multi_factorial(alpha) * (mv1.conjugate() * mv2).scalar_part()
    return acc


def fischer_inner_operator(R1, R2):
    """The differential-operator form: scalar part of conj(R1) with every
    x_j replaced by the q-partial in x_j, applied to R2."""
    k = _degree_of(R1)
    _degree_of(R2, k if k is not None else None)
    acc = CliffordPoly.zero(R1.m)
    for alpha, mv in R1.terms.items():
        g = R2
        for i, a in enumerate(alpha):
            for _ in range(a):
                g = q_partial(g, i)
        if not g.is_zero():
            acc = acc + mv.conjugate() * g
    return acc.constant_coefficient().scalar_part()


def fischer_adjoint_check(Qp, P):
    """Both sides of the adjointness between multiplication by the vector
    variable and the q-Dirac operator: returns
    (<x Q, P>_{k+1}, <Q, D P>_k); the contract is that they are equal."""
    kq = _degree_of(Qp)
    kp = _degree_of(P)
    if kq is None and kp is None:
        return ZERO, ZERO
    if kq is None:
        kq = kp - 1
    if kp is None:
        kp = kq + 1
    if kp != kq + 1:
        raise NotHomogeneous("degrees must be k and k+1")
    lhs = fischer_inner(vector_variable(P.m) * Qp, P, kp)
    rhs = fischer_inner(Qp, q_dirac(P), kq)
    return lhs, rhs


def _int_poly(c):
    """QScalar with denominator 1 and integer coefficients -> int list."""
    if not c.den.is_one():
        raise SingularSystem("system entry is not polynomial")
    if c.num.d != 1:
        raise SingularSystem("system entry has non-integer coefficients")
    return list(c.num.ints)


def _odd_blade(alpha):
    """p(alpha): the blade mask of the odd exponents of x^alpha, so that
    x^alpha e_p(alpha) is the class-0 basis element of alpha."""
    return sum(1 << i for i, a in enumerate(alpha) if a & 1)


def _class0_block(op, m, src, dst):
    """The class-0 block over Z[q] of the linear map op from the degree of
    the multi-indices src to that of dst: block[i][j] is the coefficient of
    op(x^src_j e_p(src_j)) at x^dst_i e_p(dst_i)."""
    row_of = {alpha: i for i, alpha in enumerate(dst)}
    block = [[[] for _ in src] for _ in dst]
    for j, alpha in enumerate(src):
        image = op(CliffordPoly.monomial(m, alpha, Multivector.blade(_odd_blade(alpha), m)))
        for beta, mv in image.terms.items():
            for mask, c in mv.terms.items():
                if mask != _odd_blade(beta):
                    raise SingularSystem("operator does not preserve the grading")
                block[row_of[beta]][j] = _int_poly(c)
    return block


class _StepSolver:
    """Cached inverse of Q -> q_dirac(x Q) on the degree-(k-1) space.

    Only the class-0 block is assembled and inverted.  Right multiplication
    by e_B commutes with x and q_dirac and sends x^alpha e_p(alpha) to
    s x^alpha e_(p(alpha) xor B), s = +-1, so it maps class 0 onto class B
    and the class-B block is S block_0 S with S = diag(s).  `solve` signs
    each class of its right-hand side into class-0 coordinates, applies
    the one inverse and signs the result back.
    """

    def __init__(self, m, k):
        self.m = m
        self.k = k
        self.alphas = monomial_multi_indices(m, k - 1)
        xv = vector_variable(m)
        inv, det = invert_ff(
            _class0_block(lambda Q: q_dirac(xv * Q), m, self.alphas, self.alphas))
        self.inv = [[QScalar(QPoly(entry)) if entry else ZERO for entry in row] for row in inv]
        self.det = QScalar(QPoly(det))

    def solve(self, R):
        """The Q of degree k - 1 with q_dirac(x Q) = R."""
        col = {alpha: j for j, alpha in enumerate(self.alphas)}
        classes = {}
        for beta, mv in R.terms.items():
            p = _odd_blade(beta)
            for mask, c in mv.terms.items():
                B = mask ^ p
                classes.setdefault(B, {})[col[beta]] = c if blade_product(p, B)[0] > 0 else -c
        terms = {}
        for B, rhs in classes.items():
            for alpha, row in zip(self.alphas, self.inv):
                acc = ZERO
                for j, v in rhs.items():
                    if not row[j].is_zero():
                        acc = acc + row[j] * v
                if not acc.is_zero():
                    sign, mask = blade_product(_odd_blade(alpha), B)
                    c = acc / self.det
                    terms.setdefault(alpha, {})[mask] = c if sign > 0 else -c
        return _cliffordpoly(self.m, {a: _multivector(self.m, t) for a, t in terms.items()})


@lru_cache(maxsize=None)
def _step_solver(m, k):
    return _StepSolver(m, k)


def fischer_step(P):
    """Unique split P = M + x Q with M monogenic, for homogeneous P."""
    k = _degree_of(P)
    if k is None or k == 0:
        return FischerSplit(P, CliffordPoly.zero(P.m))
    Qp = _step_solver(P.m, k).solve(q_dirac(P))
    return FischerSplit(P - vector_variable(P.m) * Qp, Qp)


def fischer_full(P):
    """Iterated decomposition P = sum_s x^s M_{k-s} with every component
    monogenic."""
    k = _degree_of(P)
    if k is None:
        return FischerTower((P,))
    comps = []
    rest = P
    for _ in range(k + 1):
        M, rest = fischer_step(rest)
        comps.append(M)
    return FischerTower(tuple(comps))


@lru_cache(maxsize=None)
def monogenic_dimension(m, k):
    """Dimension of the kernel of the q-Dirac operator on the degree-k
    space: 2^m times the nullity of its class-0 block over Q(q)."""
    if k == 0:
        return 1 << m
    block = _class0_block(q_dirac, m, monomial_multi_indices(m, k),
                          monomial_multi_indices(m, k - 1))
    return (comb(k + m - 1, m - 1) - rank_ff(block)) << m
