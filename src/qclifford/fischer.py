"""Fischer inner product and the constructive Fischer decomposition.

The split P = M + x Q (M monogenic, Q of degree k-1) is computed by
solving the square linear system q_dirac(x Q) = q_dirac(P) over Q(q) in
the monomial-blade basis of the degree-(k-1) space.  x and q_dirac keep
the class of x^alpha e_A in Z_2^m, whose bit l is alpha_l + [l in A] mod 2.
A class holds one blade per multi-index, so the matrix has 2^m blocks of
size C(k+m-2, m-1).  Right multiplication by e_B commutes with x and
q_dirac and maps class g onto g xor B, so every block is a signed copy of
the class-0 block.  Only that block is inverted, once per (m, k), by
fraction-free Gauss-Jordan elimination; the other inverses are its signed
copies, and all are cached.  Individual splits are then sparse
matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from ._linalg import invert_ff, rank_ff
from .clifford import Multivector, blade_product
from .cpoly import CliffordPoly, vector_variable
from .errors import NotHomogeneous, SingularSystem
from .qfield import ONE, ZERO, QPoly, QScalar, q_factorial
from .qops import q_dirac, q_partial


@dataclass(frozen=True)
class FischerSplit:
    """P = monogenic + x * cofactor with q_dirac(monogenic) = 0."""

    monogenic: CliffordPoly
    cofactor: CliffordPoly

    def recompose(self):
        return self.monogenic + vector_variable(self.monogenic.m) * self.cofactor


@dataclass(frozen=True)
class FischerTower:
    """components[s] is the monogenic part of degree k - s, so that the
    original polynomial equals sum_s x^s components[s]."""

    components: tuple

    def recompose(self):
        m = self.components[0].m
        xv = vector_variable(m)
        acc = CliffordPoly.zero(m)
        power = CliffordPoly.one(m)
        for comp in self.components:
            acc = acc + power * comp
            power = power * xv
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


def _grading_class(alpha, mask):
    """The Z_2^m class of x^alpha e_A: bit l is alpha_l + [l in A] mod 2."""
    return mask ^ sum(1 << i for i, a in enumerate(alpha) if a & 1)


def _graded_blocks(op, m, src, dst):
    """The matrix over Z[q] of the linear map op from span(src) to span(dst)
    as one (src_ids, block) per grading class: block[i][j] is the coordinate
    of op(src[src_ids[j]]) at the i-th dst element of the class."""
    classes = {}
    for side, basis in ((0, dst), (1, src)):
        for i, be in enumerate(basis):
            classes.setdefault(_grading_class(*be), ([], []))[side].append(i)
    row_of = {dst[i]: r for rows, _ in classes.values() for r, i in enumerate(rows)}
    out = []
    for g, (rows, cols) in sorted(classes.items()):
        block = [[[] for _ in cols] for _ in rows]
        for j, s in enumerate(cols):
            alpha, mask = src[s]
            image = op(CliffordPoly.monomial(m, alpha, Multivector.blade(mask, m)))
            for beta, mv in image.terms.items():
                for bmask, c in mv.terms.items():
                    if _grading_class(beta, bmask) != g:
                        raise SingularSystem("operator does not preserve the grading")
                    block[row_of[(beta, bmask)]][j] = _int_poly(c)
        out.append((cols, block))
    return out


class _StepSolver:
    """Cached inverse of Q -> q_dirac(x Q) on the degree-(k-1) space.

    Only the class-0 block is assembled and inverted.  Right multiplication
    by e_B commutes with x and q_dirac and sends x^alpha e_A to
    s x^alpha e_(A xor B), s = +-1, so it maps class 0 onto class B and the
    class-B block is S block_0 S with S = diag(s).  Its inverse is the
    signed copy S inv_0 S over the same determinant.
    """

    def __init__(self, m, k):
        self.m = m
        self.k = k
        self.basis = space_basis(m, k - 1)
        self.index = {be: i for i, be in enumerate(self.basis)}
        xv = vector_variable(m)
        base = [(alpha, _grading_class(alpha, 0))
                for alpha in monomial_multi_indices(m, k - 1)]
        [(_, block)] = _graded_blocks(lambda Q: q_dirac(xv * Q), m, base, base)
        inv, det = invert_ff(block)
        inv0 = [[QScalar(QPoly(entry)) if entry else ZERO for entry in row] for row in inv]
        det = QScalar(QPoly(det))
        self.blocks = []
        for b in range(1 << m):
            B = b << 1
            ids = [self.index[(alpha, mask ^ B)] for alpha, mask in base]
            signs = [blade_product(mask, B)[0] for _, mask in base]
            inv_B = [[c if si * sj > 0 else -c for sj, c in zip(signs, row)]
                     for si, row in zip(signs, inv0)]
            self.blocks.append((ids, inv_B, det))

    def solve(self, rhs):
        out = [ZERO] * len(self.basis)
        for ids, inv, det in self.blocks:
            nz = [(loc, rhs[g]) for loc, g in enumerate(ids) if not rhs[g].is_zero()]
            if not nz:
                continue
            for loc_i, g_i in enumerate(ids):
                acc = ZERO
                row = inv[loc_i]
                for loc_j, v in nz:
                    b = row[loc_j]
                    if not b.is_zero():
                        acc = acc + b * v
                if not acc.is_zero():
                    out[g_i] = acc / det
        return out


@lru_cache(maxsize=None)
def _step_solver(m, k):
    return _StepSolver(m, k)


def _coords(P, index, n):
    out = [ZERO] * n
    for alpha, mv in P.terms.items():
        for mask, c in mv.terms.items():
            out[index[(alpha, mask)]] = c
    return out


def fischer_step(P):
    """Unique split P = M + x Q with M monogenic, for homogeneous P."""
    k = _degree_of(P)
    if k is None or k == 0:
        return FischerSplit(P, CliffordPoly.zero(P.m))
    solver = _step_solver(P.m, k)
    rhs = _coords(q_dirac(P), solver.index, len(solver.basis))
    sol = solver.solve(rhs)
    terms = {}
    for (alpha, mask), c in zip(solver.basis, sol):
        if c.is_zero():
            continue
        cur = terms.get(alpha)
        mv = Multivector(P.m, {mask: c})
        terms[alpha] = mv if cur is None else cur + mv
    Qp = CliffordPoly(P.m, terms)
    M = P - vector_variable(P.m) * Qp
    return FischerSplit(M, Qp)


def fischer_full(P):
    """Iterated decomposition P = sum_s x^s M_{k-s} with every component
    monogenic."""
    k = _degree_of(P)
    if k is None:
        return FischerTower((P,))
    comps = []
    rest = P
    for _ in range(k + 1):
        split = fischer_step(rest)
        comps.append(split.monogenic)
        rest = split.cofactor
    return FischerTower(tuple(comps))


@lru_cache(maxsize=None)
def monogenic_dimension(m, k):
    """Dimension of the kernel of the q-Dirac operator on the degree-k
    space, computed as the nullity of its matrix over Q(q)."""
    if k == 0:
        return 1 << m
    blocks = _graded_blocks(q_dirac, m, space_basis(m, k), space_basis(m, k - 1))
    return space_dimension(m, k) - sum(rank_ff(block) for _, block in blocks)
