"""Fischer inner product and the constructive Fischer decomposition.

The split P = M + x Q (M monogenic, Q of degree k-1) is computed by
solving the square linear system q_dirac(x Q) = q_dirac(P) over Q(q) in
the monomial-blade basis of the degree-(k-1) space.  x and q_dirac keep
the class of x^alpha e_A in Z_2^m, whose bit l is alpha_l + [l in A] mod 2.
A class holds one blade per multi-index: the class-0 element of alpha
is x^alpha e_p(alpha), p(alpha) the blade of the odd exponents.  Right
multiplication by e_B commutes with x and q_dirac and maps class g onto
g xor B, so every class block is a signed copy of the class-0 block of
size C(k+m-2, m-1).  Only class-0 blocks are built, once per (m, k) and
over Z[q]: D of q_dirac, X of x, and the inverse of A = D X, by
fraction-free Gauss-Jordan elimination at q = 2^w, with w wide enough
that every minor's coefficients stay below 2^w / 4 (see _linalg), reduced
to lowest terms.  A split signs each class of P into class-0 coordinates,
clears them over one denominator and runs the whole step there as Z[q]
products, with one gcd per entry of M and Q (see _StepSolver).
`monogenic_dimension` ranks the same block D once and counts it 2^m
times.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, gcd, lcm

from . import _polyarith as pa
from ._linalg import invert_ff, rank_ff
from .clifford import Multivector, _multivector, blade_product
from .cpoly import CliffordPoly, _cliffordpoly, _vector_variable
from .errors import NotHomogeneous, SingularSystem
from .qfield import ONE, ZERO, _canonical, _monic, q_factorial
from .qops import _require_plain, q_dirac, q_partial


class FischerSplit(namedtuple("FischerSplit", "monogenic cofactor")):
    """P = monogenic + x * cofactor with q_dirac(monogenic) = 0.  A named
    tuple: it compares by value and unpacks as (monogenic, cofactor)."""

    __slots__ = ()

    def recompose(self):
        return self.monogenic + _vector_variable(self.monogenic.m) * self.cofactor


class FischerTower(namedtuple("FischerTower", "components")):
    """components[s] is the monogenic part of degree k - s, so that the
    original polynomial equals sum_s x^s components[s].  A named tuple
    of one field, compared by value."""

    __slots__ = ()

    def recompose(self):
        comps = self.components
        xv = _vector_variable(comps[0].m)
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
    """Fischer inner product on degree-k polynomials: sum over multi-indices
    of [alpha]_q! (conj(a1) a2)_0.  Every generator squares to -1, so that
    scalar part is the sum of a1_A a2_A over the blades A of both."""
    _degree_of(R1, k)
    _degree_of(R2, k)
    acc = ZERO
    for alpha in R1.terms.keys() & R2.terms.keys():
        a1, a2 = R1.terms[alpha].terms, R2.terms[alpha].terms
        shared = a1.keys() & a2.keys()
        acc = acc + multi_factorial(alpha) * sum((a1[A] * a2[A] for A in shared), ZERO)
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
    lhs = fischer_inner(_vector_variable(P.m) * Qp, P, kp)
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


@lru_cache(maxsize=None)
def _dirac_block(m, k):
    """The class-0 block of q_dirac from degree k to degree k - 1."""
    return _class0_block(q_dirac, m, monomial_multi_indices(m, k),
                         monomial_multi_indices(m, k - 1))


def _columns(block):
    """The nonzero entries of each column of a block, as (row, entry) lists."""
    cols = [[] for _ in block[0]]
    for i, row in enumerate(block):
        for j, entry in enumerate(row):
            if entry:
                cols[j].append((i, entry))
    return cols


def _apply(cols, vec):
    """The product over Z[q] of a block, given by its columns, and a sparse
    vector {index: polynomial}."""
    out = {}
    for j, v in vec.items():
        if v:
            for i, entry in cols[j]:
                out[i] = pa.add(out.get(i, ()), pa.mul(entry, v))
    return out


def _cleared(coords):
    """One class's class-0 coordinates {j: (c, s)}, the coordinate j being
    s * c, over one denominator: (y, l, L) with y[j] / (l L) the coordinate
    j in Z[q].  A canonical c is (a / d_a) / b with b primitive (a monic
    denominator b / d_b has content 1, being prime to d_b = b[-1]), that is
    a d_b / (d_a b); l is the lcm of the integers d_a and L the lcm in
    Z[q] of the b, one gcd for each b after the first."""
    l = lcm(*(c.num.d for c, _ in coords.values()))
    dens = {c.den.ints for c, _ in coords.values()}
    L = []
    for b in dens:
        L = pa.mul(L, pa.gcd(L, b)[2]) if L else b
    L_over = {b: pa.divexact(L, b) for b in dens}
    y = {j: pa.mul(pa.mul_int(c.num.ints, s * c.den.d * (l // c.num.d)), L_over[c.den.ints])
         for j, (c, s) in coords.items()}
    return y, l, L


def _lowest_terms(adj, det):
    """(adj / g by columns, det / g) for g the gcd in Z[q] of det and every
    entry of adj, so that adj / det = A^(-1) in lowest terms.  A gcd runs
    only on an entry that the running g does not divide."""
    entries = [entry for row in adj for entry in row if entry]
    g = pa.primitive(det)
    for entry in entries:
        if len(g) == 1:
            break
        try:
            pa.divexact(entry, g)
        except ArithmeticError:
            g, _, _ = pa.gcd(g, entry)
    g = pa.mul_int(g, gcd(pa.content(det), *map(pa.content, entries)))
    return _columns([[pa.divexact(entry, g) for entry in row] for row in adj]), pa.divexact(det, g)


class _StepSolver:
    """The split P = M + x Q of the degree-k polynomials, run in class-0
    coordinates over Z[q].

    Right multiplication by e_B commutes with x and q_dirac and sends
    x^alpha e_p(alpha) to s x^alpha e_(p(alpha) xor B), s = +-1, so it maps
    class 0 onto class B, and every class of P is split by the class-0
    blocks of its maps: D of q_dirac from degree k to k - 1, X of left
    multiplication by x from degree k - 1 to k (entries +-1), and the
    inverse of A = D X, the block of Q -> q_dirac(x Q), as adj / det.
    `split` signs each class of P into class-0 coordinates and clears
    them into a Z[q] vector y over one denominator l L; then, in Z[q],
    z = adj (D y), and Q = z / (det l L) and M = y / (l L) - X Q =
    (det y - X z) / (det l L).  Each nonzero entry of Q and M is
    canonicalised once, with one gcd, and signed back into its class, so
    no QScalar is summed or multiplied.

    The blocks are built in the first split of each (m, k).  adj and det
    come from `invert_ff`, which eliminates at the one point q = 2^w, w
    from the block's coefficient norms, so that every minor's value reads
    back as its polynomial; they are then divided by their common factor
    in Z[q], which at (4,4) takes det from q-degree 40 to 16.
    """

    def __init__(self, m, k):
        self.m = m
        self.alphas = monomial_multi_indices(m, k - 1)
        self.betas = monomial_multi_indices(m, k)
        self.row = {beta: i for i, beta in enumerate(self.betas)}
        xv = _vector_variable(m)
        self.dirac = _columns(_dirac_block(m, k))
        self.x = _columns(_class0_block(lambda Q: xv * Q, m, self.alphas, self.betas))
        self.adj, self.det = _lowest_terms(*invert_ff(
            _class0_block(lambda Q: q_dirac(xv * Q), m, self.alphas, self.alphas)))

    def split(self, P):
        """The FischerSplit of P, homogeneous of degree k."""
        classes = {}
        for beta, mv in P.terms.items():
            p = _odd_blade(beta)
            for mask, c in mv.terms.items():
                B = mask ^ p
                classes.setdefault(B, {})[self.row[beta]] = (c, blade_product(p, B)[0])
        m_terms, q_terms = {}, {}
        for B, coords in classes.items():
            y, l, L = _cleared(coords)
            z = _apply(self.adj, _apply(self.dirac, y))
            xz = _apply(self.x, z)
            den = pa.mul(self.det, L)
            for terms, alphas, vec in (
                    (q_terms, self.alphas, z),
                    (m_terms, self.betas,
                     {i: pa.sub(pa.mul(self.det, y.get(i, ())), xz.get(i, ()))
                      for i in y.keys() | xz.keys()})):
                for i, v in vec.items():
                    if v:
                        sign, mask = blade_product(_odd_blade(alphas[i]), B)
                        _, v, d = pa.gcd(v if sign > 0 else pa.neg(v), den)
                        terms.setdefault(alphas[i], {})[mask] = _canonical(*_monic(v, l, d, 1))
        m = self.m
        return FischerSplit(
            *(_cliffordpoly(m, {a: _multivector(m, t) for a, t in terms.items()})
              for terms in (m_terms, q_terms)))


@lru_cache(maxsize=None)
def _step_solver(m, k):
    return _StepSolver(m, k)


def fischer_step(P):
    """Unique split P = M + x Q with M monogenic, for homogeneous P."""
    k = _degree_of(P)
    _require_plain(P)
    if k is None or k == 0:
        return FischerSplit(P, CliffordPoly.zero(P.m))
    return _step_solver(P.m, k).split(P)


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
    return (comb(k + m - 1, m - 1) - rank_ff(_dirac_block(m, k))) << m
