"""Independent oracles shared by the test modules.

These reimplement the classical (non-deformed) operators and the literal
difference quotient from first principles, without touching the q-bracket
machinery, the Z[q] gcd by the primitive polynomial remainder sequence
instead of the library's heuristic gcd, and the Fischer operator matrix
as all of its 2^m grading-class blocks instead of the library's one
class-0 block, so agreement with the package is a genuine cross-check.
The q-operators are composed here as the operator sums they are defined
by, from q_partial and the general double-loop product, against the
library's one-pass term maps and one-term products.  The fraction-free
elimination runs here on Z[q] polynomial lists, against the library's
elimination on integer values at one point q = 2^w.  The Fischer split
runs here through QScalar sums and products, from q_dirac(P) to
P - x Q, against the library's split in class-0 coordinates over Z[q].
"""

from functools import lru_cache

from qclifford import _polyarith as pa
from qclifford._linalg import invert_ff
from qclifford.clifford import Multivector, _multivector, blade_product
from qclifford.cpoly import CliffordPoly, _cliffordpoly, q_shift, vector_variable
from qclifford.errors import SingularSystem
from qclifford.fischer import FischerSplit, _class0_block, _odd_blade, monomial_multi_indices
from qclifford.qops import q_dirac, q_partial
from qclifford.qfield import ONE, Q, ZERO, QPoly, QScalar


def x(i, m):
    return CliffordPoly.variable(i, m)


def e(i, m):
    return CliffordPoly.generator(i, m)


def mul_oracle(a, b):
    """The product of two CliffordPolys as the double loop over both
    operands' terms, summed term by term."""
    assert a.m == b.m
    out = CliffordPoly.zero(a.m)
    for aa, ma in a.terms.items():
        for ab, mb in b.terms.items():
            alpha = tuple(u + v for u, v in zip(aa, ab))
            out = out + CliffordPoly.monomial(a.m, alpha, ma * mb)
    return out


def dirac_oracle(P):
    """-sum_{i=1..m} e_i d_i^q, on x0/e0 content too."""
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        acc = acc - mul_oracle(e(i, P.m), q_partial(P, i))
    return acc


def euler_oracle(P):
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        acc = acc + mul_oracle(x(i, P.m), q_partial(P, i))
    return acc


def gamma_oracle(P):
    m = P.m
    acc = CliffordPoly.zero(m)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            inner = mul_oracle(x(i, m), q_partial(P, j)) - mul_oracle(x(j, m), q_partial(P, i))
            acc = acc - mul_oracle(mul_oracle(e(i, m), e(j, m)), inner)
    return acc


def laplace_oracle(P):
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        acc = acc + q_partial(q_partial(P, i), i)
    return acc


def quotient_oracle(P, i):
    """(P(.., q x_i, ..) - P) / ((q - 1) x_i), divided term by term."""
    shifted = q_shift(P, i) - P
    inv = ONE / (Q - 1)
    out = CliffordPoly.zero(P.m)
    for alpha, mv in shifted.terms.items():
        assert alpha[i] > 0, "terms constant in x_i must have cancelled"
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        out = out + CliffordPoly.monomial(P.m, beta, mv * inv)
    return out


def classical_partial(P, i):
    out = CliffordPoly.zero(P.m)
    for alpha, mv in P.terms.items():
        a = alpha[i]
        if a:
            beta = alpha[:i] + (a - 1,) + alpha[i + 1:]
            out = out + CliffordPoly.monomial(P.m, beta, mv * QScalar(a))
    return out


def classical_dirac(P):
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        acc = acc - e(i, P.m) * classical_partial(P, i)
    return acc


def classical_euler(P):
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        acc = acc + x(i, P.m) * classical_partial(P, i)
    return acc


def classical_gamma(P):
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        for j in range(i + 1, P.m + 1):
            inner = x(i, P.m) * classical_partial(P, j) - x(j, P.m) * classical_partial(P, i)
            acc = acc - e(i, P.m) * e(j, P.m) * inner
    return acc


def classical_laplace(P):
    acc = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        acc = acc + classical_partial(classical_partial(P, i), i)
    return acc


def pseudo_rem(a, b):
    """Remainder of a scaled copy of a modulo b, all-integer.

    Equals lc(b)^s * a mod b for some s, which is all the primitive PRS
    needs since the result is re-primitivized anyway.
    """
    if not b:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    r = list(a)
    db = pa.deg(b)
    lb = b[-1]
    while r and pa.deg(r) >= db:
        dr = pa.deg(r)
        lead = r[-1]
        r = [lb * c for c in r]
        for j in range(len(b)):
            r[dr - db + j] -= lead * b[j]
        pa.trim(r)
    return r


def prs_gcd(a, b):
    """Primitive gcd over Z[q] via the primitive polynomial remainder sequence."""
    a = pa.primitive(a)
    b = pa.primitive(b)
    while b:
        a, b = b, pa.primitive(pseudo_rem(a, b))
    return a


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


def graded_blocks(op, m, src, dst):
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


def _pick_pivot(rows, candidates, col):
    best = None
    best_deg = None
    for r in candidates:
        entry = rows[r][col]
        if entry:
            d = len(entry)
            if best is None or d < best_deg:
                best, best_deg = r, d
    return best


def _bareiss_step(row, lead, c, pivot, prev, start):
    """row <- (pivot*row - row[c]*lead) / prev over columns start.., exactly
    over Z[q]; zero products are skipped, not computed."""
    factor = row[c]
    for j in range(start, len(row)):
        num = pa.mul(row[j], pivot) if row[j] else []
        if factor and lead[j]:
            num = pa.sub(num, pa.mul(factor, lead[j]))
        row[j] = pa.divexact(num, prev) if num else []


def invert_oracle(matrix):
    """Gauss-Jordan Bareiss on [A | I] over Z[q], pivoting on the first row
    of least q-degree: (B, d) with B = d * A^(-1), d the determinant of the
    row-permuted matrix.  Raises SingularSystem if A is singular."""
    n = len(matrix)
    rows = [list(row) + [[1] if i == j else [] for j in range(n)]
            for i, row in enumerate(matrix)]
    prev = [1]
    for c in range(n):
        r = _pick_pivot(rows, range(c, n), c)
        if r is None:
            raise SingularSystem("matrix is singular over Q(q)")
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c][c]
        for i in range(n):
            if i != c:
                _bareiss_step(rows[i], rows[c], c, pivot, prev, 0)
        prev = pivot
    return [row[n:] for row in rows], prev


def rank_oracle(matrix):
    """Rank over Q(q) by forward fraction-free elimination over Z[q]."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if not n:
        return 0
    ncols = len(rows[0])
    prev = [1]
    rank = 0
    for c in range(ncols):
        if rank == n:
            break
        r = _pick_pivot(rows, range(rank, n), c)
        if r is None:
            continue
        if r != rank:
            rows[rank], rows[r] = rows[r], rows[rank]
        pivot = rows[rank][c]
        for i in range(rank + 1, n):
            _bareiss_step(rows[i], rows[rank], c, pivot, prev, c)
        prev = pivot
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _dense_inverse(m, k):
    """(alphas, inv, det): the inverse det * A^(-1) of the class-0 block A of
    Q -> q_dirac(x Q) on the degree-(k-1) space, with QScalar entries."""
    alphas = monomial_multi_indices(m, k - 1)
    xv = vector_variable(m)
    inv, det = invert_ff(_class0_block(lambda R: q_dirac(xv * R), m, alphas, alphas))
    inv = [[QScalar(QPoly(entry)) if entry else ZERO for entry in row] for row in inv]
    return alphas, inv, QScalar(QPoly(det))


def solve_oracle(R, k):
    """The Q of degree k - 1 with q_dirac(x Q) = R: each class of R signed
    into class-0 coordinates, multiplied by the dense inverse in QScalar
    arithmetic, and signed back."""
    alphas, inv, det = _dense_inverse(R.m, k)
    col = {alpha: j for j, alpha in enumerate(alphas)}
    classes = {}
    for beta, mv in R.terms.items():
        p = _odd_blade(beta)
        for mask, c in mv.terms.items():
            B = mask ^ p
            classes.setdefault(B, {})[col[beta]] = c if blade_product(p, B)[0] > 0 else -c
    terms = {}
    for B, rhs in classes.items():
        for alpha, row in zip(alphas, inv):
            acc = ZERO
            for j, v in rhs.items():
                if not row[j].is_zero():
                    acc = acc + row[j] * v
            if not acc.is_zero():
                sign, mask = blade_product(_odd_blade(alpha), B)
                c = acc / det
                terms.setdefault(alpha, {})[mask] = c if sign > 0 else -c
    return _cliffordpoly(R.m, {a: _multivector(R.m, t) for a, t in terms.items()})


def split_oracle(P):
    """The Fischer split of a homogeneous P as q_dirac, then solve_oracle,
    then P - x Q, all in QScalar arithmetic."""
    k = P.homogeneous_degree()
    if not k:
        return FischerSplit(P, CliffordPoly.zero(P.m))
    Qp = solve_oracle(q_dirac(P), k)
    return FischerSplit(P - vector_variable(P.m) * Qp, Qp)


def tower_oracle(P):
    """The components of the Fischer tower of P by iterated split_oracle."""
    k = P.homogeneous_degree()
    comps = []
    rest = P
    for _ in range((k or 0) + 1):
        M, rest = split_oracle(rest)
        comps.append(M)
    return tuple(comps)
