"""Fraction-free exact linear algebra over Z[q], run at one integer point.

Entries are integer-coefficient polynomial lists (see _polyarith).  The
Bareiss/Montante recurrences keep every intermediate entry a minor of the
input (for the inverse, of [A | I], which are minors of A up to sign or
0), so all divisions are exact.  They run over Python ints on A
evaluated at q = X = 2^w, a ring homomorphism, with w the bit length of
prod_i max(1, sum_j ||a_ij||_1) plus 2.  A minor sums products of one
entry per row, so its coefficients are below X/4, and its value v reads
back exactly: v != 0 just when the minor is nonzero (singularity and
rank are those over Q(q)), its q-degree is abs(v).bit_length() // w (the
pivot, the first row of least q-degree, is unchanged) and its symmetric
base-X digits are its coefficients.
"""

from __future__ import annotations

from . import _polyarith as pa
from .errors import SingularSystem


def _at_point(matrix):
    """(w, X, rows): the entries of matrix as values at X = 2^w, with w
    large enough that every minor's coefficients are below X/4."""
    bound = 1
    for row in matrix:
        bound *= max(1, sum(abs(c) for entry in row for c in entry))
    w = bound.bit_length() + 2
    x = 1 << w
    return w, x, [[pa._value(entry, x) for entry in row] for row in matrix]


def _pick_pivot(rows, candidates, col, w):
    """The first candidate row whose entry in col has the least q-degree."""
    best = None
    best_deg = None
    for r in candidates:
        v = rows[r][col]
        if v:
            d = abs(v).bit_length() // w
            if best is None or d < best_deg:
                best, best_deg = r, d
    return best


def _bareiss_step(row, lead, c, pivot, prev, start):
    """row <- (pivot*row - row[c]*lead) / prev over columns start.., exactly.

    A row with row[c] == 0 is still rescaled by pivot/prev, as the
    recurrence requires; column c itself comes out 0.
    """
    factor = row[c]
    for j in range(start, len(row)):
        row[j] = (pivot * row[j] - factor * lead[j]) // prev


def invert_ff(matrix):
    """Gauss-Jordan Bareiss inverse of a square matrix over Z[q].

    Returns (B, d) with B = d * A^(-1) exactly, d the determinant of the
    row-permuted matrix (sign included, harmless for solving); the empty
    matrix gives ([], [1]).  Raises SingularSystem if the matrix is
    singular.
    """
    n = len(matrix)
    w, x, vals = _at_point(matrix)
    rows = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(vals)]
    prev = 1
    for c in range(n):
        r = _pick_pivot(rows, range(c, n), c, w)
        if r is None:
            raise SingularSystem("matrix is singular over Q(q)")
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c][c]
        for i in range(n):
            if i != c:
                _bareiss_step(rows[i], rows[c], c, pivot, prev, 0)
        prev = pivot
    return [[pa._digits(v, x) for v in row[n:]] for row in rows], pa._digits(prev, x)


def rank_ff(matrix):
    """Rank over Q(q) by forward fraction-free elimination."""
    n = len(matrix)
    if not n:
        return 0
    w, _, rows = _at_point(matrix)
    prev = 1
    rank = 0
    for c in range(len(rows[0])):
        if rank == n:
            break
        r = _pick_pivot(rows, range(rank, n), c, w)
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
