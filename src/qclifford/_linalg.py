"""Fraction-free exact linear algebra over Z[q].

Entries are integer-coefficient polynomial lists (see _polyarith).  The
Bareiss/Montante recurrences keep every intermediate entry a minor of the
input matrix, so all divisions are exact and coefficient growth stays
polynomial; pivots are chosen with minimal q-degree to keep them small.
"""

from __future__ import annotations

from . import _polyarith as pa
from .errors import SingularSystem


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
    """row <- (pivot*row - row[c]*lead) / prev over columns start.., exactly.

    A row with row[c] == [] is still rescaled by pivot/prev, as the
    recurrence requires; column c itself comes out [].  Zero products are
    skipped, not computed: the blocks are sparse, and rank_ff's rows mostly
    have row[c] == [].
    """
    factor = row[c]
    for j in range(start, len(row)):
        num = pa.mul(row[j], pivot) if row[j] else []
        if factor and lead[j]:
            num = pa.sub(num, pa.mul(factor, lead[j]))
        row[j] = pa.divexact(num, prev) if num else []


def invert_ff(matrix):
    """Gauss-Jordan Bareiss inverse of a square matrix over Z[q].

    Returns (B, d) with B = d * A^(-1) exactly, d the determinant of the
    row-permuted matrix (sign included, harmless for solving).  Raises
    SingularSystem if the matrix is singular.
    """
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
    det = rows[n - 1][n - 1]
    return [row[n:] for row in rows], det


def rank_ff(matrix):
    """Rank over Q(q) by forward fraction-free elimination."""
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
