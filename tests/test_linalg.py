"""The elimination at one point q = 2^w against the Z[q] elimination.

`invert_ff` and `rank_ff` evaluate the matrix at X = 2^w and read the
minors back as base-X digits; the oracles run the same Bareiss steps on
polynomial lists.  The two must return the same (B, d), the same rank,
or both raise SingularSystem.

Run as a script, it compares the two on the largest class-0 blocks that
the `fischer` verb's size limit accepts, where w is largest; the Z[q]
side takes seconds there, too slow for the suite:

    PYTHONPATH=src python tests/test_linalg.py
"""

import sys
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import invert_oracle, rank_oracle
from qclifford import _polyarith as pa
from qclifford._linalg import invert_ff, rank_ff
from qclifford.cli import MAX_FISCHER_WORK
from qclifford.cpoly import _vector_variable
from qclifford.errors import SingularSystem
from qclifford.fischer import _class0_block, monomial_multi_indices
from qclifford.qops import q_dirac

BIG = 2 ** 80

#: (m, k) of the largest step block the `fischer` size limit accepts at
#: each m where it binds: n^2 * k <= 3000 for n = C(k+m-2, m-1)
LARGEST_ACCEPTED = ((2, 14), (3, 6), (4, 4), (6, 3), (7, 3))

# Z[q] entries: zero, small coefficients (equal q-degrees and cancellations
# are likely) and coefficients up to 2^80 of either sign
entries = st.one_of(
    st.just([]),
    st.lists(st.integers(-3, 3), max_size=3).map(pa.trim),
    st.lists(st.integers(-BIG, BIG), max_size=3).map(pa.trim),
)


@st.composite
def matrices(draw, square):
    """Matrices of up to 4 x 4 (empty and 1 x 1 included), some with one
    row and one column set to zero."""
    n = draw(st.integers(0, 4))
    ncols = n if square else draw(st.integers(0, 4))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(n)]
    if n and ncols and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [[] for _ in range(ncols)]
    if n and ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = []
    return rows


@st.composite
def singular_matrices(draw):
    """n x n matrices, n >= 1, with one row a Z[q] combination of the
    others, so their determinant is zero over Q(q)."""
    n = draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n - 1)]
    dependent = [[] for _ in range(n)]
    for row in rows:
        p = draw(st.lists(st.integers(-3, 3), max_size=2).map(pa.trim))
        dependent = [pa.add(acc, pa.mul(p, a)) for acc, a in zip(dependent, row)]
    rows.insert(draw(st.integers(0, n - 1)), dependent)
    return rows


def _same_inverse(matrix):
    try:
        expected = invert_oracle(matrix)
    except SingularSystem:
        with pytest.raises(SingularSystem):
            invert_ff(matrix)
        return None
    assert invert_ff(matrix) == expected
    return expected


def _step_block(m, k):
    alphas = monomial_multi_indices(m, k - 1)
    xv = _vector_variable(m)
    return _class0_block(lambda Q: q_dirac(xv * Q), m, alphas, alphas)


def _dirac_block(m, k):
    return _class0_block(q_dirac, m, monomial_multi_indices(m, k),
                         monomial_multi_indices(m, k - 1))


class TestPoint:
    def test_coefficients_at_the_bound_read_back(self):
        # the one minor is the entry itself, with coefficients at the bound
        for c in (BIG, -BIG, BIG - 1, 2, -2):
            assert invert_ff([[[c]]]) == ([[[1]]], [c])
            assert invert_ff([[[0, c]]]) == ([[[1]]], [0, c])
            assert invert_ff([[[c, 0, -c]]]) == ([[[1]]], [c, 0, -c])

    def test_pivot_is_the_first_row_of_least_q_degree(self):
        # both rows have q-degree 0 in column 0: the first one is the
        # pivot, though the second has the smaller value
        A = [[[5], [1]], [[3], [2]]]
        assert invert_ff(A) == invert_oracle(A) == ([[[2], [-1]], [[-3], [5]]], [7])
        # a row of lower q-degree wins over an earlier row
        A = [[[0, 1], [1]], [[9], [1]]]
        assert invert_ff(A) == invert_oracle(A)
        assert invert_ff(A)[1] == [9, -1]

    def test_empty_matrix(self):
        assert invert_ff([]) == invert_oracle([]) == ([], [1])
        assert rank_ff([]) == rank_oracle([]) == 0
        assert rank_ff([[], []]) == rank_oracle([[], []]) == 0


class TestFischerBlocks:
    def test_largest_accepted_are_at_the_size_limit(self):
        for m, k in LARGEST_ACCEPTED:
            work = [comb(j + m - 2, m - 1) ** 2 * j for j in (k, k + 1)]
            assert work[0] <= MAX_FISCHER_WORK < work[1]

    @pytest.mark.parametrize(
        "m, k", [(m, k) for m in (1, 2, 3) for k in range(1, 6)] + [(4, k) for k in (1, 2, 3)])
    def test_equal_to_the_zq_elimination(self, m, k):
        A = _step_block(m, k)
        assert invert_ff(A) == invert_oracle(A)
        assert rank_ff(A) == rank_oracle(A) == len(A)
        D = _dirac_block(m, k)
        assert rank_ff(D) == rank_oracle(D)


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(matrices(square=True))
    def test_invert(self, A):
        _same_inverse(A)

    @settings(max_examples=200, deadline=None)
    @given(matrices(square=False))
    def test_rank(self, A):
        assert rank_ff(A) == rank_oracle(A)

    @settings(max_examples=100, deadline=None)
    @given(singular_matrices())
    def test_singular(self, A):
        assert _same_inverse(A) is None
        assert rank_ff(A) == rank_oracle(A) < len(A)


def _check_largest_accepted():
    failed = 0
    for m, k in LARGEST_ACCEPTED:
        start = time.perf_counter()
        A, D = _step_block(m, k), _dirac_block(m, k)
        ok = (invert_ff(A) == invert_oracle(A)
              and rank_ff(A) == rank_oracle(A) == len(A)
              and rank_ff(D) == rank_oracle(D))
        failed += not ok
        print("(%d, %d) n = %d: %s in %.1f s" % (
            m, k, len(A), "equal" if ok else "DIFFERENT", time.perf_counter() - start))
    return failed


if __name__ == "__main__":
    sys.exit(1 if _check_largest_accepted() else 0)
