"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from qclifford.clifford import Multivector
from qclifford.cpoly import CliffordPoly
from qclifford.qfield import QScalar


def polys(m, extended=False):
    """Sums of up to four terms c x^alpha e_A with small integer c and
    exponents; with `extended`, x0 and e0 appear too."""
    coeffs = st.integers(min_value=-3, max_value=3).map(QScalar)
    masks = st.integers(min_value=0, max_value=2 ** (m + 1) - 1)
    if not extended:
        masks = masks.filter(lambda v: not v & 1)
    x0 = st.integers(min_value=0, max_value=2) if extended else st.just(0)
    alphas = st.tuples(*([x0] + [st.integers(min_value=0, max_value=2)] * m))
    term = st.tuples(alphas, masks, coeffs)
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (
                CliffordPoly.monomial(m, a, Multivector(m, {mask: c}))
                for a, mask, c in ts
            ),
            CliffordPoly.zero(m),
        )
    )
