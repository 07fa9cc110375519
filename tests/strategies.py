"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from qclifford.clifford import Multivector
from qclifford.cpoly import CliffordPoly
from qclifford.qfield import QPoly, QScalar


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


# denominators that share factors (1 + q) and 2 with one another
_DENOMINATORS = (QPoly([1]), QPoly([2]), QPoly([0, 1]), QPoly([1, 1]), QPoly([3, 0, 1]),
                 QPoly([1, 1]) * QPoly([1, 2]), QPoly([2, 2]) * QPoly([3, 0, 1]))


def rational_scalars():
    """Small nonzero rational functions of q over a few denominators."""
    nums = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).filter(
        any).map(QPoly)
    return st.builds(QScalar, nums, st.sampled_from(_DENOMINATORS))


def homogeneous_polys(m, k, one_class=False):
    """Sums of up to five terms c x^alpha e_A of degree k, c from
    `rational_scalars`; with `one_class`, two to five terms on distinct
    multi-indices lie in one grading class, so one class's coordinates
    meet over several denominators (this needs two multi-indices of degree
    k: m >= 2 and k >= 1)."""
    alphas = st.lists(st.integers(min_value=1, max_value=m), min_size=k, max_size=k).map(
        lambda vs: tuple([0] + [vs.count(i) for i in range(1, m + 1)]))
    masks = st.integers(min_value=0, max_value=2 ** m - 1).map(lambda v: v << 1)
    if one_class:
        # the class of x^alpha e_A has bit l = alpha_l + [l in A] mod 2
        odd = lambda alpha: sum(1 << i for i, a in enumerate(alpha) if a & 1)  # noqa: E731
        terms = masks.flatmap(lambda B: st.lists(
            st.tuples(alphas, rational_scalars()), min_size=2, max_size=5,
            unique_by=lambda t: t[0]).map(
                lambda ts: [(alpha, odd(alpha) ^ B, c) for alpha, c in ts]))
    else:
        terms = st.lists(st.tuples(alphas, masks, rational_scalars()), max_size=5)
    return terms.map(
        lambda ts: sum(
            (CliffordPoly.monomial(m, a, Multivector(m, {mask: c})) for a, mask, c in ts),
            CliffordPoly.zero(m),
        )
    )
