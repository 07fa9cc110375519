"""Seedable random polynomial generation for the identity sweeps.

Coefficients stay polynomial in q (small integers times small q-powers) so
residual computations remain cheap; the identities hold over all of Q(q)
regardless.
"""

from __future__ import annotations

from .clifford import Multivector
from .cpoly import CliffordPoly
from .qfield import QPoly, QScalar


def random_scalar(rng):
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    e = rng.choice([0, 0, 1, 2])
    return QScalar(QPoly((0,) * e + (c,)))


def random_multivector(rng, m, uses_e0=False):
    top = 2 ** (m + 1)
    masks = [x for x in range(top) if uses_e0 or not x & 1]
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[rng.choice(masks)] = random_scalar(rng)
    return Multivector(m, terms)


def random_multi_index(rng, m, degree, uses_x0=False):
    alpha = [0] * (m + 1)
    lo = 0 if uses_x0 else 1
    for _ in range(degree):
        alpha[rng.randint(lo, m)] += 1
    return tuple(alpha)


def random_poly(rng, m, max_degree, max_terms=4, uses_x0=False, uses_e0=False):
    """Random CliffordPoly; may come out with fewer terms after merging."""
    P = CliffordPoly.zero(m)
    for _ in range(rng.randint(1, max_terms)):
        alpha = random_multi_index(rng, m, rng.randint(0, max_degree), uses_x0)
        mv = random_multivector(rng, m, uses_e0=uses_e0)
        P = P + CliffordPoly.monomial(m, alpha, mv)
    return P


def random_homogeneous_poly(rng, m, k, max_terms=4):
    P = CliffordPoly.zero(m)
    for _ in range(rng.randint(1, max_terms)):
        alpha = random_multi_index(rng, m, k)
        mv = random_multivector(rng, m)
        P = P + CliffordPoly.monomial(m, alpha, mv)
    return P


def random_point(rng, n, nonzero=False):
    from fractions import Fraction

    pool = [-2, -1, 1, 2, 3] if nonzero else [-2, -1, 0, 1, 2, 3]
    return [Fraction(rng.choice(pool), rng.choice([1, 1, 2])) for _ in range(n)]
