"""One-dimensional Jackson calculus: q-derivative, q-integral and the two
q-exponentials, on polynomials in one variable t over Q(q).

The one-dimensional case is m = 1 of the Clifford setting: a polynomial
in t is a scalar-valued `CliffordPoly` at m = 1 whose variable x1 is t.
`UniPoly` is that polynomial, built from its coefficients by degree and
printed in t.  The q-derivative is `q_partial` in x1, the dilation
t -> q t is `q_shift(f, 1)` and evaluation is `evaluate_poly`.

The q-integral is exposed in closed form (term-wise geometric summation of
the defining series, a rational-function identity valid for formal q); the
series itself is kept as a numeric oracle, which is where the 0 < q < 1
convergence condition genuinely applies.
"""

from __future__ import annotations

from fractions import Fraction

from .cpoly import CliffordPoly, evaluate_poly
from .errors import InvalidArgument, InvalidParameter
from .qfield import ONE, ZERO, q_bracket, q_factorial
from .qops import q_partial


class UniPoly(CliffordPoly):
    """Polynomial in t with QScalar coefficients, given as a map degree ->
    coefficient: the CliffordPoly at m = 1 with terms {(0, k): c}, printed
    in t.  Arithmetic on it returns a plain CliffordPoly, printed in x1.

    >>> f = UniPoly({2: ONE, 0: ONE})
    >>> str(f), f == CliffordPoly(1, {(0, 2): ONE, (0, 0): ONE})
    ('1 + t^2', True)
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__(1, {(0, k): c for k, c in (coeffs or {}).items()})

    def __str__(self):
        from .render import render_unipoly

        return render_unipoly(self)

    __repr__ = __str__


def _unipoly(P):
    """The scalar-valued CliffordPoly P at m = 1 as a UniPoly, sharing its
    terms.  Checks nothing."""
    f = object.__new__(UniPoly)
    f.m = 1
    f.terms = P.terms
    return f


def jackson_derivative(f):
    """t^k -> [k]_q t^(k-1), extended linearly."""
    return _unipoly(q_partial(f, 1))


def q_integral(f, a, b):
    """Closed form of the q-integral of f over [a, b]:
    sum_k c_k (b^(k+1) - a^(k+1)) / [k+1]_q."""
    a, b = Fraction(a), Fraction(b)
    return sum((mv.scalar_part() * (b ** (k + 1) - a ** (k + 1)) / q_bracket(k + 1)
                for (_, k), mv in f.terms.items()), ZERO)


def q_integral_series_oracle(f, a, q0, terms):
    """Partial sum of the defining series (1-q) a sum_k f(a q^k) q^k at a
    numeric 0 < q0 < 1; used to validate the closed form."""
    q0 = Fraction(q0)
    if not 0 < q0 < 1:
        raise InvalidParameter("series form requires 0 < q0 < 1")
    a = Fraction(a)
    acc = Fraction(0)
    qk = Fraction(1)
    for _ in range(terms):
        acc += evaluate_poly(f, [a * qk], q0).scalar_part().evaluate(q0) * qk
        qk *= q0
    return (1 - q0) * a * acc


def q_exp(variant, order):
    """Truncation of a q-exponential to the given order.

    Variant "E" has coefficients 1/[j]_q!; variant "e" substitutes
    q -> 1/q in each coefficient (the two are inverse to each other up to
    the sign flip t -> -t).
    """
    if order < 0:
        raise InvalidArgument("truncation order must be nonnegative")
    if variant == "E":
        return UniPoly({j: ONE / q_factorial(j) for j in range(order + 1)})
    if variant == "e":
        return UniPoly(
            {j: ONE / q_factorial(j).subst_qinv() for j in range(order + 1)}
        )
    raise InvalidArgument("variant must be 'E' or 'e'")
