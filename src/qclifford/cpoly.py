"""Clifford-valued polynomials in commuting variables x_1..x_m, optionally
extended by x_0.

A multi-index is a plain tuple of m+1 nonnegative integers whose slot 0 is
the x_0 exponent (0 unless the extension is in play).  A CliffordPoly is a
sparse map multi-index -> Multivector; the variables are central, so all
noncommutativity lives in the coefficients.  The public constructor
validates its input; the operators, `q_shift`, `homogeneous_part` and
`qops.q_partial` build their results through `_cliffordpoly` without
re-validating them, since valid operands give valid results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .clifford import Multivector
from .errors import AlgebraMismatch, InvalidArgument, InvalidVariable
from .qfield import ONE, Q, _as_qscalar, _binary_power


def _zero_alpha(m):
    return (0,) * (m + 1)


def term_sort_key(alpha):
    """Graded order: total degree ascending, then lexicographic with
    x_1 > x_2 > ... > x_m > x_0."""
    return (sum(alpha), tuple(-a for a in alpha[1:]) + (-alpha[0],))


class CliffordPoly:
    """Sparse Clifford-valued polynomial in canonical form (no zero terms).

    >>> x1 = CliffordPoly.variable(1, 2)
    >>> e1 = CliffordPoly.generator(1, 2)
    >>> str((x1 * e1) * (x1 * e1))
    '-x1^2'
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        if m < 1:
            raise InvalidArgument("dimension m must be positive")
        self.m = m
        clean = {}
        if terms:
            for alpha, mv in terms.items():
                if not isinstance(mv, Multivector):
                    mv = Multivector.scalar(mv, m)
                if mv.m != m:
                    raise AlgebraMismatch("coefficient over wrong algebra")
                if mv.is_zero():
                    continue
                if len(alpha) != m + 1 or any(a < 0 for a in alpha):
                    raise InvalidArgument("bad multi-index %r" % (alpha,))
                clean[alpha] = mv
        self.terms = clean

    # -- constructors ----------------------------------------------------
    # static, so that a subclass with its own __init__ (jackson.UniPoly)
    # inherits them as builders of a plain CliffordPoly

    @staticmethod
    def zero(m):
        return CliffordPoly(m)

    @staticmethod
    def scalar(value, m):
        return CliffordPoly(m, {_zero_alpha(m): Multivector.scalar(value, m)})

    @staticmethod
    def one(m):
        return CliffordPoly.scalar(ONE, m)

    @staticmethod
    def variable(i, m):
        """The coordinate x_i (x_0 for i = 0)."""
        if i < 0 or i > m:
            raise InvalidVariable("variable index %d out of range" % i)
        alpha = tuple(1 if j == i else 0 for j in range(m + 1))
        return CliffordPoly(m, {alpha: Multivector.scalar(ONE, m)})

    @staticmethod
    def generator(i, m):
        """The constant polynomial e_i."""
        return CliffordPoly.from_multivector(Multivector.basis(i, m))

    @staticmethod
    def from_multivector(mv):
        return CliffordPoly(mv.m, {_zero_alpha(mv.m): mv})

    @staticmethod
    def monomial(m, alpha, coeff):
        return CliffordPoly(m, {tuple(alpha): coeff})

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coefficient(self, alpha):
        return self.terms.get(tuple(alpha), Multivector.zero(self.m))

    def total_degree(self):
        """Largest |alpha| present; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if mixed; None for 0."""
        degrees = {sum(a) for a in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def has_x0(self):
        return any(a[0] for a in self.terms)

    def has_e0(self):
        return any(mask & 1 for mv in self.terms.values() for mask in mv.terms)

    def constant_coefficient(self):
        return self.coefficient(_zero_alpha(self.m))

    def _compat(self, other):
        if self.m != other.m:
            raise AlgebraMismatch(
                "polynomials over dimensions %d and %d" % (self.m, other.m)
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for alpha, mv in other.terms.items():
            cur = out.get(alpha)
            out[alpha] = mv if cur is None else cur + mv
        return _cliffordpoly(self.m, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for alpha, mv in other.terms.items():
            cur = out.get(alpha)
            out[alpha] = -mv if cur is None else cur - mv
        return _cliffordpoly(self.m, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _cliffordpoly(self.m, {a: -mv for a, mv in self.terms.items()})

    def __mul__(self, other):
        s = _as_qscalar(other)
        if s is not None:
            return self._scaled(s)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._compat(other)
        if len(other.terms) == 1:
            (ab, mb), = other.terms.items()
            return _times_term(self, ab, mb, False)
        if len(self.terms) == 1:
            (aa, ma), = self.terms.items()
            return _times_term(other, aa, ma, True)
        out = {}
        for aa, ma in self.terms.items():
            for ab, mb in other.terms.items():
                alpha = tuple(x + y for x, y in zip(aa, ab))
                mv = ma * mb
                cur = out.get(alpha)
                out[alpha] = mv if cur is None else cur + mv
        return _cliffordpoly(self.m, out)

    def __rmul__(self, other):
        # called for scalar * poly and Multivector * poly; scalars are
        # central but a Multivector must multiply from the left
        s = _as_qscalar(other)
        if s is not None:
            return self._scaled(s)
        if isinstance(other, Multivector):
            self._compat(other)
            return _times_term(self, _zero_alpha(self.m), other, True)
        return NotImplemented

    def _scaled(self, s):
        """P times a central scalar: one pass over the coefficients, none
    for the scalar 1, which keeps P's Multivectors."""
        if s.is_one():
            return _cliffordpoly(self.m, self.terms)
        return _cliffordpoly(self.m, {a: mv * s for a, mv in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise InvalidArgument("negative power of a polynomial")
        return _binary_power(self, n, CliffordPoly.one(self.m), mul)

    def _coerce(self, other):
        if isinstance(other, CliffordPoly):
            return other
        if isinstance(other, Multivector):
            return CliffordPoly.from_multivector(other)
        s = _as_qscalar(other)
        return None if s is None else CliffordPoly.scalar(s, self.m)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __str__(self):
        from .render import render_poly

        return render_poly(self)

    __repr__ = __str__


def _cliffordpoly(m, terms):
    """The CliffordPoly in m variables with an operator's result terms:
    Multivectors over Cl(0,m) on multi-indices of length m+1.  Drops the
    zero terms and checks nothing else."""
    p = object.__new__(CliffordPoly)
    p.m = m
    p.terms = {alpha: mv for alpha, mv in terms.items() if not mv.is_zero()}
    return p


def _times_term(P, shift, mv, left):
    """P times the one-term polynomial x^shift mv, mv on the left if `left`.
    Adding `shift` to the multi-indices is injective, so no two products
    land on one term."""
    if len(mv.terms) == 1 and 0 in mv.terms:
        out = P._scaled(mv.terms[0]).terms
    elif left:
        out = {a: mv * ma for a, ma in P.terms.items()}
    else:
        out = {a: ma * mv for a, ma in P.terms.items()}
    if any(shift):
        out = {tuple(x + y for x, y in zip(a, shift)): ma for a, ma in out.items()}
    return _cliffordpoly(P.m, out)


def _unit(i, m, k=1):
    """The multi-index of x_i^k."""
    return tuple(k if j == i else 0 for j in range(m + 1))


def vector_variable(m):
    """The vector variable: sum of x_i e_i over i = 1..m."""
    return _cliffordpoly(m, {_unit(i, m): Multivector.basis(i, m) for i in range(1, m + 1)})


def norm_squared(m):
    """|x|^2 = x_1^2 + ... + x_m^2; equals minus the square of the vector
    variable."""
    one = Multivector.scalar(ONE, m)
    return _cliffordpoly(m, {_unit(i, m, 2): one for i in range(1, m + 1)})


# One shared copy per (i, m) of the constants the operators multiply by.
# They are private: a caller that mutates a value from the public
# constructors above changes only its own copy.
_variable = lru_cache(maxsize=None)(CliffordPoly.variable)
_generator = lru_cache(maxsize=None)(CliffordPoly.generator)
_vector_variable = lru_cache(maxsize=None)(vector_variable)
_norm_squared = lru_cache(maxsize=None)(norm_squared)


def homogeneous_part(P, k):
    """The degree-k part of P in the multi-index grading."""
    return _cliffordpoly(P.m, {a: mv for a, mv in P.terms.items() if sum(a) == k})


def q_shift(P, i):
    """Substitute x_i -> q x_i: each term picks up q^(alpha_i)."""
    if i < 0 or i > P.m:
        raise InvalidVariable("variable index %d out of range" % i)
    out = {}
    for alpha, mv in P.terms.items():
        e = alpha[i]
        out[alpha] = mv * Q**e if e else mv
    return _cliffordpoly(P.m, out)


def evaluate_poly(P, point, q0):
    """Evaluate at a rational point and a rational q0.

    `point` lists x_1..x_m, or x_0..x_m when P involves x_0.  Returns a
    Multivector with constant coefficients.
    """
    q0 = Fraction(q0)
    if P.has_x0():
        if len(point) != P.m + 1:
            raise InvalidArgument("expected %d coordinates (x0..x%d)" % (P.m + 1, P.m))
        values = [Fraction(v) for v in point]
    else:
        if len(point) != P.m:
            raise InvalidArgument("expected %d coordinates" % P.m)
        values = [Fraction(0)] + [Fraction(v) for v in point]
    acc = Multivector.zero(P.m)
    for alpha, mv in P.terms.items():
        factor = Fraction(1)
        for v, e in zip(values, alpha):
            if e:
                factor *= v**e
        if not factor:
            continue
        evaluated = {mask: c.evaluate(q0) * factor for mask, c in mv.terms.items()}
        acc = acc + Multivector(P.m, evaluated)
    return acc
