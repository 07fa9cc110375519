"""Exact arithmetic in Q(q), the field of rational functions in the
deformation parameter q.

`QPoly` is a dense univariate polynomial over the rationals, held as an
integer coefficient list over one positive common denominator, so all
polynomial arithmetic runs in Z[q] on the kernel in `_polyarith`.
`QScalar` is a quotient of two of them kept canonical (fully reduced,
monic denominator), so equal field elements are structurally identical.
`QScalar(num, den)` is the one full canonicalisation; the operators start
from canonical operands and do only the work those leave open (Henrici's
cross-cancelling add and multiply: Knuth, TAOCP vol. 2, 4.5.1).  Every
cancellation is one call of the heuristic gcd `_polyarith.gcd`, whose
cofactors are the reduced operands, so no gcd is divided out twice.
The q-combinatorial quantities [u]_q, [k]_q! and the Gaussian binomials
live here as well.  Every coefficient elsewhere in the package is a QScalar;
`_as_qscalar` alone decides which arithmetic operands are scalars (QScalar,
int, Fraction), and `_binary_power` is the one repeated squaring.  The
text form of both types is written by `render`, like that of every value.

q is treated as a formal parameter: identities are exact in Q(q) and
numeric evaluation rejects poles instead of taking limits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from . import _polyarith as pa
from .errors import DivisionByZero, InvalidArgument, PoleAtEvaluationPoint


class QPoly:
    """Polynomial in q with rational coefficients, lowest degree first.

    Stored as the pair (ints, d): the coefficients are ints[k] / d, where
    ints is a tuple of ints without trailing zeros, d is a positive int and
    gcd(content(ints), d) == 1.  The zero polynomial is ((), 1).  The pair
    is unique, so equality and hashing are pair equality, and the
    arithmetic runs on the integer lists of `_polyarith`.  `coeffs` is a
    read-only view of the rational coefficients.

    >>> str(QPoly([1, 1]) * QPoly([-1, 1]))
    '-1 + q^2'
    >>> p = QPoly([Fraction(1, 2), Fraction(1, 3)])
    >>> p.ints, p.d
    ((3, 2), 6)
    """

    __slots__ = ("ints", "d")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        # over the lcm of reduced denominators the content is prime to d
        self.ints = tuple(pa.trim([c.numerator * (d // c.denominator) for c in cs]))
        self.d = d

    @property
    def coeffs(self):
        d = self.d
        return tuple(Fraction(c, d) for c in self.ints)

    @property
    def degree(self):
        return len(self.ints) - 1

    def is_zero(self):
        return not self.ints

    def is_one(self):
        return self.d == 1 and self.ints == (1,)

    def leading(self):
        return Fraction(self.ints[-1], self.d) if self.ints else Fraction(0)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.ints == other.ints and self.d == other.d
        return NotImplemented

    def __hash__(self):
        return hash((self.ints, self.d))

    def __neg__(self):
        # negation keeps the content, so ints/d stays reduced
        p = object.__new__(QPoly)
        p.ints = tuple(pa.neg(self.ints))
        p.d = self.d
        return p

    # the operators read other's pair inside a try: an operand without one
    # is not a QPoly, and the check costs nothing when it is
    def __add__(self, other):
        try:
            ints, b = other.ints, other.d
        except AttributeError:
            return NotImplemented
        a = self.d
        if a == b:
            return _qpoly(pa.add(self.ints, ints), a)
        d = lcm(a, b)
        return _qpoly(pa.add(pa.mul_int(self.ints, d // a), pa.mul_int(ints, d // b)), d)

    def __sub__(self, other):
        try:
            ints, b = other.ints, other.d
        except AttributeError:
            return NotImplemented
        a = self.d
        if a == b:
            return _qpoly(pa.sub(self.ints, ints), a)
        d = lcm(a, b)
        return _qpoly(pa.sub(pa.mul_int(self.ints, d // a), pa.mul_int(ints, d // b)), d)

    def __mul__(self, other):
        try:
            ints, d = other.ints, other.d
        except AttributeError:
            return NotImplemented
        return _qpoly(pa.mul(self.ints, ints), self.d * d)

    def times_q_power(self, k):
        if not self.ints:
            return _ZERO_POLY
        return _qpoly((0,) * k + self.ints, self.d)

    def evaluate(self, q0):
        """Exact value at q = q0 (Horner on the integers, one division)."""
        q0 = Fraction(q0)
        p, r = q0.numerator, q0.denominator
        acc = 0
        for k, c in enumerate(reversed(self.ints)):
            acc = acc * p + c * r**k
        return Fraction(acc, r ** max(self.degree, 0) * self.d)

    def __str__(self):
        from .render import render_qpoly

        return render_qpoly(self)

    __repr__ = __str__


def _qpoly(ints, d=1):
    """The QPoly ints/d from a trimmed int sequence and a positive d,
    reduced by the gcd of the content and d."""
    if d != 1:
        g = gcd(d, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            d //= g
    p = object.__new__(QPoly)
    p.ints = tuple(ints)
    p.d = d
    return p


_ZERO_POLY = QPoly()
_ONE_POLY = QPoly((1,))
_Q_POLY = QPoly((0, 1))


def _as_qpoly(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly((x,))
    raise TypeError("cannot interpret %r as a polynomial in q" % (x,))


class QScalar:
    """Element of Q(q) in canonical form.

    num/den are fully reduced (their gcd is a unit) and den is monic, so
    two equal field elements compare equal component-wise.

    The constructor canonicalises an arbitrary pair with a full gcd.  The
    operators rely on their operands being canonical instead: negation
    runs no gcd; a product with 1 is the other operand, and any other
    product cancels gcd(num_a, den_b) and gcd(num_b, den_a)
    and rescales the denominator to monic; a sum over coprime denominators
    is already reduced, and otherwise only gcd(t, gcd(den_a, den_b)) can
    cancel from its numerator t; a difference adds the negated numerator,
    and a quotient is a product by the inverse.

    >>> QScalar(QPoly([-1, 0, 1]), QPoly([-1, 1]))    # (q^2-1)/(q-1)
    1 + q
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=_ONE_POLY):
        num = _as_qpoly(num)
        den = _as_qpoly(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in Q(q)")
        if num.is_zero():
            self.num = _ZERO_POLY
            self.den = _ONE_POLY
            return
        if not den.is_one():
            n_int, d_int = num.ints, den.ints
            if den.degree > 0:
                _, n_int, d_int = pa.gcd(n_int, d_int)
            num, den = _monic(n_int, num.d, d_int, den.d)
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        return _add(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.num, self.den)

    def __sub__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        return _add(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        return _add(other.num, other.den, -self.num, self.den)

    def __mul__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        if self.is_one():
            return other
        if other.is_one():
            return self
        na, da, nb, db = self.num, self.den, other.num, other.den
        if not na or not nb:
            return ZERO
        if da.is_one() and db.is_one():
            return _canonical(na * nb, _ONE_POLY)
        # Henrici: cross-cancel na against db and nb against da
        a_int, da_int, b_int, db_int = na.ints, da.ints, nb.ints, db.ints
        if not db.is_one():
            _, a_int, db_int = pa.gcd(a_int, db_int)
        if not da.is_one():
            _, b_int, da_int = pa.gcd(b_int, da_int)
        return _canonical(*_monic(pa.mul(a_int, b_int), na.d * nb.d,
                                  pa.mul(da_int, db_int), da.d * db.d))

    __rmul__ = __mul__

    def _inverse(self):
        if self.is_zero():
            raise DivisionByZero("division by zero in Q(q)")
        num, den = self.num, self.den
        return _canonical(*_monic(den.ints, den.d, num.ints, num.d))

    def __truediv__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero in Q(q)")
            return self._inverse() ** (-n)
        return _binary_power(self, n, ONE, mul)

    def __eq__(self, other):
        other = _as_qscalar(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.is_one() and self.num.degree <= 0:
            # a constant equals its int/Fraction value, so it hashes like it
            return hash(self.num.leading())
        return hash((self.num, self.den))

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, q0):
        """Exact rational value of the canonical form at q = q0."""
        d = self.den.evaluate(q0)
        if not d:
            raise PoleAtEvaluationPoint("denominator vanishes at q = %s" % q0)
        return self.num.evaluate(q0) / d

    def subst_qinv(self):
        """Substitute q -> 1/q, staying in Q(q)."""
        if self.is_zero():
            return ZERO
        rn = _qpoly(pa.trim(list(reversed(self.num.ints))), self.num.d)
        rd = _qpoly(pa.trim(list(reversed(self.den.ints))), self.den.d)
        shift = self.den.degree - self.num.degree
        if shift >= 0:
            return QScalar(rn.times_q_power(shift), rd)
        return QScalar(rn, rd.times_q_power(-shift))

    def __str__(self):
        from .render import render_qscalar

        return render_qscalar(self)

    __repr__ = __str__


def _as_qscalar(x):
    """The QScalar an arithmetic operand stands for: x itself, or the
    constant x for an int or Fraction; None for any other operand."""
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar(QPoly((x,)))
    return None


def _add(na, da, nb, db):
    """The QScalar na/da + nb/db for canonical pairs na/da and nb/db."""
    if da.is_one():
        if db.is_one():
            return _canonical(na + nb, _ONE_POLY)
        return _canonical(na * db + nb, db)
    if db.is_one():
        return _canonical(nb * da + na, da)
    if da == db:
        t = na + nb
        if not t:
            return ZERO
        g, t_g, da_g = pa.gcd(t.ints, da.ints)
        if len(g) == 1:
            return _canonical(t, da)
        return _canonical(*_monic(t_g, t.d, da_g, da.d))
    g, da_g_int, db_g_int = pa.gcd(da.ints, db.ints)
    if len(g) == 1:
        return _canonical(na * db + nb * da, da * db)
    # Henrici: only a factor of g can cancel from the sum
    db_g = _qpoly(db_g_int, db.d)
    t = na * db_g + nb * _qpoly(da_g_int, da.d)
    h, t_int, g_h = pa.gcd(t.ints, g)
    # da / h = (g / h) * (da / g)
    da_int = da.ints if len(h) == 1 else pa.mul(g_h, da_g_int)
    return _canonical(*_monic(t_int, t.d, pa.mul(da_int, db_g.ints), da.d * db_g.d))


def _binary_power(base, n, unit, mul):
    """base^n for n >= 0 by repeated squaring (Knuth, TAOCP vol. 2, 4.6.3):
    from `unit`, one `mul` per set bit of n and one squaring per further bit."""
    result = unit
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _monic(n_int, n_d, d_int, d_d):
    """The QPoly pair of (n_int / n_d) / (d_int / d_d), rescaled so the
    denominator is monic; n_int and d_int are nonzero, trimmed and prime to
    each other in Q[q]."""
    lead = d_int[-1]
    if lead < 0:
        n_int, d_int, lead = pa.neg(n_int), pa.neg(d_int), -lead
    # both sides divided by lead / d_d
    return _qpoly(pa.mul_int(n_int, d_d), n_d * lead), _qpoly(d_int, lead)


def _canonical(num, den):
    """The QScalar num/den from a pair that is already canonical: reduced,
    den monic, and den == 1 if num == 0.  Runs no gcd."""
    s = object.__new__(QScalar)
    s.num = num
    s.den = den
    return s


ZERO = QScalar(0)
ONE = QScalar(1)
Q = QScalar(_Q_POLY)


@lru_cache(maxsize=None)
def q_bracket(u):
    """[u]_q = 1 + q + ... + q^(u-1); [0]_q = 0."""
    if u < 0:
        raise InvalidArgument("q-bracket of a negative integer")
    return QScalar(QPoly((1,) * u))


@lru_cache(maxsize=None)
def q_factorial(k):
    """[k]_q! = [k]_q [k-1]_q ... [1]_q with [0]_q! = 1."""
    if k < 0:
        raise InvalidArgument("q-factorial of a negative integer")
    if k == 0:
        return ONE
    return q_factorial(k - 1) * q_bracket(k)


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Gaussian binomial [n]_q! / ([n-k]_q! [k]_q!); a polynomial in q."""
    if n < 0 or k < 0 or k > n:
        raise InvalidArgument("q-binomial requires 0 <= k <= n")
    return q_factorial(n) / (q_factorial(n - k) * q_factorial(k))
