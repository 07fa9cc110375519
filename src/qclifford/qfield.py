"""Exact arithmetic in Q(q), the field of rational functions in the
deformation parameter q.

`QPoly` is a dense univariate polynomial over the rationals; `QScalar` is
a quotient of two of them kept canonical (fully reduced, monic
denominator), so equal field elements are structurally identical.  The
q-combinatorial quantities [u]_q, [k]_q! and the Gaussian binomials live
here as well.  Every coefficient elsewhere in the package is a QScalar.

q is treated as a formal parameter: identities are exact in Q(q) and
numeric evaluation rejects poles instead of taking limits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import _polyarith as pa
from .errors import DivisionByZero, InvalidArgument, PoleAtEvaluationPoint


class QPoly:
    """Polynomial in q with rational coefficients, lowest degree first.

    Trailing zeros are stripped on construction, so the zero polynomial is
    the empty tuple and equality is tuple equality.

    >>> str(QPoly([1, 1]) * QPoly([-1, 1]))
    '-1 + q^2'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == _ONE_COEFFS

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO_POLY
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return QPoly(out)

    def __pow__(self, n):
        if n < 0:
            raise InvalidArgument("negative power of a polynomial")
        result = _ONE_POLY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scaled(self, f):
        """Multiply every coefficient by the rational f."""
        f = Fraction(f)
        if not f:
            return _ZERO_POLY
        return QPoly(tuple(c * f for c in self.coeffs))

    def times_q_power(self, k):
        if not self.coeffs:
            return _ZERO_POLY
        return QPoly((Fraction(0),) * k + self.coeffs)

    def evaluate(self, q0):
        """Exact value at q = q0 (Horner)."""
        q0 = Fraction(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            a = abs(c)
            if k == 0:
                body = str(a)
            else:
                power = "q" if k == 1 else "q^%d" % k
                body = power if a == 1 else "%s*%s" % (a, power)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    __repr__ = __str__


_ZERO_POLY = QPoly()
_ONE_POLY = QPoly((1,))
_ONE_COEFFS = (Fraction(1),)
_Q_POLY = QPoly((0, 1))


def _to_int_poly(p):
    """Split p into (primitive integer list, rational content)."""
    if not p.coeffs:
        return [], Fraction(0)
    denom = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = pa.content(ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints], Fraction(g, denom)


def _from_int_poly(ints, cont):
    return QPoly(tuple(Fraction(c) * cont for c in ints))


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

    >>> QScalar(QPoly([-1, 0, 1]), QPoly([-1, 1]))    # (q^2-1)/(q-1)
    1 + q
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _as_qpoly(num)
        den = _as_qpoly(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in Q(q)")
        if num.is_zero():
            self.num = _ZERO_POLY
            self.den = _ONE_POLY
            return
        if not den.is_one():
            if den.degree == 0:
                num = num.scaled(1 / den.coeffs[0])
                den = _ONE_POLY
            else:
                n_int, n_cont = _to_int_poly(num)
                d_int, d_cont = _to_int_poly(den)
                g = pa.gcd(n_int, d_int)
                if len(g) > 1:
                    n_int = pa.divexact(n_int, g)
                    d_int = pa.divexact(d_int, g)
                cont = n_cont / d_cont
                num = QPoly(tuple(Fraction(c) * cont for c in n_int))
                den = QPoly(tuple(Fraction(c) for c in d_int))
                lead = den.leading()
                if lead != 1:
                    num = num.scaled(1 / lead)
                    den = den.scaled(1 / lead)
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den.is_one()

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return QScalar(QPoly((x,)))
        if isinstance(x, QPoly):
            return QScalar(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return QScalar(self.num + other.num)
        if self.den == other.den:
            return QScalar(self.num + other.num, self.den)
        return QScalar(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QScalar(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return QScalar(self.num * other.num)
        return QScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero in Q(q)")
        return QScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero in Q(q)")
            return QScalar(self.den, self.num) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.is_one() and self.num.degree <= 0:
            # a constant equals its int/Fraction value, so it hashes like it
            return hash(self.num.leading())
        return hash((self.num.coeffs, self.den.coeffs))

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
        rn = QPoly(tuple(reversed(self.num.coeffs)))
        rd = QPoly(tuple(reversed(self.den.coeffs)))
        shift = self.den.degree - self.num.degree
        if shift >= 0:
            return QScalar(rn.times_q_power(shift), rd)
        return QScalar(rn, rd.times_q_power(-shift))

    def as_fraction(self):
        """The value as a plain rational; requires a constant element."""
        if self.den.is_one() and self.num.degree <= 0:
            return self.num.coeffs[0] if self.num.coeffs else Fraction(0)
        raise InvalidArgument("%s is not a constant" % self)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num_s = str(self.num)
        den_s = str(self.den)
        if " " in num_s:
            num_s = "(%s)" % num_s
        if " " in den_s:
            den_s = "(%s)" % den_s
        return "%s/%s" % (num_s, den_s)

    __repr__ = __str__


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
