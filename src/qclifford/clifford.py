"""The Clifford algebra Cl(0,m) with generators e_1..e_m satisfying
e_i e_j + e_j e_i = -2 delta_ij, plus an optional extra generator e0 with
e0^2 = -1 used by the Cauchy-Kovalevskaya extension.

A blade is a product of distinct generators, encoded as a bitmask (bit i
set means e_i is present; bit 0 is reserved for e0).  A Multivector is a
sparse map from blade masks to QScalar coefficients.  The public
constructor validates its input; the operators build their results
through `_multivector` without re-validating them, since valid operands
give valid results.
"""

from __future__ import annotations

from .errors import AlgebraMismatch, InvalidArgument, InvalidVariable
from .qfield import ONE, ZERO, QPoly, QScalar, _as_qscalar


def reorder_swaps(a, b):
    """Transpositions needed to interleave-sort the blade product e_A e_B.

    Counts pairs (i in A, j in B) with i > j; each such pair is one
    generator crossing.
    """
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return swaps


def blade_product(a, b):
    """Product of two basis blades: returns (sign, mask).

    Sign is (-1)^(crossings) times (-1) for every repeated generator pair
    (all generators square to -1, including e0).
    """
    sign = -1 if (reorder_swaps(a, b) + (a & b).bit_count()) & 1 else 1
    return sign, a ^ b


def blade_str(mask):
    if mask == 0:
        return "1"
    return "*".join("e%d" % i for i in range(mask.bit_length()) if mask >> i & 1)


def _conjugation_sign(mask):
    # conjugate(e_A) = (-1)^(k(k+1)/2) e_A for a grade-k blade
    k = mask.bit_count()
    return -1 if k % 4 in (1, 2) else 1


class Multivector:
    """Sparse element of Cl(0,m): blade mask -> QScalar, no zero terms.

    >>> e1, e2 = Multivector.basis(1, 2), Multivector.basis(2, 2)
    >>> str(e2 * e1)
    '-e1*e2'
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        if m < 1:
            raise InvalidArgument("dimension m must be positive")
        self.m = m
        clean = {}
        if terms:
            for mask, coeff in terms.items():
                if not isinstance(coeff, QScalar):
                    coeff = QScalar(QPoly((coeff,)))
                if coeff.is_zero():
                    continue
                if mask >> (m + 1):
                    raise InvalidVariable(
                        "blade %s exceeds dimension %d" % (blade_str(mask), m)
                    )
                clean[mask] = coeff
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def scalar(cls, value, m):
        return cls(m, {0: value})

    @classmethod
    def basis(cls, i, m):
        """The generator e_i (e0 for i = 0)."""
        if i < 0 or i > m:
            raise InvalidVariable("generator index %d out of range" % i)
        return cls(m, {1 << i: ONE})

    @classmethod
    def blade(cls, mask, m):
        return cls(m, {mask: ONE})

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return not self.terms or set(self.terms) == {0}

    def coefficient(self, mask):
        return self.terms.get(mask, ZERO)

    def scalar_part(self):
        """Coefficient of the identity blade."""
        return self.terms.get(0, ZERO)

    def conjugate(self):
        """Clifford conjugation: the anti-automorphism with e_i -> -e_i."""
        out = {}
        for mask, c in self.terms.items():
            out[mask] = -c if _conjugation_sign(mask) < 0 else c
        return _multivector(self.m, out)

    def _compat(self, other):
        if self.m != other.m:
            raise AlgebraMismatch(
                "multivectors over Cl(0,%d) and Cl(0,%d)" % (self.m, other.m)
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            cur = out.get(mask)
            out[mask] = c if cur is None else cur + c
        return _multivector(self.m, out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            cur = out.get(mask)
            out[mask] = -c if cur is None else cur - c
        return _multivector(self.m, out)

    def __neg__(self):
        return _multivector(self.m, {mask: -c for mask, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._compat(other)
            out = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    sign, mask = blade_product(ma, mb)
                    c = ca * cb
                    if sign < 0:
                        c = -c
                    if mask in out:
                        out[mask] = out[mask] + c
                    else:
                        out[mask] = c
            return _multivector(self.m, out)
        s = _as_qscalar(other)
        if s is None:
            return NotImplemented
        return self._scaled(s)

    # only a scalar reaches __rmul__ (a Multivector or CliffordPoly on the
    # left multiplies first), and scalars are central
    __rmul__ = __mul__

    def _scaled(self, s):
        return _multivector(self.m, {mask: c * s for mask, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            s = _as_qscalar(other)
            if s is None:
                return NotImplemented
            other = Multivector.scalar(s, self.m)
        return self.m == other.m and self.terms == other.terms

    def __str__(self):
        from .render import render_multivector

        return render_multivector(self)

    __repr__ = __str__


def _multivector(m, terms):
    """The Multivector over Cl(0,m) with an operator's result terms: QScalar
    coefficients on blades of Cl(0,m).  Drops the zero terms and checks
    nothing else."""
    mv = object.__new__(Multivector)
    mv.m = m
    mv.terms = {mask: c for mask, c in terms.items() if not c.is_zero()}
    return mv


def geometric_product(a, b):
    return a * b


def conjugate(a):
    return a.conjugate()


def scalar_part(a):
    return a.scalar_part()
