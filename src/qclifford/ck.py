"""Cauchy-Kovalevskaya extension: the unique monogenic extension of a
polynomial on R^m to R^(m+1), built over the algebra extended by e0 with
e0^2 = -1.

The extension of f is the finite sum over k of
x0^k (conj(e0) D)^k f / [k]_q!, which terminates because each Dirac
application drops the total degree by one.
"""

from __future__ import annotations

from .clifford import Multivector
from .cpoly import CliffordPoly
from .errors import SingularSystem, UsesExtendedAlgebra
from .qfield import ONE, q_factorial
from .qops import _dirac_vector_part, q_partial


def e0bar(m):
    """conj(e0) = -e0 as a constant polynomial."""
    return CliffordPoly.from_multivector(-Multivector.basis(0, m))


def extended_dirac(F):
    """Dirac operator on R^(m+1): -e0 d0^q plus the vector part."""
    e0 = CliffordPoly.generator(0, F.m)
    return -(e0 * q_partial(F, 0)) + _dirac_vector_part(F)


def ck_extend(f):
    """The monogenic extension f* with f*|_{x0=0} = f."""
    if f.has_x0() or f.has_e0():
        raise UsesExtendedAlgebra("input must be a polynomial over x1..xm")
    m = f.m
    ebar = e0bar(m)
    x0 = CliffordPoly.variable(0, m)
    bound = f.total_degree() + 1
    acc = CliffordPoly.zero(m)
    power = CliffordPoly.one(m)
    g = f
    k = 0
    while not g.is_zero():
        if k > bound:
            raise SingularSystem("CK series failed to terminate at the input degree")
        acc = acc + (ONE / q_factorial(k)) * power * g
        g = ebar * _dirac_vector_part(g)
        power = power * x0
        k += 1
    return acc


def restrict_x0(F):
    """Substitute x0 = 0: drop every term with a positive x0 exponent."""
    terms = {a: mv for a, mv in F.terms.items() if a[0] == 0}
    return CliffordPoly(F.m, terms)
