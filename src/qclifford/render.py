"""Canonical text rendering of every value: q-polynomials, elements of
Q(q), multivectors and Clifford-valued polynomials.

One fixed form for every value so that string equality is usable in tests
and every rendered expression reparses to an equal value: terms ordered by
the graded multi-index key then blade mask (q-polynomials by ascending
power), factors joined with '*', signs joined as ' + ' and ' - ', and
composite coefficients parenthesized.
"""

from __future__ import annotations

from .clifford import blade_str
from .cpoly import term_sort_key


def _grouped(s, marks=" "):
    """s in parentheses if it holds any of `marks`; a sum holds a space."""
    return "(%s)" % s if any(c in s for c in marks) else s


def _power_str(name, e):
    return name if e == 1 else "%s^%d" % (name, e)


def _join(signed_bodies):
    """The (negative, body) pairs joined by ' + ' and ' - '; no pairs is 0."""
    text = " ".join(("- " if neg else "+ ") + body for neg, body in signed_bodies)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render_qpoly(p):
    """The terms c*q^k of a QPoly by ascending k."""
    out = []
    for k, c in enumerate(p.coeffs):
        if c:
            a, power = abs(c), _power_str("q", k)
            body = str(a) if not k else power if a == 1 else "%s*%s" % (a, power)
            out.append((c < 0, body))
    return _join(out)


def render_qscalar(c):
    """num/den, each side parenthesized if it is a sum."""
    if c.den.is_one():
        return render_qpoly(c.num)
    return "%s/%s" % (_grouped(render_qpoly(c.num)), _grouped(render_qpoly(c.den)))


def _coefficient_sign_split(c):
    """Pull the sign out of monomial-like coefficients only.

    Returns (negative, magnitude).  Composite coefficients (several terms,
    or a genuine denominator) keep their sign inside and render in parens.
    """
    if c.den.is_one() and sum(1 for x in c.num.ints if x) == 1:
        if c.num.ints[-1] < 0:
            return True, -c
    return False, c


def _signed_terms(mv, var_factors):
    """The (negative, body) pairs of the terms c*var_factors*e_A of a
    Multivector's coefficients, by ascending blade mask."""
    for mask in sorted(mv.terms):
        neg, coeff = _coefficient_sign_split(mv.terms[mask])
        pieces = var_factors + [blade_str(mask)] if mask else var_factors
        if not pieces:
            body = render_qscalar(coeff)
        elif coeff.is_one():
            body = "*".join(pieces)
        else:
            body = "*".join([_grouped(render_qscalar(coeff), " /")] + pieces)
        yield neg, body


def render_multivector(mv):
    return _join(_signed_terms(mv, []))


def _render_terms(P, names):
    """The terms of P in the graded order, variable i printed as names[i]."""
    out = []
    for alpha in sorted(P.terms, key=term_sort_key):
        var_factors = [_power_str(names[i], e) for i, e in enumerate(alpha) if e]
        out.extend(_signed_terms(P.terms[alpha], var_factors))
    return _join(out)


def render_poly(P):
    return _render_terms(P, ["x%d" % i for i in range(P.m + 1)])


def render_unipoly(f):
    """A polynomial in t: the m = 1 polynomial with x1 printed as t."""
    return _render_terms(f, ("x0", "t"))
