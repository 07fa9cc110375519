"""Canonical text rendering.

One fixed form for every value so that string equality is usable in tests
and every rendered expression reparses to an equal value: terms ordered by
the graded multi-index key then blade mask, factors joined with '*',
composite coefficients parenthesized.
"""

from __future__ import annotations

from .clifford import blade_str


def _coefficient_sign_split(c):
    """Pull the sign out of monomial-like coefficients only.

    Returns (negative, magnitude).  Composite coefficients (several terms,
    or a genuine denominator) keep their sign inside and render in parens.
    """
    if c.den.is_one() and sum(1 for x in c.num.ints if x) == 1:
        if c.num.ints[-1] < 0:
            return True, -c
    return False, c


def _coefficient_str(c):
    s = str(c)
    if " " in s or "/" in s:
        return "(%s)" % s
    return s


def _power_str(name, e):
    return name if e == 1 else "%s^%d" % (name, e)


def _term_body(coeff, var_factors, blade_mask):
    pieces = []
    blade = blade_str(blade_mask) if blade_mask else ""
    if not var_factors and not blade:
        return str(coeff)
    if not coeff.is_one():
        pieces.append(_coefficient_str(coeff))
    pieces.extend(var_factors)
    if blade:
        pieces.append(blade)
    return "*".join(pieces)


def _join(signed_bodies):
    if not signed_bodies:
        return "0"
    neg, body = signed_bodies[0]
    chunks = ["-" + body if neg else body]
    for neg, body in signed_bodies[1:]:
        chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def render_multivector(mv):
    out = []
    for mask in sorted(mv.terms):
        neg, coeff = _coefficient_sign_split(mv.terms[mask])
        out.append((neg, _term_body(coeff, [], mask)))
    return _join(out)


def _render_terms(P, names):
    """The terms of P in the graded order, variable i printed as names[i]."""
    from .cpoly import term_sort_key

    out = []
    for alpha in sorted(P.terms, key=term_sort_key):
        var_factors = [
            _power_str(names[i], e) for i, e in enumerate(alpha) if e
        ]
        mv = P.terms[alpha]
        for mask in sorted(mv.terms):
            neg, coeff = _coefficient_sign_split(mv.terms[mask])
            out.append((neg, _term_body(coeff, var_factors, mask)))
    return _join(out)


def render_poly(P):
    return _render_terms(P, ["x%d" % i for i in range(P.m + 1)])


def render_unipoly(f):
    """A polynomial in t: the m = 1 polynomial with x1 printed as t."""
    return _render_terms(f, ("x0", "t"))
