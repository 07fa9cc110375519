"""Dense integer-coefficient polynomial helpers.

Polynomials are plain lists of ints, lowest degree first, no trailing
zeros; the zero polynomial is the empty list.  Shared by the Q(q)
canonicalization (primitive-PRS gcd) and the fraction-free solver.
"""

from __future__ import annotations

from math import gcd as int_gcd


def trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def deg(cs):
    return len(cs) - 1


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return trim(out)


def neg(a):
    return [-c for c in a]


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def mul_int(a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def content(a):
    g = 0
    for c in a:
        g = int_gcd(g, c)
        if g == 1:
            break
    return g


def primitive(a):
    """Content-free copy with positive leading coefficient."""
    if not a:
        return []
    g = content(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def pseudo_rem(a, b):
    """Remainder of a scaled copy of a modulo b, all-integer.

    Equals lc(b)^s * a mod b for some s, which is all the primitive PRS
    needs since the result is re-primitivized anyway.
    """
    if not b:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    r = list(a)
    db = deg(b)
    lb = b[-1]
    while r and deg(r) >= db:
        dr = deg(r)
        lead = r[-1]
        r = [lb * c for c in r]
        for j in range(len(b)):
            r[dr - db + j] -= lead * b[j]
        trim(r)
    return r


def gcd(a, b):
    """Primitive gcd via the primitive polynomial remainder sequence."""
    if (len(a) == 1 and b) or (len(b) == 1 and a):
        return [1]  # a nonzero constant is a unit
    a = primitive(a)
    b = primitive(b)
    while b:
        a, b = b, primitive(pseudo_rem(a, b))
    return a


def divexact(a, b):
    """Exact quotient a // b over Z[q]; raises if the division is inexact."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    da, db = deg(a), deg(b)
    if da < db:
        raise ArithmeticError("inexact polynomial division")
    r = list(a)
    out = [0] * (da - db + 1)
    lb = b[-1]
    for k in range(da - db, -1, -1):
        c = r[db + k]
        if c == 0:
            continue
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        f = c // lb
        out[k] = f
        for j in range(len(b)):
            r[k + j] -= f * b[j]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return trim(out)
