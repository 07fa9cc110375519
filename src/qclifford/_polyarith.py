"""Dense integer-coefficient polynomial helpers.

Polynomials are plain lists of ints, lowest degree first, no trailing
zeros; the zero polynomial is the empty list.  Shared by the Q(q)
canonicalization and, through `_value` and `_digits`, the fraction-free
solver, which runs at one point.  `gcd` is the heuristic gcd GCDHEU: one
integer gcd of two values, read back as a polynomial, and it returns the
cofactors it proves it with, so a caller never divides by the gcd a
second time.
"""

from __future__ import annotations

from math import gcd as int_gcd
from math import isqrt


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


def _signed_content(a):
    """The content of a nonzero a, with the sign of its leading coefficient."""
    g = content(a)
    return -g if a[-1] < 0 else g


def primitive(a):
    """Content-free copy with positive leading coefficient."""
    if not a:
        return []
    g = _signed_content(a)
    return [c // g for c in a]


def _value(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _digits(h, x):
    """The symmetric base-x digits of h, digits in (-x/2, x/2]."""
    out = []
    half = x >> 1
    while h:
        h, d = divmod(h, x)
        if d > half:
            d -= x
            h += 1
        out.append(d)
    return out


def gcd(a, b):
    """Primitive gcd of a and b with its cofactors: (g, a // g, b // g).

    g has content 1 and a positive leading coefficient.  A nonzero
    constant input gives ([1], a, b) at once; gcd([], b) is the primitive
    part of b; gcd([], []) is ([], [], []).

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989): with
    a = ca*A and b = cb*B for primitive A, B and signed contents ca, cb,
    take h = gcd(A(x), B(x)) over the integers at one point
    x >= 2*min(|A|_inf, |B|_inf) + 2 and let G be the primitive part of
    the polynomial whose coefficients are the symmetric base-x digits of h.

    Correct: if G divides both A and B, then G is their gcd (Geddes,
    Czapor & Labahn, Algorithms for Computer Algebra, 7.7).  The exact
    divisions that check this are the cofactors returned.

    Stops: write A = C*A', B = C*B' with C the true gcd.  Then
    h = |C(x)| * gcd(A'(x), B'(x)), and the second factor divides the
    resultant of the coprime A' and B', a constant.  Once x outgrows that
    spurious factor times the coefficients of C, the digits of h are
    +-c*C exactly and G = C; each retry grows x by a factor of about
    2.7 * x^(1/4).
    """
    if (len(a) == 1 and b) or (len(b) == 1 and a):
        return [1], a, b  # a nonzero constant is a unit
    if not a or not b:
        g = primitive(a or b)
        if not g:
            return [], [], []
        unit = [(a or b)[-1] // g[-1]]
        return (g, [], unit) if not a else (g, unit, [])
    ca, cb = _signed_content(a), _signed_content(b)
    A = a if ca == 1 else [c // ca for c in a]
    B = b if cb == 1 else [c // cb for c in b]
    x = 2 * min(max(map(abs, A)), max(map(abs, B))) + 29
    while True:
        g = primitive(_digits(int_gcd(_value(A, x), _value(B, x)), x))
        if g == [1]:
            return g, a, b
        try:
            qa, qb = divexact(A, g), divexact(B, g)
        except ArithmeticError:
            pass
        else:
            return g, mul_int(qa, ca), mul_int(qb, cb)
        x = x * 73794 * isqrt(isqrt(x)) // 27011


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
