"""Expression front end: a precedence-climbing parser for polynomial and
multivector expressions, and the lowering of its tree into the algebra.

Grammar, loosest to tightest binding: addition/subtraction, then
multiplication/division, then unary minus, then power (nonnegative
integer exponents), then atoms.  An explicit '*' is required between
factors, so x12 is variable twelve, never x1*x2.  Atoms are `q`, `xK`,
`eK`, integer literals and parenthesized expressions (`t` replaces the
variables in one-dimensional mode).  Tokens are ASCII: a literal is a run
of the digits 0-9 and a name is an ASCII letter followed by ASCII letters
and digits, so any other character outside whitespace (a superscript
digit, a non-ASCII digit or letter) is a ParseError at its position, as
is a digit run over the int-string limit (4300 digits by default).
Division is valid whenever the divisor is a scalar constant; this covers
rational literals like 1/2 and makes every canonical rendering reparse.
Parentheses and unary minus nest at most MAX_DEPTH levels deep; deeper
input is a ParseError.

The parser builds every atom as a CliffordPoly at once; its tree keeps,
as tagged tuples, only the operations whose cost lowering checks first.

Lowering checks the cost of '^' and '*' before it computes them, so
hostile input fails at once with InvalidArgument.  An exponent, and the
product of the exponents nested around any subexpression, may not exceed
MAX_EXPONENT.  A product (including every multiply and squaring step of a
power) may not exceed MAX_TERM_PAIRS term pairs: the product of the term
counts of its factors, where a term is one q-coefficient, numerator or
denominator, of one monomial-blade coefficient.
"""

from __future__ import annotations

import re

from .cpoly import CliffordPoly
from .errors import AlgebraMismatch, DivisionByZero, InvalidArgument, InvalidVariable, ParseError
from .jackson import _unipoly
from .qfield import Q, QScalar, _binary_power


#: nesting limit for parentheses and unary minus; each level costs a few
#: interpreter frames in the recursive descent and in `lower`
MAX_DEPTH = 100

#: limit on an exponent and on the product of nested exponents
MAX_EXPONENT = 1000

#: limit on the term pairs of one product; the slowest accepted products
#: (many monomials with constant coefficients, about 3.4 us a pair) take
#: about 1 s on a 2-vCPU VM with CPython 3.11
MAX_TERM_PAIRS = 300_000

#: binding strength of the binary operators
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


#: one token per match: an ASCII integer literal, an ASCII name, an
#: operator, or any other non-space character, which is an error
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S)")


def tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value, i = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ParseError("unexpected character %r" % value, i)
        tokens.append((value if kind == "op" else kind, value, i))
    tokens.append(("end", "", len(text)))
    return tokens


def _digits(text, pos):
    # int() refuses a digit run past the int-string limit (4300 digits by default)
    try:
        return int(text)
    except ValueError:
        raise ParseError("integer of %d digits is too long" % len(text), pos) from None


class _Parser:
    def __init__(self, text, m, one_dim=False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.m = m
        self.one_dim = one_dim
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] or "end"), tok[2])
        return tok

    def nest(self, pos):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("expression nests deeper than %d levels" % MAX_DEPTH, pos)

    def parse(self):
        expr = self.expr(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing %r" % tok[1], tok[2])
        return expr

    def expr(self, min_prec):
        left = self.unary()
        while True:
            kind, _, _ = self.peek()
            prec = _PRECEDENCE.get(kind)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.expr(prec + 1)
            left = (kind, left, right)

    def unary(self):
        kind, _, pos = self.peek()
        if kind == "-":
            self.advance()
            self.nest(pos)
            node = ("neg", self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            return ("^", base, _digits(tok[1], tok[2]))
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "int":
            return CliffordPoly.scalar(_digits(text, pos), self.m)
        if kind == "(":
            self.nest(pos)
            inner = self.expr(0)
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "name":
            return self.name_atom(text, pos)
        raise ParseError("unexpected %r" % (text or "end of input"), pos)

    def name_atom(self, text, pos):
        if text == "q":
            return CliffordPoly.scalar(Q, self.m)
        if self.one_dim:
            if text == "t":
                return CliffordPoly.variable(1, 1)
            raise ParseError("unknown symbol %r (expected t or q)" % text, pos)
        head, tail = text[0], text[1:]
        if head in ("x", "e") and tail.isdigit():
            index = _digits(tail, pos)
            if index > self.m:
                raise InvalidVariable(
                    "%s exceeds dimension m = %d" % (text, self.m)
                )
            if head == "x":
                return CliffordPoly.variable(index, self.m)
            return CliffordPoly.generator(index, self.m)
        raise ParseError("unknown symbol %r" % text, pos)


def parse(text, m):
    """Parse an expression over x1..xm (plus x0/e0) into a tree for
    `lower`: a CliffordPoly, ("neg", tree), (op, tree, tree) with op one
    of + - * /, or ("^", tree, n)."""
    return _Parser(text, m).parse()


def _scalar_of(P):
    """Extract a QScalar from a constant scalar-blade polynomial."""
    if P.is_zero():
        return QScalar(0)
    if list(P.terms) == [(0,) * (P.m + 1)]:
        mv = P.constant_coefficient()
        if mv.is_scalar():
            return mv.scalar_part()
    raise InvalidArgument("divisor must be a scalar constant, got %s" % P)


def _terms(P):
    return sum(len(c.num.ints) + len(c.den.ints)
               for mv in P.terms.values() for c in mv.terms.values())


def _product(left, right):
    pairs = _terms(left) * _terms(right)
    if pairs > MAX_TERM_PAIRS:
        raise InvalidArgument("product of %d term pairs exceeds the limit of %d"
                              % (pairs, MAX_TERM_PAIRS))
    return left * right


def _binop(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return _product(left, right)
    divisor = _scalar_of(right)
    if divisor.is_zero():
        raise DivisionByZero("division by zero expression")
    return left * (QScalar(1) / divisor)


def lower(expr, m, scale=1):
    """Evaluate a tree from `parse` in the polynomial algebra.  scale is
    the product of the exponents around expr.  The tree's leaves must be
    polynomials in m variables."""
    if not isinstance(expr, tuple):
        if expr.m != m:
            raise AlgebraMismatch("expression over dimension %d lowered at m = %d"
                                  % (expr.m, m))
        return expr
    if expr[0] == "neg":
        return -lower(expr[1], m, scale)
    if expr[0] == "^":
        _, base, n = expr
        if n > MAX_EXPONENT:
            raise InvalidArgument("exponent %d exceeds the limit of %d" % (n, MAX_EXPONENT))
        if scale * n > MAX_EXPONENT:
            raise InvalidArgument("nested exponents multiply to %d, over the limit of %d"
                                  % (scale * n, MAX_EXPONENT))
        return _binary_power(lower(base, m, scale * n), n, CliffordPoly.one(m), _product)
    # a chain like a + b + c nests to the left as deep as it is long,
    # so walk that spine in a loop
    spine = []
    while isinstance(expr, tuple) and expr[0] in _PRECEDENCE:
        spine.append(expr)
        expr = expr[1]
    acc = lower(expr, m, scale)
    for op, _, right in reversed(spine):
        acc = _binop(op, acc, lower(right, m, scale))
    return acc


def parse_poly(text, m):
    """Parse and lower in one step."""
    return lower(parse(text, m), m)


def parse_unipoly(text):
    """Parse a one-dimensional expression in t into a UniPoly.  Its only
    symbols are t and q, so the lowered polynomial is scalar-valued."""
    return _unipoly(lower(_Parser(text, 1, one_dim=True).parse(), 1))
