"""The q-deformed differential operators and the identity catalogue.

q_partial implements the monomial rule x^a -> [a]_q x^(a-1) per variable
(the difference-quotient definition is an exactly-tested equivalence, not
the implementation).  Dirac, Euler, Gamma and Laplace are maps on the
monomial terms, each written into one result: Euler is diagonal,
x^a -> (sum_i [a_i]_q) x^a, Laplace sends x^a to
sum_i [a_i]_q [a_i - 1]_q x^(a - 2 e_i), and the Dirac and Gamma sums map
the blades of each q_partial by the Clifford product sign.  Clifford
coefficients are multiplied from the left, matching the left-monogenic
convention.

check_relation evaluates one named operator identity on a concrete
polynomial and returns the residual LHS - RHS; the zero polynomial
certifies the identity on that input.
"""

from __future__ import annotations

from .clifford import _multivector, blade_product
from .cpoly import (
    CliffordPoly,
    _cliffordpoly,
    _generator,
    _norm_squared,
    _variable,
    _vector_variable,
    q_shift,
)
from .errors import InvalidArgument, InvalidVariable, UsesExtendedAlgebra
from .qfield import ZERO, Q, q_bracket


def q_partial(P, i):
    """q-partial derivative in x_i: x^a -> [a_i]_q x^(a - e_i)."""
    if i < 0 or i > P.m:
        raise InvalidVariable("variable index %d out of range" % i)
    # alpha -> alpha - e_i is injective, so no two terms meet
    out = {}
    for alpha, mv in P.terms.items():
        a = alpha[i]
        if a:
            out[alpha[:i] + (a - 1,) + alpha[i + 1:]] = mv if a == 1 else mv * q_bracket(a)
    return _cliffordpoly(P.m, out)


def _require_plain(P):
    if P.has_x0() or P.has_e0():
        raise UsesExtendedAlgebra(
            "operator is defined on x1..xm without e0; use the extension module"
        )


def _accumulate(out, alpha, blade, sign, mv):
    """Add sign * e_blade * mv to the coefficient of x^alpha in out, a map
    multi-index -> {mask: QScalar}."""
    acc = out.setdefault(alpha, {})
    for mask, c in mv.terms.items():
        s, mask = blade_product(blade, mask)
        cur = acc.get(mask)
        if s == sign:
            acc[mask] = c if cur is None else cur + c
        else:
            acc[mask] = -c if cur is None else cur - c


def _from_accumulated(m, out):
    return _cliffordpoly(m, {alpha: _multivector(m, t) for alpha, t in out.items()})


def _dirac_vector_part(P):
    """-sum_{i=1..m} e_i d_i^q, defined on extended-algebra content too."""
    out = {}
    for i in range(1, P.m + 1):
        for beta, mv in q_partial(P, i).terms.items():
            _accumulate(out, beta, 1 << i, -1, mv)
    return _from_accumulated(P.m, out)


def q_dirac(P):
    """q-Dirac operator: minus the sum of e_i times the i-th q-partial."""
    _require_plain(P)
    return _dirac_vector_part(P)


def q_euler(P):
    """q-Euler operator: sum of x_i times the i-th q-partial, which scales
    x^a by sum_i [a_i]_q."""
    out = {}
    for alpha, mv in P.terms.items():
        c = ZERO
        for a in alpha[1:]:
            if a:
                c = c + q_bracket(a)
        if c:
            out[alpha] = mv * c
    return _cliffordpoly(P.m, out)


def q_gamma(P):
    """q-Gamma (angular) operator:
    -sum_{i<j} e_i e_j (x_i d_j - x_j d_i)."""
    m = P.m
    out = {}
    for j in range(1, m + 1):
        for beta, mv in q_partial(P, j).terms.items():
            # x_i d_j enters with -e_i e_j for i < j and +e_j e_i for i > j
            for i in range(1, m + 1):
                if i != j:
                    alpha = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    _accumulate(out, alpha, (1 << i) | (1 << j), -1 if i < j else 1, mv)
    return _from_accumulated(m, out)


def q_laplace(P):
    """q-Laplace operator: sum of squared q-partials."""
    out = {}
    for alpha, mv in P.terms.items():
        for i in range(1, P.m + 1):
            a = alpha[i]
            if a > 1:
                beta = alpha[:i] + (a - 2,) + alpha[i + 1:]
                mv2 = mv * (q_bracket(a) * q_bracket(a - 1))
                cur = out.get(beta)
                out[beta] = mv2 if cur is None else cur + mv2
    return _cliffordpoly(P.m, out)


def is_monogenic(P):
    """True iff the q-Dirac operator annihilates P."""
    return q_dirac(P).is_zero()


# ---------------------------------------------------------------------------
# identity catalogue
#
# Each relation maps a polynomial (and, for the product rules, a second
# one) to a generator of per-instance residuals.  Everything is an
# operator statement evaluated on the argument: multiplication operators
# (x_i, the vector variable, |x|^2) act by polynomial multiplication.
# ---------------------------------------------------------------------------

_RELATIONS = {}
_ALIASES = {}


def _relation(name, *aliases):
    def register(fn):
        _RELATIONS[name] = fn
        for alias in aliases:
            _ALIASES[alias] = name
        return fn

    return register


_Q2 = Q * Q
_TWO = q_bracket(2)


@_relation("weyl", "weyl_i")
def _weyl(P, _):
    for i in range(1, P.m + 1):
        yield q_partial(_variable(i, P.m) * P, i) - Q * _variable(i, P.m) * q_partial(P, i) - P


@_relation("partial_var_commute", "partial_var_commute_ij")
def _partial_var_commute(P, _):
    for i in range(1, P.m + 1):
        for j in range(1, P.m + 1):
            if i != j:
                yield q_partial(_variable(i, P.m) * P, j) - _variable(i, P.m) * q_partial(P, j)


@_relation("partial_commute", "partial_commute_ij")
def _partial_commute(P, _):
    for i in range(1, P.m + 1):
        for j in range(i + 1, P.m + 1):
            yield q_partial(q_partial(P, j), i) - q_partial(q_partial(P, i), j)


@_relation("partial_xsq")
def _partial_xsq(P, _):
    for i in range(1, P.m + 1):
        xi = _variable(i, P.m)
        yield q_partial(xi * xi * P, i) - _Q2 * xi * xi * q_partial(P, i) - _TWO * xi * P


@_relation("partial_sq_x")
def _partial_sq_x(P, _):
    # second factor on the right is x_i (degree count), not x_i^2
    for i in range(1, P.m + 1):
        xi = _variable(i, P.m)
        d2 = q_partial(q_partial(P, i), i)
        yield q_partial(q_partial(xi * P, i), i) - _Q2 * xi * d2 - _TWO * q_partial(P, i)


@_relation("partial_sq_xsq")
def _partial_sq_xsq(P, _):
    # cross coefficient is (q^2 + q)[2]_q
    for i in range(1, P.m + 1):
        xi = _variable(i, P.m)
        d2 = q_partial(q_partial(P, i), i)
        yield (
            q_partial(q_partial(xi * xi * P, i), i)
            - Q**4 * xi * xi * d2
            - (_Q2 + Q) * _TWO * xi * q_partial(P, i)
            - _TWO * P
        )


@_relation("anticomm_x_x")
def _anticomm_x_x(P, _):
    xv = _vector_variable(P.m)
    yield xv * (xv * P) + xv * (xv * P) + 2 * _norm_squared(P.m) * P


@_relation("dirac_squared")
def _dirac_squared(P, _):
    yield q_dirac(q_dirac(P)) + q_laplace(P)


@_relation("anticomm_dirac_x")
def _anticomm_dirac_x(P, _):
    xv = _vector_variable(P.m)
    yield q_dirac(xv * P) + xv * q_dirac(P) - _TWO * q_euler(P) - P.m * P


@_relation("comm_euler_x")
def _comm_euler_x(P, _):
    xv = _vector_variable(P.m)
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) ** 2 * (_generator(i, P.m) * q_partial(P, i))
    yield q_euler(xv * P) - xv * q_euler(P) - xv * P - (Q - 1) * s


@_relation("comm_euler_dirac")
def _comm_euler_dirac(P, _):
    # [E, D] = -D + (q-1) sum x_i e_i d_i^2
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) * (_generator(i, P.m) * q_partial(q_partial(P, i), i))
    yield q_euler(q_dirac(P)) - q_dirac(q_euler(P)) + q_dirac(P) - (Q - 1) * s


@_relation("comm_normsq_dirac")
def _comm_normsq_dirac(P, _):
    # [|x|^2, D] = [2] x + (q^2-1) sum x_i^2 e_i d_i
    nsq = _norm_squared(P.m)
    xv = _vector_variable(P.m)
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) ** 2 * (_generator(i, P.m) * q_partial(P, i))
    yield nsq * q_dirac(P) - q_dirac(nsq * P) - _TWO * xv * P - (_Q2 - 1) * s


@_relation("comm_euler_normsq")
def _comm_euler_normsq(P, _):
    nsq = _norm_squared(P.m)
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) ** 3 * q_partial(P, i)
    yield q_euler(nsq * P) - nsq * q_euler(P) - _TWO * nsq * P - (_Q2 - 1) * s


@_relation("comm_laplace_x")
def _comm_laplace_x(P, _):
    xv = _vector_variable(P.m)
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) * (_generator(i, P.m) * q_partial(q_partial(P, i), i))
    yield q_laplace(xv * P) - xv * q_laplace(P) - (_Q2 - 1) * s + _TWO * q_dirac(P)


@_relation("comm_euler_laplace")
def _comm_euler_laplace(P, _):
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) * q_partial(q_partial(q_partial(P, i), i), i)
    yield (
        q_euler(q_laplace(P))
        - q_laplace(q_euler(P))
        - (1 - _Q2) * s
        + _TWO * q_laplace(P)
    )


@_relation("comm_laplace_normsq")
def _comm_laplace_normsq(P, _):
    # [Laplace, |x|^2] = q [2][2] E + [2] m + (q^4-1) sum x_i^2 d_i^2
    nsq = _norm_squared(P.m)
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _variable(i, P.m) ** 2 * q_partial(q_partial(P, i), i)
    yield (
        q_laplace(nsq * P)
        - nsq * q_laplace(P)
        - Q * _TWO * _TWO * q_euler(P)
        - _TWO * P.m * P
        - (Q**4 - 1) * s
    )


@_relation("gamma_def")
def _gamma_def(P, _):
    xv = _vector_variable(P.m)
    yield (
        xv * q_dirac(P)
        - q_dirac(xv * P)
        - (1 - Q) * q_euler(P)
        - 2 * q_gamma(P)
        + P.m * P
    )


@_relation("gamma_product")
def _gamma_product(P, _):
    xv = _vector_variable(P.m)
    yield xv * q_dirac(P) - q_euler(P) - q_gamma(P)


@_relation("axiom_a1")
def _axiom_a1(P, _):
    # D applied to the vector variable itself gives m (not [m]_q)
    yield q_dirac(_vector_variable(P.m)) - CliffordPoly.scalar(P.m, P.m)


@_relation("axiom_a2_replacement")
def _axiom_a2(P, _):
    xv = _vector_variable(P.m)
    xsq = xv * xv
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        for j in range(1, P.m + 1):
            if j != i:
                s = s + _variable(j, P.m) ** 2 * (_generator(i, P.m) * q_partial(P, i))
    yield (
        q_dirac(xsq * P)
        - _Q2 * xsq * q_dirac(P)
        - _TWO * xv * P
        - (1 - _Q2) * s
    )


@_relation("dirac_x2f_form1")
def _dirac_x2f_form1(P, _):
    # D(x^2 f) = [2] sum e_i x_i f(..q x_i..) + x^2 D(f); the second term
    # carries the vector variable squared, i.e. minus |x|^2
    xv = _vector_variable(P.m)
    xsq = xv * xv
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _generator(i, P.m) * (_variable(i, P.m) * q_shift(P, i))
    yield q_dirac(xsq * P) - _TWO * s - xsq * q_dirac(P)


@_relation("dirac_x2f_form2")
def _dirac_x2f_form2(P, _):
    xv = _vector_variable(P.m)
    xsq = xv * xv
    nsq = _norm_squared(P.m)
    s = CliffordPoly.zero(P.m)
    for i in range(1, P.m + 1):
        s = s + _generator(i, P.m) * (q_shift(nsq, i) * q_partial(P, i))
    yield q_dirac(xsq * P) - s - _TWO * xv * P


@_relation("leibniz_left")
def _leibniz_left(P, G):
    for i in range(1, P.m + 1):
        yield q_partial(P * G, i) - q_partial(P, i) * G - q_shift(P, i) * q_partial(G, i)


@_relation("leibniz_right")
def _leibniz_right(P, G):
    for i in range(1, P.m + 1):
        yield q_partial(P * G, i) - q_partial(P, i) * q_shift(G, i) - P * q_partial(G, i)


RELATION_NAMES = tuple(_RELATIONS)

#: the ten symmetry relations plus the two Gamma identities
SYMMETRY_RELATIONS = (
    "anticomm_x_x",
    "dirac_squared",
    "anticomm_dirac_x",
    "comm_euler_x",
    "comm_euler_dirac",
    "comm_normsq_dirac",
    "comm_euler_normsq",
    "comm_laplace_x",
    "comm_euler_laplace",
    "comm_laplace_normsq",
    "gamma_def",
    "gamma_product",
)

#: the six q-partial commutation rules
PARTIAL_RELATIONS = (
    "partial_var_commute",
    "weyl",
    "partial_commute",
    "partial_xsq",
    "partial_sq_x",
    "partial_sq_xsq",
)


def resolve_relation(name):
    key = _ALIASES.get(name, name)
    if key not in _RELATIONS:
        raise InvalidArgument(
            "unknown relation %r; known: %s" % (name, ", ".join(RELATION_NAMES))
        )
    return key


def check_relation(name, P, second=None):
    """Residual of the named identity on P (zero polynomial iff it holds).

    Indexed families are checked for every admissible index; the first
    nonzero residual is returned.  The product rules take a second
    polynomial, which defaults to P itself.
    """
    fn = _RELATIONS[resolve_relation(name)]
    if second is None:
        second = P
    for residual in fn(P, second):
        if not residual.is_zero():
            return residual
    return CliffordPoly.zero(P.m)
