"""Command-line front end.

Verbs: deriv, dirac, euler, gamma, laplace, fischer, ck, verify, jackson,
eval.  Every verb accepts --json to emit one machine-readable line of the
form {"command", "inputs", "result", "checks"}; the result field is the
canonical expression string, which reparses to the same value.

Exit codes: 0 success (verify: everything holds), 1 verification found a
counterexample, 2 usage or parse error, 3 internal invariant violation
or any other internal error.  No input ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import zlib
from fractions import Fraction
from math import comb, log10, prod

from . import ck as ck_mod
from . import fischer as fischer_mod
from . import jackson as jackson_mod
from . import qops
from .cpoly import evaluate_poly, vector_variable
from .errors import InvalidArgument, QCliffordError, SingularSystem
from .parser import parse_poly, parse_unipoly
from .randpoly import random_poly


#: largest `jackson exp --order`; the slower variant takes 0.4-0.9 s at
#: order 64 on a 2-vCPU VM with CPython 3.11
MAX_ORDER = 64

#: limit on n^2 * k for a degree-k `fischer` input over m variables, n =
#: C(k+m-2, m-1) being the class-0 block its solver inverts; n alone does
#: not bound the cost, since the block's q-degrees grow with k ((m, k) =
#: (2, 21), n = 21, ran over 150 s).  The slowest accepted towers, at
#: (2, 14), take 6-12 s on a 2-vCPU VM with CPython 3.11
MAX_FISCHER_WORK = 3000

#: limit on r * k^3 for a degree-k `ck` input over m variables, where
#: r = min(sum over its monomials x^alpha of prod(alpha_i + 1), C(k+m, m))
#: bounds the monomials the k Dirac passes of the series reach, whose
#: q-coefficients grow with k.  The slowest accepted input measured, x1^55,
#: takes 7.8 s on a 2-vCPU VM with CPython 3.11; x1^80 runs over 60 s
MAX_CK_WORK = 10_000_000

#: most digits the numerator or the denominator of a rational option may
#: have: CPython's int-string limit, which rendering enforces as well.  It
#: is judged from the text, since `Fraction` would expand any exponent first.
#: It also bounds the digits that `eval` and `jackson integrate` raise those
#: options to, estimated as degree times digits before computing, where
#: digits(r) = log10 max(|num r|, den r).  For `jackson integrate` that is
#: (k + 1) * digits(a or b).  For `eval` it is x-degree * digits(point) plus
#: q-degree * digits(q0), the q-degree being the largest of the numerators
#: plus the sum over the distinct denominators, whose values multiply when
#: the terms are added.  Unbounded, `eval --q0=1e4299 -- "q^1000*x1"` ran
#: over 40 s
MAX_RATIONAL_DIGITS = 4300

# the shape of a `Fraction` string: integer part, decimal part and exponent,
# or numerator and denominator
_RATIONAL_SHAPE = re.compile(
    r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:e([-+]?)([\d_]+))?(?:\s*/\s*([\d_]+))?\s*\Z",
    re.IGNORECASE,
)


class InternalInvariantViolation(Exception):
    """A result the library guarantees failed to hold."""


def _too_many_digits(text):
    """Whether Fraction(text) would have a numerator or a denominator of
    more than MAX_RATIONAL_DIGITS digits, judged from the digits written
    and the exponent before reduction."""
    shape = _RATIONAL_SHAPE.match(text)
    if not shape:
        return False  # Fraction refuses it at once
    whole, decimal, exp_sign, exp, den = (g.replace("_", "") if g else "" for g in shape.groups())
    exp = exp.lstrip("0")
    if len(exp) > len(str(MAX_RATIONAL_DIGITS)):
        return True
    shift = int(exp or 0) * (-1 if exp_sign == "-" else 1)
    num_digits = len(whole) + len(decimal) + max(shift, 0)
    den_digits = len(den) if den else len(decimal) + max(-shift, 0) + 1
    return max(num_digits, den_digits) > MAX_RATIONAL_DIGITS


def _rational(text, option):
    if _too_many_digits(text):
        raise InvalidArgument("%s: numerator or denominator over %d digits"
                              % (option, MAX_RATIONAL_DIGITS))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument("%s: not a rational number: %r" % (option, text)) from None


def _digits(x):
    """The decimal digits each power of the rational x adds."""
    return log10(max(abs(x.numerator), x.denominator))


def _check_power_digits(digits, options):
    if digits > MAX_RATIONAL_DIGITS:
        raise InvalidArgument("%s: degree times digits is %d, over the limit of %d"
                              % (options, digits, MAX_RATIONAL_DIGITS))


def _int_in(lo, hi):
    """argparse type: an int in [lo, hi]."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError("must be in %d..%d, got %d" % (lo, hi, value))
        return value

    return parse


def _emit(args, command, inputs, result, checks=(), text=None):
    """Print the {"command", "inputs", "result", "checks"} line with --json,
    else the lines of text, by default the result and then each check."""
    if getattr(args, "json", False):
        print(json.dumps({
            "command": command,
            "inputs": inputs,
            "result": result,
            "checks": list(checks),
        }))
        return
    if text is None:
        text = [result] + ["%s: %s" % (check["name"], check["status"]) for check in checks]
    print("\n".join(text))


def _cmd_operator(args):
    op = {
        "dirac": qops.q_dirac,
        "euler": qops.q_euler,
        "gamma": qops.q_gamma,
        "laplace": qops.q_laplace,
    }[args.verb]
    P = parse_poly(args.expr, args.m)
    result = op(P)
    _emit(args, args.verb, {"m": args.m, "expr": args.expr}, str(result))
    return 0


def _cmd_deriv(args):
    P = parse_poly(args.expr, args.m)
    result = qops.q_partial(P, args.var)
    _emit(args, "deriv", {"m": args.m, "expr": args.expr, "var": args.var}, str(result))
    return 0


def _cmd_eval(args):
    P = parse_poly(args.expr, args.m)
    q0 = _rational(args.q0, "--q0")
    inputs = {"m": args.m, "expr": args.expr, "q0": args.q0}
    if args.point is not None:
        point = [_rational(v, "--point") for v in args.point.split(",")]
        inputs["point"] = args.point
    elif P.total_degree() <= 0:
        point = [0] * P.m
    else:
        raise QCliffordError("expression is not constant; pass --point")
    coeffs = [c for mv in P.terms.values() for c in mv.terms.values()]
    q_degree = (max((c.num.degree for c in coeffs), default=0)
                + sum(den.degree for den in {c.den for c in coeffs}))
    _check_power_digits(q_degree * _digits(q0)
                        + max(P.total_degree(), 0) * max(map(_digits, point)),
                        "--q0 and --point")
    value = evaluate_poly(P, point, q0)
    _emit(args, "eval", inputs, str(value))
    return 0


def _tower_checks(tower, P):
    """Whether every step M_s + x Q_s of the tower is Fischer-orthogonal,
    where Q_s = sum over t > s of x^(t-s-1) M_t is the cofactor of step s,
    and whether the tower recomposes to P.  One walk down from the top
    builds each Q_s; its last rest, M_0 + x Q_0, is sum_s x^s M_s."""
    comps = tower.components
    k = len(comps) - 1
    x = vector_variable(comps[0].m)
    orthogonal = True
    rest = comps[k]
    for s in range(k - 1, -1, -1):
        xQ = x * rest
        orthogonal = orthogonal and fischer_mod.fischer_inner(comps[s], xQ, k - s).is_zero()
        rest = comps[s] + xQ
    return orthogonal, rest == P


def _cmd_fischer(args):
    P = parse_poly(args.expr, args.m)
    k = P.homogeneous_degree()
    if k:
        n = comb(k + args.m - 2, args.m - 1)
        if n * n * k > MAX_FISCHER_WORK:
            raise InvalidArgument(
                "degree %d at m = %d is over the fischer size limit: block %d, "
                "%d^2 * %d > %d" % (k, args.m, n, n, k, MAX_FISCHER_WORK))
    tower = fischer_mod.fischer_full(P)
    comps = tower.components
    monogenic = all(qops.is_monogenic(comp) for comp in comps)
    orthogonal, recomposed = _tower_checks(tower, P)
    recomposition = "exact" if recomposed else "MISMATCH"
    checks = [
        {"name": "recomposition", "status": recomposition},
        {"name": "monogenic", "status": str(monogenic).lower()},
        {"name": "orthogonal", "status": str(orthogonal).lower()},
    ]
    rendered = [str(comp) for comp in comps]
    k = len(comps) - 1
    _emit(args, "fischer", {"m": args.m, "expr": args.expr},
          {str(s): text for s, text in enumerate(rendered)}, checks,
          ["s=%d (degree %d): %s" % (s, k - s, text) for s, text in enumerate(rendered)]
          + ["recomposition: " + recomposition])
    failed = [c["name"] for c in checks if c["status"] not in ("exact", "true")]
    if failed:
        raise InternalInvariantViolation("tower certificate failed: %s" % ", ".join(failed))
    return 0


def _cmd_ck(args):
    f = parse_poly(args.expr, args.m)
    k = f.total_degree()
    reach = min(sum(prod(a + 1 for a in alpha) for alpha in f.terms), comb(k + f.m, f.m))
    if reach * k ** 3 > MAX_CK_WORK:
        raise InvalidArgument("degree %d reaching %d monomials is over the ck size limit: "
                              "%d * %d^3 > %d" % (k, reach, reach, k, MAX_CK_WORK))
    F = ck_mod.ck_extend(f)
    monogenic = ck_mod.extended_dirac(F).is_zero()
    restricts = ck_mod.restrict_x0(F) == f
    checks = [
        {"name": "monogenic", "status": str(monogenic).lower()},
        {"name": "restriction", "status": str(restricts).lower()},
    ]
    _emit(args, "ck", {"m": args.m, "expr": args.expr}, str(F), checks)
    if not (monogenic and restricts):
        raise InternalInvariantViolation("extension contract failed")
    return 0


def _cmd_verify(args):
    if args.relation and not args.all:
        names = [qops.resolve_relation(args.relation)]
    else:
        names = list(qops.RELATION_NAMES)
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    failures = []
    checks = []
    text = ["seed: %d" % seed]
    for name in names:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        counterexample = None
        for _ in range(args.trials):
            m = rng.randint(1, args.m)
            P = random_poly(rng, m, args.degree)
            G = random_poly(rng, m, args.degree)
            residual = qops.check_relation(name, P, G)
            if not residual.is_zero():
                counterexample = (P, G, residual)
                break
        if counterexample is None:
            checks.append({"name": name, "status": "ok", "trials": args.trials})
            text.append("%s: ok (%d trials)" % (name, args.trials))
        else:
            P, G, residual = counterexample
            checks.append({
                "name": name,
                "status": "fail",
                "m": P.m,
                "P": str(P),
                "second": str(G),
                "residual": str(residual),
            })
            text.append("%(name)s: FAIL m=%(m)s P=%(P)s second=%(second)s residual=%(residual)s"
                        % checks[-1])
            failures.append(name)
    status = "fail" if failures else "pass"
    text.append(status)
    _emit(args, "verify", {"m": args.m, "degree": args.degree, "trials": args.trials,
                           "seed": seed, "relations": names}, status, checks, text)
    return 1 if failures else 0


def _cmd_jackson(args):
    if args.jackson_verb == "deriv":
        f = parse_unipoly(args.expr)
        result = jackson_mod.jackson_derivative(f)
        _emit(args, "jackson deriv", {"expr": args.expr}, str(result))
    elif args.jackson_verb == "integrate":
        f = parse_unipoly(args.expr)
        a, b = _rational(args.a, "--a"), _rational(args.b, "--b")
        _check_power_digits((f.total_degree() + 1) * max(_digits(a), _digits(b)), "--a and --b")
        result = jackson_mod.q_integral(f, a, b)
        _emit(args, "jackson integrate",
              {"expr": args.expr, "a": args.a, "b": args.b}, str(result))
    else:
        result = jackson_mod.q_exp(args.variant, args.order)
        _emit(args, "jackson exp",
              {"variant": args.variant, "order": args.order}, str(result))
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="qclifford",
        description="Exact q-deformed Clifford analysis over Q(q).",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, expr=True):
        p.add_argument("--m", type=_int_in(1, 8), default=2, help="dimension, 1..8 (default 2)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if expr:
            p.add_argument("expr", help="expression, e.g. 'x1^2*x2*e1'")

    for verb in ("dirac", "euler", "gamma", "laplace"):
        p = sub.add_parser(verb, help="apply the q-%s operator" % verb.capitalize())
        common(p)
        p.set_defaults(func=_cmd_operator)

    p = sub.add_parser("deriv", help="apply one q-partial derivative")
    common(p)
    p.add_argument("--var", type=int, required=True, help="variable index 0..m (0 is x0)")
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("eval", help="evaluate at a rational point and q0")
    common(p)
    p.add_argument("--q0", default="1", help="rational value for q (default 1)")
    p.add_argument("--point", help="comma-separated coordinates")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fischer", help="full Fischer decomposition tower")
    common(p)
    p.set_defaults(func=_cmd_fischer)

    p = sub.add_parser("ck", help="Cauchy-Kovalevskaya extension")
    common(p)
    p.set_defaults(func=_cmd_ck)

    p = sub.add_parser("verify", help="randomized check of operator identities")
    p.add_argument("--relation", help="relation name (see docs); default all")
    p.add_argument("--all", action="store_true", help="check every relation")
    p.add_argument("--m", type=_int_in(1, 8), default=3,
                   help="largest dimension, 1..8 (default 3)")
    p.add_argument("--degree", type=_int_in(0, 12), default=4,
                   help="largest degree of the random inputs, 0..12 (default 4)")
    p.add_argument("--trials", type=_int_in(1, 10000), default=50,
                   help="random trials per relation, 1..10000 (default 50)")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("jackson", help="one-dimensional Jackson calculus")
    jsub = p.add_subparsers(dest="jackson_verb", required=True)
    pd = jsub.add_parser("deriv")
    pd.add_argument("--json", action="store_true")
    pd.add_argument("expr", help="polynomial in t, e.g. 't^3 + t'")
    pi = jsub.add_parser("integrate")
    pi.add_argument("--a", default="0")
    pi.add_argument("--b", default="1")
    pi.add_argument("--json", action="store_true")
    pi.add_argument("expr")
    pe = jsub.add_parser("exp")
    pe.add_argument("--variant", choices=("E", "e"), default="E")
    pe.add_argument("--order", type=_int_in(0, MAX_ORDER), required=True,
                    help="truncation order, 0..%d (always explicit)" % MAX_ORDER)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(expr=None)
    p.set_defaults(func=_cmd_jackson)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (SingularSystem, InternalInvariantViolation) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except (QCliffordError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
