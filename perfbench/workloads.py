"""The benchmark's workloads: seeded inputs, the call timed for one item,
and the certificate that checks the item's output.

Only the constructors read the seed; the library sees only the inputs
they generate.  Every workload has cold rounds, run before any library
cache is warm, and a cycle of warm rounds that the timed loop repeats.
A round holds one item of every kind, so any whole number of rounds has
the same mix.  The library is always called through
its module attributes (``qc.check_relation``, not a name imported here),
so the tracer's wrappers see the calls.

`certify` returns the item's canonical output string, which goes into the
run's digest, and raises CertificateError when the output is wrong.
Repeats of an input are certified by equality with the output already
certified for it: the results are unique, so equality is a proof.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import zlib
from fractions import Fraction

import qclifford as qc
from qclifford.fischer import monomial_multi_indices, space_dimension
from qclifford.randpoly import random_homogeneous_poly, random_point, random_poly, random_scalar


class CertificateError(Exception):
    """An item's output failed its certificate."""


def _require(ok, what):
    if not ok:
        raise CertificateError(what)


class Identities:
    """The 24-relation catalogue at m = 1..4: one item is one
    check_relation call, certified by a zero residual.

    The cold phase is the first ten rounds (960 checks) in a fresh
    process, and cold_s is the median round among them: one round of 96
    calls lasts a fraction of a second, too short to time steadily once."""

    name = "identities"
    tail_pct = 99.5
    every_item_cold = False
    cold_rounds = 10
    cycle_rounds = 20

    def __init__(self, seed):
        rng = random.Random(seed)
        kinds = [(name, m) for m in range(1, 5) for name in qc.RELATION_NAMES]

        def new_round():
            return [(name, m, random_poly(rng, m, 5), random_poly(rng, m, 4))
                    for name, m in kinds]

        self.cold = [new_round() for _ in range(self.cold_rounds)]
        self.checks = []
        self.cycle = [new_round() for _ in range(self.cycle_rounds)]

    def run(self, item):
        name, _, P, G = item
        return qc.check_relation(name, P, G)

    def certify(self, item, residual):
        name, m, P, G = item
        _require(residual.is_zero(), "%s: nonzero residual %s" % (name, residual))
        return "%s|%d|%s|%s|%s" % (name, m, P, G, residual)


class Fischer:
    """Certified full Fischer towers on the grid m = 1..3, k = 1..4, with
    the monogenic-space dimension of every (m, k) checked once.

    The cold round is one seeded random_homogeneous_poly per (m, k).  A
    warm round is every multi-index of every (m, k) once, as a monomial
    with a seeded blade and coefficient, in seeded order.  A tower's cost
    depends mostly on the multi-index, so every warm round costs about the
    same whatever the seed."""

    name = "fischer"
    tail_pct = 95
    every_item_cold = False
    cycle_rounds = 1
    cells = [(m, k) for m in (1, 2, 3) for k in (1, 2, 3, 4)]

    def __init__(self, seed):
        rng = random.Random(seed)
        cold = []
        for m, k in self.cells:
            P = random_homogeneous_poly(rng, m, k)
            while P.is_zero():
                P = random_homogeneous_poly(rng, m, k)
            cold.append(("tower", m, k, P))
        self.cold = [cold]
        self.checks = [("mdim", m, k, None) for m, k in self.cells]
        self.cycle = []
        for _ in range(self.cycle_rounds):
            warm = [("tower", m, k, qc.CliffordPoly.monomial(
                        m, alpha, qc.Multivector(m, {rng.randrange(1 << m) << 1: random_scalar(rng)})))
                    for m, k in self.cells for alpha in monomial_multi_indices(m, k)]
            rng.shuffle(warm)
            self.cycle.append(warm)
        self._certified = {}

    def run(self, item):
        kind, m, k, P = item
        if kind == "mdim":
            return qc.monogenic_dimension(m, k)
        return qc.fischer_full(P)

    def certify(self, item, out):
        kind, m, k, P = item
        if kind == "mdim":
            want = space_dimension(m, k) - space_dimension(m, k - 1)
            _require(out == want, "monogenic_dimension(%d, %d) = %s, want %d" % (m, k, out, want))
            return "mdim|%d|%d|%d" % (m, k, out)
        comps = out.components
        key = (m, k, str(P))
        known = self._certified.get(key)
        if known is not None:
            _require(comps == known, "tower differs from the certified one for %s" % (P,))
        else:
            self._check_tower(m, k, P, out)
            self._certified[key] = comps
        return "tower|%d|%d|%s|%s" % (m, k, P, "|".join(str(c) for c in comps))

    @staticmethod
    def _check_tower(m, k, P, tower):
        comps = tower.components
        _require(len(comps) == k + 1, "tower of %s has %d components" % (P, len(comps)))
        _require(tower.recompose() == P, "tower of %s does not recompose" % (P,))
        x = qc.vector_variable(m)
        rest = None  # sum over t > s of x^(t-s-1) M_t, the cofactor of step s
        for s in range(k, -1, -1):
            M = comps[s]
            _require(qc.is_monogenic(M), "component %d of %s is not monogenic" % (s, P))
            if rest is not None:
                xQ = x * rest
                _require(qc.fischer_inner(M, xQ, k - s).is_zero(),
                         "step %d of %s is not Fischer-orthogonal" % (s, P))
                rest = M + xQ
            else:
                rest = M


def _expr_args(P):
    # "--" keeps an expression that starts with "-" from reading as an option
    return ["--json", "--", str(P)]


class Cli:
    """A script of cold `python -m qclifford ... --json` processes, run one
    after another.  An item passes when it exits 0, every check it reports
    is true, exact or ok, and its result reparses to the value this process
    computes with the library.

    A round runs every verb once with seeded input, except `fischer`,
    which runs once per degree at m = 1, 2 (degree 1..4) and m = 3
    (degree 1..3), on a one-term input: its cost depends on (m, degree),
    so fixing them keeps every round about as costly whatever the seed.
    Every item is a cold process, so every round counts toward cold_s."""

    name = "cli"
    tail_pct = 90
    every_item_cold = True
    cycle_rounds = 2
    kinds = (["dirac", "euler", "gamma", "laplace", "deriv", "eval", "ck",
              "jackson-deriv", "jackson-integrate", "jackson-exp", "verify"]
             + [("fischer", m, k) for m in (1, 2, 3) for k in range(1, 4 if m == 3 else 5)])

    def __init__(self, seed):
        rng = random.Random(seed)
        self.cold = [[self._new_item(rng, kind) for kind in self.kinds]]
        self.checks = []
        self.cycle = [[self._new_item(rng, kind) for kind in self.kinds]
                      for _ in range(self.cycle_rounds)]
        self.launcher = [sys.executable, "-m", "qclifford"]
        self._certified = {}

    @staticmethod
    def _new_item(rng, kind):
        rationals = ["-2", "-1/2", "0", "1/3", "1", "3/2", "2"]
        if isinstance(kind, tuple):
            kind, m, k = kind
            # one monomial term: a cold process's cost is then mostly the
            # solver build for (m, k), the same for every seed
            P = random_homogeneous_poly(rng, m, k, max_terms=1)
            return kind, {"m": m, "P": P}, ["fischer", "--m", str(m)] + _expr_args(P)
        if kind.startswith("jackson"):
            verb = kind.split("-")[1]
            if verb == "exp":
                variant, order = rng.choice("Ee"), rng.randint(1, 8)
                return kind, {"variant": variant, "order": order}, [
                    "jackson", "exp", "--variant", variant, "--order", str(order), "--json"]
            f = qc.UniPoly({rng.randint(0, 6): random_scalar(rng) for _ in range(rng.randint(1, 4))})
            argv = ["jackson", verb]
            params = {"f": f}
            if verb == "integrate":
                a, b = rng.sample(rationals, 2)
                argv += ["--a=" + a, "--b=" + b]
                params.update(a=a, b=b)
            return kind, params, argv + _expr_args(f)
        if kind == "verify":
            params = {"relation": rng.choice(qc.RELATION_NAMES), "m": rng.randint(1, 3),
                      "degree": rng.randint(1, 4), "trials": 3, "seed": rng.randrange(2**31)}
            return kind, params, ["verify", "--relation", params["relation"], "--json"] + [
                "--%s=%d" % (opt, params[opt]) for opt in ("m", "degree", "trials", "seed")]
        m = rng.randint(1, 4)
        P = random_poly(rng, m, 3 if kind == "ck" else 4)
        params = {"m": m, "P": P}
        argv = [kind, "--m", str(m)]
        if kind == "deriv":
            params["var"] = rng.randint(1, m)
            argv += ["--var", str(params["var"])]
        elif kind == "eval":
            params["q0"] = rng.choice(["1/2", "2", "3", "-1/3", "2/3"])
            params["point"] = ",".join(str(v) for v in random_point(rng, m))
            argv += ["--q0=" + params["q0"], "--point=" + params["point"]]
        return kind, params, argv + _expr_args(P)

    def run(self, item):
        proc = subprocess.run(self.launcher + item[2], capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def certify(self, item, out):
        kind, params, argv = item
        code, stdout, stderr = out
        _require(code == 0, "%s exited %d: %s" % (" ".join(argv), code, stderr.strip()[-300:]))
        record = json.loads(stdout.strip().splitlines()[-1])
        for check in record["checks"]:
            _require(check["status"] in ("true", "exact", "ok"),
                     "%s: check %s" % (" ".join(argv), check))
        result = record["result"]
        key = tuple(argv)
        known = self._certified.get(key)
        if known is not None:
            _require(result == known, "%s: result differs between runs" % " ".join(argv))
        else:
            _require(self._matches(kind, params, result),
                     "%s: result %r is not the library's value" % (" ".join(argv), result))
            self._certified[key] = result
        return "%s|%s" % (json.dumps(argv), json.dumps(result, sort_keys=True))

    @staticmethod
    def _matches(kind, params, result):
        if kind in ("dirac", "euler", "gamma", "laplace"):
            op = {"dirac": qc.q_dirac, "euler": qc.q_euler, "gamma": qc.q_gamma,
                  "laplace": qc.q_laplace}[kind]
            return qc.parse_poly(result, params["m"]) == op(params["P"])
        if kind == "deriv":
            return qc.parse_poly(result, params["m"]) == qc.q_partial(params["P"], params["var"])
        if kind == "eval":
            point = [Fraction(v) for v in params["point"].split(",")]
            value = qc.evaluate_poly(params["P"], point, Fraction(params["q0"]))
            return qc.parse_poly(result, params["m"]) == qc.CliffordPoly.from_multivector(value)
        if kind == "ck":
            return qc.parse_poly(result, params["m"]) == qc.ck_extend(params["P"])
        if kind == "fischer":
            m = params["m"]
            comps = qc.fischer_full(params["P"]).components
            return (sorted(result, key=int) == [str(s) for s in range(len(comps))]
                    and all(qc.parse_poly(result[str(s)], m) == c for s, c in enumerate(comps)))
        if kind == "jackson-deriv":
            return qc.parse_unipoly(result) == qc.jackson_derivative(params["f"])
        if kind == "jackson-integrate":
            value = qc.q_integral(params["f"], Fraction(params["a"]), Fraction(params["b"]))
            return qc.parse_poly(result, 1) == qc.CliffordPoly.scalar(value, 1)
        if kind == "jackson-exp":
            return qc.parse_unipoly(result) == qc.q_exp(params["variant"], params["order"])
        # verify: repeat the command's trials with the library, same seed
        rng = random.Random(params["seed"] ^ zlib.crc32(params["relation"].encode()))
        holds = True
        for _ in range(params["trials"]):
            m = rng.randint(1, params["m"])
            P = random_poly(rng, m, params["degree"])
            G = random_poly(rng, m, params["degree"])
            holds = holds and qc.check_relation(params["relation"], P, G).is_zero()
        return result == ("pass" if holds else "fail")


WORKLOADS = {w.name: w for w in (Identities, Fischer, Cli)}
