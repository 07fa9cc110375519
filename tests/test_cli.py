"""Command front end: outputs, JSON mode, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclifford
from qclifford import qops
from qclifford.cli import MAX_CK_WORK, MAX_FISCHER_WORK, MAX_ORDER, MAX_RATIONAL_DIGITS, main
from qclifford.cpoly import CliffordPoly
from qclifford.parser import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOperatorVerbs:
    def test_dirac_vector_variable(self, capsys):
        code, out, _ = run(capsys, "dirac", "--m", "3", "x1*e1 + x2*e2 + x3*e3")
        assert code == 0
        assert out.strip() == "3"

    def test_euler_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "euler", "--m", "3", "x1*x2^2")
        assert code == 0
        assert out.strip() == "(2 + q)*x1*x2^2"

    def test_deriv(self, capsys):
        # --var 0 is the x0 derivative
        for var, expr, want in (("1", "x1^2*x2", "(1 + q)*x1*x2"), ("0", "x0^2", "(1 + q)*x0")):
            code, out, _ = run(capsys, "deriv", "--m", "2", "--var", var, "--", expr)
            assert code == 0
            assert out.strip() == want

    def test_gamma_and_laplace(self, capsys):
        code, out, _ = run(capsys, "gamma", "--m", "2", "x1")
        assert out.strip() == "x2*e1*e2"
        code, out, _ = run(capsys, "laplace", "--m", "1", "x1^2")
        assert out.strip() == "1 + q"


class TestCk:
    def test_fueter_variable(self, capsys):
        code, out, _ = run(capsys, "ck", "--m", "2", "x1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1 + x0*e0*e1"
        assert "monogenic: true" in lines
        assert "restriction: true" in lines


class TestFischer:
    def test_tower_output(self, capsys):
        code, out, _ = run(capsys, "fischer", "--m", "2", "x1^3")
        assert code == 0
        assert out == (
            "s=0 (degree 3): (1/2/(2 + q + q^2))*x1^3"
            " + ((-1/2 - 1/2*q - 1/2*q^2)/(2 + q + q^2))*x1^2*x2*e1*e2"
            " + ((-1/2 - 1/2*q - 1/2*q^2)/(2 + q + q^2))*x1*x2^2"
            " + (1/2/(2 + q + q^2))*x2^3*e1*e2\n"
            "s=1 (degree 2): (-1/2/(3 + q))*x1^2*e1 + ((1/2 + 1/2*q)/(3 + q))*x1*x2*e2"
            " + (1/2/(3 + q))*x2^2*e1\n"
            "s=2 (degree 1): ((-1 - 1/2*q)/(3 + q))*x1 + ((1 + 1/2*q)/(3 + q))*x2*e1*e2\n"
            "s=3 (degree 0): ((1/2 + 1/2*q + 1/2*q^2)/(2 + q + q^2))*e1\n"
            "recomposition: exact\n"
        )

    def test_json_components_reparse_and_recompose(self, capsys):
        code, out, _ = run(capsys, "fischer", "--m", "2", "--json", "x1^2")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"][0]["status"] == "exact"
        from qclifford.cpoly import vector_variable

        xv = vector_variable(2)
        acc = CliffordPoly.zero(2)
        power = CliffordPoly.one(2)
        for s in sorted(payload["result"], key=int):
            acc = acc + power * parse_poly(payload["result"][s], 2)
            power = power * xv
        assert acc == parse_poly("x1^2", 2)

    def test_json_certificates(self, capsys):
        code, out, _ = run(capsys, "fischer", "--m", "2", "--json", "--", "x1^2*x2*e1")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == ["recomposition", "monogenic", "orthogonal"]
        assert [c["status"] for c in checks] == ["exact", "true", "true"]

    def test_wrong_solve_fails_certificates(self, capsys, monkeypatch):
        from qclifford.cpoly import vector_variable
        from qclifford.fischer import FischerSplit, _StepSolver

        # the split a solver with a doubled cofactor would give: it still
        # recomposes, but is neither monogenic nor orthogonal
        split = _StepSolver.split

        def doubled_cofactor(self, P):
            Q = split(self, P).cofactor * 2
            return FischerSplit(P - vector_variable(P.m) * Q, Q)

        monkeypatch.setattr(_StepSolver, "split", doubled_cofactor)
        code, out, err = run(capsys, "fischer", "--m", "2", "--json", "--", "x1^2*x2*e1")
        assert code == 3
        assert "Traceback" not in err
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses == {"recomposition": "exact", "monogenic": "false",
                            "orthogonal": "false"}

    @pytest.mark.parametrize("expr", ["e0", "2*e0*e1", "x0", "x1*e0"])
    def test_extended_input_exits_2(self, capsys, expr):
        code, out, err = run(capsys, "fischer", "--m", "2", "--", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_tower_that_does_not_recompose_exits_3(self, capsys, monkeypatch):
        from qclifford import fischer as fischer_mod

        # the certified tower of another input
        full = fischer_mod.fischer_full
        monkeypatch.setattr(fischer_mod, "fischer_full", lambda P: full(P * 2))
        code, out, err = run(capsys, "fischer", "--m", "2", "--json", "--", "x1^3")
        assert code == 3
        assert "Traceback" not in err
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses == {"recomposition": "MISMATCH", "monogenic": "true",
                            "orthogonal": "true"}
        code, out, _ = run(capsys, "fischer", "--m", "2", "--", "x1^3")
        assert code == 3
        assert out.splitlines()[-1] == "recomposition: MISMATCH"

    def test_tower_with_a_component_of_the_wrong_degree_exits_3(self, capsys, monkeypatch):
        from qclifford import fischer as fischer_mod

        # the real tower of the input with its components reversed
        full = fischer_mod.fischer_full
        monkeypatch.setattr(fischer_mod, "fischer_full",
                            lambda P: fischer_mod.FischerTower(full(P).components[::-1]))
        code, out, err = run(capsys, "fischer", "--m", "2", "--json", "--", "x1^3")
        assert code == 3
        assert "Traceback" not in err
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses["orthogonal"] == "false"


class TestPowerLimits:
    @pytest.mark.parametrize("expr", ["q^100000000", "(((1+q)^50)^50)^50", "x1^1001",
                                      "(q^10)^101", "(x1+x2+e1)^60",
                                      "(x1+x2+e1)^32*(x1+x2+e1)^32"])
    def test_hostile_power_exits_2(self, capsys, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "dirac", "--m", "2", "--", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("expr", ["q^1000", "(q^10)^100", "(x1+x2+e1)^30"])
    def test_power_at_the_limits_is_accepted(self, capsys, expr):
        code, out, _ = run(capsys, "eval", "--m", "2", "--q0", "1", "--point", "1,1", "--",
                           expr)
        assert code == 0


class TestSizeLimits:
    @pytest.mark.parametrize("order", [str(MAX_ORDER + 1), "100000000"])
    def test_jackson_order_over_limit_exits_2(self, capsys, order):
        code, out, err = run(capsys, "jackson", "exp", "--order", order)
        assert code == 2
        assert out == ""
        assert "argument --order" in err and "Traceback" not in err

    def test_jackson_order_at_limit_is_accepted(self, capsys):
        code, out, _ = run(capsys, "jackson", "exp", "--variant", "e",
                           "--order", str(MAX_ORDER))
        assert code == 0
        assert "t^%d" % MAX_ORDER in out

    @pytest.mark.parametrize("m,expr", [("8", "x1^20"), ("2", "x1^15"), ("3", "x1^7*e2"),
                                        ("8", "x1*x2*x3")])
    def test_fischer_over_limit_exits_2(self, capsys, m, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "fischer", "--m", m, "--", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(MAX_FISCHER_WORK) in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("m,expr", [("1", "x1^56"), ("1", "x1^1000"),
                                        ("3", "(x1+x2+x3)^30"), ("7", "((x3)^12)^12")])
    def test_ck_over_limit_exits_2(self, capsys, m, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "ck", "--m", m, "--", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(MAX_CK_WORK) in err
        assert time.perf_counter() - start < 1


# expressions of at most 30 characters over x1..x8 e1..e8 q t 0-9 +-*/^(),
# t being the variable of the jackson verbs: token strings, mostly
# malformed, and strings from the grammar, mostly well formed
_ATOMS = ["x%d" % i for i in range(1, 9)] + ["e%d" % i for i in range(1, 9)] + ["q", "t"]
_TOKENS = _ATOMS + list("0123456789+-*/^()")
_atoms = st.one_of(st.sampled_from(_ATOMS), st.integers(min_value=0, max_value=99).map(str))
_grammar = st.recursive(_atoms, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
    st.tuples(inner, st.integers(min_value=0, max_value=12)).map(lambda p: "(%s)^%d" % p),
    inner.map(lambda s: "-(%s)" % s)), max_leaves=6)
_exprs = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
                   _grammar).map(lambda s: s[:30])
_ints = st.integers(min_value=-2, max_value=12).map(str)
_bad = st.sampled_from(["-1", "0", "x", "", "1/0", "10**9", "99999999999999999999"])
_rationals = st.one_of(st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2"]), _bad)


@st.composite
def _argv(draw):
    """One command line: a verb and its options, each from its valid range
    or from invalid values.  verify's valid --degree and --trials come from
    the cheap end of their ranges: the top of those ranges is slow by
    design, not a hang."""
    verb = draw(st.sampled_from(["dirac", "euler", "gamma", "laplace", "deriv", "eval",
                                 "fischer", "ck", "verify", "jackson"]))
    m = ["--m", draw(st.one_of(st.integers(min_value=1, max_value=8).map(str), _bad))]
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    if verb == "verify":
        argv = ["verify", "--relation",
                draw(st.sampled_from(list(qops.RELATION_NAMES) + ["nonsense"])),
                "--degree", draw(st.one_of(st.sampled_from(["0", "1", "2"]), _bad)),
                "--trials", draw(st.one_of(st.sampled_from(["1", "2"]), _bad)),
                "--seed", draw(_ints)] + m
        return argv + json_flag
    if verb == "jackson":
        sub = draw(st.sampled_from(["deriv", "integrate", "exp"]))
        if sub == "exp":
            order = draw(st.one_of(st.integers(min_value=0, max_value=MAX_ORDER).map(str),
                                   st.just(str(MAX_ORDER + 1)), _bad))
            return ["jackson", "exp", "--variant", draw(st.sampled_from(["E", "e", "x"])),
                    "--order", order] + json_flag
        extra = []
        if sub == "integrate":
            extra = ["--a", draw(_rationals), "--b", draw(_rationals)]
        return ["jackson", sub] + extra + json_flag + ["--", draw(_exprs)]
    extra = []
    if verb == "deriv":
        extra = ["--var", draw(_ints)]
    elif verb == "eval":
        extra = ["--q0", draw(_rationals)]
        if draw(st.booleans()):
            extra += ["--point", ",".join(draw(st.lists(_rationals, max_size=9)))]
    return [verb] + m + extra + json_flag + ["--", draw(_exprs)]


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def test_main_exits_0_or_2_without_traceback(self, argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestVerify:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--relation", "weyl", "--m", "2",
                           "--degree", "2", "--trials", "2", "--seed", "1")
        assert code == 0
        assert out == "seed: 1\nweyl: ok (2 trials)\npass\n"

    def test_single_relation(self, capsys):
        code, out, _ = run(capsys, "verify", "--relation", "weyl", "--m", "3",
                           "--degree", "4", "--trials", "10", "--seed", "1")
        assert code == 0
        assert "weyl: ok (10 trials)" in out

    def test_alias_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--relation", "weyl_i",
                           "--trials", "5", "--seed", "1")
        assert code == 0

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--m", "2", "--degree", "3",
                           "--trials", "5", "--seed", "3")
        assert code == 0
        assert out.strip().endswith("pass")

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--relation", "gamma_product",
                           "--trials", "5", "--seed", "9", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "pass"
        assert payload["checks"][0]["status"] == "ok"

    def test_all_with_default_parameters_exits_zero(self, capsys):
        # defaults: m = 3, degree = 4, 50 trials per relation
        code, out, _ = run(capsys, "verify", "--all", "--seed", "20260810")
        assert code == 0
        assert out.strip().endswith("pass")
        assert out.count("ok (50 trials)") == len(qops.RELATION_NAMES)

    def test_counterexample_exits_one(self, capsys, monkeypatch):
        # inject a deliberately false relation to exercise the failure path
        def bogus(P, _):
            yield P + CliffordPoly.one(P.m)

        monkeypatch.setitem(qops._RELATIONS, "bogus", bogus)
        code, out, _ = run(capsys, "verify", "--relation", "bogus",
                           "--trials", "3", "--seed", "5")
        assert code == 1
        assert out == (
            "seed: 5\n"
            "bogus: FAIL m=3 P=q*x2^2*e2 - 2*x2^2*e1*e3 - 3*q*x2*x3 + q*x1*x2^2*e1*e2*e3"
            " + q^2*x1*x3^2*e1*e2*e3"
            " second=q*x1^2*e1*e3 - 2*x1^2*e1*e2*e3 + 2*q^2*x2^2*x3^2 - 2*x2^2*x3^2*e2*e3"
            " residual=1 + q*x2^2*e2 - 2*x2^2*e1*e3 - 3*q*x2*x3 + q*x1*x2^2*e1*e2*e3"
            " + q^2*x1*x3^2*e1*e2*e3\n"
            "fail\n"
        )

    def test_unknown_relation_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--relation", "nonsense")
        assert code == 2
        assert "unknown relation" in err


class TestJackson:
    def test_deriv(self, capsys):
        code, out, _ = run(capsys, "jackson", "deriv", "t^3 + t")
        assert code == 0
        assert out.strip() == "1 + (1 + q + q^2)*t^2"

    def test_integrate(self, capsys):
        code, out, _ = run(capsys, "jackson", "integrate", "--a", "0", "--b", "1", "t^2")
        assert code == 0
        assert out.strip() == "1/(1 + q + q^2)"

    def test_exp(self, capsys):
        code, out, _ = run(capsys, "jackson", "exp", "--variant", "E", "--order", "2")
        assert code == 0
        assert out.strip() == "1 + t + (1/(1 + q))*t^2"


class TestEval:
    def test_point_evaluation(self, capsys):
        code, out, _ = run(capsys, "eval", "--m", "2", "--q0", "1/2",
                           "--point", "1,2", "q*x1*e1 + x2^2")
        assert code == 0
        assert out.strip() == "4 + (1/2)*e1"

    def test_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "--m", "1", "--q0", "2", "q^3 + 1")
        assert code == 0
        assert out.strip() == "9"

    def test_pole_is_error(self, capsys):
        code, _, err = run(capsys, "eval", "--m", "1", "--q0", "1",
                           "--point", "1", "x1/(q-1)")
        assert code == 2


class TestJsonRoundTrip:
    @pytest.mark.parametrize("argv,m", [
        (("dirac", "--m", "2", "--json", "x1^2*e2"), 2),
        (("euler", "--m", "3", "--json", "x1*x2^2"), 3),
        (("gamma", "--m", "2", "--json", "x1*x2"), 2),
        (("laplace", "--m", "2", "--json", "x1^2 + x2^2"), 2),
        (("deriv", "--m", "2", "--var", "2", "--json", "x2^3"), 2),
        (("ck", "--m", "2", "--json", "x1*x2"), 2),
    ])
    def test_result_reparses(self, capsys, argv, m):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        rendered = payload["result"]
        assert parse_poly(rendered, m) == parse_poly(str(parse_poly(rendered, m)), m)


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "dirac", "--m", "2", "x3")
        assert code == 2
        assert "exceeds dimension" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_extended_content_rejected(self, capsys):
        code, _, err = run(capsys, "dirac", "--m", "2", "x0*e0")
        assert code == 2


class TestBadNumbers:
    @pytest.mark.parametrize("argv,option", [
        (("eval", "--m", "1", "--q0", "1/0", "x1"), "--q0"),
        (("eval", "--m", "2", "--point", "1/0,1", "x1"), "--point"),
        (("eval", "--m", "1", "--q0", "abc", "1"), "--q0"),
        (("jackson", "integrate", "--a", "1/0", "t"), "--a"),
        (("jackson", "integrate", "--b", "2/0", "t"), "--b"),
    ])
    def test_bad_rational_is_usage_error(self, capsys, argv, option):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: %s: not a rational number" % option)
        assert "Traceback" not in err

    # Fraction would expand each exponent before any check on the value
    @pytest.mark.parametrize("argv,option", [
        (("eval", "--m", "1", "--q0=1/2", "--point=1e99999999", "--json", "--", "x1"), "--point"),
        (("eval", "--m", "1", "--q0=1e999999", "--point=1", "--json", "--", "(1+q)^64*x1"),
         "--q0"),
        (("jackson", "integrate", "--a=0", "--b=1e999999", "--json", "--", "t^64"), "--b"),
        (("eval", "--m", "1", "--point=1e99999", "--", "x1^64"), "--point"),
        (("eval", "--m", "1", "--point=0e99999999", "--", "x1"), "--point"),
        (("eval", "--m", "1", "--point=1e4300", "--", "x1"), "--point"),
        (("eval", "--m", "1", "--point=1e-4300", "--", "x1"), "--point"),
        (("jackson", "integrate", "--a=1/" + "7" * 4301, "--", "t"), "--a"),
    ])
    def test_oversized_rational_exits_2_at_once(self, capsys, argv, option):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: numerator or denominator over %d digits"
                              % (option, MAX_RATIONAL_DIGITS))
        assert "Traceback" not in err
        assert time.perf_counter() - start < 2

    # each option is within its digit limit, but the degree raises it past
    # that; the last sums 60 values over distinct denominators
    @pytest.mark.parametrize("argv,options", [
        (("eval", "--m", "1", "--q0=1e4299", "--point=1", "--", "q^1000*x1"), "--q0 and --point"),
        (("eval", "--q0=1", "--point=1e4299", "--", "x1^1000"), "--q0 and --point"),
        (("jackson", "integrate", "--a=0", "--b=1e4299", "--", "t^1000"), "--a and --b"),
        (("eval", "--m", "1", "--q0=" + "7" * 100, "--point=1", "--",
          " + ".join("x1^%d/(%d+q^30)" % (i, i) for i in range(1, 61))), "--q0 and --point"),
    ], ids=["eval-q0", "eval-point", "integrate", "eval-denominators"])
    def test_oversized_power_exits_2_at_once(self, capsys, argv, options):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: degree times digits is" % options)
        assert err.rstrip().endswith("over the limit of %d" % MAX_RATIONAL_DIGITS)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("argv,want", [
        (("eval", "--m", "1", "--q0=9999", "--point=1", "--", "(1+q)^1000*x1"), "1" + "0" * 4000),
        (("eval", "--m", "1", "--q0=1", "--point=10", "--", "x1^1000"), "1" + "0" * 1000),
        (("jackson", "integrate", "--a=0", "--b=10", "--", "t^999"), "1" + "0" * 1000 + "/(1 + q"),
    ], ids=["eval-q0", "eval-point", "integrate"])
    def test_power_within_digit_limit_is_accepted(self, capsys, argv, want):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith(want)

    @pytest.mark.parametrize("value,want", [
        ("1e4299", "1" + "0" * 4299),
        ("0.5e-4298", "1/2" + "0" * 4298),
        ("1_0.2_5e0_1", "205/2"),
    ])
    def test_rational_within_digit_limit_is_accepted(self, capsys, value, want):
        code, out, _ = run(capsys, "eval", "--m", "1", "--point=" + value, "--", "x1")
        assert code == 0
        assert out.strip() == want

    @pytest.mark.parametrize("option,value", [
        ("--m", "0"), ("--m", "-1"), ("--m", "9"),
        ("--trials", "0"), ("--trials", "10001"),
        ("--degree", "-1"), ("--degree", "13"), ("--degree", "x"),
    ])
    def test_verify_bounds_rejected(self, capsys, option, value):
        code, out, err = run(capsys, "verify", "--relation", "weyl", "--seed", "1",
                             option, value)
        assert code == 2
        assert out == ""
        assert "argument %s" % option in err

    def test_verify_bounds_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--relation", "weyl", "--seed", "1",
                           "--m", "1", "--degree", "0", "--trials", "1")
        assert code == 0
        assert "weyl: ok (1 trials)" in out

    @pytest.mark.parametrize("verb", ["dirac", "euler", "gamma", "laplace", "deriv", "eval",
                                      "fischer", "ck"])
    @pytest.mark.parametrize("value", ["0", "-1", "9"])
    def test_m_bounds_rejected(self, capsys, verb, value):
        extra = ["--var", "1"] if verb == "deriv" else []
        code, out, err = run(capsys, verb, "--m", value, *extra, "x1")
        assert code == 2
        assert out == ""
        assert "argument --m" in err
        assert "Traceback" not in err


class TestColdImport:
    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # -S keeps out the site packages, whose .pth files may import either
        src = os.path.dirname(os.path.dirname(qclifford.__file__))
        code = ("import sys; sys.path.insert(0, %r); import qclifford.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % src)
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestNoTraceback:
    def test_deep_nesting_is_parse_error(self, capsys):
        code, _, err = run(capsys, "dirac", "--m", "1", "(" * 3000 + "x1" + ")" * 3000)
        assert code == 2
        assert "nests deeper" in err

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def boom(P):
            raise RuntimeError("boom")

        monkeypatch.setattr(qops, "q_dirac", boom)
        code, out, err = run(capsys, "dirac", "--m", "1", "x1")
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error: RuntimeError: boom"
