"""Check the layer-to-workload predictions against traced run records.

Usage (from the root of a checkout):

    python3 perfbench/predictions.py TRACED.jsonl

TRACED.jsonl holds records of `run.py --trace 1 --record ...` runs.  Each
prediction is checked on every record of its workload and printed as PASS
or FAIL with the values seen; the exit code is 1 if any fails.  A layer
predicted to stay unchanged on a workload is one that workload does not
call at all, so its calls and seconds must be 0 there.
"""

from __future__ import annotations

import argparse
import json
import sys

# metrics of layers that only the solver path reaches
SOLVER = ("linalg.invert_calls", "linalg.invert_s", "linalg.invert_max_n", "linalg.rank_s",
          "polyarith.mul_calls", "polyarith.mul_s", "polyarith.divexact_s",
          "fischer.first_step_s")
# metrics of the rational-arithmetic path of warm Fischer solves
RATIONAL = ("polyarith.gcd_calls", "polyarith.gcd_s", "qfield.canon_calls",
            "fischer.step_calls", "fischer.step_s", "fischer.mdim_s", "fischer.self_s")
# metrics of the polynomial-arithmetic core that every workload loads
CORE = ("qfield.scalar_ops", "qfield.self_s", "clifford.mul_calls", "clifford.self_s",
        "cpoly.mul_calls", "cpoly.self_s", "qops.partial_calls", "qops.self_s")
# metrics of the layers only the command line reaches
FRONT = ("parser.parse_calls", "parser.self_s", "render.self_s", "ck.extend_s", "ck.self_s",
         "jackson.self_s", "cli.self_s", "cli.startup_s")


def predictions():
    """(workload, description, test(record) -> bool, metrics shown)."""
    out = []
    for name in SOLVER + RATIONAL:
        out.append(("identities", "%s == 0 (no solver or gcd)" % name,
                    lambda r, n=name: r["metrics"][n] == 0, (name,)))
    for wl in ("identities", "fischer"):
        for name in FRONT:
            out.append((wl, "%s == 0 (front end absent)" % name,
                        lambda r, n=name: r["metrics"][n] == 0, (name,)))
    for name in CORE:
        for wl in ("identities", "fischer"):
            out.append((wl, "%s > 0" % name, lambda r, n=name: r["metrics"][n] > 0, (name,)))
    for name in SOLVER + RATIONAL:
        out.append(("fischer", "%s > 0" % name, lambda r, n=name: r["metrics"][n] > 0, (name,)))
    out.append(("fischer", "linalg.invert_s > 0.5 * cold round wall (solver builds dominate cold_s)",
                lambda r: r["metrics"]["linalg.invert_s"] > 0.5 * r["cold_wall"],
                ("linalg.invert_s",)))
    for name in FRONT:
        out.append(("cli", "%s > 0" % name, lambda r, n=name: r["metrics"][n] > 0, (name,)))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="Check the layer predictions on traced records.")
    p.add_argument("traced")
    args = p.parse_args(argv)
    records = {}
    with open(args.traced) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 1:
                    records.setdefault(rec["workload"], []).append(rec)
    failed = 0
    for wl, what, test, shown in predictions():
        for rec in records.get(wl, []):
            ok = test(rec)
            failed += not ok
            seen = ", ".join("%s=%.4g" % (n, rec["metrics"][n]) for n in shown)
            if "cold round" in what:
                seen += ", cold round wall=%.4g" % rec["cold_wall"]
            print("%s  %-10s seed %-4d %s  [%s]" % ("PASS" if ok else "FAIL", wl, rec["seed"],
                                                   what, seen))
    print("%d prediction checks failed" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
