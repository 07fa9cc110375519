"""Compare two sets of benchmark results, or summarize one.

Usage (from the root of a checkout):

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl] [--trace 0|1]

Each file holds run records written by `run.py --record` or `suite.py`.
For every workload and metric the table gives each side's median and
quartiles, the spread (interquartile distance over the median), the
ratio new/base with its base, and a verdict:

  improved    the new side wins at least 9 of 10 seed pairs (ties count
              for neither) and the medians differ by more than the base's
              interquartile distance, in the better direction
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json
  unresolved  either side's spread exceeds the bound, and not every new
              run beats every base run
  no worse    otherwise

Per-layer metrics have no bound; they get improved, worse (the same rule
as improved, in the other direction) or same.

A gain does not count when the new side fails more.  Each workload's
first row is its fail_frac (failed items over attempted items, per seed)
on each side.  When the new side has a record that is not correct, a
higher fail_frac than the base, or no record for a seed the base has (a
run that crashed writes none), every metric of that workload gets the
verdict `failed` or `incomplete` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import stats


def load(path, trace):
    """({(workload, metric): {seed: value}}, {workload: {seed: record}})
    from a JSON-lines file; fail_frac is loaded as a metric of its own."""
    values, runs = {}, {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] != trace:
                continue
            wl, seed = rec["workload"], rec["seed"]
            runs.setdefault(wl, {})[seed] = rec
            metrics = dict(rec["metrics"], fail_frac=rec["failed"] / rec["attempted"])
            for name, value in metrics.items():
                values.setdefault((wl, name), {})[seed] = value
    return values, runs


def health(base_runs, new_runs):
    """None when the new side's runs of a workload are as sound as the
    base's; otherwise the verdict that replaces every metric's."""
    def fail_frac(runs):
        return sum(r["failed"] for r in runs.values()) / max(1, sum(
            r["attempted"] for r in runs.values()))

    if not all(r["correct"] for r in new_runs.values()) or \
            fail_frac(new_runs) > fail_frac(base_runs):
        return "failed"
    if set(base_runs) - set(new_runs):
        return "incomplete"
    return None


def _beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, new, better, bound):
    """Verdict for one metric; base and new map seed -> value."""
    pairs = [(base[s], new[s]) for s in sorted(set(base) & set(new))]
    b_vals, n_vals = list(base.values()), list(new.values())
    q1, mb, q3 = stats.quartiles(b_vals)
    mn = stats.quartiles(n_vals)[1]

    def wins(direction):
        won = sum(1 for b, n in pairs if _beats(n, b, direction))
        return pairs and won >= 0.9 * len(pairs) and abs(mn - mb) > q3 - q1 and _beats(mn, mb, direction)

    if wins(better):
        return "improved"
    worse_dir = "higher" if better == "lower" else "lower"
    if bound is None:
        return "worse" if wins(worse_dir) else "same"
    loss = (mn - mb) if better == "lower" else (mb - mn)
    if mb and loss / abs(mb) > bound:
        return "worse"
    if max(stats.spread(b_vals), stats.spread(n_vals)) > bound and not all(
            _beats(n, b, better) for n in n_vals for b in b_vals):
        return "unresolved"
    return "no worse"


def _fmt(v):
    return "%.4g" % v


FAIL_FRAC = {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": None}


def table(spec, base, new=None, trace=0):
    """base and new are what `load` returns."""
    metrics = [FAIL_FRAC] + spec["per_layer" if trace else "end_to_end"]
    b_values, b_runs = base
    n_values, n_runs = new if new is not None else ({}, {})
    lines = []
    head = ["workload", "metric", "unit", "n", "base q1", "median", "q3", "spread"]
    if new is not None:
        head += ["new q1", "median", "q3", "spread", "new/base", "bound", "verdict"]
    lines.append(head)
    for w in spec["workloads"]:
        if w["name"] not in b_runs:
            continue
        unsound = new is not None and health(b_runs[w["name"]], n_runs.get(w["name"], {}))
        for m in metrics:
            key = (w["name"], m["name"])
            if key not in b_values:
                continue
            b = b_values[key]
            q = stats.quartiles(list(b.values()))
            row = [w["name"], m["name"], m["unit"], str(len(b)), _fmt(q[0]), _fmt(q[1]),
                   _fmt(q[2]), "%.3f" % stats.spread(list(b.values())) if q[1] else "-"]
            if new is not None:
                n = n_values.get(key)
                if n:
                    qn = stats.quartiles(list(n.values()))
                    row += [_fmt(qn[0]), _fmt(qn[1]), _fmt(qn[2]),
                            "%.3f" % stats.spread(list(n.values())) if qn[1] else "-",
                            ("%.3f (base %s)" % (qn[1] / q[1], _fmt(q[1]))) if q[1] else "-"]
                else:
                    row += ["-"] * 5
                bound = m.get("bound")
                row.append("-" if bound is None else "%g" % bound)
                if unsound or not n:
                    row.append(unsound or "incomplete")
                elif m is FAIL_FRAC:
                    row.append("no worse")
                else:
                    row.append(verdict(b, n, m["better"], bound))
            lines.append(row)
    widths = [max(len(r[i]) for r in lines if i < len(r)) for i in range(len(head))]
    return "\n".join("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip()
                     for r in lines)


def main(argv=None):
    p = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base = load(args.base, args.trace)
    new = load(args.new, args.trace) if args.new else None
    print(table(spec, base, new, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
