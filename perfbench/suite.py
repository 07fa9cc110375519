"""Run every workload over several seeds and print the summary table.

Usage (from the root of a checkout):

    python3 perfbench/suite.py --seeds 1-10 --out results.jsonl [--trace 1]

Each run is `run.py` with --record OUT, one after another, for every
workload of BENCHMARK.json and for its run_seconds, so that every set of
results is measured the same way.  The table at the end is
`compare.py OUT`: every metric of every workload by name and unit, with
its median and quartiles over the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="Run every workload over several seeds.")
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--out", required=True, help="JSON-lines file the records are appended to")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--record", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print("%s seed %d: exit %d %s" % (w["name"], seed, proc.returncode, last[0][:100]),
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
    print(compare.table(spec, compare.load(args.out, args.trace), trace=args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
