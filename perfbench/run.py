"""Benchmark runner for qclifford: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload identities --seed 1 --seconds 20 --trace 0

Workloads are identities, fischer and cli (see perfbench/README.md).  The
library runs from the checkout's src/ through PYTHONPATH; it is not
installed.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json: set-up is timed over several fresh worker starts and
reported as their median, then one worker drives the timed loop.  With
--trace 1 it reports the per-layer metrics: an untraced worker and a
traced worker run the same items (one input cycle, whatever --seconds
says), and the ratio of their wall times is the tracing overhead.  Spans are written under .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --record FILE also appends the
full run record (digest, failures, trace summary) to FILE as a JSON line,
for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 9    # worker starts per run whose median is setup_s
HELP_STARTS = 5     # cold `qclifford --help` processes per cli.startup_s
RUN_LIMIT_S = 170   # a run that is not done by then is killed and fails


class BenchError(Exception):
    pass


def _worker(root, deadline, *args):
    """Start a worker; return (seconds until it printed ready, its result)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker %s ran past the time limit" % " ".join(args))
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError("worker %s failed with exit code %d" % (" ".join(args), proc.returncode))
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def _startup_s(root, deadline):
    """Median wall time of a cold `python -m qclifford --help`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(HELP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qclifford", "--help"], env=env, cwd=root,
                              capture_output=True, timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError("qclifford --help exited %d" % proc.returncode)
    return statistics.median(times)


def measure(root, workload, seed, seconds, trace):
    """Run the workload; return the full run record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", seed]
    if not trace:
        setups = [_worker(root, deadline, *base, "--mode", "setup")[0]
                  for _ in range(SETUP_STARTS - 1)]
        ready, res = _worker(root, deadline, *base, "--mode", "timed", "--seconds", seconds)
        setups.append(ready)
        metrics = dict(res["metrics"], setup_s=statistics.median(setups))
        runs = [res]
    else:
        _, ref = _worker(root, deadline, *base, "--mode", "untraced")
        out = os.path.join(root, ".perfbench_out")
        _, res = _worker(root, deadline, *base, "--mode", "traced", "--out", out)
        metrics = dict(res["layers"])
        metrics["trace.overhead_frac"] = res["wall"] / ref["wall"] - 1
        metrics["cli.startup_s"] = _startup_s(root, deadline) if workload == "cli" else 0.0
        runs = [ref, res]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        # a traced run must reproduce the untraced outputs exactly
        "correct": all(r["failed"] == 0 for r in runs) and len({r["digest"] for r in runs}) == 1,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "digest": res["digest"],
        "warm_items": res["warm_items"],
        "rounds": res["rounds"],
        "tail_pct": res["tail_pct"],
        "cold_wall": res["cold_wall"],
        "metrics": metrics,
        "summary": res.get("summary"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="Run one qclifford benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the full run record to this JSON-lines file")
    args = p.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "qclifford", "__init__.py")):
        print("run.py: no qclifford sources under %s/src; run from a checkout root" % root,
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("run.py: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        rec = measure(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    names = {m["name"] for m in wanted}
    if set(rec["metrics"]) != names:
        print("run.py: metrics %s do not match BENCHMARK.json" % sorted(set(rec["metrics"]) ^ names),
              file=sys.stderr)
        return 1

    n = rec["warm_items"]
    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed, args.seconds,
                                                        args.trace))
    print("digest sha256 %s  (cold rounds, checks and first input cycle)" % rec["digest"])
    print("fail_frac %g  (%d of %d items failed)" % (rec["failed"] / rec["attempted"],
                                                      rec["failed"], rec["attempted"]))
    for msg in rec["failures"][:5]:
        print("  failure: %s" % msg)
    print("warm items %d in %d rounds; item_tail_ms is p%g" % (n, rec["rounds"], rec["tail_pct"]))
    for m in wanted:
        print("  %-40s %14.6g  %s" % (m["name"], rec["metrics"][m["name"]], m["unit"]))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": rec["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
