"""The benchmark's worker process: one workload, one seed.

It imports qclifford, generates the seeded inputs and prints "ready"; the
runner times the process from its start to that line as set-up.  In
`setup` mode it then exits.  Otherwise it drives the workload closed-loop
(one item at a time, the next only after the previous returned): the cold
rounds, the one-off checks, then whole warm rounds.  `timed` mode runs warm
rounds until `--seconds` have passed, at least one full input cycle is
done and the tail percentile keeps enough samples beyond it.  `untraced`
and `traced` modes run exactly one input cycle, the second with the
layer tracer installed, so that their wall times give the tracing
overhead.  Every output is then certified with tracing off, and one JSON
line reports the timings, the failures and the digest of the canonical
outputs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import stats
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def _call(wl, item, clock):
    start = clock()
    try:
        out, err = wl.run(item), None
    except Exception as exc:  # a raising item is a failed item, not a crash
        out, err = None, "%s: %s" % (type(exc).__name__, exc)
    return item, clock() - start, out, err


def drive(wl, seconds=None, rounds=None, clock=time.perf_counter):
    """Run the cold rounds, the checks and warm rounds; time every item."""
    t0 = clock()
    cold = [_call(wl, item, clock) for rnd in wl.cold for item in rnd]
    cold_wall = sum(r[1] for r in cold)
    checks = [_call(wl, item, clock) for item in wl.checks]
    t1 = clock()
    need = stats.min_samples(wl.tail_pct)
    warm = []
    done = 0
    untimed = 0.0  # time spent deduplicating outputs, not in the program
    while True:
        for item in wl.cycle[done % len(wl.cycle)]:
            item, lat, out, err = _call(wl, item, clock)
            if done >= len(wl.cycle) and err is None:
                # a repeated input: keep the earlier run's output when they
                # are equal, so the worker's memory does not grow with the run
                c0 = clock()
                earlier = warm[len(warm) - len(wl.cycle) * len(wl.cycle[0])][2]
                if out == earlier:
                    out = earlier
                untimed += clock() - c0
            warm.append((item, lat, out, err))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= len(wl.cycle) and clock() - t1 >= seconds and len(warm) >= need:
            break
    t2 = clock()
    return {"cold": cold, "checks": checks, "warm": warm, "rounds": done,
            "cold_wall": cold_wall, "warm_wall": t2 - t1 - untimed, "wall": t2 - t0}


def certify(wl, run):
    """Certify every item; return (ok per item, failure messages, digest).

    The digest covers the cold rounds, the checks and the first input
    cycle, which every run completes, so it depends only on the seed and
    the library's outputs."""
    records = run["cold"] + run["checks"] + run["warm"]
    first = len(run["cold"]) + len(run["checks"]) + sum(len(r) for r in wl.cycle)
    digest = hashlib.sha256()
    oks, failures = [], []
    for i, (item, _, out, err) in enumerate(records):
        if err is None:
            try:
                canonical = wl.certify(item, out)
            except Exception as exc:  # CertificateError or a crash in checking
                err = "%s: %s" % (type(exc).__name__, exc)
        if err is not None:
            failures.append(err)
            canonical = "FAILED " + err
        oks.append(err is None)
        if i < first:
            digest.update(canonical.encode() + b"\n")
    return oks, failures, digest.hexdigest()


def end_to_end(wl, run, certified_warm):
    """The end-to-end metrics of a timed run.  cold_s is the median over
    the cold rounds (for a workload whose every item is cold, over all
    rounds) of a round's summed latency."""
    lat = [r[1] for r in run["warm"]]
    size = len(wl.cold[0])
    cold = run["cold"] + (run["warm"] if wl.every_item_cold else [])
    return {
        "items_per_s": certified_warm / run["warm_wall"],
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": stats.percentile(lat, wl.tail_pct) * 1e3,
        "cold_s": statistics.median(sum(r[1] for r in cold[i:i + size])
                                    for i in range(0, len(cold), size)),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"), required=True)
    p.add_argument("--seconds", type=float, help="length of the warm phase; timed mode only")
    p.add_argument("--out", help="directory for the span files of traced mode")
    args = p.parse_args(argv)
    if (args.seconds is None) != (args.mode != "timed"):
        p.error("--seconds is required in timed mode and only allowed there")

    wl = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        os.makedirs(args.out, exist_ok=True)
        if wl.name == "cli":
            for stale in glob.glob(os.path.join(args.out, "cli-*")):
                os.remove(stale)
            wl.launcher = [sys.executable, os.path.join(HERE, "cli_shim.py"),
                           os.path.join(args.out, "cli-")]
        else:
            tracer = tracing.Tracer()
            tracer.install()
    if args.mode == "timed":
        run = drive(wl, seconds=args.seconds)
    else:
        run = drive(wl, rounds=len(wl.cycle))
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    oks, failures, digest = certify(wl, run)
    result = {
        "attempted": len(oks),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest,
        "rounds": run["rounds"],
        "warm_items": len(run["warm"]),
        "wall": run["wall"],
        "cold_wall": run["cold_wall"],
        "tail_pct": wl.tail_pct,
    }
    if args.mode == "timed":
        certified_warm = sum(oks[len(oks) - len(run["warm"]):])
        result["metrics"] = end_to_end(wl, run, certified_warm)
        result["metrics"]["peak_rss_mb"] = peak_rss_mb
    elif args.mode == "traced":
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans-" + wl.name))
            summary = tracer.summary()
        else:
            summary = tracing.merge(
                tracing.Tracer.load(path[:-len(".json")]).summary()
                for path in sorted(glob.glob(os.path.join(args.out, "cli-*.json"))))
        result["summary"] = summary
        result["layers"] = tracing.layer_metrics(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
