"""quantact benchmark: four workloads through the public API, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; quantact is imported from ``src/``.
Each workload runs in its own worker process (one caller, closed loop).

--trace 0  prints the end-to-end metrics: ``wall_s``, the mean wall time of
           one repetition (the measured time over the number of whole
           repetitions); ``setup_s``, the median over several fresh processes
           of the time to import quantact and build the inputs;
           ``peak_rss_mb``, the peak resident memory of the measuring process.
           Both times are given at the reference speed of the machine: each
           is scaled by the yardstick units timed next to it (yardstick.py).
           The raw figures are printed on the line before the result.
--trace 1  prints the per-layer metrics of a traced run (see tracer.py) and
           the tracing overhead over the untraced repetitions of that run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, reports and
spans are written under ``.perfbench/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import yardstick
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3          # fresh set-up-only processes before and after the
                           # measuring one, which gives one more sample
RUN_LIMIT = 170            # seconds for all worker processes of one run


def units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def worker(args, mode, seconds, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(seconds),
           "--workdir", os.path.join(ROOT, ".perfbench", args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()),
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("worker (%s) exited with status %d"
                           % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quantact", "__init__.py")):
        print("no quantact sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads

    deadline = time.monotonic() + RUN_LIMIT
    try:
        if args.trace:
            res = worker(args, "trace", args.seconds, env, deadline)
            metrics = res["metrics"]
        else:
            setups = [worker(args, "setup", 0, env, deadline)
                      for _ in range(SETUP_SAMPLES)]
            res = worker(args, "run", args.seconds, env, deadline)
            setups.append(res)
            setups += [worker(args, "setup", 0, env, deadline)
                       for _ in range(SETUP_SAMPLES)]
            kind = WORKLOADS[args.workload].yardstick
            wall = statistics.fmean(res["walls"]) if res["walls"] else 0.0
            metrics = {
                "wall_s": yardstick.at_reference(wall, kind, res["units"]),
                "setup_s": statistics.median(
                    yardstick.at_reference(s["setup_s"], "python", s["setup_units"])
                    for s in setups),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            print("raw: wall %.4f s (mean of %d repetitions), %s unit %.4f s "
                  "(mean); setup %.4f s, python unit %.4f s (medians)"
                  % (wall, len(res["walls"]), kind,
                     statistics.fmean(res["units"]),
                     statistics.median(s["setup_s"] for s in setups),
                     statistics.median(u for s in setups for u in s["setup_units"])))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    for problem in res["problems"]:
        print("check failed: %s" % problem, file=sys.stderr)
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in sorted(metrics.items())},
    }
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
