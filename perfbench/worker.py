"""One benchmark process: set up a workload, repeat it, report JSON.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                --seconds S --workdir DIR

Modes:
  setup  set up once and report ``setup_s`` with the times of the
         yardstick units run right before and after it (see yardstick.py).
  run    set up, then repeat the workload until ``S`` seconds have passed
         (at least once), with the workload's yardstick units run before
         each repetition and after the last, and report every repetition's
         wall time, the yardstick unit times, the operations attempted and
         failed, the problems the checks found and the peak resident memory
         of this process.
  trace  set up with the tracer installed (for ``cli.load_s``), repeat
         untraced for half of ``S``, then traced until ``S`` is spent (each
         at least once), and report the per-layer metrics (median over the
         traced repetitions) and the tracing overhead: the mean traced
         repetition minus the mean untraced one.

The last line of standard output is the JSON result.  ``run.py`` starts
these processes; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the path set-up)
import yardstick  # noqa: E402

SETUP_UNITS = 3            # python yardstick units before and after a set-up


def repeat(workload, seconds, after_run=None, units=0):
    """Run whole repetitions until ``seconds`` have passed; at least one.

    ``after_run`` is called right after each repetition, before its checks.
    ``units`` yardstick units of the workload's kind run before each
    repetition and after the last; their times are returned last.
    """
    walls, problems, failed, unit_times = [], [], 0, []
    start = time.perf_counter()
    while True:
        gc.collect()
        unit_times += yardstick.measure(workload.yardstick, units)
        t0 = time.perf_counter()
        try:
            output = workload.run_once()
        except Exception:
            traceback.print_exc()
            failed += 1
            output = None
        wall = time.perf_counter() - t0
        if after_run is not None:
            after_run()
        if output is not None:
            walls.append(wall)
            problems.extend(workload.check(output))
        if time.perf_counter() - start >= seconds:
            gc.collect()
            unit_times += yardstick.measure(workload.yardstick, units)
            return walls, problems, failed, unit_times


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]()

    if args.mode in ("setup", "run"):
        before = yardstick.measure("python", SETUP_UNITS)
        t0 = time.perf_counter()
        workload.setup(args.seed, args.workdir)
        result = {"setup_s": time.perf_counter() - t0,
                  "setup_units": before + yardstick.measure("python", SETUP_UNITS)}
        if args.mode == "run":
            walls, problems, failed, unit_times = repeat(
                workload, args.seconds, units=workload.yardstick_units)
            result.update(
                walls=walls, units=unit_times, problems=problems, failed=failed,
                attempted=len(walls) + failed,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0)
        print(json.dumps(result))
        return 0

    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    workload.setup(args.seed, args.workdir)
    setup_rec = tracer.start()
    tracer.uninstall()
    untraced, problems, failed, _ = repeat(workload, args.seconds / 2.0)

    recordings = []

    def keep_recording():
        recordings.append(tracer.start())

    tracer.install()
    tracer.start()
    traced, more_problems, more_failed, _ = repeat(
        workload, args.seconds / 2.0, after_run=keep_recording)
    tracer.uninstall()

    per_rep = [tracing.layer_metrics(rec) for rec in recordings]
    metrics = {name: statistics.median(m[name] for m in per_rep)
               for name in per_rep[0]}
    metrics["cli.load_s"] = tracing.layer_metrics(setup_rec)["cli.load_s"]
    untraced_wall = statistics.fmean(untraced) if untraced else 0.0
    traced_wall = statistics.fmean(traced) if traced else 0.0
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    os.makedirs(args.workdir, exist_ok=True)
    tracer.write_spans(recordings[-1], os.path.join(
        args.workdir, "spans-seed%d.tsv" % args.seed))
    print(json.dumps({
        "metrics": metrics,
        "problems": problems + more_problems,
        "failed": failed + more_failed,
        "attempted": len(untraced) + len(traced) + failed + more_failed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
