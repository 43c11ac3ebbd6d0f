"""One workload in one process: run passes over its cases and print a
JSON summary as the last line of stdout.  Started by run.py with the
checkout's src/ on PYTHONPATH; not meant to be called by hand.

Untraced (--trace 0): passes run back to back, each on fresh seeded
inputs, until another pass would overrun --seconds, and at least
MIN_PASSES of them.  Traced (--trace 1): one untraced and one traced pass
over the same inputs; the difference of their case times is the tracing
overhead.  Every case is also timed scaled to a quiet host (HostSpeed).
"""

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

import tateform

import cases
from hostspeed import HostSpeed
from tracer import Tracer

# untraced runs make at least this many passes (run.py's TAIL_PASSES)
MIN_PASSES = 3
# short cases are timed over repeated runs of at least this many seconds;
# one run of a few milliseconds is at the mercy of the host's bursts
MIN_CASE_S = 0.05


def attempt(case):
    """The case's (result, output bytes), or (traceback, 0) if it raised."""
    try:
        return case.run()
    except Exception:
        return traceback.format_exc(), 0


def run_pass(case_list, expected, tracer=None):
    """Run every case once.  Returns (wall seconds, {case name: seconds},
    {case name: scaled seconds}, failures, output bytes).

    Untraced, a case that takes less than MIN_CASE_S runs again until its
    runs add up to that, and its times are their mean.  A traced pass runs
    each case once, so that its counts do not depend on speed, and takes
    no probes within cases, which would fall inside its spans."""
    times = {}
    scaled = {}
    failures = 0
    out_bytes = 0
    start = perf_counter()
    with HostSpeed(timed=tracer is None) as speed:
        for i, case in enumerate(case_list):
            if tracer is not None:
                tracer.case = i
            # each case starts from a collected heap, as a command-line
            # call does, so that no collection left over from earlier
            # cases lands in its time
            gc.collect()
            first = len(speed.probes) - 1
            t0 = perf_counter()
            result, nbytes = outcome = attempt(case)
            runs = 1
            while (tracer is None and not isinstance(result, str)
                   and perf_counter() - t0 < MIN_CASE_S):
                if attempt(case) != outcome:
                    result = "a repeated run gave another result"
                runs += 1
            t1 = perf_counter()
            speed.take()
            seconds, scaled_seconds = speed.scale(t0, t1, first)
            times[case.name] = seconds / runs
            scaled[case.name] = scaled_seconds / runs
            out_bytes += nbytes
            if isinstance(result, str):
                failures += 1
                print("case %s failed:\n%s" % (case.name, result), file=sys.stderr)
            elif result != expected.get(case.name):
                failures += 1
                print("case %s: wrong answer %s" % (case.name, json.dumps(result)),
                      file=sys.stderr)
    return perf_counter() - start, times, scaled, failures, out_bytes


def measure(workload, seed, seconds, trace, expected, doc_dir, spans_path):
    """The worker's whole measurement, as the summary dict it prints."""
    summary = {"walls": [], "case_times": {}, "scaled_times": {},
               "attempted": 0, "failed": 0}

    def record(wall, times, scaled, failures):
        summary["walls"].append(wall)
        for name in times:
            summary["case_times"].setdefault(name, []).append(times[name])
            summary["scaled_times"].setdefault(name, []).append(scaled[name])
        summary["attempted"] += len(times)
        summary["failed"] += failures

    if trace:
        case_list = cases.build_cases(workload, seed, 0, doc_dir)
        wall, times, scaled, failures, _ = run_pass(case_list, expected)
        record(wall, times, scaled, failures)
        tracer = Tracer()
        tracer.install()
        try:
            wall_traced, times, scaled, failures, out_bytes = run_pass(
                case_list, expected, tracer)
        finally:
            tracer.uninstall()
        record(wall_traced, times, scaled, failures)
        layers = tracer.layer_metrics()
        layers["cli.report_bytes"] = out_bytes
        # case times leave out the probes, which only the untraced pass
        # takes within cases
        layers["trace.overhead_s"] = sum(traced - untraced for untraced, traced
                                         in summary["case_times"].values())
        summary["layers"] = layers
        tracer.dump(spans_path)
    else:
        start = perf_counter()
        pass_index = 0
        while True:
            case_list = cases.build_cases(workload, seed, pass_index, doc_dir)
            wall, times, scaled, failures, _ = run_pass(case_list, expected)
            record(wall, times, scaled, failures)
            pass_index += 1
            if (pass_index >= MIN_PASSES
                    and perf_counter() - start + max(summary["walls"]) > seconds):
                break
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True,
                        help="directory for scenario documents and spans")
    args = parser.parse_args()

    src = os.path.join(os.path.realpath(cases.ROOT), "src")
    if not os.path.realpath(tateform.__file__).startswith(src + os.sep):
        sys.exit("tateform was imported from %s, not from %s"
                 % (tateform.__file__, src))
    doc_dir = tempfile.mkdtemp(prefix="docs-", dir=args.out)
    spans = os.path.join(args.out, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    try:
        summary = measure(args.workload, args.seed, args.seconds, args.trace,
                          cases.load_expected(), doc_dir, spans)
    finally:
        shutil.rmtree(doc_dir, ignore_errors=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
