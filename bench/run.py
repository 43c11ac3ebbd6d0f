"""Benchmark of tateform: one workload per call.

    python3 bench/run.py --workload scenario-mix --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is taken from the src/ directory next to
this one.  Untraced runs measure set-up time in fresh interpreters before
and after the workload, which runs in one single-threaded child process.
The last line of stdout is the JSON result; the lines before it print each
metric with its unit.  See bench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import HostSpeed

BENCH_DIR = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
# set-up samples taken before the workload, and again after it
SETUP_SAMPLES = 6
# case_tail_s counts each case's median time this many times, once per
# pass of the fewest a run makes, so that its sample count, and with it
# the percentile, does not change with the number of passes that fit
TAIL_PASSES = 3
IMPORT = "import tateform.cli, tateform.formation"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_samples(env, warm_up):
    """Wall times of fresh interpreters that import the CLI and the
    formation layer, as (seconds, scaled seconds).  A warm-up import, which
    writes bytecode caches, is not counted."""
    cmd = [sys.executable, "-c", IMPORT]
    if warm_up:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    samples = []
    with HostSpeed(timed=False) as speed:
        for _ in range(SETUP_SAMPLES):
            first = len(speed.probes) - 1
            t0 = perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=env, check=True)
            t1 = perf_counter()
            speed.take()
            samples.append(speed.scale(t0, t1, first))
    return samples


def pass_walls(case_times):
    """Per-pass sums of {case name: [seconds per pass]}."""
    return [sum(pass_times) for pass_times in zip(*case_times.values())]


def tail(times):
    """The highest percentile with at least 10 samples above it, as
    (value, percentile).  With 10 samples or fewer there is none, and the
    maximum is reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="bar-homology, peeled-resolution or scenario-mix")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "tateform", "__init__.py")):
        sys.exit("no tateform package under %s: run from a checkout of the "
                 "repository" % SRC)
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    setup = [] if args.trace else setup_samples(env, warm_up=True)

    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("worker failed with exit code %d" % proc.returncode)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += setup_samples(env, warm_up=False)

    attempted, failed = summary["attempted"], summary["failed"]
    # the end-to-end times are scaled to a quiet host; see hostspeed.py
    scaled = summary["scaled_times"]
    times = [t for per_case in scaled.values() for t in per_case]
    wall = statistics.median(pass_walls(scaled))
    unscaled_wall = statistics.median(pass_walls(summary["case_times"]))
    tail_times = [statistics.median(per_case) for per_case in scaled.values()] * TAIL_PASSES
    tail_value, tail_pct = tail(tail_times)
    rows = [("passes", len(summary["walls"]), "count"),
            ("cases", len(times), "count"),
            ("failed_ratio", failed / attempted, "1"),
            ("unscaled_wall_s", unscaled_wall, "s"),
            ("host_slowdown", unscaled_wall / wall, "1")]
    if setup:
        rows.append(("unscaled_setup_s", statistics.median(s for s, _ in setup), "s"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        values = summary["layers"]
        specs = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": wall,
            "case_p50_s": statistics.median(times),
            "case_tail_s": tail_value,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        specs = spec["end_to_end"]
        rows += [("case_tail_percentile", tail_pct, "%"),
                 ("case_tail_samples", len(tail_times), "count")]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in specs}
    for name, value, unit in rows + [(k, v, u) for k, (v, u) in metrics.items()]:
        print("%-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
