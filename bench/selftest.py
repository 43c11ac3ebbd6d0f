"""Self-test of the benchmark itself:

    python3 bench/selftest.py

1. Corrupting one stored expected invariant makes a case count as failed.
2. A traced scenario-mix run reports every per_layer metric that
   BENCHMARK.json names, and uninstalling the tracer restores the package.
"""

import copy
import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.realpath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import cases  # noqa: E402
import worker  # noqa: E402
from tateform import intlinalg, resolutions  # noqa: E402


def check_corruption_is_caught(expected, doc_dir):
    by_name = {c.name: c for c in cases.build_cases("bar-homology", 0, 0, doc_dir)}
    case = by_name["bar-Z3-w5"]
    assert worker.run_pass([case], expected)[3] == 0, "clean expectation failed"
    corrupted = copy.deepcopy(expected)
    corrupted["bar-Z3-w5"]["invariants"]["0"] = [4]
    _, times, _, failures, _ = worker.run_pass([case], corrupted)
    assert failures == 1 and len(times) == 1, "corrupted invariant was not caught"
    print("ok: a corrupted expected invariant gives failed_ratio %.1f" % (failures / len(times)))


def check_trace_reports_every_layer(expected, doc_dir):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    originals = (intlinalg.smith_normal_form, resolutions.kernel_basis,
                 intlinalg.LatticeSolver.__dict__["solve"])
    spans = os.path.join(doc_dir, "spans.jsonl")
    summary = worker.measure("scenario-mix", 0, 0, 1, expected, doc_dir, spans)
    assert summary["failed"] == 0, "traced run had failures"
    missing = [n for n in names if n not in summary["layers"]]
    assert not missing, "per-layer metrics missing: %s" % missing
    extra = [n for n in summary["layers"] if n not in names]
    assert not extra, "per-layer metrics not in BENCHMARK.json: %s" % extra
    layers = summary["layers"]
    for name in ("intlinalg.snf.calls", "formation.check.calls", "tate.cup.calls",
                 "groups.abelianization.calls", "resolutions.build.calls"):
        assert layers[name] > 0, "%s is zero on scenario-mix" % name
    assert (intlinalg.smith_normal_form, resolutions.kernel_basis,
            intlinalg.LatticeSolver.__dict__["solve"]) == originals, \
        "tracer left wrappers installed"
    with open(spans) as fh:
        count = sum(1 for _ in fh)
    assert count >= layers["intlinalg.snf.calls"], "spans were not written"
    print("ok: traced run reports all %d per-layer metrics, %d spans written"
          % (len(names), count))


def main():
    expected = cases.load_expected()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as doc_dir:
        check_corruption_is_caught(expected, doc_dir)
        check_trace_reports_every_layer(expected, doc_dir)


if __name__ == "__main__":
    main()
