"""Seeded case generators for the three benchmark workloads.

A case is one unit of user-visible work: one group's Tate groups, or one
scenario document run through the command line in process.  The seed picks
the order of the cases and the element relabelings of the groups that are
relabeled; it never changes a problem size.

A group is relabeled only where the labels barely move the cost, so that
the seed does not set the timings.  Measured on the seed commit with the
labels a seed can draw:
  * bar Z/6 at window 4 takes 3.5-7.7 s and bar Z/4 at window 5 3.2-5.3 s;
    bar Z/3 0.16-0.24 s, so only Z/3 is relabeled in bar-homology;
  * peeled ranks depend on the labels (C2^3 at window 5: 22 to 28 in the
    top degree; S4 at window 3: 1,2,3,6 to 1,3,6,10), which changes the
    problem size, and some S4 relabelings run for minutes, so no peeled
    group is relabeled;
  * the cyclic formation documents take 2.2-4.4 s at order 24, 0.9-1.7 s
    at order 20 and 0.4-0.6 s at order 16, so those keep the canonical
    table; orders 3, 4, 6 and 12 are relabeled.

Correctness is judged on label-free data only: invariants, orders, verdicts
and row counts.  Coordinates, subgroup element lists and dimensions are not
compared, because a relabeling or a new elimination path may move them.
"""

import io
import json
import os
import random
import re
from contextlib import redirect_stdout
from functools import reduce

from tateform import cli, gcomplexes, gmodules, groups, resolutions, scenarios, tate

WORKLOADS = ("bar-homology", "peeled-resolution", "scenario-mix")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def relabel(table, rng):
    """The same group with its elements renamed by a random permutation."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def _table(G):
    return [list(row) for row in G.table]


# ---------------------------------------------------------------------------
# group cases: bar-homology and peeled-resolution


class GroupCase:
    """Tate groups of Z over one resolution of one group."""

    def __init__(self, name, table, engine, window, lo, hi):
        self.name = name
        self.table = table
        self.engine = engine
        self.window = window
        self.lo, self.hi = lo, hi

    def run(self):
        """Returns (label-free result, bytes of output)."""
        G = groups.from_table(self.table)
        X = resolutions.complete_resolution(
            resolutions.resolution_for(G, self.window, self.engine))
        C = gcomplexes.concentrate(gmodules.zmodule(G), 0)
        T = tate.tate_hypercohomology(X, C, self.lo, self.hi)
        inv = {str(q): list(T.invariants(q)) for q in range(self.lo, self.hi + 1)}
        return {"invariants": inv}, 0


def _bar_cases(rng):
    c = groups.make_cyclic
    return [
        GroupCase("bar-Z6-w4", _table(c(6)), "bar", 4, -3, 3),
        GroupCase("bar-Z4-w5", _table(c(4)), "bar", 5, -4, 4),
        GroupCase("bar-Z3-w5", relabel(_table(c(3)), rng), "bar", 5, -4, 4),
    ]


def _peeled_cases():
    c2 = groups.make_cyclic(2)
    return [
        GroupCase("peeled-S4-w5", _table(groups.symmetric_group(4)),
                  "peeled", 5, -3, 3),
        GroupCase("peeled-C2^3-w5",
                  _table(reduce(groups.direct_product, [c2, c2, c2])),
                  "peeled", 5, -3, 3),
    ]


# ---------------------------------------------------------------------------
# scenario cases: the command line, in process


_ELEMENT_LIST = re.compile(r"\s*\[[0-9, ]*\]")


def _rows(rows, keys):
    return sorted([[r[k] for k in keys] for r in rows], key=json.dumps)


def digest(report):
    """The label-free content of a JSON report: invariants, orders,
    verdicts and row counts, with subgroups reduced to their orders."""
    out = []
    for r in report["results"]:
        kind = r["analysis"]
        d = {"analysis": kind}
        if kind == "tate":
            d["rows"] = [[x["q"], x["invariants"], x["order"]] for x in r["rows"]]
        elif kind == "formation":
            d["verdict"] = _ELEMENT_LIST.sub("", r["verdict"])
            d["c1"] = _rows([dict(x, subgroup=len(x["subgroup"])) for x in r["c1"]],
                            ("subgroup", "h1", "ok"))
            d["c2"] = _rows([dict(x, subgroup=len(x["subgroup"])) for x in r["c2"]],
                            ("subgroup", "h2", "required", "ok"))
            d["c3"] = _rows([{"u": len(x["upper"]), "v": len(x["lower"]), "ok": x["ok"]}
                             for x in r["c3"]], ("u", "v", "ok"))
            d["generators"] = len(r["generators"])
            d["candidates_tried"] = r["candidates_tried"]
            f = r["fundamental"]
            d["fundamental_order"] = None if f is None else f["order"]
            rec = r["reciprocity"]
            d["reciprocity"] = None if rec is None else [
                rec["source"], rec["target"], rec["isomorphism"]]
        elif kind == "norm-table":
            if "skipped" in r:
                d["skipped"] = r["skipped"]
            else:
                d["rows"] = _rows([dict(x, subgroup=len(x["subgroup"]))
                                   for x in r["rows"]],
                                  ("subgroup", "quotient", "target", "ok"))
                d["verdict"] = r["verdict"]
        elif kind == "tate-nakayama":
            d["candidate_order"] = r["candidate"]["order"]
            d["hypothesis_i"] = _rows(
                [dict(x, subgroup=len(x["subgroup"])) for x in r["hypothesis_i"]],
                ("subgroup", "h1", "ok"))
            d["hypothesis_ii"] = _rows(
                r["hypothesis_ii"], ("subgroup_order", "res_order", "h2", "ok"))
            d["conclusion"] = [[x["q"], x["source"], x["target"], x["isomorphism"]]
                               for x in r["conclusion"]]
            d["verdict"] = r["verdict"]
        elif kind == "cone-les":
            d["m"] = r["m"]
            d["rows"] = [[x["i"], x["cone_order"], x["quotient_order"],
                          x["torsion_order"], x["ok"]] for x in r["rows"]]
            d["maps"] = [[x["i"], x["inclusion_image"], x["projection_image"],
                          x["ok"]] for x in r["maps"]]
            d["verdict"] = r["verdict"]
        else:
            raise ValueError("unknown analysis %r in report" % kind)
        out.append(d)
    return {"results": out, "reported_rows": report["timing"]["total"]}


class ScenarioCase:
    """One `tateform demo|run ... --format json` call, stdout captured.

    ``golden``, when set, is the exact expected stdout."""

    def __init__(self, name, argv, golden=None):
        self.name = name
        self.argv = argv
        self.golden = golden

    def run(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(self.argv)
        text = buf.getvalue()
        if code != 0:
            raise RuntimeError("exit code %d" % code)
        if self.golden is not None and text != self.golden:
            raise RuntimeError("output differs from the golden file")
        return digest(json.loads(text)), len(text.encode())


def _doc(name, group, coefficients, analyses, **options):
    opts = {"engine": "auto", "window": 6, "max_order": 24}
    opts.update(options)
    return {"name": name, "group": group, "coefficients": coefficients,
            "analyses": analyses, "options": opts}


def generated_documents(rng):
    """Scenario documents beyond the bundled catalog; cyclic tables up to
    order 12 are relabeled."""
    trivial = {"kind": "trivial", "shift": 0}

    def cyclic_table(n):
        table = _table(groups.make_cyclic(n))
        return {"kind": "table", "table": relabel(table, rng) if n <= 12 else table}

    docs = []
    for n in (12, 16, 20, 24):
        docs.append(_doc("cyclic-%d-formation" % n, cyclic_table(n), trivial,
                         [{"kind": "formation"}, {"kind": "norm-table"},
                          {"kind": "tate-nakayama"}]))
    docs.append(_doc("s4-formation-w3",
                     {"kind": "table", "table": _table(groups.symmetric_group(4))},
                     trivial, [{"kind": "formation"}], window=3))
    # finite-field units need the cyclic group kind, so they keep their labels
    docs.append(_doc("units-f25", {"kind": "cyclic", "n": 2},
                     {"kind": "finite-field-units", "p": 5, "f": 1, "n": 2,
                      "shift": 0},
                     [{"kind": "tate", "range": [-2, 3]}, {"kind": "formation"}]))
    docs.append(_doc("units-f27", {"kind": "cyclic", "n": 3},
                     {"kind": "finite-field-units", "p": 3, "f": 1, "n": 3,
                      "shift": 0},
                     [{"kind": "tate", "range": [-2, 3]}]))
    docs.append(_doc("units-f16-shift", {"kind": "cyclic", "n": 2},
                     {"kind": "tensor-power-shift",
                      "base": {"kind": "finite-field-units", "p": 2, "f": 2,
                               "n": 2, "shift": 0},
                      "power": 1},
                     [{"kind": "formation"}]))
    docs.append(_doc("regular-6", cyclic_table(6), {"kind": "regular", "shift": 0},
                     [{"kind": "tate", "range": [-2, 2]}, {"kind": "formation"}]))
    docs.append(_doc("cone-les-3", cyclic_table(3), trivial,
                     [{"kind": "cone-les", "m": m} for m in (2, 3, 6)]))
    docs.append(_doc("cone-les-4", cyclic_table(4), trivial,
                     [{"kind": "cone-les", "m": m, "range": [-1, 2]}
                      for m in (2, 4)]))
    return docs


def _scenario_cases(rng, doc_dir):
    cases = []
    for name in scenarios.bundled_names():
        golden = None
        path = os.path.join(GOLDEN_DIR, name + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                golden = fh.read()
        cases.append(ScenarioCase("demo:" + name,
                                  ["demo", name, "--format", "json"], golden))
    for doc in generated_documents(rng):
        path = os.path.join(doc_dir, doc["name"] + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        cases.append(ScenarioCase("run:" + doc["name"],
                                  ["run", path, "--format", "json"]))
    return cases


def build_cases(workload, seed, pass_index, doc_dir):
    """The cases of one pass, in seeded order.  Scenario documents are
    written into ``doc_dir``."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_index))
    if workload == "bar-homology":
        cases = _bar_cases(rng)
    elif workload == "peeled-resolution":
        cases = _peeled_cases()
    elif workload == "scenario-mix":
        cases = _scenario_cases(rng, doc_dir)
    else:
        raise ValueError("unknown workload %r; choose from %s"
                         % (workload, ", ".join(WORKLOADS)))
    rng.shuffle(cases)
    return cases


def canonical_results(doc_dir):
    """Results of every case of every workload, as expected.json stores
    them.  Relabelings do not change them, so pass 0 of seed 0 serves."""
    out = {}
    for workload in WORKLOADS:
        for case in build_cases(workload, 0, 0, doc_dir):
            out[case.name] = case.run()[0]
    return dict(sorted(out.items()))


if __name__ == "__main__":
    # Regenerate expected.json from the current program:
    #   PYTHONPATH=src python3 bench/cases.py
    import tempfile

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        results = canonical_results(tmp)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d expected results to %s" % (len(results), EXPECTED_PATH))
