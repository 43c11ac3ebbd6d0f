"""Command-line front end: parse scenario documents, run the analyses,
emit deterministic text or JSON reports.

Input format: a JSON object with keys `group`, `coefficients`, `analyses`,
`options` (plus `name`).  Reports echo the normalized input; repeated runs
of the same scenario are byte-identical, so the timing block carries a
deterministic work count instead of wall-clock numbers.
"""

import argparse
import json
import os
import re
import sys
from functools import reduce
from typing import List, Optional

from .errors import (
    CapExceeded,
    LiftingError,
    ParseError,
    ValidationError,
    WindowError,
)
from .formation import check_class_formation, norm_group_table
from .gcomplexes import GComplex, concentrate, tensor_power_shifted
from .gmodules import GModule, finite_field_units, regular_module, zmodule
from .groups import FiniteGroup, direct_product, from_table, make_cyclic
from .intlinalg import int_list, intmat, zeros
from .resolutions import complete_resolution, resolution_for
from .scenarios import (
    bundled_description,
    bundled_document,
    bundled_names,
    catalog_lines,
)
from .tate import cone_les_check, tate_hypercohomology, tate_nakayama_check

GROUP_KINDS = ("cyclic", "product", "table")
COEFF_KINDS = ("trivial", "regular", "finite-field-units",
               "tensor-power-shift", "complex")
ANALYSIS_KINDS = ("tate", "formation", "tate-nakayama", "cone-les",
                  "norm-table")
ENGINES = ("auto", "bar", "periodic")

DEFAULT_RANGE = (-2, 3)
DEFAULT_WINDOW = 6
DEFAULT_MAX_ORDER = 24


class ScenarioSpec:
    """A validated, fully defaulted scenario."""

    def __init__(self, name: str, group: dict, coefficients: dict,
                 analyses: List[dict], options: dict):
        self.name = name
        self.group = group
        self.coefficients = coefficients
        self.analyses = analyses
        self.options = options

    def __eq__(self, other):
        return (isinstance(other, ScenarioSpec)
                and self.name == other.name
                and self.group == other.group
                and self.coefficients == other.coefficients
                and self.analyses == other.analyses
                and self.options == other.options)

    def __repr__(self):
        return "ScenarioSpec(%r)" % self.name


# ---------------------------------------------------------------------------
# parsing


def _fail(path: str, message: str):
    raise ParseError("%s: %s" % (path, message))


def _need_dict(doc, path):
    if not isinstance(doc, dict):
        _fail(path, "expected an object, got %s" % type(doc).__name__)
    return doc


def _need_int(doc, path, minimum=None):
    if not isinstance(doc, int) or isinstance(doc, bool):
        _fail(path, "expected an integer")
    if minimum is not None and doc < minimum:
        _fail(path, "must be >= %d" % minimum)
    return doc


def _need_keys(doc, path, required, optional=()):
    for key in required:
        if key not in doc:
            _fail(path, "missing key %r" % key)
    for key in doc:
        if key not in required and key not in optional:
            _fail("%s.%s" % (path, key), "unknown key")


def _need_matrix(doc, path, shape=None):
    """A non-empty list of equal-length integer rows; with ``shape``, a
    rows x cols matrix, written [] when it has no rows."""
    if shape is not None and shape[0] == 0:
        if doc != []:
            _fail(path, "expected [] for a matrix with no rows")
        return doc
    if not isinstance(doc, list) or not doc or \
            not all(isinstance(r, list) for r in doc):
        _fail(path, "expected a non-empty list of rows")
    width = len(doc[0])
    for i, row in enumerate(doc):
        if len(row) != width:
            _fail("%s[%d]" % (path, i), "ragged row")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                _fail("%s[%d][%d]" % (path, i, j), "expected an integer")
    if shape is not None and (len(doc), width) != shape:
        _fail(path, "expected a %d x %d matrix, got %d x %d"
              % (shape + (len(doc), width)))
    return doc


def _parse_group(doc, max_order):
    """The normalized group description and the group's order."""
    doc = _need_dict(doc, "group")
    kind = doc.get("kind")
    if kind not in GROUP_KINDS:
        _fail("group.kind", "expected one of %s, got %r"
              % ("/".join(GROUP_KINDS), kind))
    if kind == "cyclic":
        _need_keys(doc, "group", ("kind", "n"))
        n = _need_int(doc["n"], "group.n", 1)
        order = n
        out = {"kind": "cyclic", "n": n}
    elif kind == "product":
        _need_keys(doc, "group", ("kind", "factors"))
        factors = doc["factors"]
        if not isinstance(factors, list) or not factors:
            _fail("group.factors", "expected a non-empty list")
        factors = [_need_int(f, "group.factors[%d]" % i, 1)
                   for i, f in enumerate(factors)]
        order = 1
        for f in factors:
            order *= f
        out = {"kind": "product", "factors": factors}
    else:
        _need_keys(doc, "group", ("kind", "table"))
        table = _need_matrix(doc["table"], "group.table")
        if len(table) != len(table[0]):
            _fail("group.table", "table must be square")
        order = len(table)
        out = {"kind": "table", "table": [list(r) for r in table]}
    if order > max_order:
        _fail("group", "order %d exceeds the configured cap %d "
              "(options.max_order)" % (order, max_order))
    if kind == "table":
        # checked after the cap, since the associativity check is cubic;
        # group-law violations surface as input errors, with the path
        try:
            from_table(out["table"])
        except ValidationError as e:
            _fail("group.table", str(e))
    return out, order


def _parse_module_desc(doc, path, allow_explicit=True):
    doc = _need_dict(doc, path)
    kind = doc.get("kind")
    if kind in ("trivial", "regular"):
        _need_keys(doc, path, ("kind",), ("shift",))
        return {"kind": kind, "shift": _need_int(doc.get("shift", 0),
                                                 path + ".shift")}
    if kind == "finite-field-units":
        _need_keys(doc, path, ("kind", "p", "f", "n"), ("shift",))
        return {
            "kind": kind,
            "p": _need_int(doc["p"], path + ".p", 2),
            "f": _need_int(doc["f"], path + ".f", 1),
            "n": _need_int(doc["n"], path + ".n", 1),
            "shift": _need_int(doc.get("shift", 0), path + ".shift"),
        }
    if not allow_explicit:
        _fail(path + ".kind", "expected a module kind "
              "(trivial/regular/finite-field-units), got %r" % kind)
    _fail(path + ".kind", "expected one of %s, got %r"
          % ("/".join(COEFF_KINDS), kind))


def _parse_coefficients(doc, group, order):
    doc = _need_dict(doc, "coefficients")
    kind = doc.get("kind")
    if kind == "tensor-power-shift":
        _need_keys(doc, "coefficients", ("kind", "base", "power"))
        base = _parse_module_desc(doc["base"], "coefficients.base",
                                  allow_explicit=False)
        if base["shift"] != 0:
            _fail("coefficients.base.shift",
                  "the power fixes the placement; base shift must be 0")
        power = _need_int(doc["power"], "coefficients.power", 0)
        out = {"kind": kind, "base": base, "power": power}
    elif kind == "complex":
        _need_keys(doc, "coefficients", ("kind", "lo", "terms"), ("diffs",))
        lo = _need_int(doc["lo"], "coefficients.lo")
        terms = doc["terms"]
        if not isinstance(terms, list) or not terms:
            _fail("coefficients.terms", "expected a non-empty list")
        parsed_terms = []
        for i, t in enumerate(terms):
            tpath = "coefficients.terms[%d]" % i
            t = _need_dict(t, tpath)
            _need_keys(t, tpath, ("gens", "action"), ("relators",))
            gens = _need_int(t["gens"], tpath + ".gens", 0)
            rel = t.get("relators", [])
            if rel != []:
                rel = _need_matrix(rel, tpath + ".relators")
                for j, row in enumerate(rel):
                    if len(row) != gens:
                        _fail(tpath + ".relators[%d]" % j,
                              "relator length %d, expected %d"
                              % (len(row), gens))
            action = t["action"]
            if not isinstance(action, list) or len(action) != order:
                _fail(tpath + ".action", "expected a list of %d matrices, "
                      "one per group element" % order)
            for g, a in enumerate(action):
                _need_matrix(a, tpath + ".action[%d]" % g, (gens, gens))
            parsed_terms.append({"gens": gens,
                                 "relators": [list(r) for r in rel],
                                 "action": action})
        diffs = doc.get("diffs", [])
        if not isinstance(diffs, list):
            _fail("coefficients.diffs", "expected a list of matrices")
        if len(diffs) != max(len(parsed_terms) - 1, 0):
            _fail("coefficients.diffs", "need %d differentials for %d terms"
                  % (max(len(parsed_terms) - 1, 0), len(parsed_terms)))
        for i, d in enumerate(diffs):
            _need_matrix(d, "coefficients.diffs[%d]" % i,
                         (parsed_terms[i + 1]["gens"], parsed_terms[i]["gens"]))
        out = {"kind": kind, "lo": lo, "terms": parsed_terms, "diffs": diffs}
    else:
        out = _parse_module_desc(doc, "coefficients")
    ffu = out["base"] if out["kind"] == "tensor-power-shift" else out
    if ffu.get("kind") == "finite-field-units":
        if group["kind"] != "cyclic" or group["n"] != ffu["n"]:
            _fail("coefficients",
                  "finite-field-units(p, f, %d) needs the scenario group "
                  "to be cyclic of order %d" % (ffu["n"], ffu["n"]))
    return out


def _parse_analysis(doc, i):
    path = "analyses[%d]" % i
    doc = _need_dict(doc, path)
    kind = doc.get("kind")
    if kind not in ANALYSIS_KINDS:
        _fail(path + ".kind", "expected one of %s, got %r"
              % ("/".join(ANALYSIS_KINDS), kind))
    out = {"kind": kind}
    if kind in ("formation", "norm-table"):
        _need_keys(doc, path, ("kind",))
        return out
    if kind == "cone-les":
        _need_keys(doc, path, ("kind", "m"), ("range",))
        out["m"] = _need_int(doc["m"], path + ".m", 1)
        default = (-2, 2)
    else:
        _need_keys(doc, path, ("kind",), ("range",))
        default = DEFAULT_RANGE
    rng = doc.get("range", list(default))
    if not (isinstance(rng, list) and len(rng) == 2):
        _fail(path + ".range", "expected [qmin, qmax]")
    lo = _need_int(rng[0], path + ".range[0]")
    hi = _need_int(rng[1], path + ".range[1]")
    if lo > hi:
        _fail(path + ".range", "qmin %d exceeds qmax %d" % (lo, hi))
    out["range"] = [lo, hi]
    return out


def parse_scenario(document) -> ScenarioSpec:
    """Validate a scenario document and fill in defaults.  Violations
    raise ParseError naming the offending field."""
    doc = _need_dict(document, "scenario")
    _need_keys(doc, "scenario", ("name", "group", "coefficients", "analyses"),
               ("options",))
    name = doc["name"]
    if not isinstance(name, str) or not name:
        _fail("name", "expected a non-empty string")
    options = _need_dict(doc.get("options", {}), "options")
    _need_keys(options, "options", (), ("engine", "window", "max_order"))
    engine = options.get("engine", "auto")
    if engine not in ENGINES:
        _fail("options.engine", "expected one of %s, got %r"
              % ("/".join(ENGINES), engine))
    window = _need_int(options.get("window", DEFAULT_WINDOW),
                       "options.window", 1)
    max_order = _need_int(options.get("max_order", DEFAULT_MAX_ORDER),
                          "options.max_order", 1)
    group, order = _parse_group(doc["group"], max_order)
    coefficients = _parse_coefficients(doc["coefficients"], group, order)
    analyses_doc = doc["analyses"]
    if not isinstance(analyses_doc, list) or not analyses_doc:
        _fail("analyses", "expected a non-empty list")
    analyses = [_parse_analysis(a, i) for i, a in enumerate(analyses_doc)]
    return ScenarioSpec(name, group, coefficients, analyses,
                        {"engine": engine, "window": window,
                         "max_order": max_order})


def serialize_scenario(spec: ScenarioSpec) -> dict:
    """The normalized document; parse(serialize(spec)) == spec."""
    return {
        "name": spec.name,
        "group": spec.group,
        "coefficients": spec.coefficients,
        "analyses": spec.analyses,
        "options": spec.options,
    }


# ---------------------------------------------------------------------------
# building and running


def _build_group(spec: ScenarioSpec) -> FiniteGroup:
    g = spec.group
    if g["kind"] == "cyclic":
        return make_cyclic(g["n"])
    if g["kind"] == "product":
        return reduce(direct_product, [make_cyclic(f) for f in g["factors"]])
    return from_table(g["table"])


def _build_module(G: FiniteGroup, desc: dict) -> GModule:
    if desc["kind"] == "trivial":
        return zmodule(G)
    if desc["kind"] == "regular":
        return regular_module(G)
    # finite-field units come with their own copy of Z/n; rebuild the
    # module over the scenario's group (same table), revalidating the action
    M0 = finite_field_units(desc["p"], desc["f"], desc["n"])
    return GModule(G, M0.relators, [M0.act(k) for k in range(G.order)],
                   name=M0.name)


def _build_coefficients(G: FiniteGroup, desc: dict) -> GComplex:
    if desc["kind"] == "tensor-power-shift":
        return tensor_power_shifted(_build_module(G, desc["base"]),
                                    desc["power"])
    if desc["kind"] == "complex":
        terms = []
        for t in desc["terms"]:
            gens = t["gens"]
            rel = intmat(t["relators"]).T if t["relators"] else zeros(gens, 0)
            action = [intmat(a) for a in t["action"]]
            terms.append(GModule(G, rel, action))
        diffs = [intmat(d).reshape(terms[i + 1].gens, terms[i].gens)
                 for i, d in enumerate(desc["diffs"])]
        return GComplex(G, desc["lo"], terms, diffs)
    return concentrate(_build_module(G, desc), desc["shift"])


def _run_tate(X, C, analysis) -> dict:
    lo, hi = analysis["range"]
    T = tate_hypercohomology(X, C, lo, hi)
    rows = [{"q": q,
             "invariants": int_list(T.invariants(q)),
             "order": int(T.order(q)),
             "dim": int(T.total.dim[q])}
            for q in range(lo, hi + 1)]
    return {"analysis": "tate", "range": [lo, hi], "rows": rows}


def _tate_nakayama(X, C, analysis):
    """The Tate-Nakayama check of the first generator of H^2 over [1, 2]."""
    lo, hi = analysis["range"]
    t2 = tate_hypercohomology(X, C, 1, 2)
    g2 = t2.group(2)
    coords = () if g2.ngens == 0 else (1,) + (0,) * (g2.ngens - 1)
    return tate_nakayama_check(X, C, t2.class_at(2, coords), lo, hi)


def run_scenario(spec: ScenarioSpec) -> dict:
    """Execute every requested analysis and assemble the report document."""
    G = _build_group(spec)
    C = _build_coefficients(G, spec.coefficients)
    X = complete_resolution(resolution_for(G, spec.options["window"],
                                           spec.options["engine"]))
    formation_rep = None
    results = []
    for analysis in spec.analyses:
        kind = analysis["kind"]
        if kind == "tate":
            results.append(_run_tate(X, C, analysis))
        elif kind == "tate-nakayama":
            results.append(_tate_nakayama(X, C, analysis).as_dict())
        elif kind == "cone-les":
            lo, hi = analysis["range"]
            results.append(
                cone_les_check(X, C, analysis["m"], lo, hi).as_dict())
        else:
            if formation_rep is None:
                formation_rep = check_class_formation(X, C)
            if kind == "formation":
                results.append(formation_rep.as_dict())
            elif not formation_rep.passed:
                results.append({"analysis": "norm-table",
                                "skipped": "formation verdict: "
                                           + formation_rep.verdict})
            else:
                results.append(norm_group_table(
                    X, C, formation_rep.fundamental,
                    formation_rep.reciprocity).as_dict())
    rows = 0
    for r in results:
        for key in ("rows", "c1", "c2", "c3", "conclusion", "maps",
                    "hypothesis_i", "hypothesis_ii"):
            rows += len(r.get(key, ()))
    return {
        "scenario": serialize_scenario(spec),
        "results": results,
        "timing": {"mode": "deterministic", "unit": "reported-rows",
                   "total": rows},
    }


# ---------------------------------------------------------------------------
# rendering


def _fmt_inv(inv: List[int]) -> str:
    if not inv:
        return "0"
    return " x ".join("Z/%d" % t for t in inv)


def render_text(report: dict) -> List[str]:
    """The text form of a whole report document."""
    spec = report["scenario"]
    out = ["scenario %s" % spec["name"],
           "  group: %s" % json.dumps(spec["group"], sort_keys=True),
           "  coefficients: %s" % json.dumps(spec["coefficients"],
                                             sort_keys=True)]
    for r in report["results"]:
        out.extend(render_result(r))
    out.append("work: %d reported rows (deterministic accounting)"
               % report["timing"]["total"])
    return out


def render_result(r: dict) -> List[str]:
    """The text form of one analysis result, a report's ``as_dict()``."""
    out = []
    kind = r["analysis"]
    if kind == "tate":
        out.append("[tate] degrees %d..%d" % tuple(r["range"]))
        for row in r["rows"]:
            out.append("  H^%+d = %s (order %d, cochain dim %d)"
                       % (row["q"], _fmt_inv(row["invariants"]),
                          row["order"], row["dim"]))
    elif kind == "formation":
        out.append("[formation] %s" % r["verdict"])
        for row in r["c1"]:
            out.append("  (C1) subgroup %s: H^1 = %s %s"
                       % (row["subgroup"], _fmt_inv(row["h1"]),
                          "ok" if row["ok"] else "VIOLATED"))
        for row in r["c2"]:
            out.append("  (C2) subgroup %s: H^2 = %s, need Z/%d %s"
                       % (row["subgroup"], _fmt_inv(row["h2"]),
                          row["required"],
                          "ok" if row["ok"] else "VIOLATED"))
        for row in r["c3"]:
            out.append("  (C3) res %s -> %s: %s"
                       % (row["upper"], row["lower"],
                          "compatible" if row["ok"] else "INCOMPATIBLE"))
        for g in r["generators"]:
            out.append("  generator on %s: coords %s"
                       % (g["subgroup"], g["coords"]))
        if r["fundamental"]:
            out.append("  fundamental class: coords %s, order %d"
                       % (r["fundamental"]["coords"],
                          r["fundamental"]["order"]))
        if r["reciprocity"]:
            rec = r["reciprocity"]
            out.append("  reciprocity %s -> %s: %s, matrix %s"
                       % (_fmt_inv(rec["source"]), _fmt_inv(rec["target"]),
                          "isomorphism" if rec["isomorphism"]
                          else "NOT an isomorphism", rec["matrix"]))
        for note in r["notes"]:
            out.append("  note: %s" % note)
    elif kind == "tate-nakayama":
        out.append("[tate-nakayama] %s (candidate coords %s, order %d)"
                   % (r["verdict"], r["candidate"]["coords"],
                      r["candidate"]["order"]))
        for row in r["hypothesis_i"]:
            out.append("  (i)  subgroup %s: H^1 = %s %s"
                       % (row["subgroup"], _fmt_inv(row["h1"]),
                          "ok" if row["ok"] else "VIOLATED"))
        for row in r["hypothesis_ii"]:
            out.append("  (ii) subgroup %s: |H| = %d, res order %d, "
                       "H^2 = %s %s"
                       % (row["subgroup"], row["subgroup_order"],
                          row["res_order"], _fmt_inv(row["h2"]),
                          "ok" if row["ok"] else "VIOLATED"))
        for row in r["conclusion"]:
            out.append("  cup at q = %+d: %s -> %s %s"
                       % (row["q"], _fmt_inv(row["source"]),
                          _fmt_inv(row["target"]),
                          "isomorphism" if row["isomorphism"]
                          else "NOT an isomorphism"))
    elif kind == "cone-les":
        out.append("[cone-les] m = %d: %s" % (r["m"], r["verdict"]))
        for row in r["rows"]:
            out.append("  i = %+d: |H(cone)| = %d vs %d * %d %s"
                       % (row["i"], row["cone_order"],
                          row["quotient_order"], row["torsion_order"],
                          "ok" if row["ok"] else "MISMATCH"))
        for row in r["maps"]:
            out.append("  i = %+d: |im incl| = %d, |im proj| = %d %s"
                       % (row["i"], row["inclusion_image"],
                          row["projection_image"],
                          "ok" if row["ok"] else "NOT EXACT"))
    else:
        if "skipped" in r:
            out.append("[norm-table] skipped: %s" % r["skipped"])
        else:
            out.append("[norm-table] %s" % r["verdict"])
            for row in r["rows"]:
                out.append("  V = %s: H^0/cor = %s vs (G/V)^ab = %s %s"
                           % (row["subgroup"], _fmt_inv(row["quotient"]),
                              _fmt_inv(row["target"]),
                              "ok" if row["ok"] else "MISMATCH"))
    return out


# ---------------------------------------------------------------------------
# argument handling


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _range_flag(text: str):
    m = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", text)
    if not m:
        raise _Usage("--range expects qmin..qmax, got %r" % text)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise _Usage("--range: qmin %d exceeds qmax %d" % (lo, hi))
    return [lo, hi]


def _build_parser() -> _Parser:
    parser = _Parser(prog="tateform",
                     description="Exact Tate hypercohomology and "
                                 "class-formation checking.")
    common = _Parser(add_help=False)
    common.add_argument("--range", default=None,
                        help="override analysis degree ranges, qmin..qmax")
    common.add_argument("--engine", choices=ENGINES, default=None,
                        help="resolution engine (default auto)")
    common.add_argument("--window", type=int, default=None,
                        help="resolution window (default %d)" % DEFAULT_WINDOW)
    common.add_argument("--max-order", type=int, default=None,
                        help="largest allowed group order (default %d)"
                             % DEFAULT_MAX_ORDER)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    sub = parser.add_subparsers(dest="verb")
    p_run = sub.add_parser("run", parents=[common],
                           help="run a scenario from a JSON file")
    p_run.add_argument("file")
    p_demo = sub.add_parser("demo", parents=[common],
                            help="run a bundled scenario by name")
    p_demo.add_argument("name")
    sub.add_parser("list", parents=[common],
                   help="list the bundled scenarios")
    p_val = sub.add_parser("validate", parents=[common],
                           help="parse and echo a scenario file")
    p_val.add_argument("file")
    return parser


def _apply_overrides(document: dict, args) -> dict:
    doc = json.loads(json.dumps(document))
    if not isinstance(doc, dict):
        return doc
    opts = doc.setdefault("options", {})
    if isinstance(opts, dict):
        if args.engine is not None:
            opts["engine"] = args.engine
        if args.window is not None:
            opts["window"] = args.window
        if args.max_order is not None:
            opts["max_order"] = args.max_order
    if args.range is not None and isinstance(doc.get("analyses"), list):
        rng = _range_flag(args.range)
        for a in doc["analyses"]:
            if isinstance(a, dict) and a.get("kind") in (
                    "tate", "tate-nakayama", "cone-les"):
                a["range"] = list(rng)
    return doc


def _load_document(path: str) -> dict:
    # JSON text is UTF-8 (RFC 8259), whatever the locale says
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise _Usage("cannot read %s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise ParseError("%s: not UTF-8 text (%s)" % (path, e))
    except json.JSONDecodeError as e:
        raise ParseError("%s: not valid JSON (%s)" % (path, e))
    except RecursionError:
        raise ParseError("%s: JSON nested too deeply to read" % path)


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(render_text(report)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            raise _Usage("a command is required: run, demo, list, validate")
        if args.verb == "list":
            if args.format == "json":
                catalog = [{"name": n, "description": bundled_description(n)}
                           for n in bundled_names()]
                print(json.dumps({"scenarios": catalog}, indent=2,
                                 sort_keys=True))
            else:
                print("\n".join(catalog_lines()))
            return 0
        if args.verb == "demo":
            try:
                document = bundled_document(args.name)
            except KeyError:
                raise _Usage("unknown demo %r; names: %s"
                             % (args.name, ", ".join(bundled_names())))
        else:
            document = _load_document(args.file)
        document = _apply_overrides(document, args)
        spec = parse_scenario(document)
        if args.verb == "validate":
            if args.format == "json":
                print(json.dumps(serialize_scenario(spec), indent=2,
                                 sort_keys=True))
            else:
                print("valid scenario %r (%d analyses)"
                      % (spec.name, len(spec.analyses)))
            return 0
        report = run_scenario(spec)
        _emit(report, args.format)
        return 0
    except _Usage as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 1
    except (CapExceeded, WindowError, LiftingError, ValueError) as e:
        # ValueError covers ValidationError, ExactnessError and the bare
        # ValueErrors of intlinalg; ParseError is reported above.
        print("computation error: %s" % e, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at
        # interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
