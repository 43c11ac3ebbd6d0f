"""Per-layer spans recorded from outside the tateform package.

``Tracer.install`` wraps the public functions and methods listed in TARGETS.
A function is replaced in every loaded tateform module that holds it, since
``from .intlinalg import kernel_basis`` binds a second name to the same
object; a method is replaced on its class.  Spans stay in memory as
(name, case, parent, start, end) and are written out once by ``dump``.
``uninstall`` puts every original back.
"""

import functools
import importlib
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

import tateform


def _snf_counts(c, args, kwargs, result):
    # Bit sizes are read from the input and the invariant factors only: a
    # scan of the returned transforms would cost more than the spans around
    # it.  Transform entries reach later inputs (kernel bases feed the next
    # elimination), so their growth still shows here.
    a = args[0]
    rows, cols = a.shape
    bits = max((abs(int(x)).bit_length() for x in result.diagonal), default=0)
    if a.size:
        bits = max(bits, abs(int(a.max())).bit_length(), abs(int(a.min())).bit_length())
    c["snf.cells"] += a.size
    c["snf.transform_cells"] += (result.u.size + result.u_inv.size
                                 + result.v.size + result.v_inv.size)
    c["snf.max_rows"] = max(c["snf.max_rows"], rows)
    c["snf.max_cols"] = max(c["snf.max_cols"], cols)
    c["snf.max_bits"] = max(c["snf.max_bits"], bits)


def _build_counts(c, args, kwargs, result):
    c["build.rank_sum"] += sum(result.ranks)
    c["build.max_rank"] = max(c["build.max_rank"], max(result.ranks))


def _total_complex_counts(c, args, kwargs, result):
    total = args[0]
    c["total_complex.max_dim"] = max(c["total_complex.max_dim"], max(total.dim.values()))
    c["total_complex.cells"] += sum(d.size for d in total.diff.values())


def _formation_counts(c, args, kwargs, result):
    c["formation.subgroups"] += len(result.c1_rows)
    c["formation.candidates_tried"] += result.candidates_tried


# (span name, module, attribute or Class.method, counter hook)
TARGETS = [
    ("intlinalg.snf", "intlinalg", "smith_normal_form", _snf_counts),
    ("intlinalg.kernel_basis", "intlinalg", "kernel_basis", None),
    ("intlinalg.lattice_basis", "intlinalg", "lattice_basis", None),
    ("intlinalg.cokernel_structure", "intlinalg", "cokernel_structure", None),
    ("intlinalg.preimage_lattice", "intlinalg", "preimage_lattice", None),
    ("intlinalg.subquotient", "intlinalg", "Subquotient.__init__", None),
    ("intlinalg.solver.factor", "intlinalg", "LatticeSolver.__init__", None),
    ("intlinalg.solver.solve", "intlinalg", "LatticeSolver.solve", None),
    ("groups.all_subgroups", "groups", "all_subgroups", None),
    ("groups.abelianization", "groups", "abelianization", None),
    ("resolutions.build", "resolutions", "bar_resolution", _build_counts),
    ("resolutions.build", "resolutions", "periodic_resolution", _build_counts),
    ("resolutions.build", "resolutions", "peeled_resolution", _build_counts),
    ("resolutions.free_full_matrix", "resolutions", "free_full_matrix", None),
    ("resolutions.full_diff", "resolutions", "CompleteResolution.full_diff", None),
    ("tate.total_complex", "tate", "TotalComplex.__init__", _total_complex_counts),
    ("tate.homology", "tate", "TotalComplex.homology", None),
    ("tate.tate_groups", "tate", "TateGroups.__init__", None),
    ("tate.subgroup_pair", "tate", "SubgroupPair.__init__", None),
    ("tate.cup", "tate", "cup_from_cochain", None),
    ("tate.shift_lift", "tate", "ShiftLift.__init__", None),
    ("tate.tate_nakayama", "tate", "tate_nakayama_check", None),
    ("tate.cone", "tate", "cone_les_check", None),
    ("tate.iota", "tate", "iota_abelianization", None),
    ("formation.check", "formation", "check_class_formation", _formation_counts),
    ("formation.reciprocity", "formation", "reciprocity_map", None),
    ("formation.norm_table", "formation", "norm_group_table", None),
    ("cli.parse", "cli", "parse_scenario", None),
    ("cli.run", "cli", "run_scenario", None),
    ("cli.render", "cli", "_emit", None),
]


class Tracer:
    def __init__(self):
        self.spans = []       # (name, case, parent index, start, end, outermost)
        self.counts = defaultdict(int)
        self.case = 0
        self._stack = []
        self._active = defaultdict(int)
        self._restore = []    # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outermost = active[name] == 0
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, self.case, parent, start, end, outermost)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for info in pkgutil.iter_modules(tateform.__path__):
            if info.name != "__main__":  # importing it would run the CLI
                importlib.import_module("tateform." + info.name)
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "tateform" or n.startswith("tateform.")]
        for name, module, attr, hook in TARGETS:
            owner = sys.modules["tateform." + module]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[meth]
                self._set(owner, meth, original, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for m in loaded:
                if getattr(m, attr, None) is original:
                    self._set(m, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        """Write every span as one JSON line: name, case, parent, start, end."""
        with open(path, "w") as fh:
            for name, case, parent, start, end, _ in self.spans:
                fh.write(json.dumps([name, case, parent, round(start, 7),
                                     round(end, 7)]) + "\n")

    def layer_metrics(self):
        """Per-layer totals: calls, inclusive seconds (outermost spans of a
        name only) and self seconds (duration minus direct children)."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end, outermost in self.spans:
            calls[name] += 1
            if outermost:
                incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, _, _, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        c = self.counts

        out = {}
        for layer in ("kernel_basis", "lattice_basis", "cokernel_structure",
                      "preimage_lattice", "subquotient"):
            out["intlinalg.%s.calls" % layer] = calls["intlinalg." + layer]
            out["intlinalg.%s.s" % layer] = incl["intlinalg." + layer]
        out["intlinalg.snf.calls"] = calls["intlinalg.snf"]
        out["intlinalg.snf.self_s"] = self_s["intlinalg.snf"]
        for key in ("cells", "transform_cells", "max_rows", "max_cols", "max_bits"):
            out["intlinalg.snf." + key] = c["snf." + key]
        factors = calls["intlinalg.solver.factor"]
        solves = calls["intlinalg.solver.solve"]
        out["intlinalg.solver.factor_calls"] = factors
        out["intlinalg.solver.factor_s"] = incl["intlinalg.solver.factor"]
        out["intlinalg.solver.solve_calls"] = solves
        out["intlinalg.solver.solve_s"] = incl["intlinalg.solver.solve"]
        out["intlinalg.solver.solves_per_factor"] = solves / factors if factors else 0.0
        for layer in ("all_subgroups", "abelianization"):
            out["groups.%s.calls" % layer] = calls["groups." + layer]
            out["groups.%s.s" % layer] = incl["groups." + layer]
        out["resolutions.build.calls"] = calls["resolutions.build"]
        out["resolutions.build.s"] = incl["resolutions.build"]
        out["resolutions.build.self_s"] = self_s["resolutions.build"]
        out["resolutions.rank_sum"] = c["build.rank_sum"]
        out["resolutions.max_rank"] = c["build.max_rank"]
        for layer in ("free_full_matrix", "full_diff"):
            out["resolutions.%s.calls" % layer] = calls["resolutions." + layer]
            out["resolutions.%s.s" % layer] = incl["resolutions." + layer]
        out["tate.total_complex.calls"] = calls["tate.total_complex"]
        out["tate.total_complex.self_s"] = self_s["tate.total_complex"]
        out["tate.total_complex.max_dim"] = c["total_complex.max_dim"]
        out["tate.total_complex.cells"] = c["total_complex.cells"]
        for layer in ("homology", "tate_groups", "subgroup_pair", "cup",
                      "shift_lift", "tate_nakayama", "cone", "iota"):
            out["tate.%s.calls" % layer] = calls["tate." + layer]
            out["tate.%s.s" % layer] = incl["tate." + layer]
        out["formation.check.calls"] = calls["formation.check"]
        out["formation.check.s"] = incl["formation.check"]
        out["formation.check.self_s"] = self_s["formation.check"]
        out["formation.subgroups"] = c["formation.subgroups"]
        out["formation.candidates_tried"] = c["formation.candidates_tried"]
        out["formation.reciprocity.s"] = incl["formation.reciprocity"]
        out["formation.norm_table.s"] = incl["formation.norm_table"]
        for layer in ("parse", "run", "render"):
            out["cli.%s.s" % layer] = incl["cli." + layer]
        return out
