"""Class-formation axioms at finite level, fundamental classes, the
reciprocity isomorphism, and norm-group tables.

A pair (G, C) is checked against
  (C1)  H^1(H, C) = 0 for every subgroup H,
  (C2)  H^2(H, C) cyclic of order |H| for every subgroup H,
  (C3)  a family of generators u_H of the groups H^2(H, C) compatible
        under restriction: res(u_U) = u_V whenever V <= U.

There is no canonical invariant map for an abstract formation, so the
family is chosen as the lexicographically least compatible one.  Each
subgroup's groups are G's with coinduced coefficients, on which
restriction is transitive on the nose, so the choice of u_G forces the
family.  It is in closed form: for the generator u of H^2(G, C) and each
of the phi(|G|) generators k u, the member at H is k res_H(u), since
restriction is linear, so each subgroup is restricted once.  Every
report carries a flag recording this convention.

Conjugation by g maps the Tate groups of H isomorphically to those of
gHg^-1, commutes with restriction from G and is the identity on G's (Brown,
Cohomology of Groups, III.8 and VI.5), so the (C1), (C2) and Tate-Nakayama
hypothesis rows are read once per conjugacy class of subgroups.
"""

from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .gcomplexes import GComplex
from .groups import (Subgroup, abelianization, all_subgroups,
                     conjugacy_representatives, whole_subgroup)
from .intlinalg import (
    AbGroup,
    AbMap,
    IntMatrix,
    LatticeSolver,
    cokernel_structure,
    eye,
    hstack,
    int_list,
    zeros,
)
from .tate import (SubgroupPair, TateClass, TateGroups, cup_with,
                   iota_abelianization, restriction_blocks,
                   tate_nakayama_check)

LEX_NOTE = ("generator choice: lexicographically least compatible family "
            "(no canonical inv_H for abstract formations)")
DENSE_NOTE = "dense (finite level: surjective)"


class FormationReport:
    """Axiom verdicts, the witnessing generator family, and the
    reciprocity data for one (G, C) pair."""

    def __init__(self):
        self.c1_rows: List[Tuple[tuple, tuple, bool]] = []
        self.c2_rows: List[Tuple[tuple, tuple, int, bool]] = []
        self.c3_rows: List[Tuple[tuple, tuple, bool]] = []
        self.generators: List[Tuple[tuple, Tuple[int, ...]]] = []
        self.candidates_tried = 0
        self.fundamental: Optional[TateClass] = None
        self.failure: Optional[str] = None
        self.reciprocity: Optional[AbMap] = None
        self.notes = [LEX_NOTE, DENSE_NOTE]

    @property
    def passed(self) -> bool:
        return self.failure is None

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL %s" % self.failure

    def as_dict(self) -> dict:
        """The report's JSON form, as the CLI emits it."""
        out = {
            "analysis": "formation",
            "verdict": self.verdict,
            "first_obstruction": self.failure,
            "c1": [{"subgroup": int_list(e), "h1": int_list(inv), "ok": ok}
                   for e, inv, ok in self.c1_rows],
            "c2": [{"subgroup": int_list(e), "h2": int_list(inv),
                    "required": int(n), "ok": ok}
                   for e, inv, n, ok in self.c2_rows],
            "c3": [{"upper": int_list(u), "lower": int_list(v), "ok": ok}
                   for u, v, ok in self.c3_rows],
            "generators": [{"subgroup": int_list(e), "coords": int_list(c)}
                           for e, c in self.generators],
            "candidates_tried": self.candidates_tried,
            "fundamental": None,
            "reciprocity": None,
            "notes": list(self.notes),
        }
        if self.fundamental is not None:
            out["fundamental"] = {"coords": int_list(self.fundamental.coords),
                                  "order": int(self.fundamental.order)}
        rec = self.reciprocity
        if rec is not None:
            out["reciprocity"] = {
                "matrix": [int_list(row) for row in rec.matrix],
                "source": int_list(rec.source.invariants()),
                "target": int_list(rec.target.invariants()),
                "isomorphism": bool(rec.is_isomorphism()),
            }
        return out


def _coprime_residues(n: int) -> List[int]:
    return [k for k in range(1, n) if gcd(k, n) == 1]


def check_class_formation(X, C: GComplex) -> FormationReport:
    """Test (C1)-(C3) for the group carried by the resolution X acting on
    the coefficient complex C.  Axioms are checked in order over subgroups
    sorted by (order, elements); the first violation is the recorded
    obstruction.  (C1) and (C2) read one subgroup per conjugacy class;
    (C3), run only when they pass, reads every subgroup.  On a pass the
    report also carries the fundamental class and the reciprocity map."""
    G = X.group
    report = FormationReport()
    subs = all_subgroups(G)
    reps = conjugacy_representatives(G, subs)

    def tate(s: Subgroup) -> TateGroups:
        return SubgroupPair(X, C, s, 1, 2).tate_H

    for s in subs:
        t = tate(reps[s.elements])
        inv1, inv2 = t.invariants(1), t.invariants(2)
        report.c1_rows.append((s.elements, inv1, inv1 == ()))
        report.c2_rows.append((s.elements, inv2, s.order,
                               inv2 == ((s.order,) if s.order > 1 else ())))
    for axiom, rows in (("(C1)", report.c1_rows), ("(C2)", report.c2_rows)):
        bad = [row[0] for row in rows if not row[-1]]
        if bad and report.failure is None:
            report.failure = "%s at subgroup %s" % (axiom, list(bad[0]))
    if report.failure is not None:
        return report

    # compatibility with G forces u_H = res(u_G); restriction and
    # classification are linear, so u_G = k u gives u_H = k res(u) for the
    # generator u of H^2(G, C), and each subgroup is restricted and
    # classified once.  (C2) makes every coprime k a generator upstairs; a
    # candidate survives when each k res(u) keeps the order of its subgroup
    whole = whole_subgroup(G)
    rmats: Dict[Tuple[tuple, tuple], IntMatrix] = {}

    def restriction(u: Subgroup, v: Subgroup) -> IntMatrix:
        # one matrix per nested pair U >= V: the family and the audit below
        # both restrict along the pairs through G
        key = (u.elements, v.elements)
        if key not in rmats:
            rmats[key] = restriction_blocks(C, u, v, tate(u).total,
                                            tate(v).total, 2)
        return rmats[key]

    # res_u[H] is res_H(u) in H's coordinates; at G, u itself
    res_u = {whole.elements: (1,) if G.order > 1 else ()}
    for s in subs:
        if not s.is_whole_group():
            res_u[s.elements] = tate(s).classify(2, restriction(
                whole, s) @ tate(whole).representative(2, 0))
    found = []
    for k in _coprime_residues(G.order) or [1]:
        report.candidates_tried += 1
        trial = {s.elements: tate(s).class_at(
            2, [k * c for c in res_u[s.elements]]) for s in subs}
        if all(trial[s.elements].order == s.order for s in subs):
            found.append(trial)
    if not found:
        report.failure = ("(C3): no restriction-compatible generator family "
                          "among %d candidates" % report.candidates_tried)
        return report
    family = min(found,
                 key=lambda fam: tuple(fam[s.elements].coords for s in subs))

    report.generators = [(s.elements, family[s.elements].coords) for s in subs]
    # audit every nested pair, not only the pairs through G
    for u in subs:
        for v in subs:
            if v.order >= u.order or not set(v.elements) <= set(u.elements):
                continue
            cocycle = tate(u).element(2, family[u.elements].coords)
            got = tate(v).classify_class(2, restriction(u, v) @ cocycle)
            ok = got.coords == family[v.elements].coords
            report.c3_rows.append((u.elements, v.elements, ok))
            if not ok and report.failure is None:
                report.failure = ("(C3) at pair %s >= %s"
                                  % (list(u.elements), list(v.elements)))
    if report.failure is not None:
        return report

    report.fundamental = family[whole.elements]
    report.reciprocity = reciprocity_map(X, C, report.fundamental)
    return report


def fundamental_class(X, C: GComplex, report: FormationReport) -> TateClass:
    """The generator u of H^2(G, C) from the report's compatible family;
    re-asserts the Tate-Nakayama hypotheses through the independent
    checker before returning."""
    if not report.passed:
        raise ValidationError(
            "fundamental class requested for a failing formation: %s"
            % report.verdict)
    u = report.fundamental
    tn = tate_nakayama_check(X, C, u, 1, 0)
    if not tn.hypotheses_pass:
        raise ValidationError(
            "stored fundamental class fails hypothesis %s"
            % tn.failed_hypothesis)
    return u


def _invert_on_groups(matrix: IntMatrix, source: AbGroup,
                      target: AbGroup) -> IntMatrix:
    """A right inverse of an isomorphism of finite abelian groups given by
    a coordinate matrix; columns answer 'which source class maps to this
    target generator'."""
    sol = LatticeSolver(hstack([matrix, target.relations()])).solve(
        eye(target.ngens))
    if sol is None:
        raise ValidationError(
            "cup map is not invertible; Tate-Nakayama should forbid this")
    out = zeros(source.ngens, target.ngens)
    for i in range(target.ngens):
        out[:, i] = np.array(
            source.reduce_coords(sol[:source.ngens, i]), dtype=object)
    return out


def reciprocity_map(X, C: GComplex, u: TateClass) -> AbMap:
    """The map H^0(G, C) -> G^ab: compose the inverse of cupping with u
    (H^{-2}(G, Z) -> H^0(G, C)) with iota: H^{-2}(G, Z) -> G^ab.  Its
    verdict records both injectivity (equal orders) and surjectivity,
    which is what density means at a finite level.  Each column is
    reduced modulo G^ab's invariant factors."""
    cup = cup_with(X, C, u, 0)
    if not cup.is_isomorphism():
        raise ValidationError(
            "cup map is not invertible; Tate-Nakayama should forbid this")
    inv = _invert_on_groups(cup.matrix, cup.source, cup.target)
    io = iota_abelianization(X)
    m = io.matrix @ inv
    return AbMap.from_columns([io.target.reduce_coords(c) for c in m.T],
                              cup.target, io.target)


class NormGroupTable:
    """Rows (V, invariants of H^0(G,C)/cor H^0(V,C), invariants of
    (G/V)^ab, verdict) over the normal subgroups of G."""

    def __init__(self):
        self.rows: List[Tuple[tuple, tuple, tuple, bool]] = []

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.rows)

    def as_dict(self) -> dict:
        """The table's JSON form, as the CLI emits it."""
        return {
            "analysis": "norm-table",
            "rows": [{"subgroup": int_list(e), "quotient": int_list(q),
                      "target": int_list(t), "ok": ok}
                     for e, q, t, ok in self.rows],
            "verdict": "ok" if self.passed else "MISMATCH",
        }


def quotient_abelianization(abG: AbGroup, coords: tuple,
                            V: Subgroup) -> AbGroup:
    """(G/V)^ab for normal V, as G^ab modulo the image of V.

    ``abG, coords`` is abelianization(G).  The result is the cokernel of
    V's element coordinates next to the relations of G^ab, so its
    reduce_map is the projection G^ab -> (G/V)^ab on canonical
    coordinates."""
    image = zeros(abG.ngens, V.order)
    for k, v in enumerate(V.elements):
        image[:, k] = np.array(coords[v], dtype=object)
    return cokernel_structure(hstack([image, abG.relations()]))


def norm_group_table(X, C: GComplex, u: TateClass,
                     rec: Optional[AbMap] = None) -> NormGroupTable:
    """For each normal V: compare H^0(G, C)/cor(H^0(V, C)) with (G/V)^ab
    = G^ab / im V and verify that the reciprocity map of u induces an
    isomorphism between them.  ``rec``, when given, is
    reciprocity_map(X, C, u) already computed (a passing FormationReport
    keeps it)."""
    G = X.group
    if rec is None:
        rec = reciprocity_map(X, C, u)
    h0 = rec.source
    abG, coords = abelianization(G)
    table = NormGroupTable()
    for V in all_subgroups(G):
        if not V.is_normal:
            continue
        pair = SubgroupPair(X, C, V, 0, 0)
        cor_cols = pair.cor_matrix(0)
        quot = cokernel_structure(
            hstack([cor_cols, h0.relations()])).invariants()
        abQ = quotient_abelianization(abG, coords, V)
        induced = AbMap(abQ.reduce_map @ rec.matrix, h0, abQ)
        kills = all(not any(induced.apply(cor_cols[:, j]))
                    for j in range(cor_cols.shape[1]))
        surj = induced.image_order() == abQ.order()
        ok = (quot == abQ.invariants() and kills and surj)
        table.rows.append((V.elements, quot, abQ.invariants(), ok))
    return table
