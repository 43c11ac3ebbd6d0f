"""Subgroup rows read once per conjugacy class, against per-subgroup
loops on the subgroups' own resolutions.

``check_class_formation`` reads its (C1) and (C2) rows, and
``tate_nakayama_check`` its hypothesis (i) and (ii) rows, from the first
subgroup of each conjugacy class: conjugation by g is an isomorphism from
the Tate groups of H to those of gHg^-1 that commutes with restriction
from G and is the identity on G's.  The reference functions below build
every subgroup's groups up front, as the earlier code did, and on H's side:
over X relabeled as a resolution over H, with C restricted to H, and
restriction placed generator by generator (see ``subgroup_reference``).
None of it goes through the coinduced complexes the checks read.  Both
routes must give the same report, ``as_dict()`` for ``as_dict()``, on S3,
S3 relabeled at three seeds and S4 at window 3, over Z, Z at degree 2 and
the regular module.  Z at degree 2 passes the formation axioms, so (C3)
runs there on pairs built on demand.  The references run on a second copy
of the coefficient complex, so they read none of the groups the checks
keep on the resolution, and the Tate-Nakayama reference builds G's row
over G's own relabeled resolution rather than from X's groups.
"""

import pytest

from tateform.formation import (
    FormationReport,
    _coprime_residues,
    check_class_formation,
    reciprocity_map,
)
from tateform.gcomplexes import concentrate
from tateform.gmodules import regular_module, zmodule
from tateform.groups import (
    all_subgroups,
    conjugacy_representatives,
    symmetric_group,
    whole_subgroup,
)
from tateform.resolutions import complete_resolution, resolution_for
from tateform.tate import (
    SubgroupPair,
    TateGroups,
    TateNakayamaReport,
    TotalComplex,
    cup_with,
    tate_hypercohomology,
    tate_nakayama_check,
)

from subgroup_reference import (reference_restriction, restricted,
                                subgroup_resolution)
from test_differential import relabel


def own_groups(X, C, H):
    """H's groups over [1, 2] on H's own resolution."""
    total = TotalComplex(subgroup_resolution(X, H), restricted(C, H), 1, 2)
    return TateGroups(total, 1, 2)


def reference_formation(X, C):
    G = X.group
    report = FormationReport()
    subs = all_subgroups(G)
    ambient = tate_hypercohomology(X, C, 1, 2)
    groups = {s.elements: own_groups(X, C, s)
              for s in subs if not s.is_whole_group()}

    def tate(s):
        return ambient if s.is_whole_group() else groups[s.elements]

    for s in subs:
        inv1 = tate(s).invariants(1)
        ok = inv1 == ()
        report.c1_rows.append((s.elements, inv1, ok))
        if not ok and report.failure is None:
            report.failure = "(C1) at subgroup %s" % list(s.elements)
    for s in subs:
        inv2 = tate(s).invariants(2)
        ok = inv2 == ((s.order,) if s.order > 1 else ())
        report.c2_rows.append((s.elements, inv2, s.order, ok))
        if not ok and report.failure is None:
            report.failure = "(C2) at subgroup %s" % list(s.elements)
    if report.failure is not None:
        return report

    def restriction(u, v):
        return reference_restriction(C, u, v, tate(u).total, tate(v).total, 2)

    whole = whole_subgroup(G)
    res_u = {whole.elements: (1,) if G.order > 1 else ()}
    for s in subs:
        if not s.is_whole_group():
            res_u[s.elements] = tate(s).classify(
                2, restriction(whole, s) @ ambient.representative(2, 0))
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


def reference_tate_nakayama(X, C, a, qlo, qhi):
    G = X.group
    report = TateNakayamaReport(a, qlo, qhi)
    ambient = tate_hypercohomology(X, C, 1, 2)
    whole = whole_subgroup(G)
    for H in all_subgroups(G):
        # G's row too over its own relabeled resolution, apart from X's
        tate_H = own_groups(X, C, H)
        res = reference_restriction(C, whole, H, ambient.total,
                                    tate_H.total, 2)
        res_a = tate_H.classify_class(2, res @ ambient.element(2, a.coords))
        inv1 = tate_H.invariants(1)
        ok1 = inv1 == ()
        report.h1_rows.append((H.elements, inv1, ok1))
        if not ok1 and report.failed_hypothesis is None:
            report.failed_hypothesis = "(i)"
        h2 = tate_H.group(2)
        ok2 = res_a.order == H.order and h2.order() == H.order
        report.res_rows.append(
            (H.elements, H.order, res_a.order, h2.invariants(), ok2))
        if not ok2 and report.failed_hypothesis is None:
            report.failed_hypothesis = "(ii)"
    if report.failed_hypothesis is None and qlo <= qhi:
        for q in range(qlo, qhi + 1):
            cup = cup_with(X, C, a, q)
            report.conclusion.append(
                (q, cup.source.invariants(), cup.target.invariants(),
                 cup.is_isomorphism()))
    return report


GROUPS = {
    "S3": lambda: (symmetric_group(3), 4),
    "S3-rel0": lambda: (relabel(symmetric_group(3), 0), 4),
    "S3-rel1": lambda: (relabel(symmetric_group(3), 1), 4),
    "S3-rel2": lambda: (relabel(symmetric_group(3), 2), 4),
    "S4-w3": lambda: (symmetric_group(4), 3),
}

COEFFICIENTS = {
    "Z": lambda G: concentrate(zmodule(G), 0),
    "Z-at-2": lambda G: concentrate(zmodule(G), 2),
    "regular": lambda G: concentrate(regular_module(G), 0),
}

CASES = [(g, c) for g in GROUPS if g != "S4-w3" for c in COEFFICIENTS]
CASES.append(("S4-w3", "Z"))
# S4 with Z at degree 2 passes the formation axioms at window 3, so (C3)
# audits its 120 nested pairs; Tate-Nakayama over [-1, 2] needs window 4
FORMATION_CASES = CASES + [("S4-w3", "Z-at-2")]

_setups = {}


def _setup(group, coeff):
    if group not in _setups:
        G, window = GROUPS[group]()
        _setups[group] = (G, complete_resolution(resolution_for(G, window)))
    G, X = _setups[group]
    return G, X, COEFFICIENTS[coeff](G)


def _first_generator(X, C):
    # the candidate the CLI checks: the first canonical generator of H^2
    t2 = tate_hypercohomology(X, C, 2, 2)
    g2 = t2.group(2)
    return t2.class_at(2, () if g2.ngens == 0 else (1,) + (0,) * (g2.ngens - 1))


@pytest.mark.parametrize("group, coeff", FORMATION_CASES)
def test_formation_matches_the_per_subgroup_loops(group, coeff):
    G, X, C = _setup(group, coeff)
    got = check_class_formation(X, C)
    # a second copy of C, so the reference reads none of the groups kept
    # for C on X
    ref = reference_formation(X, COEFFICIENTS[coeff](G))
    assert got.as_dict() == ref.as_dict()
    if coeff == "Z-at-2":
        assert got.passed and got.c3_rows


@pytest.mark.parametrize("group, coeff", CASES)
def test_tate_nakayama_matches_the_per_subgroup_loops(group, coeff):
    G, X, C = _setup(group, coeff)
    a = _first_generator(X, C)
    got = tate_nakayama_check(X, C, a, -1, 2)
    ref = reference_tate_nakayama(X, COEFFICIENTS[coeff](G), a, -1, 2)
    assert got.as_dict() == ref.as_dict()
    if group.startswith("S3") and coeff == "Z-at-2":
        assert got.verdict == "PASS"


@pytest.mark.parametrize("group, coeff", [
    ("S3", "Z"), ("S3", "Z-at-2"), ("S3", "regular"), ("S4-w3", "Z")])
def test_each_subgroup_has_its_representatives_groups(group, coeff):
    G, X, C = _setup(group, coeff)
    reps = conjugacy_representatives(G, all_subgroups(G))
    ambient = tate_hypercohomology(X, C, 1, 2)
    pairs = {s.elements: SubgroupPair(X, C, s, 1, 2)
             for s in all_subgroups(G) if not s.is_whole_group()}
    for e, pair in pairs.items():
        rep = pairs[reps[e].elements]
        for q in (1, 2):
            assert pair.tate_H.invariants(q) == rep.tate_H.invariants(q), (e, q)
