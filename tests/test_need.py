"""Work that is carried or repeated only where a caller reads it.

smith_normal_form carries only the transforms named in ``need``; the
results must be byte-identical to the full elimination.  The peeled
resolutions are pinned by digests taken before the peel kept its span as
a quotient, and the formation layer's repeated maps are counted through
wrappers.
"""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform import (cli, formation, groups, intlinalg, resolutions,
                      scenarios, tate)
from tateform.formation import check_class_formation
from tateform.gmodules import zmodule
from tateform.gcomplexes import concentrate
from tateform.intlinalg import TRANSFORMS, eye, intmat, smith_normal_form
from tateform.resolutions import (
    bar_resolution,
    complete_resolution,
    peeled_resolution,
    periodic_resolution,
    validate_complete_resolution,
)

NEEDS = [" ".join(c) for r in range(len(TRANSFORMS) + 1)
         for c in combinations(TRANSFORMS, r)]


@st.composite
def int_matrices(draw):
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=6))
    entries = st.integers(min_value=-12, max_value=12)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return np.array(rows, dtype=object).reshape(m, n)


def loop_snf(a):
    """The elimination with per-row Python scans for the pivot and the
    divisibility check, carrying all four transforms: the reference that
    the vectorised scans must follow choice for choice."""
    s = a.astype(object).copy()
    m, n = s.shape
    u, u_inv, v, v_inv = eye(m), eye(m), eye(n), eye(n)

    def swap_rows(i, j):
        s[[i, j], :] = s[[j, i], :]
        u[[i, j], :] = u[[j, i], :]
        u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def swap_cols(i, j):
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        v_inv[[i, j], :] = v_inv[[j, i], :]

    def row_add(i, k, q):
        s[i, :] += q * s[k, :]
        u[i, :] += q * u[k, :]
        u_inv[:, k] -= q * u_inv[:, i]

    def col_add(j, k, q):
        s[:, j] += q * s[:, k]
        v[:, j] += q * v[:, k]
        v_inv[k, :] -= q * v_inv[j, :]

    t = 0
    while t < min(m, n):
        cands = [(abs(s[i, j]), i, j) for i in range(t, m)
                 for j in range(t, n) if s[i, j] != 0]
        if not cands:
            break
        _, pi, pj = min(cands)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            moved = False
            for i in range(t + 1, m):
                if s[i, t] != 0:
                    row_add(i, t, -(s[i, t] // s[t, t]))
                    if s[i, t] != 0:
                        swap_rows(t, i)
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, n):
                if s[t, j] != 0:
                    col_add(j, t, -(s[t, j] // s[t, t]))
                    if s[t, j] != 0:
                        swap_cols(t, j)
                        moved = True
                        break
            if moved:
                continue
            offenders = [i for i in range(t + 1, m)
                         if any(x % s[t, t] for x in s[i, t + 1:])]
            if not offenders:
                break
            row_add(t, offenders[0], 1)
        if s[t, t] < 0:
            s[t, :], u[t, :], u_inv[:, t] = -s[t, :], -u[t, :], -u_inv[:, t]
        t += 1
    return u, u_inv, s, v, v_inv


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_vectorised_scans_follow_the_loop_reference(a):
    got = smith_normal_form(a)
    for name, want in zip(("u", "u_inv", "s", "v", "v_inv"), loop_snf(a)):
        part = getattr(got, name)
        assert part.shape == want.shape and np.array_equal(part, want), name


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_every_need_subset_matches_the_full_elimination(a):
    full = smith_normal_form(a)
    for need in NEEDS:
        got = smith_normal_form(a, need=need)
        assert got.diagonal == full.diagonal
        assert got.s.shape == full.s.shape and np.array_equal(got.s, full.s)
        for name in TRANSFORMS:
            part, whole = getattr(got, name), getattr(full, name)
            if name in need.split():
                assert part.shape == whole.shape
                assert np.array_equal(part, whole)
            else:
                assert part.shape == (0, 0)


def test_unknown_transform_is_refused():
    with pytest.raises(ValueError):
        smith_normal_form(intmat([[1]]), need="v w")


def _digest(res):
    payload = json.dumps(
        {"ranks": res.ranks,
         "dgens": [None if d is None else [[int(x) for x in row] for row in d]
                   for d in res.dgens]},
        separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_peeled_resolutions_are_pinned():
    # digests of the resolutions built when the peel re-eliminated its
    # whole span, with a lattice_basis and a fresh LatticeSolver, after
    # every chosen vector; membership depends only on the lattice, so
    # keeping the span as a quotient chooses the same vectors
    c2 = groups.make_cyclic(2)
    s4 = peeled_resolution(groups.symmetric_group(4), 5)
    c2cubed = peeled_resolution(reduce(groups.direct_product, [c2, c2, c2]), 5)
    assert s4.ranks == [1, 3, 6, 9, 12, 18]
    assert c2cubed.ranks == [1, 3, 6, 10, 16, 24]
    assert _digest(s4) == (
        "8083496147273fb1eef39a01da0d944e362f16d008470fcbf27985910446b3ed")
    assert _digest(c2cubed) == (
        "fa05b261d1f4fb03d8e8bef24b43a1385d35b1e1d15142a9e5187ed098e1a358")


def _recorded_needs(monkeypatch, shapes=None):
    """The ``need`` of every elimination, calls made through resolutions'
    own name for smith_normal_form included; the shape of each input is
    appended to ``shapes`` when it is given."""
    needs = []
    original = intlinalg.smith_normal_form

    def recording(a, need="u u_inv v v_inv"):
        needs.append(need)
        if shapes is not None:
            shapes.append(a.shape)
        return original(a, need)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    monkeypatch.setattr(resolutions, "smith_normal_form", recording)
    return needs


def test_each_tate_degree_eliminates_its_numerator_once(monkeypatch):
    # per degree of [-2, 3]: the kernel (v), the numerator lattice, whose
    # elimination also serves the subquotient's solves, and the cokernel
    # (u u_inv each); the one u v elimination is Z's module check
    G = groups.make_cyclic(6)
    X = complete_resolution(periodic_resolution(G, 6))
    needs = _recorded_needs(monkeypatch)
    tate.tate_hypercohomology(X, concentrate(zmodule(G), 0), -2, 3)
    assert Counter(needs) == {"v": 6, "u u_inv": 12, "u v": 1}


def test_the_peel_eliminates_each_span_once(monkeypatch):
    # outside kernel_basis (v), every elimination adds one chosen orbit to
    # the span's quotient and carries U alone; it sees that orbit and one
    # column per torsion row of the quotient, never the orbits before it
    shapes = []
    needs = _recorded_needs(monkeypatch, shapes)
    torsion = []
    original = resolutions.SpanQuotient.add

    def add(self, gens):
        torsion.append(len(self.moduli))
        original(self, gens)

    monkeypatch.setattr(resolutions.SpanQuotient, "add", add)
    G = groups.symmetric_group(4)
    peeled_resolution(G, 3)
    assert Counter(needs) == {"v": 3, "u": 18}
    spans = [shape for need, shape in zip(needs, shapes) if need == "u"]
    assert len(spans) == len(torsion)
    for (_, cols), t in zip(spans, torsion):
        assert cols <= G.order + t


C2 = groups.make_cyclic(2)


@pytest.mark.parametrize("G", [
    groups.symmetric_group(4),
    groups.direct_product(groups.direct_product(C2, C2), C2),
], ids=["S4", "C2^3"])
def test_the_peel_computes_no_kernel_past_its_last_differential(monkeypatch, G):
    # a window-w peel eliminates the kernels of the augmentation and of
    # d_1, ..., d_{w-1}: nothing reads the kernel of d_w
    needs = _recorded_needs(monkeypatch)
    peeled_resolution(G, 5)
    assert Counter(needs)["v"] == 5


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_norm_table_coinduces_each_proper_subgroup_once(monkeypatch):
    # the formation's [1, 2] and the norm table's [0, 0] for a subgroup read
    # one coinduced complex kept on X: Z/4 has two proper subgroups
    made = _counting_coinduced(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["demo", "unramified-cyclic-4-norm-table"]) == 0
    assert len(made) == 2


def test_tate_nakayama_reads_its_candidate_from_the_hypotheses(monkeypatch):
    # the candidate class comes from C's groups over [1, 2], the range the
    # hypotheses read, so X's degree 2 is assembled for [1, 2] and the
    # conclusion, plus the Z groups and the two proper subgroups of Z/4:
    # five total complexes, where reading it over [2, 2] made six
    builds = _counting_builds(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["demo", "tn-cyclic-4"]) == 0
    assert [(b[1].name,) + b[2:] for b in builds] == [
        ("Z[at 0]", 1, 2), ("coind(Z[at 0])", 1, 2), ("coind(Z[at 0])", 1, 2),
        ("Z[at 0]", -2, 3), ("Z[at 0]", -4, 1)]


def test_norm_table_reuses_the_formation_reciprocity_map(monkeypatch):
    calls = _counting(monkeypatch, formation, "reciprocity_map")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["demo", "unramified-cyclic-4-norm-table",
                         "--format", "json"]) == 0
    assert len(calls) == 1


def test_each_restriction_matrix_is_built_once(monkeypatch):
    G = groups.make_cyclic(12)
    X = complete_resolution(periodic_resolution(G, 4))
    calls = _counting(monkeypatch, formation, "restriction_blocks")
    report = check_class_formation(X, concentrate(zmodule(G), 0))
    assert report.passed
    # one per nested pair of the six subgroups; the five through G are
    # shared by the candidate search and the audit
    assert len(report.c3_rows) == 12
    assert len(calls) == 12


def _counting_builds(monkeypatch):
    """Every total complex built, as (resolution, complex, qlo, qhi)."""
    builds = []
    original = tate.TotalComplex.__init__

    def wrapper(self, X, C, qlo, qhi):
        builds.append((X, C, qlo, qhi))
        original(self, X, C, qlo, qhi)

    monkeypatch.setattr(tate.TotalComplex, "__init__", wrapper)
    return builds


def _counting_coinduced(monkeypatch):
    """Every complex coinduced from a proper subgroup."""
    made = []
    original = tate.coinduced

    def wrapper(C, H):
        D = original(C, H)
        if D is not C:
            made.append(D)
        return D

    monkeypatch.setattr(tate, "coinduced", wrapper)
    return made


def _subgroup_builds(builds, made):
    # a subgroup's groups are G's with coefficients coinduced from it
    return [b for b in builds if any(b[1] is D for D in made)]


def test_formation_models_each_proper_subgroup_once(monkeypatch):
    # G's own groups are X's, so only the five proper subgroups of Z/12
    # get a total complex, each over its coinduced complex
    G = groups.make_cyclic(12)
    X = complete_resolution(periodic_resolution(G, 4))
    made = _counting_coinduced(monkeypatch)
    builds = _counting_builds(monkeypatch)
    assert check_class_formation(X, concentrate(zmodule(G), 0)).passed
    assert len(made) == 5
    assert len(_subgroup_builds(builds, made)) == 5


def test_no_analysis_lays_out_a_coinduced_action(monkeypatch):
    # a coinduced term keeps each element's action as |G:H| blocks of C's;
    # the total complexes, restriction and corestriction read those blocks
    # and never the |G:H|-fold matrix (S3 and Z at degree 2 pass every
    # analysis, so every subgroup and nested pair is read)
    laid_out = _counting(monkeypatch, tate._CoinducedModule, "act")
    doc = {"name": "s3-z2",
           "group": {"kind": "table", "table": scenarios._S3_TABLE},
           "coefficients": {"kind": "trivial", "shift": 2},
           "analyses": [{"kind": "formation"}, {"kind": "norm-table"},
                        {"kind": "tate-nakayama"}]}
    report = cli.run_scenario(cli.parse_scenario(doc))
    assert [r.get("verdict") for r in report["results"]] == [
        "PASS", "ok", "PASS"]
    assert laid_out == []


def _s3_s4(name):
    if name == "S4-w3":
        G = groups.symmetric_group(4)
        return G, complete_resolution(peeled_resolution(G, 3))
    G = groups.symmetric_group(3)
    return G, complete_resolution(peeled_resolution(G, 4))


@pytest.mark.parametrize("name, degree, models", [
    ("S3", 0, 3), ("S4-w3", 0, 10), ("S3", 2, 5)])
def test_formation_models_one_subgroup_per_conjugacy_class(
        monkeypatch, name, degree, models):
    # (C1) and (C2) read one subgroup per conjugacy class: S3 has 3 proper
    # classes, S4 has 10.  Z at degree 2 passes them, and (C3) reads every
    # proper subgroup's own groups (S3 has 5)
    G, X = _s3_s4(name)
    made = _counting_coinduced(monkeypatch)
    builds = _counting_builds(monkeypatch)
    report = check_class_formation(X, concentrate(zmodule(G), degree))
    assert report.passed == (degree == 2)
    assert len(_subgroup_builds(builds, made)) == models


@pytest.mark.parametrize("name, models", [("S3", 3), ("S4-w3", 10)])
def test_tate_nakayama_models_one_subgroup_per_conjugacy_class(
        monkeypatch, name, models):
    # hypotheses (i) and (ii) range over every subgroup, G included; G's
    # row reads X's own groups of C over [1, 2], the one build of C
    G, X = _s3_s4(name)
    C = concentrate(zmodule(G), 0)
    a = tate.tate_hypercohomology(X, C, 2, 2).class_at(2, (1,))
    made = _counting_coinduced(monkeypatch)
    builds = _counting_builds(monkeypatch)
    report = tate.tate_nakayama_check(X, C, a, 1, 0)
    assert len(report.h1_rows) == len(groups.all_subgroups(G))
    assert len(_subgroup_builds(builds, made)) == models
    assert [b[2:] for b in builds if b[0] is X and
            not any(b[1] is D for D in made)] == [(1, 2)]


def test_a_formation_scenario_enumerates_subgroups_once(monkeypatch):
    # formation, norm table and Tate-Nakayama read the subgroups kept on
    # the one group object: one enumeration of Z/24 takes 132 closures,
    # and the reciprocity map's G^ab is read off the table with none
    doc = {"name": "cyclic-24-formation",
           "group": {"kind": "cyclic", "n": 24},
           "coefficients": {"kind": "trivial", "shift": 0},
           "analyses": [{"kind": "formation"}, {"kind": "norm-table"},
                        {"kind": "tate-nakayama"}]}
    calls = _counting(monkeypatch, groups.FiniteGroup, "closure")
    report = cli.run_scenario(cli.parse_scenario(doc))
    assert [r.get("verdict") for r in report["results"]] == [
        "PASS", "ok", "PASS"]
    assert len(calls) == 132


def _z_builds(builds, X, C, made):
    # Z-coefficient complexes on X, told apart from C's and from the
    # coinduced ones by the object
    return [b[2:] for b in builds if b[0] is X and b[1] is not C
            and not any(b[1] is D for D in made)]


def test_tate_nakayama_builds_the_z_groups_once(monkeypatch):
    # one Z-coefficient build over [qlo - 2, qhi - 2] serves every degree's
    # cup, where each degree built its own
    G = groups.make_cyclic(6)
    X = complete_resolution(periodic_resolution(G, 6))
    C = concentrate(zmodule(G), 0)
    a = tate.tate_hypercohomology(X, C, 2, 2).class_at(2, (1,))
    made = _counting_coinduced(monkeypatch)
    builds = _counting_builds(monkeypatch)
    assert tate.tate_nakayama_check(X, C, a, -2, 3).verdict == "PASS"
    assert _z_builds(builds, X, C, made) == [(-4, 1)]


def test_reciprocity_map_builds_the_z_groups_once(monkeypatch):
    # the cup and iota share one H^{-2}(G, Z): one build on a fresh
    # resolution, none on one that already holds it
    G = groups.make_cyclic(6)
    X = complete_resolution(periodic_resolution(G, 6))
    C = concentrate(zmodule(G), 0)
    made = _counting_coinduced(monkeypatch)
    report = check_class_formation(X, C)
    fresh = complete_resolution(periodic_resolution(G, 6))
    builds = _counting_builds(monkeypatch)
    for Y in (fresh, X):
        rec = formation.reciprocity_map(Y, C, report.fundamental)
        assert rec.verdict
        assert rec.matrix.tolist() == report.reciprocity_matrix.tolist()
    assert _z_builds(builds, fresh, C, made) == [(-2, -2)]
    assert _z_builds(builds, X, C, made) == []


@pytest.mark.parametrize("n", [12, 24])
def test_formation_classifies_the_family_once_per_subgroup(monkeypatch, n):
    # the subgroup models are views of X, so X's is the one free resolution
    # built; the family is k res_H(u) for the generator u, so res_H(u) is
    # classified once per proper subgroup, then once per audited pair and
    # once for the one column of the reciprocity map's cup
    builds = _counting(monkeypatch, resolutions.FreeResolution, "__init__")
    G = groups.make_cyclic(n)
    X = complete_resolution(periodic_resolution(G, 4))
    classified = _counting(monkeypatch, intlinalg.Subquotient, "classify")
    report = check_class_formation(X, concentrate(zmodule(G), 0))
    assert report.passed
    assert report.candidates_tried == len(formation._coprime_residues(n))
    proper = len(report.c1_rows) - 1
    assert len(builds) == 1
    assert len(classified) == proper + len(report.c3_rows) + 1


def test_hypotheses_only_check_builds_the_groups_of_g_once(monkeypatch):
    # fundamental_class asks tate_nakayama_check for the empty conclusion
    # range (1, 0): the hypotheses read the groups over [1, 2] that the
    # formation check kept, G's and its subgroups', so nothing is built
    G = groups.make_cyclic(6)
    X = complete_resolution(periodic_resolution(G, 4))
    C = concentrate(zmodule(G), 0)
    report = check_class_formation(X, C)
    builds = _counting_builds(monkeypatch)
    assert formation.fundamental_class(X, C, report) is report.fundamental
    assert builds == []


def test_no_scenario_rebuilds_a_range_it_holds(monkeypatch):
    # formation, the norm table and Tate-Nakayama read the groups kept per
    # (resolution, complex), and cone-les reads C's for every m: no build
    # repeats a range inside one already built for the same pair
    doc = {"name": "cyclic-12-formation",
           "group": {"kind": "table",
                     "table": [list(r) for r in groups.make_cyclic(12).table]},
           "coefficients": {"kind": "trivial", "shift": 0},
           "analyses": [{"kind": "formation"}, {"kind": "norm-table"},
                        {"kind": "tate-nakayama"}]}
    builds = _counting_builds(monkeypatch)
    report = cli.run_scenario(cli.parse_scenario(doc))
    assert [r.get("verdict") for r in report["results"]] == [
        "PASS", "ok", "PASS"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(["demo", "cone-les-z2"]) == 0
    assert builds
    for i, (X, C, lo, hi) in enumerate(builds):
        for Y, D, lo_held, hi_held in builds[:i]:
            assert not (Y is X and D is C and lo_held <= lo <= hi <= hi_held), \
                (i, lo, hi)


def test_norm_table_reads_g_and_its_groups_from_the_formation(monkeypatch):
    # the reciprocity map kept G's groups over [0, 2], which hold the norm
    # table's [0, 0], and the row for V = G reads them: only the five
    # proper subgroups of Z/12 get a complex
    G = groups.make_cyclic(12)
    X = complete_resolution(periodic_resolution(G, 4))
    C = concentrate(zmodule(G), 0)
    made = _counting_coinduced(monkeypatch)
    report = check_class_formation(X, C)
    builds = _counting_builds(monkeypatch)
    table = formation.norm_group_table(X, C, report.fundamental,
                                       report.reciprocity)
    assert table.passed and len(table.rows) == 6
    assert [b[2:] for b in builds] == [(0, 0)] * 5
    assert len(_subgroup_builds(builds, made)) == 5
    # the norm table's [0, 0] reads the formation's coinduced complexes
    assert len(made) == 5


C2 = groups.make_cyclic(2)


@pytest.mark.parametrize("build, G", [
    (periodic_resolution, groups.make_cyclic(6)),
    (peeled_resolution, groups.direct_product(C2, C2)),
    (bar_resolution, groups.make_cyclic(3)),
    (peeled_resolution, groups.symmetric_group(3)),
], ids=["periodic-z6", "peeled-c2xc2", "bar-z3", "peeled-s3"])
def test_exactness_audit_eliminates_each_map_once(monkeypatch, build, G):
    # one elimination per map, whether read for its kernel, its image or
    # both: the augmentation, its dual and d^-4 through d^2; calls made
    # through resolutions' own name for smith_normal_form count too
    X = complete_resolution(build(G, 4))
    calls = _counting(monkeypatch, intlinalg, "smith_normal_form")
    monkeypatch.setattr(resolutions, "smith_normal_form", intlinalg.smith_normal_form)
    audit = validate_complete_resolution(X)
    assert audit.passed
    assert 0 < len(calls) <= 9
