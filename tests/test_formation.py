"""Class-formation axioms, fundamental classes, reciprocity, norm groups."""

import itertools

import numpy as np
import pytest

from tateform import formation
from tateform.cli import render_result
from tateform.errors import ValidationError
from tateform.formation import (
    DENSE_NOTE,
    LEX_NOTE,
    check_class_formation,
    fundamental_class,
    norm_group_table,
    quotient_abelianization,
    reciprocity_map,
)
from tateform.gcomplexes import concentrate, tensor_power_shifted
from tateform.gmodules import finite_field_units, regular_module, zmodule
from tateform.groups import (
    abelianization,
    all_subgroups,
    direct_product,
    make_cyclic,
    symmetric_group,
)
from tateform.resolutions import (
    complete_resolution,
    peeled_resolution,
    periodic_resolution,
)
from tateform.tate import (
    TateGroups,
    TotalComplex,
    coinduced,
    restriction_blocks,
)

from reference import commutator_subgroup, quotient_group
from test_groups import RELABELINGS

_cache = {}


def cyclic_setup(n):
    key = ("cyclic", n)
    if key not in _cache:
        G = make_cyclic(n)
        X = complete_resolution(periodic_resolution(G, 6))
        _cache[key] = (G, X, concentrate(zmodule(G), 0))
    return _cache[key]


def formation_report(n):
    key = ("report", n)
    if key not in _cache:
        G, X, C = cyclic_setup(n)
        _cache[key] = check_class_formation(X, C)
    return _cache[key]


class TestFormationPass:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_unramified_cyclic_passes(self, n):
        rep = formation_report(n)
        assert rep.passed
        assert rep.verdict == "PASS"
        assert all(ok for *_, ok in rep.c1_rows)
        assert all(ok for *_, ok in rep.c2_rows)
        assert all(ok for *_, ok in rep.c3_rows)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_fundamental_class_order(self, n):
        G, X, C = cyclic_setup(n)
        rep = formation_report(n)
        u = fundamental_class(X, C, rep)
        assert u.degree == 2
        assert u.order == n

    def test_family_covers_all_subgroups(self):
        G, X, C = cyclic_setup(6)
        rep = formation_report(6)
        subs = all_subgroups(G)
        assert [elems for elems, _ in rep.generators] == \
            [s.elements for s in subs]

    @pytest.mark.parametrize("n", [4, 6])
    def test_family_members_generate(self, n):
        # each stored generator really has the order of its subgroup
        G, X, C = cyclic_setup(n)
        rep = formation_report(n)
        by_elems = dict(rep.generators)
        for s in all_subgroups(G):
            t = TateGroups(TotalComplex(X, coinduced(C, s), 2, 2), 2, 2)
            assert t.class_at(2, by_elems[s.elements]).order == s.order

    def test_report_flags_conventions(self):
        rep = formation_report(4)
        assert LEX_NOTE in rep.notes
        assert DENSE_NOTE in rep.notes
        text = "\n".join(render_result(rep.as_dict()))
        assert "lexicographically least" in text
        assert "dense (finite level: surjective)" in text

    def test_trivial_group_passes(self):
        G, X, C = cyclic_setup(1)
        rep = check_class_formation(X, C)
        assert rep.passed
        assert rep.fundamental.order == 1
        assert rep.reciprocity.is_isomorphism() is True

    def test_all_candidates_examined(self):
        assert formation_report(4).candidates_tried == 2
        assert formation_report(6).candidates_tried == 2


class TestFirstObstruction:
    def klein_report(self):
        if "klein" not in _cache:
            K = direct_product(make_cyclic(2), make_cyclic(2))
            XK = complete_resolution(peeled_resolution(K, 5))
            _cache["klein"] = (
                K, XK, check_class_formation(XK, concentrate(zmodule(K), 0)))
        return _cache["klein"]

    def test_klein_fails_c2_only(self):
        K, XK, rep = self.klein_report()
        assert not rep.passed
        assert rep.failure.startswith("(C2)")
        assert all(ok for *_, ok in rep.c1_rows)
        # the violation sits at the whole group: H^2 = (Z/2)^2
        bad = [r for r in rep.c2_rows if not r[3]]
        assert len(bad) == 1
        elems, inv, need, _ = bad[0]
        assert elems == tuple(range(4))
        assert inv == (2, 2) and need == 4

    def test_klein_reports_nothing_downstream(self):
        _, _, rep = self.klein_report()
        assert rep.c3_rows == []
        assert rep.fundamental is None
        assert rep.reciprocity is None

    def test_fundamental_class_refuses_failing_report(self):
        K, XK, rep = self.klein_report()
        with pytest.raises(ValidationError):
            fundamental_class(XK, concentrate(zmodule(K), 0), rep)

    def test_s3_fails_c2_only(self):
        S = symmetric_group(3)
        XS = complete_resolution(peeled_resolution(S, 5))
        rep = check_class_formation(XS, concentrate(zmodule(S), 0))
        assert rep.failure.startswith("(C2)")
        assert all(ok for *_, ok in rep.c1_rows)
        whole = [r for r in rep.c2_rows if r[0] == tuple(range(6))]
        assert whole[0][1] == (2,)

    def test_zeta1_shift_fails_c2_only(self):
        # the twist analogue: F4 units shifted one degree, so H^2 of the
        # complex is H^1 of the module, which vanishes by Hilbert 90
        M = finite_field_units(2, 1, 2)
        X = complete_resolution(periodic_resolution(M.group, 6))
        rep = check_class_formation(X, tensor_power_shifted(M, 1))
        assert rep.failure.startswith("(C2)")
        assert all(ok for *_, ok in rep.c1_rows)
        whole = [r for r in rep.c2_rows if len(r[0]) == 2]
        assert whole[0][1] == ()

    def test_regular_module_fails_c2_only(self):
        G, X, _ = cyclic_setup(2)
        rep = check_class_formation(X, concentrate(regular_module(G), 0))
        assert rep.failure.startswith("(C2)")
        assert all(ok for *_, ok in rep.c1_rows)


class TestC3Equivalence:
    def test_exhaustive_family_search_matches(self):
        # brute force over per-subgroup generator choices with the full
        # pairwise compatibility constraint; must agree with the stored
        # family, which was found top-down from the whole group
        G, X, C = cyclic_setup(4)
        rep = formation_report(4)
        subs = all_subgroups(G)
        data = {}
        for s in subs:
            data[s.elements] = TateGroups(
                TotalComplex(X, coinduced(C, s), 2, 2), 2, 2)
        cands = {}
        for s in subs:
            grp = data[s.elements].group(2)
            if grp.ngens == 0:
                cands[s.elements] = [()]
            else:
                m = grp.invariants()[0]
                cands[s.elements] = [
                    (k,) for k in range(m)
                    if grp.element_order((k,)) == grp.order()]
        compatible = []
        for picks in itertools.product(*(cands[s.elements] for s in subs)):
            fam = dict(zip((s.elements for s in subs), picks))
            ok = True
            for u in subs:
                for v in subs:
                    if v.order >= u.order or \
                            not set(v.elements) <= set(u.elements):
                        continue
                    tu, tv = data[u.elements], data[v.elements]
                    rmat = restriction_blocks(C, u, v, tu.total, tv.total, 2)
                    got = tv.classify(2, rmat @ tu.element(2, fam[u.elements]))
                    if tuple(got) != fam[v.elements]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                compatible.append(picks)
        assert compatible
        least = min(compatible)
        assert list(least) == [coords for _, coords in rep.generators]

    def test_pairwise_rows_cover_all_inclusions(self):
        G, _, _ = cyclic_setup(4)
        rep = formation_report(4)
        subs = all_subgroups(G)
        expected = set()
        for u in subs:
            for v in subs:
                if v.order < u.order and set(v.elements) <= set(u.elements):
                    expected.add((u.elements, v.elements))
        assert {(a, b) for a, b, _ in rep.c3_rows} == expected
        assert all(ok for *_, ok in rep.c3_rows)


class TestReciprocity:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_isomorphism_onto_abelianization(self, n):
        G, X, C = cyclic_setup(n)
        rep = formation_report(n)
        rec = reciprocity_map(X, C, rep.fundamental)
        assert rec.is_isomorphism()
        assert rec.source.invariants() == (n,)
        assert rec.target.invariants() == (n,)
        image = rec.apply((1,))
        assert rec.target.element_order(image) == n

    def test_matches_report_fields(self):
        G, X, C = cyclic_setup(4)
        rep = formation_report(4)
        rec = reciprocity_map(X, C, rep.fundamental)
        assert rec.matrix.tolist() == rep.reciprocity.matrix.tolist()
        assert rep.reciprocity.source.invariants() == (4,)
        assert rep.reciprocity.target.invariants() == (4,)

    def test_trivial_group_map_is_empty(self):
        G, X, C = cyclic_setup(1)
        rep = check_class_formation(X, C)
        rec = reciprocity_map(X, C, rep.fundamental)
        assert rec.matrix.shape == (0, 0)
        assert rec.is_isomorphism()


class TestNormGroups:
    def table(self):
        if "normtab" not in _cache:
            G, X, C = cyclic_setup(4)
            rep = formation_report(4)
            _cache["normtab"] = norm_group_table(X, C, rep.fundamental)
        return _cache["normtab"]

    def test_rows_match_quotient_abelianizations(self):
        tab = self.table()
        assert tab.passed
        got = {elems: (quot, ab) for elems, quot, ab, _ in tab.rows}
        assert got[(0,)] == ((4,), (4,))
        assert got[(0, 2)] == ((2,), (2,))
        assert got[(0, 1, 2, 3)] == ((), ())

    def test_every_normal_subgroup_listed(self):
        G, _, _ = cyclic_setup(4)
        tab = self.table()
        normal = [s.elements for s in all_subgroups(G) if s.is_normal]
        assert [elems for elems, *_ in tab.rows] == normal

    def test_naturality_verdict_includes_induced_map(self):
        # rows pass only when the reciprocity map of the quotient formation
        # is realized: cor image killed and the induced map surjective
        tab = self.table()
        for elems, quot, ab, ok in tab.rows:
            assert ok, elems

    def test_cor_image_has_right_index(self):
        # |H^0 / cor H^0(V)| = [G : V] for the unramified formation
        G, X, C = cyclic_setup(4)
        tab = self.table()
        by = {elems: quot for elems, quot, _, _ in tab.rows}
        for elems, quot in by.items():
            size = 1
            for t in quot:
                size *= t
            assert size == G.order // len(elems)

    def test_one_abelianization_per_table(self, monkeypatch):
        # every quotient is read off G^ab; none is abelianized afresh
        G, X, C = cyclic_setup(12)
        rep = formation_report(12)
        calls = []

        def counted(H):
            calls.append(H.order)
            return abelianization(H)

        monkeypatch.setattr(formation, "abelianization", counted)
        tab = norm_group_table(X, C, rep.fundamental, rep.reciprocity)
        assert tab.passed and len(tab.rows) == 6
        assert calls == [12]


def test_formation_and_norm_table_abelianize_once(monkeypatch):
    # iota and the norm table both read G^ab; the group keeps it
    from tateform import groups
    from tateform.cli import parse_scenario, run_scenario

    # G^ab is one elimination of Z/12's 12 x 144 relator matrix
    calls = []
    cokernel = groups.cokernel_structure

    def counted(a):
        calls.append(a.shape)
        return cokernel(a)

    monkeypatch.setattr(groups, "cokernel_structure", counted)
    doc = {"name": "z12", "group": {"kind": "cyclic", "n": 12},
           "coefficients": {"kind": "trivial"},
           "analyses": [{"kind": "formation"}, {"kind": "norm-table"}],
           "options": {"window": 4}}
    report = run_scenario(parse_scenario(doc))
    assert [(r["analysis"], r["verdict"]) for r in report["results"]] == [
        ("formation", "PASS"), ("norm-table", "ok")]
    assert calls == [(12, 144)]


_C2 = make_cyclic(2)


@pytest.mark.parametrize("G", [
    pytest.param(symmetric_group(3), id="S3"),
    pytest.param(symmetric_group(4), id="S4"),
    pytest.param(direct_product(_C2, make_cyclic(4)), id="C2xC4"),
    pytest.param(direct_product(_C2, direct_product(_C2, _C2)), id="C2^3"),
    *(pytest.param(G, id=k) for k, G in RELABELINGS.items())])
def test_quotient_abelianization_matches_quotient_group(G):
    abG, coords = abelianization(G)
    D = commutator_subgroup(G).elements
    for V in all_subgroups(G):
        if not V.is_normal:
            continue
        abQ = quotient_abelianization(abG, coords, V)
        ref, _ = abelianization(quotient_group(G, V)[0])
        assert abQ.invariants() == ref.invariants(), V.elements
        # the projection G -> (G/V)^ab vanishes exactly on V[G, G]
        kernel = {G.mul(v, d) for v in V.elements for d in D}
        for g in range(G.order):
            image = abQ.classify(np.array(coords[g], dtype=object))
            assert (not any(image)) == (g in kernel), (V.elements, g)
