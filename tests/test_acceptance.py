"""Acceptance gate: one test per criterion, exact assertions throughout.

Each test prints one PASS line when it completes; a failure of any assert
is the corresponding FAIL.  Run with -v to get the per-criterion listing.

Criterion 1 note: the bar-resolution cross-check for Z/6 runs over
q in [-3, 3] (window 4) instead of [-4, 4]; the full window would need
bar rank 6^5 = 7776 columns at the edge degrees.  The periodic engine
still covers [-4, 4] for every n.  All other criteria run at their stated
ranges.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from tateform.classical import cochain_cohomology, h0, h_minus1
from tateform.cli import (
    _build_coefficients,
    _build_group,
    main,
    parse_scenario,
)
from tateform.formation import (
    check_class_formation,
    fundamental_class,
    norm_group_table,
    reciprocity_map,
)
from tateform.gcomplexes import concentrate, shift
from tateform.gmodules import finite_field_units, regular_module, zmodule
from tateform.groups import all_subgroups, direct_product, make_cyclic, \
    symmetric_group
from tateform.intlinalg import cokernel_structure
from tateform.resolutions import (
    bar_resolution,
    complete_resolution,
    peeled_resolution,
    periodic_resolution,
    resolution_for,
)
from tateform.scenarios import bundled_document, bundled_names
from tateform.tate import (
    SubgroupPair,
    cone_les_check,
    tate_hypercohomology,
    tate_nakayama_check,
)

from reference import cor_class

_cache = {}


def cyclic_setup(n):
    key = ("cyclic", n)
    if key not in _cache:
        G = make_cyclic(n)
        X = complete_resolution(periodic_resolution(G, 6))
        _cache[key] = (G, X, concentrate(zmodule(G), 0))
    return _cache[key]


def bundled_pairs():
    """Distinct (group, coefficients, resolution) triples across the
    bundled scenario catalog, built through the CLI plumbing."""
    if "pairs" not in _cache:
        seen = {}
        for name in bundled_names():
            spec = parse_scenario(bundled_document(name))
            key = json.dumps({"g": spec.group, "c": spec.coefficients},
                             sort_keys=True)
            if key in seen:
                continue
            G = _build_group(spec)
            C = _build_coefficients(G, spec.coefficients)
            X = complete_resolution(
                resolution_for(G, spec.options["window"],
                               spec.options["engine"]))
            seen[key] = (name, G, C, X)
        _cache["pairs"] = list(seen.values())
    return _cache["pairs"]


def formation_report(n):
    key = ("formation", n)
    if key not in _cache:
        G, X, C = cyclic_setup(n)
        _cache[key] = check_class_formation(X, C)
    return _cache[key]


def test_criterion_01_classical_pattern_two_engines():
    for n in (2, 3, 4, 6):
        G, Xp, C = cyclic_setup(n)
        periodic = tate_hypercohomology(Xp, C, -4, 4)
        for q in range(-4, 5):
            expected = (n,) if q % 2 == 0 else ()
            assert periodic.invariants(q) == expected, (n, q)
        bar_range = 4 if n <= 4 else 3
        Xb = complete_resolution(bar_resolution(G, bar_range + 1))
        bar = tate_hypercohomology(Xb, C, -bar_range, bar_range)
        for q in range(-bar_range, bar_range + 1):
            assert bar.invariants(q) == periodic.invariants(q), (n, q)
    print("ACCEPTANCE 1: PASS (classical pattern, bar vs periodic)")


def test_criterion_02_regular_module_vanishes():
    groups = [
        make_cyclic(2), make_cyclic(4),
        direct_product(make_cyclic(2), make_cyclic(2)),
        symmetric_group(3),
    ]
    for G in groups:
        X = complete_resolution(resolution_for(G, 5 if G.order > 4 or
                                               not G.is_cyclic() else 6))
        T = tate_hypercohomology(X, concentrate(regular_module(G), 0), -3, 3)
        for q in range(-3, 4):
            assert T.invariants(q) == (), (G.name, q)
    print("ACCEPTANCE 2: PASS (cohomological triviality of Z[G])")


def test_criterion_03_remark_agreement():
    mods = [finite_field_units(2, 1, 2), finite_field_units(3, 1, 2),
            finite_field_units(2, 1, 3)]
    checked = 0
    for M in mods:
        G = M.group
        assert G.order <= 4
        size = cokernel_structure(M.relators).order()
        assert size is not None and size <= 9
        X = complete_resolution(periodic_resolution(G, 6))
        T = tate_hypercohomology(X, concentrate(M, 0), -1, 2)
        assert T.invariants(0) == h0(M).invariants()
        assert T.invariants(-1) == h_minus1(M).invariants()
        for q in (1, 2):
            assert T.invariants(q) == cochain_cohomology(M, q).invariants()
        checked += 1
    assert checked == 3
    print("ACCEPTANCE 3: PASS (hypercohomology matches ordinary Tate groups)")


def test_criterion_04_shift_identity():
    for name, G, C, X in bundled_pairs():
        base = tate_hypercohomology(X, C, -2, 3)
        for n in range(-2, 3):
            shifted = tate_hypercohomology(X, shift(C, n), 0, 1)
            for q in (0, 1):
                assert shifted.invariants(q) == base.invariants(q + n), \
                    (name, n, q)
    print("ACCEPTANCE 4: PASS (shift identity on every bundled pair)")


def test_criterion_05_hilbert_90_and_herbrand():
    for p, f, n in ((2, 1, 2), (3, 1, 2), (2, 1, 3)):
        M = finite_field_units(p, f, n)
        X = complete_resolution(periodic_resolution(M.group, 6))
        T = tate_hypercohomology(X, concentrate(M, 0), 0, 1)
        assert T.invariants(1) == (), (p, f, n)
        assert T.order(0) == T.order(1), (p, f, n)
    print("ACCEPTANCE 5: PASS (Hilbert 90; Herbrand quotient 1)")


def test_criterion_06_tate_nakayama():
    for n in (2, 3, 4, 6):
        G, X, C = cyclic_setup(n)
        rep = formation_report(n)
        u = fundamental_class(X, C, rep)
        tn = tate_nakayama_check(X, C, u, -2, 3)
        assert tn.verdict == "PASS", n
        assert all(ok for *_, ok in tn.conclusion)
        assert [q for q, *_ in tn.conclusion] == list(range(-2, 4))

    def candidate(X, C):
        t2 = tate_hypercohomology(X, C, 2, 2)
        g2 = t2.group(2)
        coords = () if g2.ngens == 0 else (1,) + (0,) * (g2.ngens - 1)
        return t2.class_at(2, coords)

    K = direct_product(make_cyclic(2), make_cyclic(2))
    XK = complete_resolution(peeled_resolution(K, 5))
    CK = concentrate(zmodule(K), 0)
    rejK = tate_nakayama_check(XK, CK, candidate(XK, CK), 1, 0)
    assert rejK.verdict == "FAIL (ii)"

    G2, X2, _ = cyclic_setup(2)
    CR = concentrate(regular_module(G2), 0)
    rejR = tate_nakayama_check(X2, CR, candidate(X2, CR), 1, 0)
    assert rejR.verdict == "FAIL (ii)"

    M = finite_field_units(2, 1, 2)
    XU = complete_resolution(periodic_resolution(M.group, 6))
    CU = concentrate(M, 0)
    rejU = tate_nakayama_check(XU, CU, candidate(XU, CU), 1, 0)
    assert rejU.verdict == "FAIL (ii)"
    # the rejection is forced: H^2 vanishes outright
    assert tate_hypercohomology(XU, CU, 2, 2).invariants(2) == ()
    print("ACCEPTANCE 6: PASS (cup isomorphism; three rejections at (ii))")


def test_criterion_07_formation_and_reciprocity():
    for n in (2, 3, 4, 6):
        G, X, C = cyclic_setup(n)
        rep = formation_report(n)
        assert rep.verdict == "PASS", n
        rec = reciprocity_map(X, C, rep.fundamental)
        assert rec.is_isomorphism(), n
        assert rec.source.invariants() == ((n,) if n > 1 else ())
        assert rec.target.invariants() == ((n,) if n > 1 else ())
    G, X, C = cyclic_setup(4)
    tab = norm_group_table(X, C, formation_report(4).fundamental)
    assert len(tab.rows) == 3
    assert tab.passed
    for elems, quot, ab, ok in tab.rows:
        assert quot == ab and ok
    print("ACCEPTANCE 7: PASS (class formation; reciprocity; norm table)")


def test_criterion_08_cone_exact_sequence_orders():
    for name, G, C, X in bundled_pairs():
        for m in (1, 2, 3, 4):
            rep = cone_les_check(X, C, m, -2, 2)
            assert rep.passed, (name, m)
    print("ACCEPTANCE 8: PASS (cone order identity, every bundled pair)")


def test_criterion_09_cor_res_composite():
    for name, G, C, X in bundled_pairs():
        T = tate_hypercohomology(X, C, 0, 2)
        for H in all_subgroups(G):
            pair = SubgroupPair(X, C, H, 0, 2)
            for q in (0, 1, 2):
                grp = T.group(q)
                for i in range(grp.ngens):
                    x = T.class_at(
                        q, tuple(1 if j == i else 0
                                 for j in range(grp.ngens)))
                    back = cor_class(pair, pair.res_class(x))
                    want = grp.reduce_coords(
                        [H.index * c for c in x.coords])
                    assert back.coords == tuple(want), (name, H.elements, q)
    print("ACCEPTANCE 9: PASS (cor after res is multiplication by the index)")


def test_criterion_10_cli_determinism():
    for name in bundled_names():
        outs = set()
        for _ in range(3):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["demo", name, "--format", "json"])
            assert code == 0, name
            outs.add(buf.getvalue())
        assert len(outs) == 1, name
    print("ACCEPTANCE 10: PASS (byte-identical JSON, 3 runs per demo)")
