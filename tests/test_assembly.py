"""Total-complex differentials against the one-nonzero-at-a-time loop.

``TotalComplex`` places the horizontal part f -> f o d of each Hom block
with one accumulating scatter of the coefficient action's coordinate
lists; ``reference.loop_assemble`` adds one full action matrix per
nonzero of the resolution's generator matrix.  They must agree entry for
entry, on Python ints, for the bar and peeled engines over S3, C2 x C2,
Z/6 and D4 and the periodic one over Z/6 (it needs a cyclic group), with
coefficients Z, Z at degree 2, Z/4, the regular module, the units of
F_64 over F_2 (Z/6 only: the Galois group is cyclic), Z[G] -> Z and the
cone of multiplication by 2 on Z, each also coinduced from every
subgroup.  Positions repeat across the group elements (the norm column
of a resolution lands every element's matrix on the same block), so a
scatter that does not accumulate fails here.  Each module builds its
coordinate lists once, however many total complexes read them.
"""

from functools import cached_property

import numpy as np
import pytest

from reference import loop_assemble
from tateform.formation import check_class_formation
from tateform.gcomplexes import concentrate, cone_of_mult
from tateform.gmodules import (
    GModule,
    finite_field_units,
    regular_module,
    trivial_cyclic,
    zmodule,
)
from tateform.groups import (
    all_subgroups,
    direct_product,
    make_cyclic,
    symmetric_group,
)
from tateform.resolutions import complete_resolution, resolution_for
from tateform.tate import TotalComplex, _CoinducedModule, coinduced
from test_coinduced import _augmentation_complex
from test_differential import D4


def _units(G):
    # F_64^* over F_2 as a module over this Z/6 table
    F = finite_field_units(2, 1, 6)
    return concentrate(GModule(G, F.relators, F.action, name=F.name), 0)


GROUPS = {
    "S3": symmetric_group(3),
    "C2xC2": direct_product(make_cyclic(2), make_cyclic(2)),
    "Z6": make_cyclic(6),
    "D4": D4,
}

COEFFICIENTS = {
    "Z": lambda G: concentrate(zmodule(G), 0),
    "Z-at-2": lambda G: concentrate(zmodule(G), 2),
    "Z/4": lambda G: concentrate(trivial_cyclic(G, 4), 0),
    "regular": lambda G: concentrate(regular_module(G), 0),
    "units-F64": _units,
    "Z[G]->Z": _augmentation_complex,
    "cone-x2": lambda G: cone_of_mult(concentrate(zmodule(G), 0), 2).cone,
}

ENGINES = ("periodic", "bar", "peeled")

CASES = [(g, e, c) for g in GROUPS for e in ENGINES for c in COEFFICIENTS
         if (e != "periodic" and c != "units-F64") or g == "Z6"]


@pytest.mark.parametrize("group, engine, coeff", CASES)
def test_differentials_match_the_nonzero_loop(group, engine, coeff):
    G = GROUPS[group]
    X = complete_resolution(resolution_for(G, 3, engine))
    C = COEFFICIENTS[coeff](G)
    # the bar resolution's degree -2 term has rank |G|^2: one degree
    # there keeps D4's coinduced regular module under the dimension cap
    span = 0 if engine == "bar" else 1
    for H in all_subgroups(G):
        total = TotalComplex(X, coinduced(C, H), C.lo - span, C.lo + span)
        for q, D in total.diff.items():
            want = loop_assemble(total, q)
            assert D.shape == want.shape
            assert all(type(x) is int for x in D.flat)
            assert np.array_equal(D, want), (H.elements, q)


def test_each_module_builds_its_pattern_once(monkeypatch):
    # the formation check of the s4-formation-w3 benchmark document: S4
    # over Z at window 3, one total complex per degree range and subgroup
    built = []
    for cls in (GModule, _CoinducedModule):
        def counted(M, build=cls.__dict__["pattern"].func):
            built.append(M)
            return build(M)
        prop = cached_property(counted)
        prop.__set_name__(cls, "pattern")
        monkeypatch.setattr(cls, "pattern", prop)
    G = symmetric_group(4)
    X = complete_resolution(resolution_for(G, 3))
    check_class_formation(X, concentrate(zmodule(G), 0))
    kept = {id(M) for entry in X._tate.values()
            for D in (entry.C, *entry.coinduced.values())
            for M in map(D.term, D.degrees())}
    # Z and its coinduced modules from the 10 other conjugacy classes of
    # subgroups, each built once
    assert len(built) == len({id(M) for M in built}) == len(kept) == 11
    assert {id(M) for M in built} == kept
