"""Coinduced complexes against the checking constructors.

``tate.coinduced`` builds CoInd_H^G Res_H C from C's checked terms and
differentials without proving the module laws, equivariance or d o d
again.  Here every term is rebuilt with the checking ``GModule(...)``
constructor, and the whole complex with ``GComplex(...)``, for every
subgroup of S3, C2 x C2 and Z/6 over Z, Z at degree 2, the regular module
and the two-term complex Z[G] -> Z, and of S4 over Z.  The coordinate
lists the total complex scatters for each element must lay out that
element's matrix.
"""

import numpy as np
import pytest

from tateform.gcomplexes import GComplex, concentrate
from tateform.gmodules import GModule, regular_module, zmodule
from tateform.groups import (
    all_subgroups,
    direct_product,
    make_cyclic,
    symmetric_group,
    whole_subgroup,
)
from tateform.tate import coinduced


def _augmentation_complex(G):
    aug = np.ones((1, G.order), dtype=object)
    return GComplex(G, 0, [regular_module(G), zmodule(G)], [aug])


def _laid_out(pattern, x, n):
    # the n x n matrix of x's coordinate lists, which the total complex
    # scatters; they must not list a position twice
    rows, cols, vals = (p[x] for p in pattern)
    assert len(set(zip(rows, cols))) == len(rows)
    assert all(type(v) is int for v in vals)
    out = np.zeros((n, n), dtype=object)
    out[rows, cols] = vals
    return out


GROUPS = {
    "S3": lambda: symmetric_group(3),
    "C2xC2": lambda: direct_product(make_cyclic(2), make_cyclic(2)),
    "Z6": lambda: make_cyclic(6),
}

COEFFICIENTS = {
    "Z": lambda G: concentrate(zmodule(G), 0),
    "Z-at-2": lambda G: concentrate(zmodule(G), 2),
    "regular": lambda G: concentrate(regular_module(G), 0),
    "Z[G]->Z": _augmentation_complex,
}

CASES = [(g, c) for g in GROUPS for c in COEFFICIENTS] + [("S4", "Z")]


@pytest.mark.parametrize("group, coeff", CASES)
def test_coinduced_terms_pass_the_module_check(group, coeff):
    G = symmetric_group(4) if group == "S4" else GROUPS[group]()
    C = COEFFICIENTS[coeff](G)
    assert coinduced(C, whole_subgroup(G)) is C
    for H in all_subgroups(G):
        if H.is_whole_group():
            continue
        D = coinduced(C, H)
        assert (D.group, D.lo, D.hi) == (G, C.lo, C.hi)
        checked = []
        for j in D.degrees():
            M = D.term(j)
            assert M.gens == C.term(j).gens * H.index
            checked.append(GModule(G, M.relators, M.action, name=M.name))
            for x in G.elements:
                assert np.array_equal(_laid_out(M.pattern, x, M.gens),
                                      M.act(x))
        GComplex(G, D.lo, checked, [D.diff(j) for j in range(D.lo, D.hi)])
