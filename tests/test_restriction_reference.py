"""Restriction and corestriction matrices, entry for entry, against
per-generator loops.

``restriction_blocks`` and ``SubgroupPair.cor_cochain`` build each map as
one coefficient map between coinduced complexes, applied to every
generator of the resolution at once.  The reference functions in
``subgroup_reference`` place each generator's block by hand, splitting
elements against ``groups.right_transversal`` themselves.  Both must give
the same integer matrix for every nested pair of subgroups, including the
pairs G -> H, at every degree of q = -1..2, over Z, the regular module
and a two-term complex, on S3, S3 typed as a relabeled table, and
C2 x C2.
"""

import numpy as np
import pytest

from tateform.gcomplexes import GComplex, concentrate
from tateform.gmodules import regular_module, zmodule
from tateform.groups import (
    all_subgroups,
    direct_product,
    make_cyclic,
    symmetric_group,
    whole_subgroup,
)
from tateform.resolutions import complete_resolution, resolution_for
from tateform.tate import SubgroupPair, restriction_blocks

from subgroup_reference import (reference_corestriction,
                                reference_restriction, same)
from test_differential import relabel

QLO, QHI = -1, 2

GROUPS = {
    "S3": lambda: symmetric_group(3),
    "S3-table": lambda: relabel(symmetric_group(3), 0),
    "C2xC2": lambda: direct_product(make_cyclic(2), make_cyclic(2)),
}


def _augmentation_complex(G):
    # Z[G] -> Z by the augmentation, at degrees 0 and 1
    aug = np.ones((1, G.order), dtype=object)
    return GComplex(G, 0, [regular_module(G), zmodule(G)], [aug],
                    name="Z[G]-aug-Z")


COEFFICIENTS = {
    "Z": lambda G: concentrate(zmodule(G), 0),
    "regular": lambda G: concentrate(regular_module(G), 0),
    "two-term": _augmentation_complex,
}


@pytest.mark.parametrize("coeff", COEFFICIENTS)
@pytest.mark.parametrize("group", GROUPS)
def test_res_and_cor_match_the_per_generator_loops(group, coeff):
    G = GROUPS[group]()
    C = COEFFICIENTS[coeff](G)
    X = complete_resolution(resolution_for(G, 3, "peeled"))
    subs = all_subgroups(G)
    pairs = {s.elements: SubgroupPair(X, C, s, QLO, QHI) for s in subs}
    totals = {e: pair.tate_H.total for e, pair in pairs.items()}
    # U = G is read off X itself, with C as its coefficients
    assert totals[whole_subgroup(G).elements] is pairs[
        whole_subgroup(G).elements].tate_G.total
    for u in subs:
        for v in subs:
            if not set(v.elements) <= set(u.elements):
                continue
            total_u, total_v = totals[u.elements], totals[v.elements]
            for q in range(QLO, QHI + 1):
                got = restriction_blocks(C, u, v, total_u, total_v, q)
                want = reference_restriction(C, u, v, total_u, total_v, q)
                assert same(got, want), (u.elements, v.elements, q)
    for h in subs:
        pair = pairs[h.elements]
        for q in range(QLO, QHI + 1):
            got = pair.cor_cochain(q)
            want = reference_corestriction(C, h, pair.tate_G.total,
                                           pair.tate_H.total, q)
            assert same(got, want), (h.elements, q)
