"""Restriction and corestriction matrices, entry for entry, against the
per-generator loops they replaced.

``restriction_blocks`` and ``corestriction_blocks`` build one coefficient
block per Hom block and repeat it for every generator of the resolution.
The reference functions below place each generator's block by hand, as
the earlier code did.  Both must give the same integer matrix for every
nested pair of subgroups, including the pairs G -> H, at every degree of
q = -1..2, over Z, the regular module and a two-term complex, on S3, S3
typed as a relabeled table, and C2 x C2.
"""

import numpy as np
import pytest

from tateform.gcomplexes import GComplex, concentrate
from tateform.gmodules import regular_module, zmodule
from tateform.groups import (
    all_subgroups,
    coset_representatives,
    direct_product,
    make_cyclic,
    symmetric_group,
)
from tateform.intlinalg import zeros
from tateform.resolutions import complete_resolution, resolution_for
from tateform.tate import (
    SubgroupResolution,
    TotalComplex,
    corestriction_blocks,
    restrict_complex,
    restriction_blocks,
)

from test_differential import relabel

QLO, QHI = -1, 2


def _locate(model, sigma):
    pos = int(model._local[sigma])
    m = model.group.order
    return pos // m, model.embed[pos % m]


def reference_restriction(src, dst, C, total_src, total_dst, q):
    tV = dst.index
    out = zeros(total_dst.dim[q], total_src.dim[q])
    for bU, bV in zip(total_src.blocks[q], total_dst.blocks[q]):
        if bU.gens == 0:
            continue
        M = C.term(bU.j)
        parent_rank = bU.rank if src is None else bU.rank // src.index
        for a in range(parent_rank):
            for k, gk in enumerate(dst.transversal):
                if src is None:
                    j_src, h = 0, gk
                else:
                    j_src, h = _locate(src, gk)
                row = bV.offset + (a * tV + k) * bV.gens
                col = bU.offset + (a * (1 if src is None else src.index)
                                   + j_src) * bU.gens
                out[row:row + bV.gens, col:col + bU.gens] += M.act(h)
    return out


def reference_corestriction(model, C, total_G, total_H, q):
    G = C.group
    t = model.index
    lefts = coset_representatives(G, model.subgroup)
    out = zeros(total_G.dim[q], total_H.dim[q])
    for bG, bH in zip(total_G.blocks[q], total_H.blocks[q]):
        if bG.gens == 0:
            continue
        M = C.term(bG.j)
        for c in lefts:
            k, h = _locate(model, G.inv(c))
            factor = M.act(G.mul(c, h))
            for a in range(bG.rank):
                row = bG.offset + a * bG.gens
                col = bH.offset + (a * t + k) * bH.gens
                out[row:row + bG.gens, col:col + bH.gens] += factor
    return out


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


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("coeff", COEFFICIENTS)
@pytest.mark.parametrize("group", GROUPS)
def test_res_and_cor_match_the_per_generator_loops(group, coeff):
    G = GROUPS[group]()
    C = COEFFICIENTS[coeff](G)
    X = complete_resolution(resolution_for(G, 3, "peeled"))
    subs = all_subgroups(G)
    total_G = TotalComplex(X, C, QLO, QHI)
    models = {s.elements: SubgroupResolution(X, s) for s in subs}
    totals = {e: TotalComplex(m, restrict_complex(C, m.subgroup), QLO, QHI)
              for e, m in models.items()}
    for u in subs:
        # U = G is read off X itself, as the formation check does
        src = None if u.is_whole_group() else models[u.elements]
        total_u = total_G if src is None else totals[u.elements]
        for v in subs:
            if not set(v.elements) <= set(u.elements):
                continue
            dst, total_v = models[v.elements], totals[v.elements]
            for q in range(QLO, QHI + 1):
                got = restriction_blocks(src, dst, C, total_u, total_v, q)
                want = reference_restriction(src, dst, C, total_u, total_v, q)
                assert _same(got, want), (u.elements, v.elements, q)
    for h in subs:
        model, total_h = models[h.elements], totals[h.elements]
        for q in range(QLO, QHI + 1):
            got = corestriction_blocks(model, C, total_G, total_h, q)
            want = reference_corestriction(model, C, total_G, total_h, q)
            assert _same(got, want), (h.elements, q)
