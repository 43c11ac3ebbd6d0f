"""A subgroup's groups built on the subgroup's side, and restriction and
corestriction placed generator by generator: references for the
coinduced route in ``tate`` that share none of its code.

``subgroup_resolution(X, H)`` is X's free resolution relabeled into a
FreeResolution over H, one degree at a time as each is read.  Z[G]
restricted to H is free on any right transversal {g_k} of H in G, so the
G-index (a, sigma) with sigma = h_i g_k becomes the H-index (a t + k, i),
and H-generator a t + k is the element g_k of generator a.  Its positive half is the dual
over H and its degree-0 map comes from its own augmentation, both built
by ``complete_resolution`` over H.  ``restricted(C, H)`` views every term
over H through the checking ``restrict_module``.
"""

import numpy as np

from tateform.gcomplexes import GComplex
from tateform.groups import coset_representatives, right_transversal
from tateform.intlinalg import zeros
from tateform.resolutions import FreeResolution, GenLists, complete_resolution

from reference import as_group, restrict_module


def relabel(G, H, gen):
    """The H-generator matrix of the G-map with generator matrix gen:
    column a t + k is column a translated by g_k, its rows relabeled
    into the H-layout."""
    Hgrp, embed = as_group(H)
    m, n = Hgrp.order, G.order
    transversal = right_transversal(G, H)
    t = len(transversal)
    local = [-1] * n
    for k, gk in enumerate(transversal):
        for i in range(m):
            local[G.mul(embed[i], gk)] = k * m + i
    assert min(local) >= 0, "transversal does not cover the group"
    rows, r = gen.shape
    out = zeros(rows, r * t)
    for k, gk in enumerate(transversal):
        for row in range(rows):
            b, sigma = divmod(row, n)
            out[b * n + local[G.mul(gk, sigma)], k::t] = gen[row, :]
    return out


def subgroup_resolution(X, H):
    """X's complete resolution rebuilt as one over H (see the module
    docstring).  The augmentation is constant on each generator's block
    of |G| entries, so X's own row serves."""
    res = X.res
    Hgrp, _ = as_group(H)
    return complete_resolution(FreeResolution(
        Hgrp, res.length, lambda _, i: GenLists.of(relabel(X.group, H, res.d_gen(i))),
        res.aug, res.engine))


def restricted(C, H):
    """C with every term viewed over H, each one checked again."""
    Hgrp, _ = as_group(H)
    return GComplex(Hgrp, C.lo,
                    [restrict_module(C.term(j), H) for j in C.degrees()],
                    [C.diff(j) for j in range(C.lo, C.hi)], name=C.name)


def locate(G, H, sigma):
    """(k, h) with sigma = h g_k for the right transversal {g_k} of H."""
    for k, gk in enumerate(right_transversal(G, H)):
        h = G.mul(sigma, G.inv(gk))
        if h in H.elements:
            return k, h
    raise AssertionError("no coset holds %d" % sigma)


def _copies(block, t, g):
    # generators of X behind a block of t g-dimensional values each
    return block.dim // (t * g) if g else 0


def reference_restriction(C, U, V, total_U, total_V, q):
    """Restriction from U to V <= U at degree q, placed generator by
    generator: the value at (a, gV_k) is h . (value at (a, gU_j)) where
    gV_k = h gU_j.  Either layout of the totals, coinduced over X or
    over the subgroup's own resolution, stores that value at the same
    coordinates."""
    G = C.group
    tU, tV = U.index, V.index
    out = zeros(total_V.dim[q], total_U.dim[q])
    for bU, bV in zip(total_U.blocks[q], total_V.blocks[q]):
        M = C.term(bU.j)
        g = M.gens
        for a in range(_copies(bU, tU, g)):
            for k, gk in enumerate(right_transversal(G, V)):
                j, h = locate(G, U, gk)
                row = bV.offset + (a * tV + k) * g
                col = bU.offset + (a * tU + j) * g
                out[row:row + g, col:col + g] += M.act(h)
    return out


def reference_corestriction(C, H, total_G, total_H, q):
    """Transfer from H to G at degree q, generator by generator, summed
    over the left cosets cH: the value at (a, c^-1) is carried back by c."""
    G = C.group
    t = H.index
    out = zeros(total_G.dim[q], total_H.dim[q])
    for bG, bH in zip(total_G.blocks[q], total_H.blocks[q]):
        M = C.term(bG.j)
        g = M.gens
        for c in coset_representatives(G, H):
            k, h = locate(G, H, G.inv(c))
            factor = M.act(G.mul(c, h))
            for a in range(_copies(bG, 1, g)):
                row = bG.offset + a * g
                col = bH.offset + (a * t + k) * g
                out[row:row + g, col:col + g] += factor
    return out


def same(got, want):
    return got.shape == want.shape and np.array_equal(got, want)
