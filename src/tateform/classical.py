"""Ordinary Tate cohomology computed directly from a module.

This route is deliberately independent of the resolution machinery: degree
0 is fixed points modulo norms, degree -1 is the norm kernel modulo the
augmentation-ideal image, and positive degrees come from the standard
inhomogeneous cochain complex with C^k = Maps(G^k, M).  The hypercohomology
engine is cross-checked against these in the test suite.
"""

from __future__ import annotations

from .gmodules import GModule, fixed_points_subquotient, norm_endomorphism
from .intlinalg import (
    AbGroup,
    Subquotient,
    block_diag,
    eye,
    hstack,
    preimage_lattice,
    zeros,
)


def h0(M: GModule) -> AbGroup:
    """Fixed points modulo the image of the norm."""
    fixed = fixed_points_subquotient(M)
    den = hstack([norm_endomorphism(M), M.relators])
    return Subquotient(fixed.numerator, den).group


def h_minus1(M: GModule) -> AbGroup:
    """Kernel of the norm modulo the augmentation-ideal image.

    The numerator is {x : N x lies in the relator span}; the denominator
    collects (g - 1) M over all group elements, plus relators.
    """
    num = preimage_lattice(norm_endomorphism(M), M.relators)
    cols = [M.relators]
    for g in range(M.group.order):
        if g == M.group.identity:
            continue
        cols.append(M.act(g) - eye(M.gens))
    return Subquotient(num, hstack(cols)).group


def _tuple_rank(gs, n: int) -> int:
    out = 0
    for g in gs:
        out = out * n + g
    return out


def _tuple_unrank(idx: int, n: int, k: int) -> tuple:
    out = []
    for _ in range(k):
        out.append(idx % n)
        idx //= n
    return tuple(reversed(out))


def cochain_differential(M: GModule, k: int):
    """d: C^k -> C^{k+1} on inhomogeneous cochains C^k = Maps(G^k, M).

    (df)(g_1,...,g_{k+1}) = g_1 f(g_2,...) + sum_i (-1)^i f(..., g_i g_{i+1}, ...)
    + (-1)^{k+1} f(g_1,...,g_k).
    """
    n = M.group.order
    gens = M.gens
    src = n**k
    tgt = n ** (k + 1)
    d = zeros(tgt * gens, src * gens)

    def add_block(t_slot, s_slot, mat):
        d[
            t_slot * gens : (t_slot + 1) * gens,
            s_slot * gens : (s_slot + 1) * gens,
        ] += mat

    ident = eye(gens)
    for t in range(tgt):
        gs = _tuple_unrank(t, n, k + 1)
        add_block(t, _tuple_rank(gs[1:], n), M.act(gs[0]))
        for i in range(1, k + 1):
            merged = gs[: i - 1] + (M.group.mul(gs[i - 1], gs[i]),) + gs[i + 1 :]
            sign = -1 if i % 2 else 1
            add_block(t, _tuple_rank(merged, n), sign * ident)
        sign = -1 if (k + 1) % 2 else 1
        add_block(t, _tuple_rank(gs[:-1], n), sign * ident)
    return d


def cochain_cohomology(M: GModule, q: int) -> AbGroup:
    """H^q(G, M) from the standard cochain complex; intended for q in {1, 2}.

    Agrees with Tate cohomology in positive degrees.  Cost grows as
    |G|^(q+1), so keep the group small.
    """
    if q < 1:
        raise ValueError("cochain route is for positive degrees")
    n = M.group.order
    d_out = cochain_differential(M, q)
    d_in = cochain_differential(M, q - 1)
    rel_next = block_diag([M.relators] * n ** (q + 1))
    rel_here = block_diag([M.relators] * n**q)
    num = preimage_lattice(d_out, rel_next)
    den = hstack([d_in, rel_here])
    return Subquotient(num, den).group
