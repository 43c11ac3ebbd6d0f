"""Test-only routes kept out of the package: the gcd-of-minors oracle
for invariant factors, homology of a two-map complex, a subgroup as a
standalone group, a module restricted to a subgroup's own table, and
G^ab the long way, through [G, G] and the quotient table.

``gcd_minors_diagonal`` shares no code with ``smith_normal_form``, so it
is an independent check of its diagonal.  ``homology_at`` solves on a
kernel basis of ``d_out`` and checks d_out d_in = 0 first.
``as_group`` builds a subgroup's own table, and ``restrict_module`` views
a presentation over it through the checking ``GModule`` constructor.
``commutator_subgroup`` and ``quotient_group`` build G/[G, G] as a
validated group, an independent route to the cokernel that
``groups.abelianization`` reads off G's table; ``coset_abelianization``
presents that quotient table on its cosets, so its invariants, maps and
coordinates must equal ``groups.abelianization``'s entry for entry.
``loop_assemble`` builds a total-complex differential one nonzero of the
resolution's generator matrix at a time, with each coefficient term's
full action matrices, apart from the scatter ``TotalComplex`` makes.

The rest are small constructions that only tests use: Z/n with trivial
action, the trivial subgroup, the integral dual of a module, the
Herbrand pair (|H^0|, |H^-1|) by cochains, and corestriction of one
class through a ``SubgroupPair``.
"""

from itertools import combinations
from math import gcd

import numpy as np

from tateform.classical import h0, h_minus1
from tateform.errors import ValidationError
from tateform.gmodules import GModule, normalized, trivial_module
from tateform.groups import (
    FiniteGroup,
    Subgroup,
    coset_representatives,
)
from tateform.intlinalg import (
    AbGroup,
    ExactnessError,
    IntMatrix,
    LatticeSolver,
    Subquotient,
    cokernel_structure,
    eye,
    is_zero,
    kernel_basis,
    matmul,
    zeros,
)


def trivial_cyclic(G: FiniteGroup, n: int) -> GModule:
    """Z/n with trivial action."""
    return trivial_module(G, AbGroup(0, (n,), eye(1)), name=f"Z/{n}")


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,), True)


def dual_module(M: GModule) -> GModule:
    """Hom(M, Z) with the contragredient action act(g^{-1})^T.

    Only defined for torsion-free modules; a presentation with redundant
    relators is normalized first.
    """
    ab = cokernel_structure(M.relators)
    if ab.torsion:
        raise ValidationError(f"module {M.name} has torsion; no integral dual")
    base = normalized(M) if M.relators.shape[1] else M
    G = M.group
    action = [base.act(G.inv(g)).T for g in range(G.order)]
    return GModule(G, zeros(base.gens, 0), action, name=f"dual({M.name})")


def herbrand_quotient(M: GModule) -> tuple:
    """(|H^0|, |H^-1|) for a module with finite Tate groups.

    For cyclic groups |H^-1| = |H^1|, so equality of the two numbers is
    the Herbrand-quotient-one property for finite modules.
    """
    return h0(M).order(), h_minus1(M).order()


def cor_class(pair, x):
    """Corestriction of the class x of H's groups to G's, through the
    pair's cochain-level transfer."""
    vec = pair.tate_H.element(x.degree, x.coords)
    image = pair.cor_cochain(x.degree) @ vec
    return pair.tate_G.classify_class(x.degree, image)


def gcd_minors_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors computed the slow, independent way.

    d_k = gcd of all k x k minors divided by gcd of all (k-1) x (k-1)
    minors.  Exponential in the matrix size; meant as an oracle for small
    matrices, not for real work.
    """
    m, n = a.shape
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _det([[a[i, j] for j in cols] for i in rows]))
        if g == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    mat = [row[:] for row in rows]
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1] if n else 1


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> AbGroup:
    """ker(d_out) / im(d_in) for integer matrices with d_out @ d_in == 0.

    Returns the subquotient's structure; ``basis_lift`` columns are cycle
    representatives in the ambient chain group.
    """
    if d_in.shape[0] != d_out.shape[1]:
        raise ValueError(
            f"shape mismatch: d_in maps into Z^{d_in.shape[0]}, "
            f"d_out maps out of Z^{d_out.shape[1]}"
        )
    if not is_zero(matmul(d_out, d_in)):
        raise ExactnessError("d_out @ d_in != 0")
    return Subquotient(LatticeSolver(kernel_basis(d_out)), d_in).group


_AS_GROUP = {}


def as_group(H: Subgroup) -> tuple[FiniteGroup, tuple]:
    """The subgroup as a standalone FiniteGroup plus the embedding.

    The second component lists, for each new element id, the parent id
    it came from.  Results are memoized by (parent, elements), so repeated
    calls hand back the identical FiniteGroup object and identity checks
    against it (``Y.group is as_group(H)[0]``) hold.
    """
    key = (H.parent, H.elements)
    if key not in _AS_GROUP:
        pos = {g: i for i, g in enumerate(H.elements)}
        table = [[pos[H.parent.mul(a, b)] for b in H.elements]
                 for a in H.elements]
        name = f"{H.parent.name}|sub{list(H.elements)}"
        _AS_GROUP[key] = (FiniteGroup(table, name=name), H.elements)
    return _AS_GROUP[key]


def quotient_group(G: FiniteGroup, V: Subgroup) -> tuple[FiniteGroup, tuple]:
    """G/V for normal V, with the projection id map (identity coset = 0)."""
    if not V.is_normal:
        raise ValidationError("quotient by a non-normal subgroup")
    reps = coset_representatives(G, V)
    proj = [None] * G.order
    for k, r in enumerate(reps):
        for h in V.elements:
            proj[G.mul(r, h)] = k
    table = [[proj[G.mul(a, b)] for b in reps] for a in reps]
    return FiniteGroup(table, name=f"{G.name}/V"), tuple(proj)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """[G, G]: the closure of every commutator a b a^-1 b^-1."""
    comms = {
        G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
        for a in range(G.order)
        for b in range(G.order)
    }
    return Subgroup(G, tuple(sorted(G.closure(comms))), True)


def coset_abelianization(G: FiniteGroup) -> tuple[AbGroup, tuple]:
    """G^ab the long way: G/[G, G] as a validated group, presented on one
    generator e_x per coset with relators e_x + e_y - e_xy, and each
    element classified by its coset's generator."""
    Q, proj = quotient_group(G, commutator_subgroup(G))
    m = Q.order
    rel = zeros(m, m * m)
    for i in range(m):
        for j in range(m):
            rel[i, i * m + j] += 1
            rel[j, i * m + j] += 1
            rel[Q.mul(i, j), i * m + j] -= 1
    ab = cokernel_structure(rel)
    coords = []
    for g in range(G.order):
        v = zeros(m, 1)[:, 0]
        v[proj[g]] = 1
        coords.append(ab.classify(v))
    return ab, tuple(coords)


def restrict_module(M: GModule, H: Subgroup) -> GModule:
    """The same presentation viewed over the subgroup's own table."""
    if H.parent is not M.group:
        raise ValidationError("subgroup belongs to a different group")
    Hgrp, embed = as_group(H)
    action = [M.act(embed[i]) for i in range(Hgrp.order)]
    return GModule(Hgrp, M.relators, action, name=f"res({M.name})")


def loop_assemble(total, q: int) -> IntMatrix:
    """The differential total.diff[q], one slice-add per generator for
    the coefficient differential and one per nonzero (a |G| + tau, c) of
    the resolution's generator matrix, which adds its value times
    act(tau) at generator c of the target block and a of the source
    block, with the sign -(-1)^q."""
    X, C = total.X, total.C
    n = X.group.order
    out = zeros(total.dim[q + 1], total.dim[q])
    hsign = -1 if q % 2 == 0 else 1
    dst_by_j = {b.j: b for b in total.blocks[q + 1]}
    for b in total.blocks[q]:
        g = b.gens
        tgt = dst_by_j.get(b.j + 1)
        if g and tgt is not None and tgt.gens:
            h = tgt.gens
            for a in range(b.rank):
                out[tgt.offset + a * h:tgt.offset + (a + 1) * h,
                    b.offset + a * g:b.offset + (a + 1) * g] += C.diff(b.j)
        tgt = dst_by_j.get(b.j)
        if g and tgt is not None:
            dgen = X.diff_gen(b.s - 1)
            acts = [C.term(b.j).act(t) for t in range(n)]
            for row, col in zip(*np.nonzero(dgen)):
                a, tau = divmod(int(row), n)
                r0, c0 = tgt.offset + col * g, b.offset + a * g
                out[r0:r0 + g, c0:c0 + g] += hsign * dgen[row, col] * acts[tau]
    return out
