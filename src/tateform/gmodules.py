"""Modules over the integral group ring of a finite group.

A GModule is an abelian-group presentation (generators and relator
columns) together with one integer action matrix per group element.  The
constructor validates that the matrices really define an action on the
quotient: relators are preserved, the identity acts as the identity, and
the matrices compose along the multiplication table, all modulo relators.
Each law is one integer solve against the relators over the blocks of all
its instances side by side (every A_a A_b - A_ab at once); the blocks are
searched for the offender only when that solve fails.  Invertibility of
each action matrix follows from the last two laws, so it is not checked
separately.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, ValidationError
from .groups import FiniteGroup, make_cyclic
from .intlinalg import (
    AbGroup,
    IntMatrix,
    LatticeSolver,
    Subquotient,
    block_diag,
    cokernel_structure,
    eye,
    hstack,
    intmat,
    kron,
    preimage_lattice,
    vstack,
    zeros,
)

FIELD_SIZE_CAP = 4096


class GModule:
    def __init__(
        self,
        group: FiniteGroup,
        relators: IntMatrix,
        action: Sequence[IntMatrix],
        name: str = "M",
    ):
        self.group = group
        self.relators = relators
        self.action = tuple(action)
        self.name = name
        self.gens = relators.shape[0]
        self._validate()

    def _validate(self):
        n = self.group.order
        if len(self.action) != n:
            raise ValidationError(
                f"module {self.name}: expected {n} action matrices, got {len(self.action)}"
            )
        for g, mat in enumerate(self.action):
            if mat.shape != (self.gens, self.gens):
                raise ValidationError(
                    f"module {self.name}: action matrix {g} has shape {mat.shape}, "
                    f"expected ({self.gens}, {self.gens})"
                )
        rel = LatticeSolver(self.relators)
        g = rel.first_outside([mat @ self.relators for mat in self.action])
        if g is not None:
            raise ValidationError(
                f"module {self.name}: action of element {g} does not preserve relators"
            )
        e = self.group.identity
        if not rel.contains(self.action[e] - eye(self.gens)):
            raise ValidationError(
                f"module {self.name}: identity does not act as the identity"
            )
        acts = self.action
        pair = rel.first_outside([acts[a] @ acts[b] - acts[self.group.mul(a, b)]
                                  for a in range(n) for b in range(n)])
        if pair is not None:
            a, b = divmod(pair, n)
            raise ValidationError(
                f"module {self.name}: action matrices do not compose at ({a}, {b})"
            )

    def act(self, g: int) -> IntMatrix:
        return self.action[g]

    @cached_property
    def pattern(self) -> tuple:
        """The action as coordinate lists, built once: act(g) holds
        vals[g, k] at (rows[g, k], cols[g, k]), k listing its nonzero
        entries and then zero ones up to the longest list.  A coinduced
        module (tate.coinduced) lays its base's lists out coset by coset."""
        A = np.stack(self.action).reshape(len(self.action), -1)
        order = np.argsort(A == 0, axis=1, kind="stable")
        order = order[:, :np.count_nonzero(A, axis=1).max()]
        return (*np.divmod(order, self.gens), np.take_along_axis(A, order, 1))

    @property
    def is_zero(self) -> bool:
        return self.gens == 0

    def structure(self) -> AbGroup:
        """The underlying abelian group, forgetting the action."""
        return cokernel_structure(self.relators)

    def __repr__(self) -> str:
        return f"GModule({self.name} over {self.group.name}, gens={self.gens})"


def trivial_module(G: FiniteGroup, ab: AbGroup, name: Optional[str] = None) -> GModule:
    """The abelian group ``ab`` with every group element acting trivially."""
    rel = ab.relations()[:, :len(ab.torsion)]
    action = [eye(ab.ngens) for _ in range(G.order)]
    return GModule(G, rel, action, name=name or f"triv({ab.describe()})")


def zmodule(G: FiniteGroup) -> GModule:
    """Z with trivial action."""
    return trivial_module(G, AbGroup(1, (), eye(1)), name="Z")


def zero_module(G: FiniteGroup) -> GModule:
    return GModule(G, zeros(0, 0), [zeros(0, 0) for _ in range(G.order)], name="0")


def regular_module(G: FiniteGroup) -> GModule:
    """Z[G] with the left translation action."""
    n = G.order
    action = []
    for g in range(n):
        p = zeros(n, n)
        for s in range(n):
            p[G.mul(g, s), s] = 1
        action.append(p)
    return GModule(G, zeros(n, 0), action, name=f"Z[{G.name}]")


def finite_field_units(p: int, f: int, n: int) -> GModule:
    """Unit group of the field with p^(f n) elements over the subfield
    with p^f elements, as a module over the cyclic Galois group Z/n.

    The group is cyclic of order p^(f n) - 1 and the Frobenius generator
    acts by multiplication by p^f.
    """
    if p < 2:
        raise ValidationError(f"p = {p} is not prime")
    if f < 1 or n < 1:
        raise ValidationError("f and n must be positive")
    # p >= 2, so p^(f n) <= FIELD_SIZE_CAP needs p <= FIELD_SIZE_CAP and
    # 2^(f n) <= FIELD_SIZE_CAP; checked before any trial division or power
    if p > FIELD_SIZE_CAP or f * n >= FIELD_SIZE_CAP.bit_length():
        raise CapExceeded(f"field size {p}^{f * n} exceeds cap {FIELD_SIZE_CAP}")
    if any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValidationError(f"p = {p} is not prime")
    q = p ** (f * n)
    if q > FIELD_SIZE_CAP:
        raise CapExceeded(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
    order = q - 1
    G = make_cyclic(n)
    action = [intmat([[pow(p, f * k, order) if order > 1 else 0]]) for k in range(n)]
    if order == 1:
        # the unit group is trivial; present it as a zero module
        return GModule(G, zeros(0, 0), [zeros(0, 0)] * n, name=f"F{q}*/F{p**f}")
    return GModule(G, intmat([[order]]), action, name=f"F{q}*/F{p**f}")


def normalized(M: GModule) -> GModule:
    """The same module on the canonical (invariant-factor) presentation."""
    ab = cokernel_structure(M.relators)
    rel = ab.relations()[:, :len(ab.torsion)]
    action = []
    for g in range(M.group.order):
        mat = ab.reduce_map @ M.act(g) @ ab.basis_lift
        for i, t in enumerate(ab.torsion):
            mat[i, :] %= t
        action.append(mat)
    return GModule(M.group, rel, action, name=M.name)


def tensor(M: GModule, N: GModule) -> GModule:
    """M (x) N over Z with the diagonal action, SNF-normalized."""
    if M.group is not N.group:
        raise ValidationError("tensor factors live over different groups")
    rel = hstack([
        kron(M.relators, eye(N.gens)),
        kron(eye(M.gens), N.relators),
    ])
    action = [kron(M.act(g), N.act(g)) for g in range(M.group.order)]
    raw = GModule(M.group, rel, action, name=f"({M.name})x({N.name})")
    return normalized(raw)


def fixed_points_subquotient(M: GModule) -> Subquotient:
    """The fixed-point subgroup M^G as a subquotient of the presentation.

    The numerator is the lattice of generator vectors x with
    (act(g) - 1) x in the relator span for every g; the denominator is the
    relator span itself.
    """
    blocks_a = []
    blocks_r = []
    for g in range(M.group.order):
        if g == M.group.identity:
            continue
        blocks_a.append(M.act(g) - eye(M.gens))
        blocks_r.append(M.relators)
    if not blocks_a:
        fixed = LatticeSolver(eye(M.gens))
    else:
        fixed = preimage_lattice(vstack(blocks_a), block_diag(blocks_r))
    return Subquotient(fixed, M.relators)


def fixed_points(M: GModule) -> AbGroup:
    return fixed_points_subquotient(M).group


def norm_endomorphism(M: GModule) -> IntMatrix:
    """The matrix of m -> sum over g of (g m) on generator coordinates."""
    out = zeros(M.gens, M.gens)
    for g in range(M.group.order):
        out += M.act(g)
    return out


def direct_sum(M: GModule, N: GModule) -> GModule:
    """M + N with block-diagonal relators and action."""
    if M.group is not N.group:
        raise ValidationError("direct sum of modules over different groups")
    rel = block_diag([M.relators, N.relators])
    action = [block_diag([M.act(g), N.act(g)]) for g in range(M.group.order)]
    return GModule(M.group, rel, action, name=f"({M.name})+({N.name})")
