"""Finite groups by multiplication table.

A group of order n is a full n x n table over element ids 0..n-1.  At the
orders this package works with (24 by default, see DEFAULT_ORDER_CAP)
tables make validation, subgroup enumeration, cosets and abelianization
all cheap exact computations, and they remove any dependence on how a
group happens to be presented.  Both things the formation search needs
are read straight off the table: a subgroup is the set that right
multiplication by its generators reaches from the identity, and G^ab is
the cokernel of the table's relations e_a + e_b - e_ab.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, ValidationError
from .intlinalg import AbGroup, cokernel_structure, zeros

DEFAULT_ORDER_CAP = 24


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[a][b]`` is the product ab.  Construction validates the table:
    identity, then inverses, then associativity, each failure with its own
    message.

    >>> G = make_cyclic(3)
    >>> G.mul(1, 2)
    0
    >>> G.inv(2)
    1
    >>> G.element_order(2)
    3
    """

    __slots__ = ("order", "table", "identity", "name", "_inverse",
                 "inverses", "_abelianization", "_subgroups")

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G"):
        n = len(table)
        if n == 0:
            raise ValidationError("empty multiplication table")
        rows = []
        for i, row in enumerate(table):
            row = [int(x) for x in row]
            if len(row) != n:
                raise ValidationError(
                    f"table is not square: row {i} has length {len(row)}, expected {n}"
                )
            for j, x in enumerate(row):
                if not 0 <= x < n:
                    raise ValidationError(f"entry out of range at ({i}, {j}): {x}")
            rows.append(tuple(row))
        self.table = tuple(rows)
        self.order = n
        self.name = name

        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("no identity element")
        self.identity = identity

        inverse = []
        for a in range(n):
            inv_a = None
            for b in range(n):
                if self.table[a][b] == identity and self.table[b][a] == identity:
                    inv_a = b
                    break
            if inv_a is None:
                raise ValidationError(f"element {a} has no inverse")
            inverse.append(inv_a)
        self._inverse = tuple(inverse)
        self.inverses = np.array(inverse, dtype=np.intp)  # for index maps

        for a in range(n):
            ta = self.table[a]
            for b in range(n):
                tab = self.table[ta[b]]
                tb = self.table[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise ValidationError(f"associativity fails at ({a}, {b}, {c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inv(g))

    @property
    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def cyclic_generator(self) -> int | None:
        """An element of full order, smallest id first; None if not cyclic."""
        for a in range(self.order):
            if self.element_order(a) == self.order:
                return a
        return None

    def is_cyclic(self) -> bool:
        return self.cyclic_generator() is not None

    def closure(self, seed: Iterable[int]) -> frozenset:
        """Subgroup generated by ``seed``: the identity grown by right
        multiplication with the seed.  In a finite group the monoid a set
        generates is the subgroup it generates, so no inverses or left
        products are needed."""
        gens = tuple(set(seed))
        cur = {self.identity}
        stack = [self.identity]
        while stack:
            row = self.table[stack.pop()]
            for g in gens:
                x = row[g]
                if x not in cur:
                    cur.add(x)
                    stack.append(x)
        return frozenset(cur)

    def is_normal_subset(self, elements: Iterable[int]) -> bool:
        elems = set(elements)
        return all(
            self.conjugate(g, h) in elems for g in range(self.order) for h in elems
        )

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted tuple of parent element ids."""

    parent: FiniteGroup
    elements: tuple
    is_normal: bool

    def __post_init__(self):
        if self.parent.order % len(self.elements) != 0:
            raise ValidationError("subgroup order does not divide group order")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def __repr__(self) -> str:
        tag = "normal" if self.is_normal else "not normal"
        return f"Subgroup({list(self.elements)} of {self.parent.name}, {tag})"


def subgroup(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Wrap a subset as a Subgroup, validating closure."""
    elems = tuple(sorted(set(elements) | {G.identity}))
    for a in elems:
        for b in elems:
            if G.mul(a, b) not in elems:
                raise ValidationError(f"subset not closed: {a}*{b} falls outside")
    return Subgroup(G, elems, G.is_normal_subset(elems))


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)), True)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with i*j = (i+j) mod n."""
    if n < 1:
        raise ValidationError("order must be at least 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"Z/{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs (a, b) -> a*|H| + b."""
    nH = H.order
    table = [
        [
            G.table[a1][a2] * nH + H.table[b1][b2]
            for a2 in range(G.order)
            for b2 in range(nH)
        ]
        for a1 in range(G.order)
        for b1 in range(nH)
    ]
    return FiniteGroup(table, name=f"{G.name}x{H.name}")


def from_table(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate an explicit multiplication table."""
    return FiniteGroup(table, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on ids given by lexicographic order of permutation tuples.

    Composition convention: (p * q)(x) = p(q(x)).  Requires n <= 4 so the
    order stays within the default cap.
    """
    if not 1 <= n <= 4:
        raise CapExceeded("symmetric_group supports 1 <= n <= 4")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, name=f"S_{n}")


def all_subgroups(G: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> list:
    """Every subgroup, each exactly once, sorted by (order, elements).

    Enumeration is by closure saturation: grow each known subgroup by one
    outside element at a time.  Every subgroup arises this way because its
    own generating chain is walked.  Kept on G; each call returns a fresh list.
    """
    if G.order > cap:
        raise CapExceeded(f"group order {G.order} exceeds cap {cap}")
    if getattr(G, "_subgroups", None) is None:
        found = {frozenset([G.identity])}
        queue = [frozenset([G.identity])]
        while queue:
            H = queue.pop()
            for g in range(G.order):
                if g in H:
                    continue
                K = G.closure(H | {g})
                if K not in found:
                    found.add(K)
                    queue.append(K)
        subs = (Subgroup(G, tuple(sorted(H)), G.is_normal_subset(H)) for H in found)
        G._subgroups = tuple(sorted(subs, key=lambda s: (s.order, s.elements)))
    return list(G._subgroups)


def conjugacy_representatives(G: FiniteGroup, subs: list) -> dict:
    """Map each subgroup's elements to its first conjugate in subs, all_subgroups(G)."""
    reps = {}
    for s in subs:
        for g in range(G.order):
            reps.setdefault(tuple(sorted(G.conjugate(g, h) for h in s.elements)), s)
    return reps


def coset_representatives(G: FiniteGroup, H: Subgroup) -> list:
    """One id per left coset gH, identity first, then by ascending id."""
    covered = set()
    reps = []
    for g in [G.identity, *range(G.order)]:
        if g in covered:
            continue
        reps.append(g)
        covered.update(G.mul(g, h) for h in H.elements)
    return reps


def right_transversal(G: FiniteGroup, H: Subgroup) -> list:
    """One id per right coset Hg: inverses of the left representatives."""
    return [G.inv(r) for r in coset_representatives(G, H)]


def _relator_cokernel(G: FiniteGroup, label: Sequence, right: Sequence | None = None):
    """Cokernel of the relators e_x + e_y - e_xy on the classes of
    ``label`` (element id -> key), with each element's coordinates.

    Classes are numbered identity first, then by least id, as
    coset_representatives numbers cosets.  x runs over one element per
    class, and y over the same or over ``right`` when given.
    """
    row, reps = {}, []
    for g in [G.identity, *range(G.order)]:
        if label[g] not in row:
            row[label[g]] = len(reps)
            reps.append(g)
    right = reps if right is None else right
    rel = zeros(len(reps), len(reps) * len(right))
    col = 0
    for a in reps:
        for b in right:
            rel[row[label[a]], col] += 1
            rel[row[label[b]], col] += 1
            rel[row[label[G.mul(a, b)]], col] -= 1
            col += 1
    ab = cokernel_structure(rel)
    # the class of e_g is a column of the reduce map
    return ab, tuple(ab.reduce_coords(ab.reduce_map[:, row[label[g]]])
                     for g in range(G.order))


def abelianization(G: FiniteGroup) -> tuple[AbGroup, tuple]:
    """G^ab in invariant-factor form, plus per-element coordinates.

    G^ab is the cokernel of the relators e_a + e_b - e_ab over G's
    elements (a = b = identity kills the identity's generator), written
    on one generator per class of G^ab.  The canonical basis depends on
    the matrix eliminated, so that matrix is always the one on the
    classes, as the quotient table G/[G, G] would give it.  Each element
    of an abelian G is its own class.  For a non-abelian G the classes,
    the cosets of [G, G], are read off a first cokernel: the relators
    e_a + e_s - e_as over a generating set s already present G^ab, since
    every element is a positive word in the set.  The second return
    value maps each element id g to the canonical coordinates of its
    class.  The result is kept on G, so each group object is abelianized
    once.
    """
    memo = getattr(G, "_abelianization", None)
    if memo is not None:
        return memo
    label = range(G.order)
    if not G.is_abelian():
        gens, reached = [], {G.identity}
        for g in label:
            if g not in reached:
                gens.append(g)
                reached = G.closure(gens)
        label = _relator_cokernel(G, label, gens)[1]
    G._abelianization = _relator_cokernel(G, label)
    return G._abelianization
