"""Bounded complexes of modules over a finite group.

Cohomological indexing throughout: d^q raises degree, terms live on a
support interval [lo, hi], and the shift convention is (C[n])^q = C^{n+q}
with d_{C[n]} = (-1)^n d_C.  Mapping cones follow the sign rule
d_cone = [[-d, 0], [f, d]], which keeps both triangle maps sign-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceeded, ValidationError
from .gmodules import GModule, direct_sum, tensor, zero_module, zmodule
from .groups import FiniteGroup
from .intlinalg import (IntMatrix, LatticeSolver, eye, hstack, matmul, vstack,
                        zeros)

TENSOR_POWER_CAP = 512


class GComplex:
    """Terms C^lo .. C^hi with differentials d^q: C^q -> C^{q+1}.

    Validation checks that each differential is equivariant and that
    consecutive differentials compose to zero, both modulo the relators of
    the target term: one solve per degree for each law, over all group
    elements at once.
    """

    def __init__(
        self,
        group: FiniteGroup,
        lo: int,
        terms: Sequence[GModule],
        diffs: Sequence[IntMatrix],
        name: str = "C",
    ):
        if not terms:
            raise ValidationError("a complex needs at least one term")
        if len(diffs) != len(terms) - 1:
            raise ValidationError(
                f"expected {len(terms) - 1} differentials for {len(terms)} terms, "
                f"got {len(diffs)}"
            )
        self.group = group
        self.lo = lo
        self.hi = lo + len(terms) - 1
        self._terms = tuple(terms)
        self._diffs = tuple(diffs)
        self.name = name
        self._zero: Optional[GModule] = None
        self._validate()

    def _validate(self):
        for q in range(self.lo, self.hi + 1):
            if self._terms[q - self.lo].group is not self.group:
                raise ValidationError(f"term at degree {q} lives over the wrong group")
        for q in range(self.lo, self.hi):
            d = self._diffs[q - self.lo]
            src, tgt = self.term(q), self.term(q + 1)
            if d.shape != (tgt.gens, src.gens):
                raise ValidationError(
                    f"differential at degree {q} has shape {d.shape}, "
                    f"expected ({tgt.gens}, {src.gens})"
                )
            g = LatticeSolver(tgt.relators).first_outside(
                [d @ src.act(h) - tgt.act(h) @ d for h in range(self.group.order)])
            if g is not None:
                raise ValidationError(
                    f"differential at degree {q} is not equivariant for element {g}"
                )
        for q in range(self.lo, self.hi - 1):
            comp = matmul(self._diffs[q + 1 - self.lo], self._diffs[q - self.lo])
            if not LatticeSolver(self.term(q + 2).relators).contains(comp):
                raise ValidationError(f"d o d is nonzero at degree {q}")

    def term(self, q: int) -> GModule:
        """C^q; outside the support, one zero module kept per complex."""
        if self.lo <= q <= self.hi:
            return self._terms[q - self.lo]
        if self._zero is None:
            self._zero = zero_module(self.group)
        return self._zero

    def diff(self, q: int) -> IntMatrix:
        """d^q: term(q) -> term(q+1); zero outside the support."""
        if self.lo <= q < self.hi:
            return self._diffs[q - self.lo]
        return zeros(self.term(q + 1).gens, self.term(q).gens)

    @property
    def support(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def __repr__(self) -> str:
        return f"GComplex({self.name}, degrees [{self.lo}, {self.hi}])"


def concentrate(M: GModule, degree: int) -> GComplex:
    """M as a complex with a single term at the given degree."""
    return GComplex(M.group, degree, [M], [], name=f"{M.name}[at {degree}]")


def shift(C: GComplex, n: int) -> GComplex:
    """(C[n])^q = C^{n+q}, differentials scaled by (-1)^n."""
    sign = -1 if n % 2 else 1
    terms = [C.term(q + n) for q in range(C.lo - n, C.hi - n + 1)]
    diffs = [sign * C.diff(q + n) for q in range(C.lo - n, C.hi - n)]
    return GComplex(C.group, C.lo - n, terms, diffs, name=f"{C.name}[{n}]")


@dataclass
class MultTriangle:
    """The triangle C -m-> C -> cone(m) -> C[1] with degreewise maps.

    ``inclusion[q]``: C^q -> cone^q and ``projection[q]``: cone^q -> C^{q+1}
    are plain coordinate matrices (the cone term at q is C^{q+1} + C^q).
    """

    m: int
    base: GComplex
    cone: GComplex
    inclusion: dict
    projection: dict


def cone_of_mult(C: GComplex, m: int) -> MultTriangle:
    """Mapping cone of multiplication by m on C, with the triangle maps."""
    if m < 1:
        raise ValidationError("multiplication factor must be positive")
    lo, hi = C.lo - 1, C.hi
    terms = []
    diffs = []
    for q in range(lo, hi + 1):
        terms.append(direct_sum(C.term(q + 1), C.term(q)))
    for q in range(lo, hi):
        a1 = C.term(q + 2).gens  # rows of the shifted block
        a0 = C.term(q + 1).gens
        b1 = C.term(q + 1).gens  # columns of the shifted block
        b0 = C.term(q).gens
        d = zeros(a1 + a0, b1 + b0)
        d[:a1, :b1] = -C.diff(q + 1)
        d[a1:, :b1] = m * eye(b1)
        d[a1:, b1:] = C.diff(q)
        diffs.append(d)
    cone = GComplex(C.group, lo, terms, diffs, name=f"cone(x{m} on {C.name})")
    inclusion = {}
    projection = {}
    for q in range(lo, hi + 1):
        top = C.term(q + 1).gens
        bottom = C.term(q).gens
        inclusion[q] = vstack([zeros(top, bottom), eye(bottom)])
        projection[q] = hstack([eye(top), zeros(top, bottom)])
    return MultTriangle(m, C, cone, inclusion, projection)


def tensor_power_shifted(M: GModule, n: int, cap: int = TENSOR_POWER_CAP) -> GComplex:
    """M tensored with itself n times, placed at degree n.

    n = 0 gives the trivial module Z at degree 0.  The size cap guards
    against generator blowup before SNF normalization trims it.
    """
    if n < 0:
        raise ValidationError("tensor power must be nonnegative")
    if n == 0:
        return concentrate(zmodule(M.group), 0)
    # n > cap is refused first: a base of 0 or 1 generators passes the size
    # test at any n, and a large n would make gens**n itself huge
    if n > cap or M.gens**n > cap:
        raise CapExceeded(f"raw tensor power {M.gens}^{n} exceeds cap {cap}")
    out = M
    for _ in range(n - 1):
        out = tensor(out, M)
    return concentrate(out, n)
