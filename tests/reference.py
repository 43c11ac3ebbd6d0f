"""Test-only routes kept out of the package: the gcd-of-minors oracle
for invariant factors, homology of a two-map complex, and a module
restricted to a subgroup's own table.

``gcd_minors_diagonal`` shares no code with ``smith_normal_form``, so it
is an independent check of its diagonal.  ``homology_at`` solves on a
kernel basis of ``d_out`` and checks d_out d_in = 0 first.
``restrict_module`` views a presentation over the subgroup's own table,
through the checking ``GModule`` constructor.
"""

from itertools import combinations
from math import gcd

from tateform.errors import ValidationError
from tateform.gmodules import GModule
from tateform.groups import Subgroup
from tateform.intlinalg import (
    AbGroup,
    ExactnessError,
    IntMatrix,
    LatticeSolver,
    Subquotient,
    is_zero,
    kernel_basis,
    matmul,
)


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


def restrict_module(M: GModule, H: Subgroup) -> GModule:
    """The same presentation viewed over the subgroup's own table."""
    if H.parent is not M.group:
        raise ValidationError("subgroup belongs to a different group")
    Hgrp, embed = H.as_group()
    action = [M.act(embed[i]) for i in range(Hgrp.order)]
    return GModule(Hgrp, M.relators, action, name=f"res({M.name})")
