"""Exact integer linear algebra.

Smith normal form, integer kernels and solves, and structure data for
finitely generated abelian groups presented as cokernels.  Everything runs
on numpy arrays with ``dtype=object`` holding Python ints, so arithmetic is
arbitrary precision and no floating point is ever involved.

The Smith normal form here uses the minimal-absolute-value pivot with a
fixed (row, column) tie-break, which keeps intermediate entries small at
the sizes this package works at and makes every result reproducible bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

# The package-wide matrix type: a 2-D numpy array with dtype=object whose
# entries are Python ints.  numpy is used purely as an exact container;
# all arithmetic stays in Python integers.
IntMatrix = np.ndarray


class ExactnessError(ValueError):
    """A pair of maps expected to compose to zero (or be exact) does not."""


def intmat(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Build an IntMatrix from nested sequences of ints.

    >>> intmat([[2, 4], [6, 8]]).shape
    (2, 2)
    """
    arr = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if arr.ndim == 1:  # no rows: normalize to 0 x 0
        arr = arr.reshape(0, 0)
    return arr


def zeros(r: int, c: int) -> IntMatrix:
    return np.zeros((r, c), dtype=object)


def eye(n: int) -> IntMatrix:
    return np.eye(n, dtype=object)


def is_zero(a: IntMatrix) -> bool:
    return a.size == 0 or not np.any(a != 0)


def hstack(parts: Sequence[IntMatrix]) -> IntMatrix:
    parts = [p for p in parts]
    if not parts:
        return zeros(0, 0)
    return np.hstack(parts)


def vstack(parts: Sequence[IntMatrix]) -> IntMatrix:
    parts = [p for p in parts]
    if not parts:
        return zeros(0, 0)
    return np.vstack(parts)


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = zeros(rows, cols)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, exact."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            if a[i, j] != 0:
                out[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb] = a[i, j] * b
    return out


@dataclass
class SnfResult:
    """U @ A @ V == S with U, V unimodular and S diagonal.

    ``diagonal`` is the full diagonal of S: nonnegative, each entry dividing
    the next, zeros trailing.  ``u_inv`` and ``v_inv`` are the exact inverses
    of ``u`` and ``v`` (tracked during reduction, not recomputed).
    """

    u: IntMatrix
    u_inv: IntMatrix
    s: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form over Z with minimal-absolute-value pivoting.

    Ties between candidate pivots of equal absolute value break toward the
    smallest (row, column) pair, so the output is deterministic.
    """
    s = a.astype(object).copy()
    m, n = s.shape
    u, u_inv = eye(m), eye(m)
    v, v_inv = eye(n), eye(n)

    def swap_rows(i, j):
        if i == j:
            return
        s[[i, j], :] = s[[j, i], :]
        u[[i, j], :] = u[[j, i], :]
        u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def swap_cols(i, j):
        if i == j:
            return
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        v_inv[[i, j], :] = v_inv[[j, i], :]

    def row_add(i, t, q):
        # row i += q * row t
        s[i, :] += q * s[t, :]
        u[i, :] += q * u[t, :]
        u_inv[:, t] -= q * u_inv[:, i]

    def col_add(j, t, q):
        # col j += q * col t
        s[:, j] += q * s[:, t]
        v[:, j] += q * v[:, t]
        v_inv[t, :] -= q * v_inv[j, :]

    def negate_row(i):
        s[i, :] = -s[i, :]
        u[i, :] = -u[i, :]
        u_inv[:, i] = -u_inv[:, i]

    def find_pivot(t):
        """Smallest |entry| in s[t:, t:], ties by (row, col)."""
        best = None
        for i in range(t, m):
            row = s[i, t:]
            nz = np.nonzero(row)[0]
            for j0 in nz:
                val = abs(row[j0])
                key = (val, i, t + int(j0))
                if best is None or key < best:
                    best = key
                    if val == 1:
                        return best  # cannot improve
        return best

    t = 0
    while t < min(m, n):
        best = find_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # Clear column t.  Remainders become new, smaller pivots.
            restart = False
            for i in range(t + 1, m):
                if s[i, t] != 0:
                    q = s[i, t] // s[t, t]
                    row_add(i, t, -q)
                    if s[i, t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if s[t, j] != 0:
                    q = s[t, j] // s[t, t]
                    col_add(j, t, -q)
                    if s[t, j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Row and column are clear; enforce divisibility into the rest.
            d = s[t, t]
            offender = None
            for i in range(t + 1, m):
                row = s[i, t + 1 :]
                nz = np.nonzero(row)[0]
                for j0 in nz:
                    if row[j0] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if s[t, t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(int(s[i, i]) for i in range(min(m, n)))
    return SnfResult(u, u_inv, s, v, v_inv, diag)


def gcd_minors_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors computed the slow, independent way.

    d_k = gcd of all k x k minors divided by gcd of all (k-1) x (k-1)
    minors.  Exponential in the matrix size; meant as an oracle for small
    matrices, not for real work.
    """
    from itertools import combinations
    from math import gcd

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


# ---------------------------------------------------------------------------
# Solvers and lattices
# ---------------------------------------------------------------------------


class LatticeSolver:
    """Cached SNF of a matrix A, answering integer solvability questions.

    Treats A's columns as generators of a sublattice of Z^m and solves
    A x = b exactly, reporting None when no integer solution exists.
    """

    def __init__(self, a: IntMatrix):
        self.a = a
        self.snf = smith_normal_form(a)

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        snf = self.snf
        m, n = self.a.shape
        c = snf.u @ b
        y = np.zeros(n, dtype=object)
        for i in range(m):
            d = snf.diagonal[i] if i < len(snf.diagonal) else 0
            if d != 0:
                if c[i] % d != 0:
                    return None
                if i < n:
                    y[i] = c[i] // d
            else:
                if c[i] != 0:
                    return None
        return snf.v @ y

    def solve_matrix(self, b: IntMatrix) -> Optional[IntMatrix]:
        cols = []
        for j in range(b.shape[1]):
            x = self.solve(b[:, j])
            if x is None:
                return None
            cols.append(x.reshape(-1, 1))
        if not cols:
            return zeros(self.a.shape[1], 0)
        return hstack(cols)

    def contains(self, b: np.ndarray) -> bool:
        return self.solve(b) is not None


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel {x : A x = 0}.

    The basis columns extend to a basis of the full ambient Z^n, so every
    integer kernel element is a unique integer combination of them.
    """
    snf = smith_normal_form(a)
    return snf.v[:, snf.rank :]


def lattice_basis(gens: IntMatrix) -> IntMatrix:
    """A basis (independent columns) for the lattice spanned by ``gens``."""
    if gens.shape[1] == 0:
        return zeros(gens.shape[0], 0)
    snf = smith_normal_form(gens)
    cols = []
    for i in range(snf.rank):
        cols.append((snf.u_inv[:, i] * snf.diagonal[i]).reshape(-1, 1))
    if not cols:
        return zeros(gens.shape[0], 0)
    return hstack(cols)


def solve(a: IntMatrix, b: np.ndarray) -> Optional[np.ndarray]:
    """One-shot integer solve of A x = b; None if unsolvable over Z."""
    return LatticeSolver(a).solve(b)


def preimage_lattice(a: IntMatrix, r: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : A x lies in the column span of R}.

    Computed as the x-projection of the kernel of [A | -R], with
    dependencies removed.
    """
    nx = a.shape[1]
    k = kernel_basis(hstack([a, -r]))
    return lattice_basis(k[:nx, :])


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` lists the invariant factors t_1 | t_2 | ... (each >= 2);
    ``free_rank`` counts Z summands.  Canonical coordinates list torsion
    generators first, then free ones.  ``basis_lift`` maps canonical
    generators to the ambient presentation (one column per generator);
    ``reduce_map``, when present, maps ambient vectors to canonical
    coordinates (valid on the vectors the construction promises, e.g.
    every ambient vector for a plain cokernel).
    """

    free_rank: int
    torsion: tuple[int, ...]
    basis_lift: IntMatrix
    reduce_map: Optional[IntMatrix] = None

    @property
    def ngens(self) -> int:
        return len(self.torsion) + self.free_rank

    @property
    def is_trivial(self) -> bool:
        return self.ngens == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        if not self.is_finite:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def invariants(self) -> tuple[int, ...]:
        """Torsion invariant factors followed by one 0 per free summand."""
        return self.torsion + (0,) * self.free_rank

    def relations(self) -> IntMatrix:
        """diag(invariants): columns span the relations among the
        canonical generators."""
        inv = self.invariants()
        out = zeros(len(inv), len(inv))
        for i, t in enumerate(inv):
            out[i, i] = t
        return out

    def reduce_coords(self, coords: np.ndarray) -> tuple[int, ...]:
        out = []
        for i, t in enumerate(self.torsion):
            out.append(int(coords[i]) % t)
        for i in range(len(self.torsion), self.ngens):
            out.append(int(coords[i]))
        return tuple(out)

    def classify(self, ambient: np.ndarray) -> tuple[int, ...]:
        if self.reduce_map is None:
            raise ValueError("no reduce_map attached to this group")
        return self.reduce_coords(self.reduce_map @ ambient)

    def element_order(self, coords: Sequence[int]) -> int:
        """Order of the element with the given canonical coordinates."""
        from math import gcd, lcm

        for i in range(len(self.torsion), self.ngens):
            if coords[i] != 0:
                raise ValueError("element of infinite order")
        out = 1
        for t, c in zip(self.torsion, coords):
            out = lcm(out, t // gcd(t, c % t))
        return out

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All canonical coordinate tuples; finite groups only."""
        from itertools import product

        if not self.is_finite:
            raise ValueError("infinite group")
        yield from product(*(range(t) for t in self.torsion))

    def describe(self) -> str:
        if self.is_trivial:
            return "0"
        parts = [f"Z/{t}" for t in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts)


def cokernel_structure(a: IntMatrix) -> AbGroup:
    """Structure of Z^m / (column span of A), with lifting data.

    The canonical generator i lifts to column i of ``basis_lift`` in the
    ambient Z^m, and ``reduce_map @ x`` followed by reduction mod the
    invariant factors classifies any ambient x.
    """
    m = a.shape[0]
    snf = smith_normal_form(a)
    torsion_idx = [i for i, d in enumerate(snf.diagonal) if d >= 2]
    free_idx = [i for i, d in enumerate(snf.diagonal) if d == 0] + list(
        range(len(snf.diagonal), m)
    )
    kept = torsion_idx + free_idx
    torsion = tuple(int(snf.diagonal[i]) for i in torsion_idx)
    basis_lift = snf.u_inv[:, kept] if kept else zeros(m, 0)
    reduce_map = snf.u[kept, :] if kept else zeros(0, m)
    return AbGroup(len(free_idx), torsion, basis_lift, reduce_map)


class AbMap:
    """A homomorphism of finitely generated abelian groups: ``matrix``
    sends canonical coordinates of ``source`` to those of ``target``."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix: IntMatrix, source: AbGroup, target: AbGroup):
        self.matrix = matrix
        self.source = source
        self.target = target

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], source: AbGroup,
                     target: AbGroup) -> "AbMap":
        """The map whose column i is the image of source generator i."""
        matrix = zeros(target.ngens, len(cols))
        for i, c in enumerate(cols):
            matrix[:, i] = np.array(c, dtype=object)
        return cls(matrix, source, target)

    def apply(self, coords: Sequence[int]) -> tuple[int, ...]:
        vec = self.matrix @ np.array(list(coords), dtype=object)
        return self.target.reduce_coords(vec)

    def image_order(self) -> int:
        """Order of the image inside a finite target."""
        quot = cokernel_structure(hstack([self.matrix, self.target.relations()]))
        return self.target.order() // quot.order()

    def is_isomorphism(self) -> bool:
        """Finite groups: surjective with equal orders."""
        if self.source.order() != self.target.order():
            return False
        return self.image_order() == self.target.order()

    @property
    def verdict(self) -> bool:
        """is_isomorphism(), under the name reciprocity reports use."""
        return self.is_isomorphism()


class Subquotient:
    """ker/im structure inside an ambient Z^g, possibly modulo relators.

    numerator: the lattice K = {x : d_out x lies in the target relator
    span}.  denominator: im(d_in) + relator span.  ``group`` carries the
    invariant factors; ``representative(i)`` lifts canonical generator i to
    an ambient vector, and ``classify(x)`` sends any ambient x in K to
    canonical coordinates.
    """

    def __init__(self, numerator_basis: IntMatrix, denominator: IntMatrix):
        self.numerator_basis = numerator_basis
        self._num_solver = LatticeSolver(numerator_basis)
        w = self._num_solver.solve_matrix(denominator)
        if w is None:
            raise ExactnessError("denominator does not lie in the numerator lattice")
        coker = cokernel_structure(w)
        reps = (
            numerator_basis @ coker.basis_lift
            if coker.ngens
            else zeros(numerator_basis.shape[0], 0)
        )
        self.group = AbGroup(coker.free_rank, coker.torsion, reps)
        self._coker = coker

    def representative(self, i: int) -> np.ndarray:
        return self.group.basis_lift[:, i]

    def classify(self, x: np.ndarray) -> tuple[int, ...]:
        w = self._num_solver.solve(x)
        if w is None:
            raise ValueError("vector is not in the numerator lattice")
        return self._coker.classify(w)

    def contains_ambient(self, x: np.ndarray) -> bool:
        return self._num_solver.contains(x)


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
    comp = d_out @ d_in
    if not is_zero(comp):
        raise ExactnessError("d_out @ d_in != 0")
    return homology_subquotient(d_in, d_out).group


def homology_subquotient(d_in: IntMatrix, d_out: IntMatrix) -> Subquotient:
    ker = kernel_basis(d_out)
    return Subquotient(ker, d_in)
