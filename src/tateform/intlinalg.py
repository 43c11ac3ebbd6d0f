"""Exact integer linear algebra.

Smith normal form, integer kernels and solves, and structure data for
finitely generated abelian groups presented as cokernels.  Matrices go in
and come out as numpy arrays with ``dtype=object`` holding Python ints, so
every result is exact; float64 appears only inside ``matmul64``, as exact
storage for products whose partial sums all stay below 2^53.

Inside ``smith_normal_form`` the working storage is picked per call: an
input of at least 256 entries, all below 2^30, is eliminated on int64
arrays under a guard that keeps every entry below 2^62, and s and the
carried transforms move to object storage at the first row or column
operation the guard cannot clear.  On int64 storage a pass that clears
three or more entries of a column (row) is one array operation, and the
elimination keeps each row's smallest nonzero |entry|, refreshed for the
rows a row clear changes, so a pivot is found by one argmin over
those row minima and not by a scan of the whole remaining block; object
storage keeps the scan.  The pivot sequence is the same on either
storage, and ``SnfResult`` keeps the storage the run ended on; its readers
go through ``matmul``, an elementwise product with an object array, or
``astype(object, copy=False)`` on the slice they return, so no int64 sum
is formed unguarded and no other function but ``matmul64`` returns int64.

Matrix products outside the elimination are guarded the same way: the
inner dimension k and the largest entries bound every sum by
k max|a| max|b|.  ``matmul64`` multiplies int64 operands on float64
through BLAS below 2^53 and on int64 below 2^63, returns int64, and
declines otherwise.  ``matmul`` (the d o d and cocycle audits, homology's
representatives, the solves) runs through it when its operands fit and
on Python ints otherwise, and always returns Python ints.  The peel's
span quotient calls ``matmul64`` itself, so its functionals stay int64
from one product to the next.  ``LatticeSolver`` uses the factors of its
elimination as they arrive, int64 or object.

The Smith normal form here uses the minimal-absolute-value pivot with a
fixed (row, column) tie-break, which keeps intermediate entries small at
the sizes this package works at and makes every result reproducible bit
for bit.  It carries only the transforms its caller names in ``need``
(``kernel_basis`` reads V, ``cokernel_structure`` and ``lattice_basis`` U
and U^-1, a ``LatticeSolver`` that factors its own matrix U and V, the
peel's span quotient U alone); the others come back as 0 x 0 arrays.
``lattice_basis`` is the one reader of its basis and its solves, so each
lattice is eliminated once.  The pivot sequence does not depend on
``need``, so a carried transform is the same matrix whatever else is
carried.

``LatticeSolver.solve`` is the package's one integer solve.  It answers a
vector or a whole matrix of right-hand sides in one pass through a cached
factorization, so a law with many instances (a module axiom over every
pair of group elements, say) is one solve over the instances side by side;
``first_outside`` names the failing instance only after that solve fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

# The package-wide matrix type: a 2-D numpy array with dtype=object whose
# entries are Python ints.  numpy is used as an exact container; only the
# guarded int64 storage of smith_normal_form, kept in its SnfResult, and
# matmul64's products are not.
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


def int_list(xs: Sequence[int]) -> list[int]:
    """The entries as plain Python ints, for the JSON reports."""
    return [int(x) for x in xs]


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
    """Kronecker product, exact.  Visits only the nonzero entries of ``a``.

    kron(eye(n), b) is block_diag([b] * n), which builds no n x n identity.
    """
    ra, ca = a.shape
    rb, cb = b.shape
    out = zeros(ra * rb, ca * cb)
    if out.size == 0:
        return out
    for i, j in zip(*np.nonzero(a)):
        out[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb] = a[i, j] * b
    return out


# matmul runs on float64 or int64 when no sum can reach 2^53 or 2^63
# (see matmul64).
# Under _MATMUL_MIN_WORK multiply-adds it stays on objects: there the
# conversions to and from int64 cost more than int64 arithmetic saves.
_MATMUL_MIN_WORK = 1024


def narrow(x: np.ndarray) -> np.ndarray:
    """x on int64 storage when every entry fits, else x itself."""
    try:
        return x.astype(np.int64, copy=False)
    except OverflowError:
        return x


def _max_abs(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def matmul64(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """The exact product a @ b of int64 operands on int64 storage, or None
    when an operand is not int64 or the product's bound does not fit.

    With inner dimension k, every product and partial sum the product
    forms is at most k max|a| max|b| in absolute value.  Below 2^53 the
    product runs through float64 BLAS, where integers of that size and
    their sums in any order are exact (the FFLAS-FFPACK technique); below
    2^63 it runs on int64.
    """
    if a.dtype != np.int64 or b.dtype != np.int64:
        return None
    bound = a.shape[1] * _max_abs(a) * _max_abs(b)
    if bound < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if bound < 1 << 63:
        return a @ b
    return None


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact product a @ b of a matrix and a matrix or vector, as
    ``dtype=object`` Python ints.

    It runs through ``matmul64`` when both operands fit int64 and the
    bound fits; otherwise, and under a fixed floor of work, it runs on
    objects.  Either operand may already be int64.
    """
    if a.size * (b.shape[1] if b.ndim == 2 else 1) >= _MATMUL_MIN_WORK:
        prod = matmul64(narrow(a), narrow(b))
        if prod is not None:
            return prod.astype(object)
    return np.matmul(a, b, dtype=object)


TRANSFORMS = ("u", "u_inv", "v", "v_inv")


@dataclass
class SnfResult:
    """U @ A @ V == S with U, V unimodular and S diagonal.

    ``diagonal`` is the full diagonal of S, as Python ints: nonnegative,
    each entry dividing the next, zeros trailing.  ``u_inv`` and ``v_inv``
    are the exact inverses of ``u`` and ``v`` (tracked during reduction,
    not recomputed).  A transform the caller did not ask for (see
    ``smith_normal_form``'s ``need``) is a 0 x 0 array.  ``s`` and the
    carried transforms are all int64 when the elimination ran on int64
    throughout, and all ``dtype=object`` Python ints otherwise; multiply
    them with ``matmul``, not a bare ``@``.
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


# smith_normal_form's working storage (see the module docstring).  Inputs
# with fewer than _INT64_MIN_CELLS entries stay on object storage: there
# the conversions and the guard cost more than int64 arithmetic saves.
_INT64_ROOM = 1 << 62
_INT64_START = 1 << 30
_INT64_MIN_CELLS = 256
# A clearing pass over fewer nonzero lines is cheaper one line at a time
# than as one array operation, whose fancy indexing costs about as much
# as three single-line operations.
_CLEAR_MIN_LINES = 3
# Seeding the row minima takes |s| a block of rows of at most this many
# entries at a time, not the whole matrix at once.
_SEED_CELLS = 1 << 16


def _working_copy(a: IntMatrix) -> tuple[np.ndarray, Optional[int]]:
    """A copy of ``a`` to eliminate in, and a bound on its entries: int64
    storage with the bound, or object storage with None."""
    if a.size >= _INT64_MIN_CELLS:
        try:
            s = a.astype(np.int64)
        except OverflowError:
            pass
        else:
            bound = max(_max_abs(s), 1)
            if bound < _INT64_START:
                return s, bound
    return a.astype(object), None


def smith_normal_form(a: IntMatrix, need: str = "u u_inv v v_inv") -> SnfResult:
    """Smith normal form over Z with minimal-absolute-value pivoting.

    ``need`` names the transforms to carry, space separated, from
    ``u u_inv v v_inv``; the others are not updated and come back as 0 x 0
    arrays.  The pivot sequence depends only on ``a``, never on ``need``,
    so ``s``, ``diagonal`` and every carried transform are the same as in
    the full call.

    Ties between candidate pivots of equal absolute value break toward the
    smallest (row, column) pair, so the output is deterministic.  On int64
    storage the pivot is read off the row minima (``rowmin``): the first
    row whose smallest nonzero |entry| is least, and the first column of
    that row holding it, which is the same first minimum in row-major
    order that a scan of the remaining block finds.  The minima are seeded
    a block of rows at a time and refreshed for every row a row clear
    changes; a promotion to object storage drops them.

    Storage (see the module docstring): an int64 run keeps every entry
    below 2^62 under a guard that tracks a bound per *pass*, the run of
    operations that add multiples of one source row or column to distinct
    destinations (a column or row clear, or the single divisibility
    step): if every entry is at most B when the pass starts, every entry
    is at most B (1 + sum |q|) while it runs, since each destination takes
    one multiple of the unchanged source and only U^-1's or V^-1's pivot
    line accumulates, once per quotient q.  A clear done as one array
    operation takes its whole sum |q| in one guard step.  The bound folds
    at each pass boundary and is measured exactly only when it would reach
    2^62; if the exact bound still leaves no room, s and every carried
    transform move to object storage and the elimination carries on from
    the same state.  The result keeps the storage the elimination ended
    on: int64 for a run that never promoted, ``dtype=object`` Python ints
    otherwise, with the same entries as an all-object run either way.
    """
    wanted = set(need.split())
    if not wanted <= set(TRANSFORMS):
        raise ValueError("unknown transforms in need=%r" % need)
    s, bound = _working_copy(a)
    acc = 1  # 1 + sum |q| over the current pass
    m, n = s.shape
    u = np.eye(m, dtype=s.dtype) if "u" in wanted else None
    u_inv = np.eye(m, dtype=s.dtype) if "u_inv" in wanted else None
    v = np.eye(n, dtype=s.dtype) if "v" in wanted else None
    v_inv = np.eye(n, dtype=s.dtype) if "v_inv" in wanted else None

    def new_pass():
        nonlocal bound, acc
        if bound is not None:
            bound *= acc
            acc = 1

    def grow(step):
        # Make room for adding multiples of the pass's source line whose
        # quotients sum to step in absolute value.
        nonlocal bound, acc, s, u, u_inv, v, v_inv, rowmin
        if bound * (acc + step) >= _INT64_ROOM:
            live = [s[t:, t:]] + [x for x in (u, u_inv, v, v_inv) if x is not None]
            bound = max(_max_abs(x) for x in live)
            acc = 1
            if bound * (acc + step) >= _INT64_ROOM:
                bound = rowmin = None
                s, u, u_inv, v, v_inv = (
                    None if x is None else x.astype(object)
                    for x in (s, u, u_inv, v, v_inv))
                lines[:] = views()
                return
        acc += step

    def views():
        # For row operations: s, the transform whose rows follow s's rows
        # and the inverse whose columns do.  A column operation is a row
        # operation on the transposes, with V and V^-1 as U and U^-1.
        return [(s, u, u_inv),
                (s.T, None if v is None else v.T, None if v_inv is None else v_inv.T)]

    lines = views()  # indexed by cols, False for rows and True for columns

    # Operations at step t touch s only from line t on, where t is the
    # current pivot: everything before it is already zero in the lines
    # they combine.
    def swap(cols, i, j):
        if i == j:
            return
        w, x, x_inv = lines[cols]
        w[[i, j], :] = w[[j, i], :]
        if not cols and rowmin is not None:
            rowmin[[i, j]] = rowmin[[j, i]]
        if x is not None:
            x[[i, j], :] = x[[j, i], :]
        if x_inv is not None:
            x_inv[:, [i, j]] = x_inv[:, [j, i]]

    def add(cols, i, k, q):
        # line i += q * line k
        if bound is not None:
            grow(abs(q))
        w, x, x_inv = lines[cols]
        if cols:  # column t is clear below the pivot: only s[t, i] moves
            w[i, t] += q * w[k, t]
        else:
            w[i, t:] += q * w[k, t:]
        if x is not None:
            x[i, :] += q * x[k, :]
        if x_inv is not None:
            x_inv[:, k] -= q * x_inv[:, i]

    def clear(cols):
        """Reduce column t below the pivot (row t past it, with ``cols``)
        up to the first nonzero remainder, and swap that remainder in as
        the new, smaller pivot; True when it did.  Only line i changes
        when line i is reduced, so the quotients are known up front: on
        int64 storage a pass over at least _CLEAR_MIN_LINES nonzero lines
        is one array operation under one guard step of sum |q|; otherwise
        the lines are reduced one at a time.  Clearing row t (``cols``) runs
        only once column t is clear below the pivot, so of s it changes
        just s[t, i] for each column i it reduces.

        A row clear refreshes the row minima of the rows it changed.  The
        pivot row's minimum goes stale under the operations only it takes
        (a column clear, a divisibility step), but a row swapped below the
        pivot keeps a nonzero entry in column t until a later row clear of
        the same step reduces it, and refreshes it."""
        w = lines[cols][0]
        rows = np.nonzero(w[t + 1:, t])[0] + (t + 1)
        if bound is not None and len(rows) >= _CLEAR_MIN_LINES:
            col = w[rows, t]
            q = -(col // w[t, t])
            cut = np.nonzero(col % w[t, t])[0][:1]
            if len(cut):
                rows, q = rows[:cut[0] + 1], q[:cut[0] + 1]
            grow(sum(map(abs, q.tolist())))
            if bound is not None:
                w, x, x_inv = lines[cols]
                if cols:
                    w[rows, t] += q * w[t, t]
                else:
                    w[rows, t:] += q[:, None] * w[t, t:]
                if x is not None:
                    x[rows, :] += q[:, None] * x[t, :]
                if x_inv is not None:
                    x_inv[:, t] -= x_inv[:, rows] @ q
                if not cols:
                    refresh(rows)
                if len(cut):
                    swap(cols, t, rows[-1])
                return bool(len(cut))
        for i in rows:
            add(cols, i, t, -int(w[i, t] // w[t, t]))
            w = lines[cols][0]  # add may have moved s to object storage
            if not cols:
                refresh([i])
            if w[i, t] != 0:
                swap(cols, t, i)
                return True
        return False

    def negate_row(i):
        s[i, :] = -s[i, :]
        if u is not None:
            u[i, :] = -u[i, :]
        if u_inv is not None:
            u_inv[:, i] = -u_inv[:, i]

    def refresh(rows):
        # The row minima of rows of s that row operations at step t
        # changed; left of t those rows are zero.  A no-op on object
        # storage.
        if rowmin is not None:
            mag = np.abs(s[rows, t:])
            rowmin[rows] = np.where(mag == 0, _INT64_ROOM, mag).min(axis=1)

    def find_pivot(t):
        """(row, col) of the smallest |entry| in s[t:, t:], ties by
        (row, col): the first minimum in row-major order.  With row minima
        that is the first row holding the least minimum, and its first
        column holding that value; on object storage, one scan."""
        if rowmin is not None:
            r = t + int(np.argmin(rowmin[t:]))
            least = rowmin[r]
            if least == _INT64_ROOM:
                return None
            return r, t + int(np.argmax(np.abs(s[r, t:]) == least))
        rest = s[t:, t:]
        rows, cols = np.nonzero(rest)
        if not len(rows):
            return None
        k = int(np.argmin(np.abs(rest[rows, cols])))
        return t + int(rows[k]), t + int(cols[k])

    # On int64 storage rowmin[i] is the smallest nonzero |entry| of row i
    # (_INT64_ROOM for a zero row), current for every row below the pivot.
    t = 0
    rowmin = None
    if bound is not None and min(m, n):
        rowmin = np.empty(m, dtype=np.int64)
        step = max(1, _SEED_CELLS // n)
        for i in range(0, m, step):
            refresh(np.arange(i, min(i + step, m)))
    while t < min(m, n):
        best = find_pivot(t)
        if best is None:
            break
        swap(False, t, best[0])
        swap(True, t, best[1])
        while True:
            # Clear column t, then row t; a new pivot starts over.
            new_pass()
            if clear(False):
                continue
            new_pass()
            if clear(True):
                continue
            # Row and column are clear; enforce divisibility into the rest.
            # The offender is the first row with an entry d does not divide.
            d = s[t, t]
            if abs(d) == 1:
                break
            bad = np.nonzero(s[t + 1:, t + 1:] % d)[0]
            if not len(bad):
                break
            new_pass()
            add(False, t, t + 1 + int(bad[0]), 1)
        if s[t, t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(int(s[i, i]) for i in range(min(m, n)))
    u, u_inv, v, v_inv = (zeros(0, 0) if x is None else x for x in (u, u_inv, v, v_inv))
    return SnfResult(u, u_inv, s, v, v_inv, diag)


# ---------------------------------------------------------------------------
# Solvers and lattices
# ---------------------------------------------------------------------------


class LatticeSolver:
    """Cached SNF of a matrix A, answering integer solvability questions.

    Treats the columns of A (``matrix``) as generators of a sublattice of
    Z^m.  ``solve`` answers A x = b for a vector or A X = B for a whole
    matrix in one pass through U A V = S: c = U b, one divisibility test
    on the first r = rank rows, one zero test on the rest, and
    x = V[:, :r] (c[:r] / d).  ``snf``, when given, is an elimination of A
    at hand carrying ``u`` and ``v``, or one carrying ``u`` without ``v``
    whose U gives U A = [D; 0] (``lattice_basis``), read with V = 1;
    otherwise A is factored here.  U and V are used as the elimination
    returned them, int64 or object, through ``matmul``, so a solve
    answers in Python ints.
    """

    def __init__(self, a: IntMatrix, snf: Optional[SnfResult] = None):
        self.matrix = a
        self.snf = snf if snf is not None else smith_normal_form(a, need="u v")
        r = self.snf.rank
        self._d = np.array(self.snf.diagonal[:r], dtype=object)
        self._u = self.snf.u
        self._v = self.snf.v[:, :r] if self.snf.v.size else None

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        """The integer x with A x = b, column by column when b is a matrix
        (x then has one column per column of b), or None when some column
        has no integer solution.  A matrix with no columns is answered
        without touching the factorization."""
        if b.ndim == 2 and b.shape[1] == 0:
            return zeros(self.matrix.shape[1], 0)
        c = matmul(self._u, b)
        d = self._d if b.ndim == 1 else self._d[:, None]
        r = len(d)
        if np.count_nonzero(c[:r] % d) or np.count_nonzero(c[r:]):
            return None
        x = c[:r] // d
        return x if self._v is None else matmul(self._v, x)

    def contains(self, b: np.ndarray) -> bool:
        """Whether b (every column of b, for a matrix) lies in the lattice."""
        return self.solve(b) is not None

    def first_outside(self, blocks: Sequence[IntMatrix]) -> Optional[int]:
        """Index of the first block with a column outside the lattice, or
        None when every column of every block lies in it.  One solve over
        the blocks side by side; they are scanned one by one only after
        that solve has failed, to name the offender."""
        if not blocks or self.contains(hstack(blocks)):
            return None
        return next(i for i, blk in enumerate(blocks) if not self.contains(blk))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel {x : A x = 0}.

    The basis columns extend to a basis of the full ambient Z^n, so every
    integer kernel element is a unique integer combination of them.
    """
    snf = smith_normal_form(a, need="v")
    return snf.v[:, snf.rank :].astype(object, copy=False)


def lattice_basis(gens: IntMatrix) -> LatticeSolver:
    """The lattice spanned by the columns of ``gens``, as a solver over a
    basis of it.  Its ``matrix`` is U^-1[:, :r] D, read off the one
    elimination U gens V = S, which carries ``u u_inv``; the product with
    the object diagonal holds Python ints whatever the storage of U^-1.
    U carries that basis to [D; 0], so a solve reads each member's unique
    coordinates (U b)[:r] / D without eliminating the basis again."""
    snf = smith_normal_form(gens, need="u u_inv")
    r = snf.rank
    basis = snf.u_inv[:, :r] * np.array(snf.diagonal[:r], dtype=object)
    return LatticeSolver(basis, snf)


def solve(a: IntMatrix, b: np.ndarray) -> Optional[np.ndarray]:
    """One-shot integer solve of A x = b; None if unsolvable over Z."""
    return LatticeSolver(a).solve(b)


def preimage_lattice(a: IntMatrix, r: IntMatrix) -> LatticeSolver:
    """The lattice {x : A x lies in the column span of R}, as
    ``lattice_basis`` returns it: the x-projection of the kernel of
    [A | -R], with dependencies removed."""
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
    snf = smith_normal_form(a, need="u u_inv")
    torsion_idx = [i for i, d in enumerate(snf.diagonal) if d >= 2]
    free_idx = [i for i, d in enumerate(snf.diagonal) if d == 0] + list(
        range(len(snf.diagonal), m)
    )
    kept = torsion_idx + free_idx
    torsion = tuple(int(snf.diagonal[i]) for i in torsion_idx)
    basis_lift = snf.u_inv[:, kept].astype(object, copy=False) if kept else zeros(m, 0)
    reduce_map = snf.u[kept, :].astype(object, copy=False) if kept else zeros(0, m)
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


class Subquotient:
    """ker/im structure inside an ambient Z^g, possibly modulo relators.

    numerator: the lattice K = {x : d_out x lies in the target relator
    span}, as a ``LatticeSolver`` over a basis of K (``lattice_basis`` and
    ``preimage_lattice`` return one).  denominator: im(d_in) + relator
    span.  ``group`` carries the invariant factors; ``representative(i)``
    lifts canonical generator i to an ambient vector, and ``classify(x)``
    sends any ambient x in K to canonical coordinates.
    """

    def __init__(self, numerator: LatticeSolver, denominator: IntMatrix):
        self.numerator = numerator
        w = numerator.solve(denominator)
        if w is None:
            raise ExactnessError("denominator does not lie in the numerator lattice")
        coker = cokernel_structure(w)
        reps = matmul(numerator.matrix, coker.basis_lift)
        self.group = AbGroup(coker.free_rank, coker.torsion, reps)
        self._coker = coker

    def representative(self, i: int) -> np.ndarray:
        return self.group.basis_lift[:, i]

    def classify(self, x: np.ndarray) -> tuple[int, ...]:
        w = self.numerator.solve(x)
        if w is None:
            raise ValueError("vector is not in the numerator lattice")
        return self._coker.classify(w)
