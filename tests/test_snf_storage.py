"""Smith normal form on int64 working storage, promoted to Python ints.

``smith_normal_form`` eliminates in int64 while a tracked bound keeps
every entry below 2^62, and moves to object storage when it cannot.  The
reference below is the object-only routine it replaced, kept as it was;
every output must equal it entry for entry, whether the call ran in int64
throughout, promoted mid-elimination or never left object storage.  The
result keeps the storage the run ended on: int64 only for a call that
started on int64, and otherwise Python ints.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform import intlinalg
from tateform.intlinalg import (
    SnfResult,
    TRANSFORMS,
    _working_copy,
    eye,
    matmul,
    smith_normal_form,
    zeros,
)

NEEDS = [" ".join(c) for r in range(len(TRANSFORMS) + 1)
         for c in combinations(TRANSFORMS, r)]
FIELDS = ("u", "u_inv", "s", "v", "v_inv")


def object_snf(a, need="u u_inv v v_inv"):
    """The elimination on object storage only, as it was before the
    int64 working storage: the reference every output must equal."""
    wanted = set(need.split())
    if not wanted <= set(TRANSFORMS):
        raise ValueError("unknown transforms in need=%r" % need)
    s = a.astype(object).copy()
    m, n = s.shape
    u = eye(m) if "u" in wanted else None
    u_inv = eye(m) if "u_inv" in wanted else None
    v = eye(n) if "v" in wanted else None
    v_inv = eye(n) if "v_inv" in wanted else None

    # Row and column operations at step t touch s only from column (row) t
    # on, where t is the current pivot: everything before it is already
    # zero in the rows (columns) they combine.
    def swap_rows(i, j):
        if i == j:
            return
        s[[i, j], :] = s[[j, i], :]
        if u is not None:
            u[[i, j], :] = u[[j, i], :]
        if u_inv is not None:
            u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def swap_cols(i, j):
        if i == j:
            return
        s[:, [i, j]] = s[:, [j, i]]
        if v is not None:
            v[:, [i, j]] = v[:, [j, i]]
        if v_inv is not None:
            v_inv[[i, j], :] = v_inv[[j, i], :]

    def row_add(i, k, q):
        # row i += q * row k
        s[i, t:] += q * s[k, t:]
        if u is not None:
            u[i, :] += q * u[k, :]
        if u_inv is not None:
            u_inv[:, k] -= q * u_inv[:, i]

    def col_add(j, k, q):
        # col j += q * col k
        s[t:, j] += q * s[t:, k]
        if v is not None:
            v[:, j] += q * v[:, k]
        if v_inv is not None:
            v_inv[k, :] -= q * v_inv[j, :]

    def negate_row(i):
        s[i, :] = -s[i, :]
        if u is not None:
            u[i, :] = -u[i, :]
        if u_inv is not None:
            u_inv[:, i] = -u_inv[:, i]

    def find_pivot(t):
        """(row, col) of the smallest |entry| in s[t:, t:], ties by
        (row, col): the first minimum in row-major order."""
        rest = s[t:, t:]
        rows, cols = np.nonzero(rest)
        if not len(rows):
            return None
        k = int(np.argmin(np.abs(rest[rows, cols])))
        return t + int(rows[k]), t + int(cols[k])

    t = 0
    while t < min(m, n):
        best = find_pivot(t)
        if best is None:
            break
        pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # Clear column t.  Remainders become new, smaller pivots.  Only
            # row i changes when row i is reduced, so the nonzero rows found
            # up front stay the rows to visit until the pivot moves.
            restart = False
            for i in np.nonzero(s[t + 1:, t])[0] + (t + 1):
                q = s[i, t] // s[t, t]
                row_add(i, t, -q)
                if s[i, t] != 0:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in np.nonzero(s[t, t + 1:])[0] + (t + 1):
                q = s[t, j] // s[t, t]
                col_add(j, t, -q)
                if s[t, j] != 0:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # Row and column are clear; enforce divisibility into the rest.
            # The offender is the first row with an entry d does not divide.
            d = s[t, t]
            if abs(d) == 1:
                break
            bad = np.nonzero(s[t + 1:, t + 1:] % d)[0]
            if not len(bad):
                break
            row_add(t, t + 1 + int(bad[0]), 1)
        if s[t, t] < 0:
            negate_row(t)
        t += 1

    def carried(x):
        return zeros(0, 0) if x is None else x

    diag = tuple(int(s[i, i]) for i in range(min(m, n)))
    return SnfResult(carried(u), carried(u_inv), s, carried(v), carried(v_inv), diag)


def assert_same_as_object(a, need):
    want = object_snf(a, need)
    got = smith_normal_form(a, need)
    assert got.diagonal == want.diagonal
    assert all(type(d) is int for d in got.diagonal)
    started_int64 = _working_copy(a)[0].dtype == np.int64
    for f in FIELDS:
        x, y = getattr(got, f), getattr(want, f)
        if x.dtype == np.int64:
            assert started_int64, f
        else:
            assert x.dtype == object, f
            assert all(type(e) is int for e in x.flat), f
        assert x.shape == y.shape, f
        assert np.array_equal(x, y), f
    return got


def carried_arrays(snf, need):
    return [getattr(snf, f) for f in ["s"] + need.split()]


@st.composite
def matrices(draw):
    """Entries of 2 to 70 bits: either a small dense matrix, or a core
    block in a zero matrix of at least 256 entries (large enough to start
    on int64 when the core's entries are below 2^30) with a few scattered
    small entries, so many calls promote part-way."""
    bits = draw(st.integers(2, 70))
    entry = st.integers(-(1 << bits), 1 << bits)
    if draw(st.booleans()):
        m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=m, max_size=m))
        return np.array(rows, dtype=object).reshape(m, n)
    m, n = draw(st.integers(16, 18)), draw(st.integers(16, 18))
    a = zeros(m, n)
    rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4, unique=True))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    for i in rows:
        for j in cols:
            a[i, j] = draw(entry)
    for i, j, x in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                                            st.sampled_from([-2, -1, 1, 2])), max_size=12)):
        a[i, j] = x
    return a


@settings(max_examples=400, deadline=None)
@given(matrices(), st.sampled_from(NEEDS))
def test_matches_object_elimination(a, need):
    assert_same_as_object(a, need)


def promoting_matrix():
    """Ones on the diagonal from row 3 on and a 3 x 3 core of 27-bit
    entries: the ones are eliminated first on int64 storage, and the core's
    transforms need more than 64 bits."""
    a = zeros(16, 16)
    for i in range(3, 16):
        a[i, i] = 1
    for i in range(3):
        for j in range(3):
            a[i, j] = pow(i + 2, j + 13, 10**8 + 7)
    return a


@pytest.mark.parametrize("need", NEEDS)
def test_promoting_matrix_matches_for_every_need(need):
    assert_same_as_object(promoting_matrix(), need)


def test_promotes_mid_elimination():
    a = promoting_matrix()
    assert _working_copy(a)[0].dtype == np.int64
    # the call starts on int64, which cannot hold this output
    got = assert_same_as_object(a, "u u_inv v v_inv")
    assert max(abs(int(x)) for x in got.v.flat) >= 1 << 63
    assert all(x.dtype == object for x in carried_arrays(got, "u u_inv v v_inv"))


def test_large_input_stays_on_object_storage():
    a = promoting_matrix()
    a[0, 0] = 1 << 40
    assert _working_copy(a)[0].dtype == object
    assert_same_as_object(a, "u v")


def test_int64_run_without_promotion():
    a = zeros(20, 20)
    for i in range(20):
        a[i, (3 * i) % 20] = i % 5 - 2
    assert _working_copy(a)[0].dtype == np.int64
    got = assert_same_as_object(a, "u u_inv v v_inv")
    assert all(x.dtype == np.int64 for x in carried_arrays(got, "u u_inv v v_inv"))


def cut_matrix():
    """A pivot 3 over the column 6, 7, 9, in a zero matrix large enough to
    start on int64: the first clearing pass spans three rows and stops at
    the nonzero remainder of the middle one, which is swapped in as the
    new pivot.  In the transpose the same happens to the first row."""
    a = zeros(16, 16)
    a[0, 0] = 3
    a[1:4, 0] = [6, 7, 9]
    for i in range(4, 16):
        a[i, i] = 5 + i
        a[i, (i + 3) % 16] = 7
    return a


@pytest.mark.parametrize("need", NEEDS)
def test_clearing_pass_cut_at_middle_remainder(need):
    a = cut_matrix()
    assert _working_copy(a)[0].dtype == np.int64
    assert [int(x) % 3 for x in a[1:4, 0]] == [0, 1, 0]
    assert_same_as_object(a, need)
    assert_same_as_object(a.T.copy(), need)


def summed_guard_matrix():
    """Three isolated ones, then a pivot 1 over sixteen entries 2^29: each
    quotient alone leaves room on int64, but a pass whose quotients sum to
    2^33 over a bound of 2^29 does not, so the elimination promotes to
    object storage after the isolated ones are done."""
    a = zeros(20, 20)
    for i in range(3):
        a[i, i] = 1
    a[3, 3] = 1
    a[4:, 3] = 1 << 29
    for i in range(3, 20):
        a[i, 4 + i % 16] += i
    return a


@pytest.mark.parametrize("need", NEEDS)
def test_summed_guard_promotes_part_way(need):
    a = summed_guard_matrix()
    assert _working_copy(a)[0].dtype == np.int64
    bound = 1 << 29
    assert bound * (1 + 16 * bound) >= 1 << 62
    assert_same_as_object(a, need)


# Row minima.  On int64 storage the pivot is read off the smallest nonzero
# |entry| of each row, kept current for every row below the pivot; the
# inputs below make those minima tie across rows, go to zero, and go stale
# in a pivot row that is then swapped below the pivot.

MAGNITUDES = (1, 2, 3, 4, 6)


@st.composite
def tall_and_wide(draw):
    """40 x 8 and 8 x 40 inputs (320 entries, so int64 storage) over a
    few of the magnitudes 1, 2, 3, 4 and 6, with some weight on zero: the
    least magnitude repeats across many rows, and one clear changes many
    rows at once.  Without 1 every pivot is 2 or more, so divisibility
    steps and remainders swapped in as new pivots are common."""
    mags = draw(st.lists(st.sampled_from(MAGNITUDES), min_size=1, max_size=5,
                         unique=True))
    zero_weight = draw(st.integers(0, 4))
    entry = st.sampled_from([0] * zero_weight + mags + [-x for x in mags])
    shape = draw(st.sampled_from([(40, 8), (8, 40)]))
    cells = draw(st.lists(entry, min_size=320, max_size=320))
    return np.array(cells, dtype=object).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(tall_and_wide(), st.sampled_from(NEEDS))
def test_row_minima_match_object_elimination(a, need):
    assert _working_copy(a)[0].dtype == np.int64
    assert_same_as_object(a, need)


def tied_minima_matrix():
    """A 40 x 8 matrix of entries 3 to 7 (and zeros) with the least
    magnitude 2 in four rows: row 3 at column 7, row 5 at column 6, row 9
    at column 0 and row 20 at column 1.  The first minimum in row-major
    order is (3, 7), which is neither the first column nor the last row
    holding a 2."""
    a = zeros(40, 8)
    for i in range(40):
        for j in range(8):
            if (i * j + i + 2 * j) % 4:
                a[i, j] = (3 + (5 * i + 7 * j) % 5) * (1 if (i + j) % 3 else -1)
    a[3, 7], a[5, 6], a[9, 0], a[20, 1] = 2, 2, -2, 2
    return a


@pytest.mark.parametrize("need", NEEDS)
def test_minima_tied_across_rows(need):
    a = tied_minima_matrix()
    assert _working_copy(a)[0].dtype == np.int64
    assert_same_as_object(a, need)
    assert_same_as_object(a.T.copy(), need)


def zeroed_rows_matrix(copies):
    """Row 0 is (1, 5, 7), rows 1 to ``copies`` are 2, 3, ... times it,
    and row 12 is (0, 3, 0, 9): clearing column 0 zeroes the copies, whose
    minima must then read empty, or the next pivot would be taken from a
    zero row.  One or two copies are cleared a row at a time, three or
    more in one array operation."""
    a = zeros(16, 16)
    a[0, :3] = [1, 5, 7]
    for k in range(1, copies + 1):
        a[k, :3] = (k + 1) * a[0, :3]
    a[12, 1], a[12, 3] = 3, 9
    for i in range(13, 16):
        a[i, i] = i
    return a


@pytest.mark.parametrize("copies", [1, 2, 3, 5])
def test_row_zeroed_by_a_clear(copies):
    a = zeroed_rows_matrix(copies)
    assert _working_copy(a)[0].dtype == np.int64
    got = assert_same_as_object(a, "u u_inv v v_inv")
    assert got.rank == 5
    assert got.diagonal[:5] == (1, 1, 1, 3, 2730)


def stale_pivot_row_matrix(extra):
    """The pivot 4 at (0, 0) has a clear row and column, but 4 does not
    divide the 15 at (1, 2), so the divisibility step adds row 1 to row 0.
    The row clear then leaves the remainder 3 at (0, 2), which is swapped
    in as column 0; the column clear leaves the remainder 2 in row 2,
    which is swapped in as row 0, so the old pivot row, changed by two
    operations that only a pivot row takes, moves below the pivot.  With
    ``extra`` rows more in column 2 that clear is one array operation."""
    a = zeros(16, 16)
    a[0, 0], a[1, 2], a[2, 2] = 4, 15, -4
    for k in range(extra):
        a[3 + k, 2] = 8 + 4 * k
    for i in range(8, 16):
        a[i, i] = 12
    return a


@pytest.mark.parametrize("extra", [0, 2])
@pytest.mark.parametrize("need", NEEDS)
def test_stale_pivot_row_swapped_below(extra, need):
    a = stale_pivot_row_matrix(extra)
    assert _working_copy(a)[0].dtype == np.int64
    assert_same_as_object(a, need)
    assert_same_as_object(a.T.copy(), need)


# The edge of the elimination layer.  SnfResult keeps int64 storage, and
# every function that hands a matrix on from it returns Python ints, so
# the rest of the package never sees int64.

def int64_full_rank_matrix():
    """20 x 20, entries -1 to 4, full rank with invariant factors 6, 12
    and 192: every elimination below that starts on int64 stays there."""
    a = zeros(20, 20)
    for i in range(20):
        a[i, i] = 2 + i % 3
        a[i, (i + 7) % 20] = i % 3 - 1
    return a


def assert_python_ints(x, what):
    assert x.dtype == object, what
    assert all(type(e) is int for e in x.flat), what


@pytest.mark.parametrize("a, promotes", [
    (int64_full_rank_matrix(), False),
    (promoting_matrix(), True),
], ids=["int64", "promoting"])
def test_every_edge_returns_python_ints(monkeypatch, a, promotes):
    # (start, end) storage of every elimination the calls below make;
    # the small ones start on object storage
    storage = []
    elim = intlinalg.smith_normal_form

    def recording(x, need="u u_inv v v_inv"):
        got = elim(x, need)
        storage.append((_working_copy(x)[0].dtype, got.s.dtype))
        return got

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    assert a.size >= 256
    rng = random.Random(5)
    x = zeros(a.shape[1], 3)
    for idx in np.ndindex(*x.shape):
        x[idx] = rng.randint(-9, 9)
    coker = intlinalg.cokernel_structure(a)
    solver = intlinalg.LatticeSolver(a)
    sub = intlinalg.Subquotient(solver, 2 * a)
    lat = intlinalg.lattice_basis(a)
    outs = {
        "kernel_basis": intlinalg.kernel_basis(intlinalg.hstack([a, a[:, :1]])),
        "lattice_basis": lat.matrix,
        "lattice solve": lat.solve(matmul(a, x)),
        "lattice solve vector": lat.solve(matmul(a, x[:, 0])),
        "preimage_lattice": intlinalg.preimage_lattice(a, 2 * a[:, :3]).matrix,
        "basis_lift": coker.basis_lift,
        "reduce_map": coker.reduce_map,
        "representative": sub.representative(0),
        "solve": solver.solve(matmul(a, x)),
        "solve vector": solver.solve(matmul(a, x[:, 0])),
        "matmul": matmul(solver.snf.v, x),
    }
    for what, got in outs.items():
        assert_python_ints(got, what)
    assert np.array_equal(outs["solve"], x)
    assert sub.group.torsion == (2,) * a.shape[1]
    # the int64 input is eliminated on int64 throughout, and the
    # promoting one hands promoted results on
    ends = {end for start, end in storage if start == np.int64}
    assert (np.dtype(object) in ends) == promotes
    assert np.dtype(np.int64) in ends
