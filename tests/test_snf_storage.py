"""Smith normal form on int64 working storage, promoted to Python ints.

``smith_normal_form`` eliminates in int64 while a tracked bound keeps
every entry below 2^62, and moves to object storage when it cannot.  The
reference below is the object-only routine it replaced, kept as it was;
every output must equal it entry for entry and hold Python ints, whether
the call ran in int64 throughout, promoted mid-elimination or never left
object storage.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform.intlinalg import (
    SnfResult,
    TRANSFORMS,
    _working_copy,
    eye,
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
    for f in FIELDS:
        x, y = getattr(got, f), getattr(want, f)
        assert x.dtype == object, f
        assert x.shape == y.shape, f
        assert all(type(e) is int for e in x.flat), f
        assert np.array_equal(x, y), f
    return got


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
    v = smith_normal_form(a, need="v").v
    assert max(abs(int(x)) for x in v.flat) >= 1 << 63


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
    assert_same_as_object(a, "u u_inv v v_inv")


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
