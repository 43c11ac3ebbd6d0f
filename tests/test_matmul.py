"""The exact matrix product and the solver factors kept on int64.

``intlinalg.matmul`` multiplies on float64 when k max|a| max|b| < 2^53
over inner dimension k, on int64 when it is below 2^63, and on Python
ints otherwise.  Whichever side of those guards a product falls on, it
must equal object ``@`` entry for entry and hold Python ints.
``matmul64``, the guarded tiers on their own, returns int64 or declines.
``LatticeSolver`` uses its factors on the storage the elimination
returned them on; solves through int64 factors and through
factors too wide for int64 must both match the per-column reference of
``test_solve``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform.intlinalg import LatticeSolver, matmul, matmul64, narrow, zeros
from test_solve import reference_solve, reference_solve_matrix, same


def assert_exact(got, a, b):
    want = a.astype(object) @ b.astype(object)
    assert got.dtype == object
    assert got.shape == want.shape
    assert all(type(x) is int for x in got.flat)
    assert np.array_equal(got, want)


def random_matrix(rng, shape, bits):
    out = zeros(*shape) if len(shape) == 2 else np.zeros(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = rng.randint(-(1 << bits), 1 << bits)
    return out


@st.composite
def products(draw):
    """Entries up to 2^40 and inner dimension up to 300, so
    products fall on every side of the float64 and int64 guards; some
    carry an entry of at least 2^63, which int64 cannot hold at all."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    m, k = draw(st.integers(1, 6)), draw(st.integers(0, 300))
    shape_b = (k,) if draw(st.booleans()) else (k, draw(st.integers(1, 6)))
    a = random_matrix(rng, (m, k), draw(st.integers(1, 40)))
    b = random_matrix(rng, shape_b, draw(st.integers(1, 40)))
    if k and draw(st.booleans()):
        huge = draw(st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 70]))
        target = a if draw(st.booleans()) else b
        target[(0,) * target.ndim] = huge
    return a, b


@settings(max_examples=200, deadline=None)
@given(products())
def test_matches_object_product(ab):
    a, b = ab
    assert_exact(matmul(a, b), a, b)


@settings(max_examples=50, deadline=None)
@given(products())
def test_int64_operands_match_object_product(ab):
    a, b = ab
    try:
        a64 = a.astype(np.int64)
    except OverflowError:
        return
    assert_exact(matmul(a64, b), a, b)


@settings(max_examples=100, deadline=None)
@given(products())
def test_matmul64_is_exact_on_int64_or_declines(ab):
    a, b = ab
    a64, b64 = narrow(a), narrow(b)
    got = matmul64(a64, b64)
    fits = a64.dtype == b64.dtype == np.int64
    if fits and a.shape[1] * max(map(abs, a.flat), default=0) * max(
            map(abs, b.flat), default=0) < 1 << 63:
        assert got.dtype == np.int64
        assert np.array_equal(got.astype(object), a @ b)
    else:
        assert got is None


def test_matmul64_declines_object_operands():
    a = np.ones((2, 2), dtype=np.int64)
    assert matmul64(a, a.astype(object)) is None
    assert matmul64(a.astype(object), a) is None


def test_guard_is_strict_at_two_to_the_63():
    # k max|a| max|b| == 2^63: every entry of the product is 2^63, one past
    # int64's largest value, and must come back exact
    a = np.full((32, 2), 1 << 31, dtype=object)
    b = np.full((2, 32), 1 << 31, dtype=object)
    got = matmul(a, b)
    assert_exact(got, a, b)
    assert got[0, 0] == 1 << 63
    # one below the guard: the largest sums fit and are exact on int64
    a[:, :] = (1 << 31) - 1
    assert_exact(matmul(a, b), a, b)


def test_empty_inner_dimension():
    got = matmul(zeros(40, 0), zeros(0, 40))
    assert_exact(got, zeros(40, 0), zeros(0, 40))
    assert not got.any()


@pytest.mark.parametrize("b_shape", [(0, 40), (0,)], ids=["matrix", "vector"])
def test_empty_inner_dimension_on_int64(b_shape):
    a, b = np.zeros((40, 0), dtype=np.int64), np.zeros(b_shape, dtype=np.int64)
    got = matmul(a, b)
    assert_exact(got, a, b)
    assert not got.any()


def test_float_tier_is_exact_one_below_two_to_the_53():
    # k max|a| max|b| == 2^53 - 1 == 6361 * 69431 * 20394401: the one
    # entry sums 6361 equal terms up to 2^53 - 1, the largest bound the
    # float64 tier takes, with every partial sum exact
    k, x, y = 6361, 69431, 20394401
    assert k * x * y == (1 << 53) - 1
    a = np.full((1, k), x, dtype=object)
    b = np.full((k, 1), y, dtype=object)
    got = matmul(a, b)
    assert_exact(got, a, b)
    assert got[0, 0] == (1 << 53) - 1
    # and on a 32 x 32 product with one term per entry, signs mixed
    a = np.full((32, 1), (1 << 53) - 1, dtype=object)
    a[::2] *= -1
    b = np.ones((1, 32), dtype=object)
    assert_exact(matmul(a, b), a, b)


@pytest.mark.parametrize("k, x", [(2, 1 << 52), (3, ((1 << 53) + 1) // 3)],
                         ids=["2^53", "2^53+1"])
def test_float_tier_stops_at_two_to_the_53(k, x):
    # k max|a| max|b| is 2^53 or 2^53 + 1; in the second case float64
    # would round the last partial sum 2^53 + 1 to 2^53, so the product
    # must fall through to int64
    a = np.full((32, k), x, dtype=object)
    b = np.ones((k, 32), dtype=object)
    got = matmul(a, b)
    assert_exact(got, a, b)
    assert got[0, 0] == k * x


@pytest.mark.parametrize("huge", [(1 << 62) + 1, 1 << 70, -(1 << 70)])
def test_huge_entry_against_zero_operand(huge):
    # the bound is 0, so an int64-sized entry takes the float64 tier,
    # where it cannot be held exactly; a wider one stays on objects
    a = zeros(32, 32)
    a[3, 5] = huge
    b = zeros(32, 32)
    got = matmul(a, b)
    assert_exact(got, a, b)
    assert not got.any()
    assert_exact(matmul(b, a), b, a)


def solvable_and_not(a, rng, cols):
    """A right-hand side of cols images of random vectors, and the same
    with one entry moved off the column lattice of A."""
    x = random_matrix(rng, (a.shape[1], cols), 3)
    good = a @ x
    bad = good.copy()
    bad[0, 0] += 1
    return good, bad


def test_narrowed_factors_match_reference():
    # edges of a tree, weighted 2 and -1: the transforms stay small
    rng = random.Random(7)
    a = zeros(40, 36)
    for j in range(36):
        a[j + 1, j] = 2
        a[rng.randint(0, j), j] = -1
    solver = LatticeSolver(a)
    assert solver._u.dtype == np.int64 and solver._v.dtype == np.int64
    for b in solvable_and_not(a, rng, 5):
        assert same(solver.solve(b), reference_solve_matrix(a, b))
        assert same(solver.solve(b[:, 0]), reference_solve(a, b[:, 0]))


def test_wide_right_hand_sides_through_int64_factors():
    # the tree of test_narrowed_factors_match_reference, and right-hand
    # sides with entries of 2^63 and more: U is int64, so the product
    # U b must take matmul's object path with one int64 operand
    rng = random.Random(7)
    a = zeros(40, 36)
    for j in range(36):
        a[j + 1, j] = 2
        a[rng.randint(0, j), j] = -1
    solver = LatticeSolver(a)
    assert solver._u.dtype == np.int64 and solver._v.dtype == np.int64
    x = random_matrix(rng, (36, 5), 70)
    x[0, 0] = 1 << 70
    good = matmul(a, x)
    assert max(abs(e) for e in good.flat) >= 1 << 63
    bad = good.copy()
    bad[0, 0] += 1
    for b in (good, bad):
        got = solver.solve(b)
        assert same(got, reference_solve_matrix(a, b))
        assert same(solver.solve(b[:, 0]), reference_solve(a, b[:, 0]))
        if got is not None:
            assert all(type(e) is int for e in got.flat)
            assert np.array_equal(got, x)


def test_wide_factors_match_reference():
    # ones on the diagonal from row 3 on and a 3 x 3 core of 27-bit entries
    a = zeros(40, 40)
    for i in range(3, 40):
        a[i, i] = 1
    for i in range(3):
        for j in range(3):
            a[i, j] = pow(i + 2, j + 13, 10**8 + 7)
    solver = LatticeSolver(a)
    # the elimination starts on int64 and promotes, since V needs more
    # than 64 bits, so both factors arrive on objects
    assert solver._v.dtype == object and solver._u.dtype == object
    rng = random.Random(11)
    for b in solvable_and_not(a, rng, 5):
        got = solver.solve(b)
        assert same(got, reference_solve_matrix(a, b))
        if got is not None:
            assert np.array_equal(a @ got, b)
