"""The whole-matrix lattice solve and the validations built on it.

``LatticeSolver.solve`` answers a vector or a matrix right-hand side in one
pass; the reference below is the per-row, per-column loop it replaced, and
the two must agree entry for entry, also for the lattices ``lattice_basis``
returns, which solve without a V of their own.  Module and complex validation ask each
law with one solve and still name the offending element or pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform import intlinalg
from tateform.errors import ValidationError
from tateform.gcomplexes import GComplex
from tateform.gmodules import GModule, zmodule
from tateform.groups import make_cyclic
from tateform.intlinalg import (LatticeSolver, intmat, lattice_basis,
                                smith_normal_form, zeros)


def reference_solve(a, b):
    """Per-row solve of A x = b for one vector, as a loop."""
    snf = smith_normal_form(a, need="u v")
    m, n = a.shape
    c = snf.u @ b
    y = np.zeros(n, dtype=object)
    for i in range(m):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d != 0:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return snf.v @ y


def reference_solve_matrix(a, b):
    """Per-column solve of A X = B."""
    cols = []
    for j in range(b.shape[1]):
        x = reference_solve(a, b[:, j])
        if x is None:
            return None
        cols.append(x.reshape(-1, 1))
    return np.hstack(cols) if cols else zeros(a.shape[1], 0)


def general_solve(solver, b):
    """The one-pass solve through U, the diagonal and V, for every shape
    of b: what ``solve`` computes when it takes no shortcut."""
    c = solver.snf.u @ b
    r = solver.snf.rank
    d = np.array(solver.snf.diagonal[:r], dtype=object)
    d = d if b.ndim == 1 else d[:, None]
    if np.count_nonzero(c[:r] % d) or np.count_nonzero(c[r:]):
        return None
    return solver.snf.v[:, :r] @ (c[:r] // d)


def same(x, y):
    if x is None or y is None:
        return x is None and y is None
    return x.shape == y.shape and np.array_equal(x, y)


def assert_lattice_solves_match_reference(a, b):
    """``lattice_basis(a)`` solves through the elimination of a's columns,
    reading V as 1; the reference eliminates the basis afresh.  A basis
    gives each member one coordinate vector, so the two agree exactly,
    on the whole of b and column by column."""
    lat = lattice_basis(a)
    got = lat.solve(b)
    assert same(got, reference_solve_matrix(lat.matrix, b))
    for j in range(b.shape[1]):
        assert same(lat.solve(b[:, j]), reference_solve(lat.matrix, b[:, j]))


@st.composite
def systems(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 3))
    entries = st.integers(-6, 6)
    a = zeros(m, n)
    for i in range(m):
        for j in range(n):
            a[i, j] = draw(entries)
    b = zeros(m, k)
    for j in range(k):
        if draw(st.booleans()):
            x = np.array([draw(entries) for _ in range(n)], dtype=object)
            b[:, j] = a @ x if n else 0
        else:
            b[:, j] = [draw(entries) for _ in range(m)]
    return a, b


class TestWholeMatrixSolve:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_matches_per_column_reference(self, system):
        a, b = system
        solver = LatticeSolver(a)
        got = solver.solve(b)
        assert same(got, reference_solve_matrix(a, b))
        if got is not None:
            assert np.array_equal(a @ got, b)
        for j in range(b.shape[1]):
            assert same(solver.solve(b[:, j]), reference_solve(a, b[:, j]))
        assert_lattice_solves_match_reference(a, b)

    @pytest.mark.parametrize("m, n, k", [
        (0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 2), (3, 0, 0),
        (2, 3, 2),
    ])
    def test_empty_shapes(self, m, n, k):
        got = LatticeSolver(zeros(m, n)).solve(zeros(m, k))
        assert got.shape == (n, k)
        assert same(got, reference_solve_matrix(zeros(m, n), zeros(m, k)))
        vec = LatticeSolver(zeros(m, n)).solve(np.zeros(m, dtype=object))
        assert vec.shape == (n,)
        # the zero lattice's basis has no columns, so its answers have no rows
        assert_lattice_solves_match_reference(zeros(m, n), zeros(m, k))
        lat = lattice_basis(zeros(m, n))
        assert lat.solve(zeros(m, k)).shape == (0, k)
        assert lat.solve(np.zeros(m, dtype=object)).shape == (0,)

    @pytest.mark.parametrize("m, n", [(0, 0), (2, 0), (0, 3), (2, 2), (3, 2), (2, 5)])
    def test_empty_right_hand_sides_match_general_path(self, m, n):
        a = zeros(m, n)
        for i in range(m):
            for j in range(n):
                a[i, j] = (3 * i + 5 * j) % 7 - 3
        solver = LatticeSolver(a)
        b = zeros(m, 0)
        got = solver.solve(b)
        assert got.dtype == object
        assert same(got, general_solve(solver, b))
        assert same(got, reference_solve_matrix(a, b))
        if n == 0:
            # a 0-column A answers vectors too: only b = 0 lies in its span
            for vec in (np.zeros(m, dtype=object), np.arange(1, m + 1, dtype=object)):
                assert same(solver.solve(vec), general_solve(solver, vec))
                assert same(solver.solve(vec), reference_solve(a, vec))

    def test_nonzero_column_outside_zero_lattice(self):
        assert LatticeSolver(zeros(2, 0)).solve(intmat([[0, 0], [0, 1]])) is None

    def test_first_outside_names_the_first_bad_block(self):
        solver = LatticeSolver(intmat([[2, 0], [0, 3]]))
        good = intmat([[2], [3]])
        bad = intmat([[1], [0]])
        assert solver.first_outside([]) is None
        assert solver.first_outside([good, good]) is None
        assert solver.first_outside([good, bad, bad]) == 1


def counted_solves(monkeypatch):
    calls = []
    solve = LatticeSolver.solve

    def counting(self, b):
        calls.append(b.shape)
        return solve(self, b)

    monkeypatch.setattr(intlinalg.LatticeSolver, "solve", counting)
    return calls


class TestOneSolvePerLaw:
    def test_z_over_z24_takes_at_most_three_solves(self, monkeypatch):
        calls = counted_solves(monkeypatch)
        zmodule(make_cyclic(24))
        assert len(calls) <= 3

    def test_relators_offender_is_named(self):
        # Z/2 + Z with the swap: element 1 sends the relator (2, 0) to (0, 2)
        G = make_cyclic(2)
        swap = intmat([[0, 1], [1, 0]])
        with pytest.raises(ValidationError,
                           match="element 1 does not preserve relators"):
            GModule(G, intmat([[2], [0]]), [intmat([[1, 0], [0, 1]]), swap])

    def test_composition_offender_is_named(self):
        # sigma acting on Z by 2: only sigma * sigma fails (4 != 1)
        G = make_cyclic(2)
        with pytest.raises(ValidationError, match=r"compose at \(1, 1\)"):
            GModule(G, zeros(1, 0), [intmat([[1]]), intmat([[2]])])

    def test_equivariance_offender_is_named(self):
        # identity Z -> Z(sign) commutes with the identity only
        G = make_cyclic(2)
        sign = GModule(G, zeros(1, 0), [intmat([[1]]), intmat([[-1]])])
        with pytest.raises(ValidationError,
                           match="not equivariant for element 1"):
            GComplex(G, 0, [zmodule(G), sign], [intmat([[1]])])
