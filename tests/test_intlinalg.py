"""Tests for exact integer linear algebra.

Expected values here come from independent routes: the gcd-of-minors
formula for invariant factors, hand-checked small examples, and structural
identities (unimodularity, reconstruction, divisibility chains).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform.intlinalg import (
    AbGroup,
    ExactnessError,
    LatticeSolver,
    Subquotient,
    cokernel_structure,
    eye,
    intmat,
    is_zero,
    kernel_basis,
    kron,
    lattice_basis,
    smith_normal_form,
    solve,
    zeros,
)
from reference import gcd_minors_diagonal, homology_at


def assert_snf_consistent(a, snf):
    m, n = a.shape
    assert np.array_equal(snf.u @ a @ snf.v, snf.s)
    assert np.array_equal(snf.u @ snf.u_inv, eye(m))
    assert np.array_equal(snf.u_inv @ snf.u, eye(m))
    assert np.array_equal(snf.v @ snf.v_inv, eye(n))
    assert np.array_equal(snf.v_inv @ snf.v, eye(n))
    d = snf.diagonal
    # S is diagonal with the recorded diagonal
    for i in range(m):
        for j in range(n):
            expect = d[i] if i == j and i < len(d) else 0
            assert snf.s[i, j] == expect
    # nonnegative, divisibility chain, zeros trailing
    for i, x in enumerate(d):
        assert x >= 0
        if i + 1 < len(d):
            if x == 0:
                assert d[i + 1] == 0
            elif d[i + 1] != 0:
                assert d[i + 1] % x == 0


class TestSmithNormalForm:
    def test_textbook_2x2(self):
        # gcd of 1x1 minors = 2; determinant = 2*8 - 4*6 = -8, so
        # invariant factors are 2 and 8/2 = 4.
        a = intmat([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (2, 4)
        assert_snf_consistent(a, snf)
        assert gcd_minors_diagonal(a) == (2, 4)

    def test_zero_matrix(self):
        a = zeros(3, 2)
        snf = smith_normal_form(a)
        assert snf.diagonal == (0, 0)
        assert snf.rank == 0
        assert_snf_consistent(a, snf)

    def test_identity(self):
        a = eye(4)
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 1, 1, 1)
        assert_snf_consistent(a, snf)

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = zeros(*shape)
            snf = smith_normal_form(a)
            assert snf.rank == 0
            assert_snf_consistent(a, snf)

    def test_single_negative_entry(self):
        a = intmat([[-6]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (6,)
        assert_snf_consistent(a, snf)

    def test_divisibility_forcing(self):
        # diag(2, 3) is NOT in Smith form; invariant factors are 1, 6.
        a = intmat([[2, 0], [0, 3]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 6)
        assert_snf_consistent(a, snf)

    def test_rectangular_wide(self):
        a = intmat([[2, 4, 6], [4, 8, 10]])
        snf = smith_normal_form(a)
        assert snf.diagonal == gcd_minors_diagonal(a)
        assert_snf_consistent(a, snf)

    def test_known_3x3(self):
        # Classic example: invariant factors 1, 2, 6 (gcd-of-minors route
        # gives g1=1, g2=2, g3=12).
        a = intmat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        snf = smith_normal_form(a)
        assert snf.diagonal == gcd_minors_diagonal(a)
        assert_snf_consistent(a, snf)

    def test_large_entries_stay_exact(self):
        big = 10**30
        a = intmat([[big, 1], [0, big]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, big * big)
        assert_snf_consistent(a, snf)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_random_matrices_consistent(self, rows):
        a = intmat(rows)
        snf = smith_normal_form(a)
        assert_snf_consistent(a, snf)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_gcd_minors_oracle(self, rows):
        a = intmat(rows)
        assert smith_normal_form(a).diagonal == gcd_minors_diagonal(a)


class TestSolvers:
    def test_solve_unique(self):
        a = intmat([[2, 1], [1, 1]])  # determinant 1
        b = np.array([3, 2], dtype=object)
        x = solve(a, b)
        assert np.array_equal(a @ x, b)

    def test_solve_no_integer_solution(self):
        a = intmat([[2]])
        b = np.array([3], dtype=object)
        assert solve(a, b) is None

    def test_solve_inconsistent(self):
        a = intmat([[1], [0]])
        b = np.array([1, 1], dtype=object)
        assert solve(a, b) is None

    def test_solve_underdetermined(self):
        a = intmat([[2, 3]])
        b = np.array([1], dtype=object)
        x = solve(a, b)
        assert x is not None
        assert np.array_equal(a @ x, b)

    def test_solver_contains(self):
        lat = LatticeSolver(intmat([[2, 0], [0, 3]]))
        assert lat.contains(np.array([4, -3], dtype=object))
        assert not lat.contains(np.array([1, 0], dtype=object))

    def test_kernel_basis_known(self):
        # kernel of [1 1 1] is rank 2; check membership and exactness
        a = intmat([[1, 1, 1]])
        k = kernel_basis(a)
        assert k.shape == (3, 2)
        assert is_zero(a @ k)
        # (1, -1, 0) must be an integer combination of the basis
        assert LatticeSolver(k).contains(np.array([1, -1, 0], dtype=object))

    def test_kernel_of_injective_map_is_zero(self):
        a = intmat([[2, 0], [0, 5], [1, 1]])
        assert kernel_basis(a).shape == (2, 0)

    def test_lattice_basis_drops_dependencies(self):
        gens = intmat([[2, 4, 2], [0, 0, 3]])
        b = lattice_basis(gens).matrix
        assert b.shape == (2, 2)
        lat = LatticeSolver(b)
        glat = LatticeSolver(gens)
        for v in ([2, 0], [2, 3], [0, 6]):
            vec = np.array(v, dtype=object)
            assert lat.contains(vec) == glat.contains(vec)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=3),
            min_size=2,
            max_size=3,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=3),
    )
    def test_solve_roundtrip(self, rows, xs):
        a = intmat(rows)
        x = np.array(xs[: a.shape[1]] + [0] * max(0, a.shape[1] - len(xs)), dtype=object)
        b = a @ x
        got = solve(a, b)
        assert got is not None
        assert np.array_equal(a @ got, b)


class TestCokernel:
    def test_cyclic_from_crt(self):
        # Z^2 / <(2,0), (0,3)> is cyclic of order 6
        g = cokernel_structure(intmat([[2, 0], [0, 3]]))
        assert g.free_rank == 0
        assert g.torsion == (6,)
        assert g.order() == 6

    def test_free_part(self):
        g = cokernel_structure(intmat([[2, 0], [0, 0]]))
        assert g.free_rank == 1
        assert g.torsion == (2,)
        assert g.order() is None
        assert g.invariants() == (2, 0)

    def test_trivial_group(self):
        g = cokernel_structure(eye(3))
        assert g.is_trivial
        assert g.describe() == "0"

    def test_full_free(self):
        g = cokernel_structure(zeros(2, 0))
        assert g.free_rank == 2
        assert g.torsion == ()

    def test_classify_consistent_with_lift(self):
        a = intmat([[4, 0], [0, 6], [0, 0]])
        g = cokernel_structure(a)
        assert g.torsion == (2, 12)
        assert g.free_rank == 1
        # reduce_map is a left inverse of basis_lift
        assert np.array_equal(g.reduce_map @ g.basis_lift, eye(g.ngens))
        # columns of a must classify to zero
        for j in range(a.shape[1]):
            assert g.classify(a[:, j]) == (0, 0, 0)

    def test_element_order(self):
        g = AbGroup(0, (2, 12), eye(2))
        assert g.element_order((1, 0)) == 2
        assert g.element_order((0, 1)) == 12
        assert g.element_order((1, 6)) == 2
        assert g.element_order((0, 8)) == 3

    def test_elements_enumeration(self):
        g = AbGroup(0, (2, 3), eye(2))
        assert sorted(g.elements()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_presentation_invariance(self, rows):
        # Appending redundant columns (sums of existing ones) cannot
        # change the cokernel.
        a = intmat(rows).T  # 3 x k
        extra = a @ np.ones((a.shape[1], 1), dtype=object) if a.shape[1] else zeros(3, 1)
        a2 = np.hstack([a, extra])
        g1, g2 = cokernel_structure(a), cokernel_structure(a2)
        assert g1.invariants() == g2.invariants()


class TestHomology:
    def test_circle_complex(self):
        # Simplicial circle: 3 vertices, 3 edges. H_0 computed at the
        # vertex spot of the reduced-to-a-point chain complex.
        d1 = intmat([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
        d0 = zeros(0, 3)
        h0 = homology_at(d1, d0)
        assert h0.free_rank == 1 and h0.torsion == ()
        h1 = homology_at(zeros(3, 0), d1)
        assert h1.free_rank == 1 and h1.torsion == ()

    def test_multiplication_by_n(self):
        # 0 -> Z -n-> Z -> 0 has homology Z/n at the target spot
        h = homology_at(intmat([[4]]), zeros(0, 1))
        assert h.torsion == (4,) and h.free_rank == 0

    def test_rejects_nonzero_composite(self):
        with pytest.raises(ExactnessError):
            homology_at(intmat([[1]]), intmat([[1]]))

    def test_representatives_are_cycles(self):
        d_in = intmat([[2, 0], [0, 0], [0, 3]])
        d_out = zeros(0, 3)
        h = homology_at(d_in, d_out)
        # Z/2 + Z/3 + Z in invariant-factor form
        assert h.invariants() == (6, 0)

    def test_rp2_style_torsion(self):
        # Z -2-> Z -0-> Z gives Z/2 at the middle spot
        h = homology_at(intmat([[2]]), zeros(1, 1))
        assert h.torsion == (2,)
        assert h.free_rank == 0


class TestSubquotient:
    def test_numerator_not_saturated(self):
        # K = 2Z inside Z, D = 6Z: group is 2Z/6Z = Z/3, and classify
        # must work on even ambient vectors only.
        sq = Subquotient(lattice_basis(intmat([[2]])), intmat([[6]]))
        assert sq.group.torsion == (3,)
        assert sq.classify(np.array([2], dtype=object)) == (1,)
        assert sq.classify(np.array([6], dtype=object)) == (0,)
        assert not sq.numerator.contains(np.array([1], dtype=object))
        with pytest.raises(ValueError):
            sq.classify(np.array([3], dtype=object))

    def test_denominator_outside_numerator_rejected(self):
        with pytest.raises(ExactnessError):
            Subquotient(lattice_basis(intmat([[2]])), intmat([[3]]))

    def test_representative_classifies_to_generator(self):
        sq = Subquotient(lattice_basis(eye(2)), intmat([[2, 0], [0, 3]]))
        for i in range(sq.group.ngens):
            coords = sq.classify(sq.representative(i))
            expect = tuple(1 if j == i else 0 for j in range(sq.group.ngens))
            assert coords == expect


class TestHelpers:
    def test_kron_matches_numpy_on_ints(self):
        a = intmat([[1, 2], [0, 3]])
        b = intmat([[0, 1], [1, 1]])
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_kron_shapes(self):
        assert kron(zeros(2, 3), zeros(4, 5)).shape == (8, 15)
