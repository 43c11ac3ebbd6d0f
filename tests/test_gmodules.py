"""Tests for group-ring modules: constructors, tensor, dual, fixed points."""

import numpy as np
import pytest

from tateform.errors import ValidationError
from tateform.gmodules import (
    GModule,
    finite_field_units,
    fixed_points,
    norm_endomorphism,
    normalized,
    regular_module,
    tensor,
    trivial_module,
    zero_module,
    zmodule,
)
from tateform.groups import (
    all_subgroups,
    direct_product,
    make_cyclic,
    subgroup,
    symmetric_group,
    whole_subgroup,
)
from tateform.intlinalg import AbGroup, LatticeSolver, eye, intmat, zeros

from reference import (dual_module, restrict_module, trivial_cyclic,
                       trivial_subgroup)


def inversion_module(n):
    """Z/n with the generator of Z/2 acting by -1."""
    G = make_cyclic(2)
    return GModule(G, intmat([[n]]), [eye(1), intmat([[n - 1]])], name=f"Z/{n}-inv")


class TestConstructionAndValidation:
    def test_trivial_z(self):
        M = zmodule(make_cyclic(4))
        assert M.gens == 1
        assert M.relators.shape == (1, 0)
        assert all(M.act(g)[0, 0] == 1 for g in range(4))

    def test_trivial_z5_over_s3(self):
        M = trivial_cyclic(symmetric_group(3), 5)
        assert M.relators[0, 0] == 5
        assert M.structure().torsion == (5,)

    def test_zero_module(self):
        M = zero_module(make_cyclic(3))
        assert M.is_zero
        assert M.structure().is_trivial

    def test_rejects_wrong_count(self):
        G = make_cyclic(2)
        with pytest.raises(ValidationError, match="action matrices"):
            GModule(G, zeros(1, 0), [eye(1)])

    def test_rejects_identity_violation(self):
        G = make_cyclic(2)
        with pytest.raises(ValidationError, match="identity"):
            GModule(G, zeros(1, 0), [intmat([[2]]), eye(1)])

    def test_rejects_bad_composition(self):
        # x -> 2x composed with itself is x -> 4x, not the identity,
        # so it cannot be an action of Z/2 on Z
        G = make_cyclic(2)
        with pytest.raises(ValidationError, match="compose"):
            GModule(G, zeros(1, 0), [eye(1), intmat([[2]])])

    def test_rejects_relator_violation(self):
        # x -> 2x does not preserve the relator span of Z/4 + Z/2 mixed
        # presentation below in a way compatible with composition; simpler:
        # action that does not preserve the relator 3x = 0 in Z/3 + Z
        G = make_cyclic(2)
        rel = intmat([[3], [0]])
        bad = intmat([[1, 1], [1, 0]])  # sends relator (3,0) to (3,3): not in span
        with pytest.raises(ValidationError):
            GModule(G, rel, [eye(2), bad])

    def test_corrupted_regular_action_rejected(self):
        G = make_cyclic(3)
        R = regular_module(G)
        action = [m.copy() for m in R.action]
        action[1][0, 0] += 1
        with pytest.raises(ValidationError):
            GModule(G, R.relators, action)


class TestRegular:
    def test_trivial_group(self):
        M = regular_module(make_cyclic(1))
        assert M.gens == 1
        assert M.act(0)[0, 0] == 1

    def test_z2_swap(self):
        M = regular_module(make_cyclic(2))
        assert np.array_equal(M.act(1), intmat([[0, 1], [1, 0]]))

    def test_s3_permutation_oracle(self):
        G = symmetric_group(3)
        M = regular_module(G)
        for g in range(6):
            for s in range(6):
                col = M.act(g)[:, s]
                assert col[G.mul(g, s)] == 1
                assert sum(col) == 1


class TestFiniteFieldUnits:
    def test_f4_over_f2(self):
        M = finite_field_units(2, 1, 2)
        assert M.group.order == 2
        assert M.structure().torsion == (3,)
        assert M.act(1)[0, 0] == 2  # Frobenius squares, i.e. inverts mod 3

    def test_f9_over_f3(self):
        M = finite_field_units(3, 1, 2)
        assert M.structure().torsion == (8,)
        assert M.act(1)[0, 0] == 3

    def test_f8_over_f2(self):
        M = finite_field_units(2, 1, 3)
        assert M.structure().torsion == (7,)
        assert M.act(1)[0, 0] == 2
        assert M.act(2)[0, 0] == 4

    def test_no_extension(self):
        M = finite_field_units(5, 1, 1)
        assert M.group.order == 1
        assert M.structure().torsion == (4,)

    def test_rejects_composite(self):
        with pytest.raises(ValidationError, match="prime"):
            finite_field_units(6, 1, 2)


class TestTensor:
    def test_unit_object(self):
        M = normalized(finite_field_units(2, 1, 2))
        T = tensor(M, zmodule(M.group))
        assert T.structure().invariants() == M.structure().invariants()
        assert all(
            np.array_equal(T.act(g), M.act(g)) for g in range(M.group.order)
        )

    def test_coprime_torsion_kills(self):
        G = make_cyclic(2)
        T = tensor(trivial_cyclic(G, 2), trivial_cyclic(G, 3))
        assert T.is_zero

    def test_inversion_squared_is_trivial(self):
        M = inversion_module(3)
        T = tensor(M, M)
        assert T.structure().torsion == (3,)
        # (-1) x (-1) = +1: the action must be trivial mod 3
        assert T.act(1)[0, 0] % 3 == 1

    def test_mixed_group_rejected(self):
        with pytest.raises(ValidationError, match="different groups"):
            tensor(zmodule(make_cyclic(2)), zmodule(make_cyclic(3)))


class TestDual:
    def test_dual_trivial_z(self):
        D = dual_module(zmodule(make_cyclic(4)))
        assert D.gens == 1
        assert all(D.act(g)[0, 0] == 1 for g in range(4))

    def test_dual_regular_is_regular(self):
        # permutation matrices are orthogonal: inverse-transpose of the
        # translation by g is the translation by g again
        for G in (make_cyclic(4), symmetric_group(3)):
            R = regular_module(G)
            D = dual_module(R)
            assert all(
                np.array_equal(D.act(g), R.act(g)) for g in range(G.order)
            )

    def test_dual_zero(self):
        D = dual_module(zero_module(make_cyclic(2)))
        assert D.is_zero

    def test_torsion_rejected(self):
        with pytest.raises(ValidationError, match="torsion"):
            dual_module(trivial_cyclic(make_cyclic(2), 3))


class TestRestrict:
    def test_whole_group(self):
        G = make_cyclic(4)
        M = regular_module(G)
        R = restrict_module(M, whole_subgroup(G))
        assert all(np.array_equal(R.act(g), M.act(g)) for g in range(4))

    def test_to_trivial_subgroup(self):
        M = finite_field_units(2, 1, 2)
        R = restrict_module(M, trivial_subgroup(M.group))
        assert R.group.order == 1
        assert R.structure().torsion == (3,)

    def test_regular_z4_to_z2(self):
        G = make_cyclic(4)
        M = regular_module(G)
        H = subgroup(G, [0, 2])
        R = restrict_module(M, H)
        assert R.group.order == 2
        # the nontrivial element acts by the double swap (0 2)(1 3)
        expect = zeros(4, 4)
        for s in range(4):
            expect[(s + 2) % 4, s] = 1
        assert np.array_equal(R.act(1), expect)


class TestFixedPointsAndNorm:
    def test_trivial_module(self):
        G = make_cyclic(5)
        M = zmodule(G)
        assert fixed_points(M).invariants() == (0,)
        assert norm_endomorphism(M)[0, 0] == 5

    def test_field_units_no_fixed_points(self):
        M = finite_field_units(2, 1, 2)
        assert fixed_points(M).is_trivial

    def test_f9_fixed_points(self):
        # x fixed iff 3x = x iff 2x = 0 mod 8: the order-2 subgroup
        M = finite_field_units(3, 1, 2)
        assert fixed_points(M).torsion == (2,)

    def test_regular_z2(self):
        M = regular_module(make_cyclic(2))
        fp = fixed_points(M)
        assert fp.invariants() == (0,)
        assert np.array_equal(norm_endomorphism(M), intmat([[1, 1], [1, 1]]))

    def test_norm_lands_in_fixed_points(self):
        mods = [
            zmodule(make_cyclic(4)),
            regular_module(symmetric_group(3)),
            finite_field_units(2, 1, 2),
            finite_field_units(3, 1, 2),
            inversion_module(4),
        ]
        for M in mods:
            from tateform.gmodules import fixed_points_subquotient

            sq = fixed_points_subquotient(M)
            nm = norm_endomorphism(M)
            for j in range(M.gens):
                assert sq.numerator.contains(nm[:, j])

    def test_fixed_points_of_swap(self):
        # Z^2 with coordinates swapped: fixed lattice is the diagonal
        G = make_cyclic(2)
        M = GModule(G, zeros(2, 0), [eye(2), intmat([[0, 1], [1, 0]])])
        fp = fixed_points(M)
        assert fp.invariants() == (0,)
        lift = fp.basis_lift
        assert lift[0, 0] == lift[1, 0]
