"""Tests for bounded complexes: shifts, cones, tensor powers, validation."""

import numpy as np
import pytest

from tateform.errors import CapExceeded, ValidationError
from tateform.gcomplexes import (
    GComplex,
    concentrate,
    cone_of_mult,
    shift,
    tensor_power_shifted,
)
from tateform.gmodules import (
    GModule,
    finite_field_units,
    zmodule,
)
from tateform.groups import make_cyclic
from tateform.intlinalg import eye, intmat, zeros

from reference import trivial_cyclic


def two_term_complex():
    """Z -2-> Z at degrees 0, 1 over Z/3 with trivial action."""
    G = make_cyclic(3)
    Z = zmodule(G)
    return GComplex(G, 0, [Z, Z], [intmat([[2]])], name="Z-2-Z")


class TestConstruction:
    def test_concentrate(self):
        C = concentrate(zmodule(make_cyclic(4)), 0)
        assert C.support == (0, 0)
        assert C.term(0).gens == 1
        assert C.term(5).is_zero
        assert C.diff(0).shape == (0, 1)

    def test_concentrate_negative_degree(self):
        M = finite_field_units(2, 1, 2)
        C = concentrate(M, -1)
        assert C.support == (-1, -1)
        assert C.term(-1) is M

    def test_two_term_valid(self):
        C = two_term_complex()
        assert C.support == (0, 1)

    def test_rejects_nonzero_composite(self):
        G = make_cyclic(2)
        Z = zmodule(G)
        with pytest.raises(ValidationError, match="d o d"):
            GComplex(G, 0, [Z, Z, Z], [intmat([[1]]), intmat([[1]])])

    def test_rejects_non_equivariant(self):
        # a nonzero map Z (trivial action) -> Z/3 (inversion action)
        # cannot be equivariant
        M = finite_field_units(2, 1, 2)
        Z = zmodule(M.group)
        with pytest.raises(ValidationError, match="equivariant"):
            GComplex(M.group, 0, [Z, M], [intmat([[1]])])

    def test_rejects_shape_mismatch(self):
        G = make_cyclic(2)
        Z = zmodule(G)
        with pytest.raises(ValidationError, match="shape"):
            GComplex(G, 0, [Z, Z], [intmat([[1, 0]])])


class TestShift:
    def test_shift_zero_identity(self):
        C = two_term_complex()
        S = shift(C, 0)
        assert S.support == C.support
        assert np.array_equal(S.diff(0), C.diff(0))

    def test_shift_moves_concentration(self):
        M = zmodule(make_cyclic(2))
        for n in (-2, -1, 1, 3):
            S = shift(concentrate(M, 0), n)
            assert S.support == (-n, -n)

    def test_shift_sign(self):
        C = two_term_complex()
        S = shift(C, 1)
        assert S.support == (-1, 0)
        assert np.array_equal(S.diff(-1), -C.diff(0))

    def test_shift_composition(self):
        C = two_term_complex()
        for a in (-2, -1, 0, 1, 2):
            for b in (-1, 0, 1, 2):
                left = shift(shift(C, a), b)
                right = shift(C, a + b)
                assert left.support == right.support
                for q in range(left.lo, left.hi):
                    assert np.array_equal(left.diff(q), right.diff(q))


class TestCone:
    def test_term_shapes(self):
        C = two_term_complex()
        tri = cone_of_mult(C, 3)
        assert tri.cone.support == (-1, 1)
        # cone^q = C^{q+1} + C^q
        assert tri.cone.term(-1).gens == C.term(0).gens
        assert tri.cone.term(0).gens == C.term(1).gens + C.term(0).gens
        assert tri.cone.term(1).gens == C.term(1).gens

    def test_cone_differential_sign_rule(self):
        C = two_term_complex()
        tri = cone_of_mult(C, 5)
        # cone^-1 = C^0 -> cone^0 = C^1 + C^0: column [[-d_C], [m]]
        d = tri.cone.diff(-1)
        assert d.shape == (2, 1)
        assert d[0, 0] == -2
        assert d[1, 0] == 5
        # top degree: cone^0 -> cone^1 = C^1 is [m, d_C]
        d0 = tri.cone.diff(0)
        assert d0.shape == (1, 2)
        assert d0[0, 0] == 5
        assert d0[0, 1] == 2

    def test_triangle_identities(self):
        C = two_term_complex()
        tri = cone_of_mult(C, 3)
        cone = tri.cone
        for q in cone.degrees():
            inc = tri.inclusion[q]
            proj = tri.projection[q]
            # projection o inclusion = 0
            assert not (proj @ inc).any()
        for q in range(cone.lo, cone.hi):
            # inclusion is a chain map: d_cone o inc = inc o d_C
            lhs = cone.diff(q) @ tri.inclusion[q]
            rhs = tri.inclusion[q + 1] @ C.diff(q)
            assert np.array_equal(lhs, rhs)
            # projection is a chain map into C[1]: proj o d_cone = -d_C o proj
            lhs = tri.projection[q + 1] @ cone.diff(q)
            rhs = -C.diff(q + 1) @ tri.projection[q]
            assert np.array_equal(lhs, rhs)

    def test_cone_of_concentrated(self):
        M = trivial_cyclic(make_cyclic(2), 4)
        tri = cone_of_mult(concentrate(M, 0), 2)
        assert tri.cone.support == (-1, 0)
        assert tri.cone.term(-1).structure().torsion == (4,)
        d = tri.cone.diff(-1)
        assert d[0, 0] == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            cone_of_mult(two_term_complex(), 0)


class TestTensorPower:
    def test_power_zero(self):
        M = finite_field_units(2, 1, 2)
        C = tensor_power_shifted(M, 0)
        assert C.support == (0, 0)
        assert C.term(0).structure().invariants() == (0,)
        assert all(C.term(0).act(g)[0, 0] == 1 for g in range(2))

    def test_power_one(self):
        M = finite_field_units(2, 1, 2)
        C = tensor_power_shifted(M, 1)
        assert C.support == (1, 1)
        assert C.term(1).structure().torsion == (3,)
        assert C.term(1).act(1)[0, 0] % 3 == 2

    def test_power_two_inversion_squares_away(self):
        M = finite_field_units(2, 1, 2)
        C = tensor_power_shifted(M, 2)
        assert C.support == (2, 2)
        assert C.term(2).structure().torsion == (3,)
        assert C.term(2).act(1)[0, 0] % 3 == 1

    def test_cap(self):
        G = make_cyclic(2)
        M = GModule(G, zeros(4, 0), [eye(4), eye(4)])
        with pytest.raises(CapExceeded):
            tensor_power_shifted(M, 5, cap=512)


class TestZeroTerms:
    def test_one_zero_module_per_complex(self):
        C = two_term_complex()
        z = C.term(-3)
        assert z.gens == 0
        assert C.term(5) is z and C.term(2) is z
        assert C.diff(1).shape == (0, 1)
        assert C.diff(-1).shape == (1, 0)
        assert C.diff(4).shape == (0, 0)

    def test_cone_demo_validates_ten_modules(self, monkeypatch):
        # Before zero terms were kept per complex this demo validated 41
        # modules, 32 of them zero modules built afresh at every call.
        from tateform.cli import parse_scenario, run_scenario
        from tateform.scenarios import bundled_document

        built = []
        validate = GModule._validate

        def counting(self):
            built.append(self.gens)
            return validate(self)

        monkeypatch.setattr(GModule, "_validate", counting)
        run_scenario(parse_scenario(bundled_document("cone-les-z2")))
        assert len(built) == 10
        assert built.count(0) == 1
