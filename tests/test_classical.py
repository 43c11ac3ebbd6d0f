"""Tests for the direct (non-resolution) cohomology route.

Expected values: Hom/character arguments for trivial coefficients,
Hilbert 90 for field units, and a literal function-enumeration oracle at
degree 1 for the smallest cases.
"""

from itertools import product

import numpy as np

from tateform.classical import (
    cochain_cohomology,
    cochain_differential,
    h0,
    h_minus1,
)
from tateform.gmodules import (
    GModule,
    finite_field_units,
    regular_module,
    zmodule,
)
from tateform.groups import direct_product, make_cyclic, symmetric_group
from tateform.intlinalg import eye, intmat, zeros

from reference import herbrand_quotient, trivial_cyclic


def klein_four():
    return direct_product(make_cyclic(2), make_cyclic(2))


def literal_h1_order(M):
    """Count 1-cocycles and 1-coboundaries by enumerating functions G -> M.

    Only usable when |M|^|G| is tiny.  Returns the order of H^1.
    """
    G = M.group
    ab = M.structure()
    elems = [np.array(c, dtype=object) for c in ab.elements()]

    def act(g, coords):
        # act on canonical coordinates through the presentation
        amb = ab.basis_lift @ np.array(coords, dtype=object)
        return ab.classify(M.act(g) @ amb)

    def add(x, y):
        return ab.reduce_coords([a + b for a, b in zip(x, y)])

    def neg(x):
        return ab.reduce_coords([-a for a in x])

    cocycles = []
    for values in product([tuple(e) for e in elems], repeat=G.order):
        ok = True
        for g in range(G.order):
            for h in range(G.order):
                lhs = add(act(g, values[h]), values[g])
                if lhs != add(values[G.mul(g, h)], tuple([0] * ab.ngens)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cocycles.append(values)
    coboundaries = set()
    for m in elems:
        f = tuple(
            add(act(g, tuple(m)), neg(tuple(m))) for g in range(G.order)
        )
        coboundaries.add(f)
    assert len(cocycles) % len(coboundaries) == 0
    return len(cocycles) // len(coboundaries)


class TestLowDegrees:
    def test_h0_trivial_z(self):
        for n in (2, 3, 4, 6):
            assert h0(zmodule(make_cyclic(n))).invariants() == (n,)

    def test_h_minus1_trivial_z(self):
        for n in (2, 3, 4):
            assert h_minus1(zmodule(make_cyclic(n))).is_trivial

    def test_h0_field_units(self):
        # fixed points are trivial, so H^0 = 0
        assert h0(finite_field_units(2, 1, 2)).is_trivial
        assert h0(finite_field_units(3, 1, 2)).is_trivial

    def test_h_minus1_field_units(self):
        # Herbrand quotient 1 forces |H^-1| = |H^1| = 0 as well
        assert h_minus1(finite_field_units(2, 1, 2)).is_trivial
        assert h_minus1(finite_field_units(3, 1, 2)).is_trivial

    def test_h0_regular_vanishes(self):
        for G in (make_cyclic(2), make_cyclic(4), symmetric_group(3)):
            assert h0(regular_module(G)).is_trivial
            assert h_minus1(regular_module(G)).is_trivial

    def test_h_minus1_mod2_over_z2(self):
        # N = 1 + sigma = 0 on Z/2 with trivial action; (sigma-1) = 0 too:
        # kernel Z/2 over image 0
        M = trivial_cyclic(make_cyclic(2), 2)
        assert h_minus1(M).invariants() == (2,)

    def test_herbrand_quotient_one(self):
        for M in (
            finite_field_units(2, 1, 2),
            finite_field_units(3, 1, 2),
            finite_field_units(2, 1, 3),
            trivial_cyclic(make_cyclic(2), 2),
            trivial_cyclic(make_cyclic(4), 6),
        ):
            a, b = herbrand_quotient(M)
            assert a == b


class TestCochainComplex:
    def test_differentials_compose_to_zero(self):
        for M in (
            zmodule(make_cyclic(3)),
            finite_field_units(2, 1, 2),
            trivial_cyclic(klein_four(), 2),
        ):
            d1 = cochain_differential(M, 1)
            d0 = cochain_differential(M, 0)
            comp = d1 @ d0
            rel = M.relators
            if rel.shape[1] == 0:
                assert not comp.any()
            else:
                # entries must vanish mod the per-slot relators
                t = int(rel[0, 0])
                assert all(x % t == 0 for x in comp.flat)

    def test_h1_trivial_z_vanishes(self):
        # Hom(G, Z) = 0 for finite G
        for n in (2, 3, 4):
            assert cochain_cohomology(zmodule(make_cyclic(n)), 1).is_trivial

    def test_h2_trivial_z_is_character_group(self):
        # H^2(G, Z) = Hom(G, Q/Z) = G for abelian G
        assert cochain_cohomology(zmodule(make_cyclic(2)), 2).invariants() == (2,)
        assert cochain_cohomology(zmodule(make_cyclic(3)), 2).invariants() == (3,)
        assert cochain_cohomology(zmodule(make_cyclic(4)), 2).invariants() == (4,)

    def test_h2_klein_four_z(self):
        assert cochain_cohomology(zmodule(klein_four()), 2).invariants() == (2, 2)

    def test_h2_s3_z(self):
        # Hom(S_3, Q/Z) = Z/2
        assert cochain_cohomology(zmodule(symmetric_group(3)), 2).invariants() == (2,)

    def test_hilbert_90(self):
        for args in ((2, 1, 2), (3, 1, 2), (2, 1, 3)):
            assert cochain_cohomology(finite_field_units(*args), 1).is_trivial

    def test_h1_hom_for_trivial_action(self):
        # H^1(G, M) = Hom(G, M) when the action is trivial
        assert cochain_cohomology(
            trivial_cyclic(make_cyclic(4), 2), 1
        ).invariants() == (2,)
        assert cochain_cohomology(
            trivial_cyclic(make_cyclic(4), 8), 1
        ).invariants() == (4,)
        assert cochain_cohomology(
            trivial_cyclic(klein_four(), 2), 1
        ).invariants() == (2, 2)

    def test_h2_z2_mod2(self):
        # two extensions of Z/2 by Z/2: cyclic and Klein
        assert cochain_cohomology(
            trivial_cyclic(make_cyclic(2), 2), 2
        ).invariants() == (2,)

    def test_h1_regular_vanishes(self):
        assert cochain_cohomology(regular_module(make_cyclic(2)), 1).is_trivial
        assert cochain_cohomology(regular_module(make_cyclic(3)), 1).is_trivial


class TestLiteralEnumerationOracle:
    def test_field_units_f4(self):
        M = finite_field_units(2, 1, 2)
        assert literal_h1_order(M) == 1
        assert cochain_cohomology(M, 1).order() == 1

    def test_mod2_over_z2(self):
        M = trivial_cyclic(make_cyclic(2), 2)
        got = literal_h1_order(M)
        assert got == 2
        assert cochain_cohomology(M, 1).order() == got

    def test_mod3_inversion_over_z2(self):
        G = make_cyclic(2)
        M = GModule(G, intmat([[3]]), [eye(1), intmat([[2]])])
        got = literal_h1_order(M)
        assert cochain_cohomology(M, 1).order() == got

    def test_mod4_over_z2(self):
        M = trivial_cyclic(make_cyclic(2), 4)
        got = literal_h1_order(M)
        assert got == 2
        assert cochain_cohomology(M, 1).order() == got
