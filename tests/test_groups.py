"""Tests for finite groups: construction, subgroups, cosets, abelianization.

The S_3 oracle is permutation composition computed inside the test; the
subgroup counts come from the divisor lattice or brute-force closure.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform.errors import CapExceeded, ValidationError
from tateform.groups import (
    abelianization,
    all_subgroups,
    conjugacy_representatives,
    coset_representatives,
    direct_product,
    from_table,
    make_cyclic,
    right_transversal,
    subgroup,
    symmetric_group,
    whole_subgroup,
)

from reference import (
    as_group,
    commutator_subgroup,
    coset_abelianization,
    quotient_group,
    trivial_subgroup,
)
from test_differential import D4, Q8, relabel, shuffled_ids

_C2 = make_cyclic(2)
# groups retyped under seeded shuffles of their ids (seeds 0-2), so
# closure and G^ab cannot lean on the canonical order of the elements
RELABELED = {
    "C2xC6": direct_product(_C2, make_cyclic(6)),
    "D4": D4,
    "Q8": Q8,
    "S4": symmetric_group(4),
}
RELABEL_SEEDS = range(3)
RELABELINGS = {"%s-r%d" % (name, seed): relabel(G, seed)
               for name, G in RELABELED.items() for seed in RELABEL_SEEDS}
# abelian and non-abelian tables, canonical and retyped at seeds 0-3 (the
# identity moves off id 0), whose G^ab coordinates reports print
COSET_GROUPS = {
    "Z1": make_cyclic(1),
    "Z24": make_cyclic(24),
    "C2xC2": direct_product(_C2, _C2),
    "C2xC6": RELABELED["C2xC6"],
    "S3": symmetric_group(3),
    "S3xC2": direct_product(symmetric_group(3), _C2),
    "D4": D4,
    "Q8": Q8,
    "S4": RELABELED["S4"],
}
COSET_CASES = dict(COSET_GROUPS)
COSET_CASES.update({"%s-r%d" % (name, seed): relabel(G, seed)
                    for name, G in COSET_GROUPS.items() for seed in range(4)})


def s3_table_from_permutations():
    """Independent construction of S_3 by composing permutations."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]


class TestConstruction:
    def test_trivial(self):
        G = make_cyclic(1)
        assert G.order == 1 and G.identity == 0

    def test_cyclic_4_table(self):
        G = make_cyclic(4)
        assert G.table == tuple(
            tuple((i + j) % 4 for j in range(4)) for i in range(4)
        )
        assert G.element_order(1) == 4
        assert G.inv(1) == 3

    def test_from_table_s3(self):
        G = from_table(s3_table_from_permutations(), name="S_3")
        assert G.order == 6
        assert not G.is_abelian()
        assert symmetric_group(3).table == G.table

    def test_one_by_one(self):
        G = from_table([[0]])
        assert G.order == 1

    def test_no_identity_rejected(self):
        with pytest.raises(ValidationError, match="identity"):
            from_table([[1, 0], [0, 0]])

    def test_missing_inverse_rejected(self):
        # a monoid: 0 is an identity but 1 has no inverse
        with pytest.raises(ValidationError, match="inverse"):
            from_table([[0, 1], [1, 1]])

    def test_non_associative_rejected(self):
        # Z/5 with two row-1 entries swapped: identity and all two-sided
        # inverses survive, associativity does not.
        table = [
            [0, 1, 2, 3, 4],
            [1, 3, 2, 4, 0],
            [2, 3, 4, 0, 1],
            [3, 4, 0, 1, 2],
            [4, 0, 1, 2, 3],
        ]
        with pytest.raises(ValidationError, match="associativity"):
            from_table(table)

    def test_not_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            from_table([[0, 1], [1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="range"):
            from_table([[0, 1], [1, 5]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_single_corruption_rejected(self, n, data):
        # Changing any one entry of a group table breaks the latin-square
        # property, so some axiom must fail.
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = data.draw(st.integers(min_value=0, max_value=n - 1))
        if table[i][j] == v:
            v = (v + 1) % n
        table[i][j] = v
        with pytest.raises(ValidationError):
            from_table(table)


class TestProducts:
    def test_klein_four(self):
        V = direct_product(make_cyclic(2), make_cyclic(2))
        assert V.order == 4
        assert all(V.element_order(a) in (1, 2) for a in V.elements)
        assert not V.is_cyclic()

    def test_crt_product_is_cyclic(self):
        G = direct_product(make_cyclic(2), make_cyclic(3))
        ab, _ = abelianization(G)
        assert ab.invariants() == (6,)
        assert G.is_cyclic()

    def test_product_with_trivial(self):
        G = make_cyclic(5)
        P = direct_product(G, make_cyclic(1))
        assert P.table == G.table

    def test_product_associative_up_to_invariants(self):
        a, b, c = make_cyclic(2), make_cyclic(3), make_cyclic(4)
        left, _ = abelianization(direct_product(direct_product(a, b), c))
        right, _ = abelianization(direct_product(a, direct_product(b, c)))
        assert left.invariants() == right.invariants()


class TestSubgroups:
    def test_cyclic_4(self):
        subs = all_subgroups(make_cyclic(4))
        assert [s.order for s in subs] == [1, 2, 4]
        assert all(s.is_normal for s in subs)

    def test_cyclic_6_orders(self):
        subs = all_subgroups(make_cyclic(6))
        assert sorted(s.order for s in subs) == [1, 2, 3, 6]

    def test_klein_four_count(self):
        V = direct_product(make_cyclic(2), make_cyclic(2))
        subs = all_subgroups(V)
        assert [s.order for s in subs] == [1, 2, 2, 2, 4]

    def test_s3_subgroups_and_normality(self):
        G = symmetric_group(3)
        subs = all_subgroups(G)
        assert [s.order for s in subs] == [1, 2, 2, 2, 3, 6]
        normal_orders = sorted(s.order for s in subs if s.is_normal)
        assert normal_orders == [1, 3, 6]

    def test_lagrange_everywhere(self):
        for G in (make_cyclic(8), symmetric_group(3),
                  direct_product(make_cyclic(2), make_cyclic(4))):
            for s in all_subgroups(G):
                assert G.order % s.order == 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            all_subgroups(make_cyclic(12), cap=10)

    def test_enumeration_is_kept_on_the_group(self):
        G = make_cyclic(12)
        first = all_subgroups(G)
        first.pop()
        second = all_subgroups(G)
        assert len(second) == 6 and second is not first
        assert [s.elements for s in second] == [
            s.elements for s in all_subgroups(make_cyclic(12))]
        # the cap is checked before the kept result is read
        with pytest.raises(CapExceeded):
            all_subgroups(G, cap=10)

    def test_conjugacy_representatives_of_s4(self):
        G = symmetric_group(4)
        subs = all_subgroups(G)
        reps = conjugacy_representatives(G, subs)
        assert set(reps) == {s.elements for s in subs}
        firsts = {r.elements for r in reps.values()}
        assert len(firsts) == 11
        position = {s.elements: i for i, s in enumerate(subs)}
        for s in subs:
            r = reps[s.elements]
            assert position[r.elements] <= position[s.elements]
            assert reps[r.elements] is r
            assert any(tuple(sorted(G.conjugate(g, h) for h in r.elements))
                       == s.elements for g in G.elements)

    def test_abelian_subgroups_are_their_own_representatives(self):
        for G in (make_cyclic(12),
                  direct_product(make_cyclic(2), make_cyclic(4))):
            subs = all_subgroups(G)
            reps = conjugacy_representatives(G, subs)
            assert all(reps[s.elements] is s for s in subs)

    @pytest.mark.parametrize("seed", RELABEL_SEEDS)
    @pytest.mark.parametrize("name", sorted(RELABELED))
    def test_subgroups_follow_a_relabeling(self, name, seed):
        # the relabeled group's list is the image of the canonical list,
        # element for element, with the same normality and the same
        # partition into conjugacy classes
        G = RELABELED[name]
        perm = shuffled_ids(G.order, seed)
        H = relabel(G, seed)
        subs_G, subs_H = all_subgroups(G), all_subgroups(H)
        image = {s.elements: tuple(sorted(perm[g] for g in s.elements))
                 for s in subs_G}
        assert [(s.elements, s.is_normal) for s in subs_H] == sorted(
            ((image[s.elements], s.is_normal) for s in subs_G),
            key=lambda e: (len(e[0]), e[0]))

        def classes(K, subs, rename=lambda e: e):
            reps = conjugacy_representatives(K, subs)
            by_rep = {}
            for s in subs:
                by_rep.setdefault(reps[s.elements].elements, set()).add(
                    rename(s.elements))
            return {frozenset(c) for c in by_rep.values()}

        assert classes(H, subs_H) == classes(G, subs_G, image.__getitem__)

    def test_subgroup_closure_validated(self):
        with pytest.raises(ValidationError, match="closed"):
            subgroup(make_cyclic(4), [0, 1])

    def test_as_group_roundtrip(self):
        G = make_cyclic(6)
        H = subgroup(G, [0, 2, 4])
        Hg, embed = as_group(H)
        assert Hg.order == 3
        for a in range(3):
            for b in range(3):
                assert embed[Hg.mul(a, b)] == G.mul(embed[a], embed[b])


class TestCosets:
    def test_whole_group(self):
        G = make_cyclic(5)
        assert coset_representatives(G, whole_subgroup(G)) == [0]

    def test_cyclic_4_mod_2(self):
        G = make_cyclic(4)
        H = subgroup(G, [0, 2])
        reps = coset_representatives(G, H)
        assert reps == [0, 1]

    def test_s3_partition(self):
        G = symmetric_group(3)
        for H in all_subgroups(G):
            reps = coset_representatives(G, H)
            assert len(reps) == H.index
            assert reps[0] == G.identity
            seen = set()
            for r in reps:
                coset = {G.mul(r, h) for h in H.elements}
                assert not (coset & seen)
                seen |= coset
            assert len(seen) == G.order

    def test_right_transversal_covers(self):
        G = symmetric_group(3)
        for H in all_subgroups(G):
            reps = right_transversal(G, H)
            assert reps[0] == G.identity
            seen = set()
            for r in reps:
                seen |= {G.mul(h, r) for h in H.elements}
            assert len(seen) == G.order


class TestQuotientAndAbelianization:
    def test_quotient_z4_by_z2(self):
        G = make_cyclic(4)
        Q, proj = quotient_group(G, subgroup(G, [0, 2]))
        assert Q.order == 2
        assert proj == (0, 1, 0, 1)

    def test_quotient_nonnormal_rejected(self):
        G = symmetric_group(3)
        H = next(s for s in all_subgroups(G) if s.order == 2)
        with pytest.raises(ValidationError, match="normal"):
            quotient_group(G, H)

    def test_abelianization_cyclic(self):
        for n in (1, 2, 5, 6):
            ab, coords = abelianization(make_cyclic(n))
            expect = (n,) if n > 1 else ()
            assert ab.invariants() == expect
            assert coords[0] == tuple([0] * ab.ngens)

    def test_abelianization_s3_is_sign(self):
        G = symmetric_group(3)
        assert commutator_subgroup(G).order == 3
        ab, coords = abelianization(G)
        assert ab.invariants() == (2,)
        # exactly the three transpositions map to the nontrivial class
        nontrivial = [g for g in G.elements if coords[g] == (1,)]
        assert sorted(G.element_order(g) for g in nontrivial) == [2, 2, 2]

    def test_abelianization_klein(self):
        V = direct_product(make_cyclic(2), make_cyclic(2))
        ab, _ = abelianization(V)
        assert ab.invariants() == (2, 2)

    def test_projection_is_homomorphism(self):
        for G in (make_cyclic(6), symmetric_group(3),
                  direct_product(make_cyclic(2), make_cyclic(4)),
                  *RELABELINGS.values()):
            ab, coords = abelianization(G)
            for a in G.elements:
                for b in G.elements:
                    got = ab.reduce_coords(
                        [x + y for x, y in zip(coords[a], coords[b])]
                    )
                    assert got == coords[G.mul(a, b)]

    @pytest.mark.parametrize("name", sorted(COSET_CASES))
    def test_abelianization_matches_the_coset_presentation(self, name):
        # G^ab's canonical basis depends on the matrix eliminated, and the
        # reciprocity matrix is printed in it: the table route must give
        # the coset presentation's group, maps and coordinates exactly
        G = COSET_CASES[name]
        ab, coords = abelianization(G)
        ref, ref_coords = coset_abelianization(G)
        assert ab.invariants() == ref.invariants()
        assert ab.basis_lift.tolist() == ref.basis_lift.tolist()
        assert ab.reduce_map.tolist() == ref.reduce_map.tolist()
        assert coords == ref_coords

    def test_order_product_law(self):
        for G in (make_cyclic(6), symmetric_group(3), symmetric_group(4),
                  direct_product(make_cyclic(2), make_cyclic(2)),
                  *RELABELINGS.values()):
            ab, _ = abelianization(G)
            assert ab.order() * commutator_subgroup(G).order == G.order

    def test_trivial_subgroup_helper(self):
        G = symmetric_group(3)
        t = trivial_subgroup(G)
        assert t.order == 1 and t.is_normal
