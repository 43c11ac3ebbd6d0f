"""Tests for Tate hypercohomology: the classical pattern over two engines,
vanishing on the regular module, agreement with directly computed ordinary
cohomology, shift and window behavior, restriction and corestriction,
cup products, the degree -2 identification, the Tate-Nakayama checker,
cone order bookkeeping, and diagonal approximations."""

import numpy as np
import pytest

from tateform.cli import render_result
from tateform.errors import LiftingError, ValidationError, WindowError
from tateform.gcomplexes import GComplex, concentrate, shift
from tateform.gmodules import (
    finite_field_units,
    regular_module,
    zmodule,
)
from tateform.groups import (
    all_subgroups,
    direct_product,
    make_cyclic,
    right_transversal,
    subgroup,
    symmetric_group,
    whole_subgroup,
)
from tateform.intlinalg import intmat
from tateform.resolutions import (
    complete_resolution,
    free_full_matrix,
    resolution_for,
    validate_complete_resolution,
)
from tateform.tate import (
    ShiftLift,
    SubgroupPair,
    TateGroups,
    TotalComplex,
    _z_groups,
    coinduced,
    cone_les_check,
    cup_from_cochain,
    cup_with,
    diagonal_approximation,
    induced_map,
    iota_abelianization,
    remark_agreement,
    tate_hypercohomology,
    tate_nakayama_check,
)

from reference import (as_group, cor_class, herbrand_quotient,
                       trivial_cyclic, trivial_subgroup)
from subgroup_reference import restricted, subgroup_resolution

_cache = {}


def cyclic_setup(n, length=6, engine="periodic"):
    key = (n, length, engine)
    if key not in _cache:
        G = make_cyclic(n)
        X = complete_resolution(resolution_for(G, length, engine=engine))
        _cache[key] = (G, X)
    return _cache[key]


def klein_setup():
    if "klein" not in _cache:
        G = direct_product(make_cyclic(2), make_cyclic(2))
        X = complete_resolution(resolution_for(G, 5, engine="peeled"))
        _cache["klein"] = (G, X)
    return _cache["klein"]


def s3_setup():
    if "s3" not in _cache:
        G = symmetric_group(3)
        X = complete_resolution(resolution_for(G, 5, engine="peeled"))
        _cache["s3"] = (G, X)
    return _cache["s3"]


class TestClassicalPattern:
    """H^q(Z/n, Z): Z/n at even q, zero at odd q."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_periodic_engine(self, n):
        G, X = cyclic_setup(n)
        T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -4, 4)
        for q in range(-4, 5):
            expected = (n,) if q % 2 == 0 else ()
            assert T.invariants(q) == expected

    def test_trivial_group_vanishes_everywhere(self):
        G, X = cyclic_setup(1)
        T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -3, 3)
        for q in range(-3, 4):
            assert T.invariants(q) == ()

    def test_group_orders_kill_everything(self):
        # every class has order dividing |G|
        G, X = cyclic_setup(6)
        T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -2, 2)
        for q in range(-2, 3):
            for t in T.invariants(q):
                assert 6 % t == 0


class TestBarCrossCheck:
    """The same pattern out of the bar resolution, independently built."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_range(self, n):
        G, X = cyclic_setup(n, 5, "bar")
        T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -4, 4)
        for q in range(-4, 5):
            assert T.invariants(q) == ((n,) if q % 2 == 0 else ())

    def test_n6_inner_range(self):
        # window 4 keeps the biggest bar term at 1296 generators
        G, X = cyclic_setup(6, 4, "bar")
        T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -3, 3)
        for q in range(-3, 4):
            assert T.invariants(q) == ((6,) if q % 2 == 0 else ())


class TestRegularModuleVanishes:
    def test_cyclic(self):
        for n in (2, 4):
            G, X = cyclic_setup(n)
            T = tate_hypercohomology(X, concentrate(regular_module(G), 0), -3, 3)
            assert all(T.invariants(q) == () for q in range(-3, 4))

    def test_klein(self):
        G, X = klein_setup()
        T = tate_hypercohomology(X, concentrate(regular_module(G), 0), -3, 3)
        assert all(T.invariants(q) == () for q in range(-3, 4))

    def test_s3(self):
        G, X = s3_setup()
        T = tate_hypercohomology(X, concentrate(regular_module(G), 0), -3, 3)
        assert all(T.invariants(q) == () for q in range(-3, 4))


class TestRemarkAgreement:
    """Hypercohomology of a module in degree 0 equals the ordinary groups
    computed from fixed points, norms, and inhomogeneous cochains."""

    def test_z_over_small_cyclic(self):
        for n in (2, 3, 4):
            G, X = cyclic_setup(n)
            rows = remark_agreement(X, zmodule(G), -1, 2)
            assert all(ok for _, _, _, ok in rows)

    def test_torsion_modules(self):
        for n, k in ((2, 4), (3, 9), (4, 6)):
            G, X = cyclic_setup(n)
            rows = remark_agreement(X, trivial_cyclic(G, k), -1, 2)
            assert all(ok for _, _, _, ok in rows)

    def test_units_module(self):
        M = finite_field_units(2, 1, 2)
        G = M.group
        X = complete_resolution(resolution_for(G, 6, engine="periodic"))
        rows = remark_agreement(X, M, -1, 2)
        assert all(ok for _, _, _, ok in rows)

    def test_klein_regular(self):
        G, X = klein_setup()
        rows = remark_agreement(X, regular_module(G), -1, 2)
        assert all(ok for _, _, _, ok in rows)


class TestShiftIdentity:
    def test_shift_matches_degree_translation(self):
        G, X = cyclic_setup(4)
        C = concentrate(trivial_cyclic(G, 4), 0)
        base = tate_hypercohomology(X, C, -2, 2)
        for n in range(-2, 3):
            S = shift(C, n)
            TS = tate_hypercohomology(X, S, -2 - n, 2 - n)
            for q in range(-2, 3):
                assert TS.invariants(q - n) == base.invariants(q)


class TestHypercomplexes:
    def test_two_term_injection(self):
        # Z --2--> Z in degrees 0, 1 is quasi-isomorphic to Z/2 placed in
        # degree 1, so every degree shows Z/2
        G, X = cyclic_setup(2)
        Z = zmodule(G)
        C = GComplex(G, 0, [Z, Z], [intmat([[2]])], name="Z-2-Z")
        T = tate_hypercohomology(X, C, -2, 3)
        for q in range(-2, 4):
            assert T.invariants(q) == (2,)

    def test_window_guard(self):
        G, X = cyclic_setup(2, length=3)
        C = concentrate(zmodule(G), 0)
        with pytest.raises(WindowError):
            TotalComplex(X, C, -4, 4)

    def test_representatives_are_cocycles(self):
        G, X = cyclic_setup(4)
        T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -2, 2)
        for q in range(-2, 3):
            sq = T.subquotient(q)
            for i in range(sq.group.ngens):
                image = T.total.diff[q] @ sq.representative(i)
                assert T.total._in_relator_span(q + 1, image.reshape(-1, 1))


def _growth_setup(name):
    if name == "Z6-Z":
        G, X = cyclic_setup(6)
        return X, concentrate(zmodule(G), 0)
    if name == "S3-Z-at-2":
        G, X = s3_setup()
        return X, concentrate(zmodule(G), 2)
    if name == "Z4-regular":
        G, X = cyclic_setup(4)
        return X, concentrate(regular_module(G), 0)
    G, X = s3_setup()
    H = next(H for H in all_subgroups(G) if H.order == 2)
    return X, coinduced(concentrate(zmodule(G), 0), H)


class TestGrowth:
    """A total complex and its groups grow by degree: whatever the order of
    the reads, the result is that of one build over their union."""

    @pytest.mark.parametrize("name", ["Z6-Z", "S3-Z-at-2", "Z4-regular",
                                      "S3-coinduced"])
    @pytest.mark.parametrize("reads", [
        [(1, 2), (-2, 3)],
        [(-2, -2), (3, 3), (-2, 3)],
        [(0, 0), (2, 2), (1, 1)],
    ], ids=["inside-out", "ends-then-all", "gaps-filled"])
    def test_any_read_order_gives_one_builds_result(self, name, reads):
        X, C = _growth_setup(name)
        grown = [tate_hypercohomology(X, C, lo, hi) for lo, hi in reads]
        T = grown[0]
        assert all(t is T for t in grown)
        lo = min(r[0] for r in reads)
        hi = max(r[1] for r in reads)
        one = TateGroups(TotalComplex(X, C, lo, hi), lo, hi)
        mine, theirs = T.total, one.total
        assert mine.blocks.keys() == theirs.blocks.keys()
        for q in theirs.blocks:
            assert ([(b.j, b.s, b.rank, b.gens, b.offset)
                     for b in mine.blocks[q]]
                    == [(b.j, b.s, b.rank, b.gens, b.offset)
                        for b in theirs.blocks[q]]), q
        assert mine.dim == theirs.dim
        for part in ("rel", "diff"):
            a, b = getattr(mine, part), getattr(theirs, part)
            assert a.keys() == b.keys(), part
            for q in b:
                assert np.array_equal(a[q], b[q]), (part, q)
        for q in range(lo, hi + 1):
            assert T.invariants(q) == one.invariants(q), q
            reps = [one.representative(q, i)
                    for i in range(one.group(q).ngens)]
            for i, rep in enumerate(reps):
                assert np.array_equal(T.representative(q, i), rep), (q, i)
            # each representative, and a combination moved by a coboundary
            boundary = theirs.diff[q - 1] @ np.ones(theirs.dim[q - 1],
                                                    dtype=object)
            for v in reps + [sum((i + 2) * r for i, r in enumerate(reps))
                             + boundary]:
                assert T.classify(q, v) == one.classify(q, v), q

    def test_a_kept_object_refuses_an_empty_range(self):
        G, X = cyclic_setup(6)
        C = concentrate(zmodule(G), 0)
        tate_hypercohomology(X, C, 0, 2)
        with pytest.raises(ValidationError, match=r"empty degree range \[2, 1\]"):
            tate_hypercohomology(X, C, 2, 1)

    @pytest.mark.parametrize("held, asked, corrupt, pair", [
        ((0, 1), (2, 2), 2, 1),
        ((2, 3), (1, 1), 0, 0),
    ], ids=["above", "below"])
    def test_the_audit_spans_covers(self, monkeypatch, held, asked, corrupt,
                                    pair):
        # over Z/6 with Z the differentials alternate 0 (even q) and 6 (odd
        # q): a later cover's d^q with 1 added where it was 0 fails d o d
        # against the 6 built by the earlier cover next to it
        G, X = cyclic_setup(6)
        original = TotalComplex._assemble

        def corrupted(self, q):
            D = original(self, q)
            return D + 1 if q == corrupt else D

        monkeypatch.setattr(TotalComplex, "_assemble", corrupted)
        total = TotalComplex(X, concentrate(zmodule(G), 0), *held)
        with pytest.raises(ValidationError,
                           match="fails d o d = 0 at degree %d$" % pair):
            total.cover(*asked)


class TestRestrictionCorestriction:
    def test_res_to_whole_group_is_identity(self):
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        pair = SubgroupPair(X, C, whole_subgroup(G), 2, 2)
        assert pair.tate_H.invariants(2) == (4,)
        res = induced_map(pair.tate_G, pair.tate_H, pair.res_cochain(2), 2, 2)
        assert res.matrix.tolist() == [[1]]

    def test_res_generator_z4_to_z2(self):
        # character restriction: the order-4 character with value 1/4 on
        # the generator restricts to value 1/2 on the subgroup generator,
        # so the restriction hits a generator of H^2(H) = Z/2
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        H = subgroup(G, [2])
        pair = SubgroupPair(X, C, H, 2, 2)
        gen = pair.tate_G.class_at(2, (1,))
        res = pair.res_class(gen)
        assert pair.tate_H.invariants(2) == (2,)
        assert res.coords == (1,)
        assert res.order == 2

    def test_res_to_trivial_kills(self):
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        pair = SubgroupPair(X, C, trivial_subgroup(G), 2, 2)
        assert pair.tate_H.invariants(2) == ()
        gen = pair.tate_G.class_at(2, (1,))
        assert pair.res_class(gen).is_zero()

    @pytest.mark.parametrize("q", [-2, -1, 0, 1, 2])
    def test_cor_res_is_index_multiplication_z4(self, q):
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        for H in all_subgroups(G):
            pair = SubgroupPair(X, C, H, q, q)
            idx = G.order // H.order
            grp = pair.tate_G.group(q)
            for i in range(grp.ngens):
                coords = tuple(1 if j == i else 0 for j in range(grp.ngens))
                x = pair.tate_G.class_at(q, coords)
                lhs = cor_class(pair, pair.res_class(x))
                rhs = pair.tate_G.class_at(
                    q, tuple(idx * c for c in x.coords))
                assert lhs.coords == rhs.coords

    def test_cor_res_klein(self):
        G, X = klein_setup()
        C = concentrate(zmodule(G), 0)
        for H in all_subgroups(G):
            pair = SubgroupPair(X, C, H, 0, 0)
            idx = G.order // H.order
            grp = pair.tate_G.group(0)
            for i in range(grp.ngens):
                coords = tuple(1 if j == i else 0 for j in range(grp.ngens))
                x = pair.tate_G.class_at(0, coords)
                lhs = cor_class(pair, pair.res_class(x))
                rhs = pair.tate_G.class_at(0, tuple(idx * c for c in x.coords))
                assert lhs.coords == rhs.coords

    def test_cor_cochain_from_trivial_is_translation_sum(self):
        # transfer from the trivial subgroup sums translates: the block of
        # the degree-0 transfer at H-generator k is the action of g_k^{-1},
        # so the image of a constant cochain is its norm
        G, X = cyclic_setup(4)
        M = trivial_cyclic(G, 9)
        C = concentrate(M, 0)
        H = trivial_subgroup(G)
        pair = SubgroupPair(X, C, H, 0, 0)
        cmat = pair.cor_cochain(0)
        g = M.gens
        for k, gk in enumerate(right_transversal(G, H)):
            blk = cmat[:, k * g:(k + 1) * g]
            assert np.array_equal(blk, M.act(G.inv(gk)))

    def test_subgroup_model_is_byte_identical_for_whole_group(self):
        # G coinduced from itself is C, so G's side of a SubgroupPair and
        # its H side are X's own groups of C
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        assert coinduced(C, whole_subgroup(G)) is C
        pair = SubgroupPair(X, C, whole_subgroup(G), -2, 1)
        assert pair.tate_H is pair.tate_G
        assert pair.tate_G is tate_hypercohomology(X, C, -2, 1)

    @pytest.mark.parametrize("setup", [s3_setup, klein_setup,
                                       lambda: cyclic_setup(6)],
                             ids=["S3", "C2xC2", "Z6"])
    def test_subgroup_model_relabels_every_degree(self, setup):
        # H's total complex on X with coinduced coefficients against the
        # one over H's own resolution, X relabeled into a FreeResolution
        # over H with C restricted by restrict_module: the same matrices
        # at every degree, so the same generators and coordinates; and
        # H's resolution passes the exactness audit at every degree
        G, X = setup()
        for H in all_subgroups(G):
            Y = subgroup_resolution(X, H)
            assert Y.group is as_group(H)[0]
            assert Y.window == X.window
            for q in range(-X.window, X.window):
                assert Y.rank(q) == X.rank(q) * H.index
            assert validate_complete_resolution(Y).passed, H.elements
            for C in (concentrate(zmodule(G), 0), concentrate(zmodule(G), 2),
                      concentrate(regular_module(G), 0)):
                mine = TotalComplex(X, coinduced(C, H), -2, 2)
                theirs = TotalComplex(Y, restricted(C, H), -2, 2)
                assert mine.diff.keys() == theirs.diff.keys()
                for q in mine.diff:
                    assert np.array_equal(mine.diff[q], theirs.diff[q]), q
                assert mine.rel.keys() == theirs.rel.keys()
                for q in mine.rel:
                    assert np.array_equal(mine.rel[q], theirs.rel[q]), q


class TestCupProducts:
    def test_zero_class_gives_zero_map(self):
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, 0, 2)
        zero = T.class_at(2, (0,))
        cup = cup_with(X, C, zero, 0)
        assert all(v == 0 for v in cup.matrix.ravel())
        assert not cup.is_isomorphism()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_generator_gives_periodicity_isomorphisms(self, n):
        G, X = cyclic_setup(n)
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, -2, 3)
        a = T.class_at(2, (1,))
        for q in range(-2, 4):
            assert cup_with(X, C, a, q).is_isomorphism()

    @pytest.mark.parametrize("setup", ["Z6", "S3"])
    def test_one_z_group_over_the_range_gives_the_same_cups(self, setup):
        # a total complex's blocks, differentials and relators at a degree
        # do not depend on the covers that built it, so the Z groups grown
        # one degree per cup give every degree the generators of one build
        # over [-4, 1]
        def fresh():
            if setup == "Z6":
                G = make_cyclic(6)
                X = complete_resolution(resolution_for(G, 6, "periodic"))
            else:
                G = symmetric_group(3)
                X = complete_resolution(resolution_for(G, 5, "peeled"))
            C = concentrate(zmodule(G), 2)
            return X, C, tate_hypercohomology(X, C, 2, 2).class_at(2, (1,))

        def cups(X, C, a):
            return ([cup_with(X, C, a, q) for q in range(-2, 4)],
                    iota_abelianization(X))

        X1, C1, a1 = fresh()
        alone, io_alone = cups(X1, C1, a1)
        X2, C2, a2 = fresh()
        tate_hypercohomology(X2, C2, -2, 3)
        _z_groups(X2, -4, 1)
        shared, io_shared = cups(X2, C2, a2)
        for X in (X1, X2):
            T = X._tate["Z"].groups
            assert sorted(T.total.diff) == list(range(-5, 2))
            assert all(_z_groups(X, p, p) is T for p in range(-4, 2))
        for q, one, wide in zip(range(-2, 4), alone, shared):
            assert wide.matrix.tolist() == one.matrix.tolist(), q
            assert wide.source.invariants() == one.source.invariants(), q
            assert wide.target.invariants() == one.target.invariants(), q
        assert io_shared.matrix.tolist() == io_alone.matrix.tolist()
        assert io_shared.source.invariants() == io_alone.source.invariants()

    def test_non_generator_is_not_isomorphism(self):
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, 0, 2)
        a2 = T.class_at(2, (2,))
        cup = cup_with(X, C, a2, 0)
        assert cup.matrix.tolist() == [[2]]
        assert not cup.is_isomorphism()

    def test_representative_independence(self):
        # perturb the canonical cocycle by a coboundary: same induced map
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, 0, 2)
        a = T.class_at(2, (1,))
        vec = T.element(2, a.coords)
        eta = np.zeros(T.total.dim[1], dtype=object)
        if eta.size:
            eta[0] = 3
        vec2 = vec + T.total.diff[1] @ eta
        m1 = cup_from_cochain(X, C, vec, 0).matrix
        m2 = cup_from_cochain(X, C, vec2, 0).matrix
        assert np.array_equal(m1, m2)

    def test_cup_at_degree_two_sends_one_to_a(self):
        # q = 2: the source is H^0 = Z/n generated by the unit class, and
        # cupping the unit with a returns a itself
        G, X = cyclic_setup(3)
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, 0, 2)
        a = T.class_at(2, (1,))
        cup = cup_with(X, C, a, 2)
        assert cup.apply((1,)) == (1,)

    def test_naturality_under_restriction(self):
        # res(x cup a) = res(x) cup res(a) for Z/4 over its Z/2 subgroup
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        H = subgroup(G, [2])
        T = tate_hypercohomology(X, C, -2, 3)
        a = T.class_at(2, (1,))
        pair2 = SubgroupPair(X, C, H, 2, 2)
        res_a = pair2.res_class(a)
        # cups over H on H's own resolution: its groups carry the same
        # coordinates as the coinduced ones that res_a is read in
        model = subgroup_resolution(X, H)
        CH = restricted(C, H)
        for q in (0, 2):
            cupG = cup_with(X, C, a, q)
            pairq = SubgroupPair(X, C, H, q, q)
            # walk the generators of H^{q-2}(G, Z)
            zc = concentrate(zmodule(G), 0)
            tz = tate_hypercohomology(X, zc, q - 2, q - 2)
            zpair = SubgroupPair(X, zc, H, q - 2, q - 2)
            cupH = cup_with(model, CH, res_a, q)
            for i in range(tz.group(q - 2).ngens):
                coords = tuple(
                    1 if j == i else 0 for j in range(tz.group(q - 2).ngens))
                left = pairq.res_class(
                    pairq.tate_G.class_at(q, cupG.apply(coords)))
                right = cupH.apply(
                    zpair.res_class(zpair.tate_G.class_at(q - 2, coords)).coords)
                assert left.coords == tuple(right)


_LIFT_SETUPS = {
    "periodic-Z4": lambda: cyclic_setup(4),
    "periodic-Z6": lambda: cyclic_setup(6),
    "peeled-S3": s3_setup,
    "peeled-C2xC2": klein_setup,
    "bar-Z3": lambda: cyclic_setup(3, 4, "bar"),
}


class TestUpwardLift:
    """ShiftLift above its anchor, where each component is the dual of a
    component of the transposed chain map Xi*, lifted downward by the same
    loop as the components below the anchor."""

    @pytest.mark.parametrize("p", [-2, 0, 2])
    @pytest.mark.parametrize("name", sorted(_LIFT_SETUPS))
    def test_chain_squares_commute(self, name, p):
        G, X = _LIFT_SETUPS[name]()
        tz = tate_hypercohomology(X, concentrate(zmodule(G), 0), p, p)
        sign = -1 if p % 2 else 1
        s_hi = -p + 2
        for i in range(tz.group(p).ngens):
            xi = ShiftLift(X, tz.representative(p, i), p, -p, s_hi)
            assert sorted(xi.gen) == list(range(-p, s_hi + 1))
            for s in range(-p, s_hi):
                # full matrices on both sides, not the generator shortcut
                up = free_full_matrix(G, X.rank(s + 1 + p), xi.gen[s + 1])
                here = free_full_matrix(G, X.rank(s + p), xi.gen[s])
                assert np.array_equal(up @ X.full_diff(s),
                                      sign * (X.full_diff(s + p) @ here)), s

    @pytest.mark.parametrize("name, n, coords, want", [
        # computed with the dense equivariant solve the transposed lift
        # replaced; cup classes do not depend on the chosen lift
        ("periodic-Z4", 4, (3,), {-1: [[]], 0: [[3]], 1: [[]], 2: [[3]]}),
        ("peeled-S3", 2, (1,), {-1: [[]], 0: [[1]], 1: [[]], 2: [[1]]}),
    ])
    def test_cup_on_degree_three_module(self, name, n, coords, want):
        # C in degree 3 puts every cup lift above its anchor
        G, X = _LIFT_SETUPS[name]()
        C = concentrate(trivial_cyclic(G, n), 3)
        for q in range(-1, 3):
            T = tate_hypercohomology(X, C, min(q, 2), max(q, 2))
            cup = cup_with(X, C, T.class_at(2, coords), q)
            assert cup.matrix.tolist() == want[q], q


class TestIota:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cyclic_isomorphism(self, n):
        G, X = cyclic_setup(n)
        io = iota_abelianization(X)
        assert io.source.invariants() == (n,)
        assert io.target.invariants() == (n,)
        assert io.is_isomorphism()

    def test_klein(self):
        G, X = klein_setup()
        io = iota_abelianization(X)
        assert io.source.invariants() == (2, 2)
        assert io.target.invariants() == (2, 2)
        assert io.is_isomorphism()

    def test_s3_sees_only_the_abelianization(self):
        G, X = s3_setup()
        io = iota_abelianization(X)
        assert io.target.invariants() == (2,)
        assert io.is_isomorphism()


class TestTateNakayama:
    def test_z4_with_z_passes(self):
        G, X = cyclic_setup(4)
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, 2, 2)
        a = T.class_at(2, (1,))
        rep = tate_nakayama_check(X, C, a, -2, 3)
        assert rep.verdict == "PASS"
        assert len(rep.h1_rows) == 3 and len(rep.res_rows) == 3
        assert all(ok for _, _, ok in rep.h1_rows)
        assert all(ok for *_, ok in rep.res_rows)
        assert [q for q, *_ in rep.conclusion] == list(range(-2, 4))

    def test_klein_with_z_fails_at_ii(self):
        G, X = klein_setup()
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, 2, 2)
        assert T.invariants(2) == (2, 2)
        a = T.class_at(2, (1, 0))
        rep = tate_nakayama_check(X, C, a, 0, 1)
        assert rep.verdict == "FAIL (ii)"
        assert all(ok for _, _, ok in rep.h1_rows)
        assert rep.conclusion == []

    def test_regular_module_fails_at_ii(self):
        G, X = cyclic_setup(2)
        C = concentrate(regular_module(G), 0)
        T = tate_hypercohomology(X, C, 2, 2)
        assert T.invariants(2) == ()
        a = T.class_at(2, ())
        rep = tate_nakayama_check(X, C, a, 0, 1)
        assert rep.verdict == "FAIL (ii)"

    def test_units_module_fails_at_ii(self):
        M = finite_field_units(2, 1, 2)
        G = M.group
        X = complete_resolution(resolution_for(G, 6, engine="periodic"))
        C = concentrate(M, 0)
        T = tate_hypercohomology(X, C, 2, 2)
        assert T.invariants(2) == ()
        a = T.class_at(2, ())
        rep = tate_nakayama_check(X, C, a, 0, 1)
        assert rep.verdict == "FAIL (ii)"


class TestHilbert90:
    @pytest.mark.parametrize("pfn", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
    def test_h1_of_units_vanishes(self, pfn):
        p, f, n = pfn
        M = finite_field_units(p, f, n)
        X = complete_resolution(resolution_for(M.group, 6, engine="periodic"))
        T = tate_hypercohomology(X, concentrate(M, 0), 1, 1)
        assert T.invariants(1) == ()

    def test_herbrand_trivial_for_finite_modules(self):
        for n in (2, 3, 4):
            G = make_cyclic(n)
            for k in (2, 5, 8, 9):
                a, b = herbrand_quotient(trivial_cyclic(G, k))
                assert a == b
        for pfn in ((2, 1, 2), (3, 1, 2), (2, 1, 3)):
            a, b = herbrand_quotient(finite_field_units(*pfn))
            assert a == b


class TestConeOrders:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_z2_with_z(self, m):
        G, X = cyclic_setup(2)
        C = concentrate(zmodule(G), 0)
        rep = cone_les_check(X, C, m, -2, 2)
        assert rep.passed, "\n".join(render_result(rep.as_dict()))

    def test_z4_torsion_module(self):
        G, X = cyclic_setup(4)
        C = concentrate(trivial_cyclic(G, 4), 0)
        rep = cone_les_check(X, C, 2, -2, 2)
        assert rep.passed, "\n".join(render_result(rep.as_dict()))

    def test_coprime_multiplier_gives_trivial_cone_groups(self):
        G, X = cyclic_setup(2)
        C = concentrate(zmodule(G), 0)
        rep = cone_les_check(X, C, 3, -1, 1)
        assert rep.passed
        for _, lhs, quot, tors, _ in rep.rows:
            assert (lhs, quot, tors) == (1, 1, 1)


class TestDiagonal:
    def test_trivial_group_identities(self):
        G, X = cyclic_setup(1)
        d = diagonal_approximation(X, 3)
        assert all(m.shape == (1, 1) and m[0, 0] == 1 for m in d.gen.values())
        assert len(d.verified) > 0

    def test_normalization(self):
        G, X = cyclic_setup(2)
        d = diagonal_approximation(X, 2)
        center = d.gen[(0, 0)]
        assert center[0, 0] == 1
        assert sum(1 for v in center.ravel() if v != 0) == 1

    def test_z2_depth4_small_entries(self):
        G, X = cyclic_setup(2)
        d = diagonal_approximation(X, 4)
        entries = {int(v) for m in d.gen.values() for v in m.ravel()}
        assert entries <= {-1, 0, 1}
        assert len(d.verified) >= 40

    def test_rejects_noncyclic(self):
        G, X = klein_setup()
        with pytest.raises(ValidationError):
            diagonal_approximation(X, 2)

    def test_rejects_bar_resolution(self):
        G, X = cyclic_setup(2, 5, "bar")
        with pytest.raises(ValidationError):
            diagonal_approximation(X, 2)

    def test_window_guard(self):
        G, X = cyclic_setup(2, length=3)
        with pytest.raises(WindowError):
            diagonal_approximation(X, 4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cup_routes_agree(self, n):
        from tateform.tate import cup_via_diagonal

        G, X = cyclic_setup(n)
        C = concentrate(zmodule(G), 0)
        diag = diagonal_approximation(X, 4)
        T = tate_hypercohomology(X, C, -2, 2)
        a = T.class_at(2, (1,))
        a_vec = T.element(2, a.coords)
        for q in (-2, 0, 2):
            p = q - 2
            tz = tate_hypercohomology(X, concentrate(zmodule(G), 0), p, p)
            comp = cup_with(X, C, a, q)
            grp = T.group(q)
            for i in range(tz.group(p).ngens):
                via = cup_via_diagonal(X, diag, C, tz.representative(p, i),
                                       p, a_vec, T, q)
                direct = tuple(comp.matrix[:, i])
                neg = grp.reduce_coords(
                    -np.array(list(direct), dtype=object))
                assert tuple(via) in (direct, tuple(neg))

    @pytest.mark.parametrize("labels", [(2, 0, 3, 1), (3, 5, 0, 4, 1, 2)])
    def test_closed_form_on_relabelled_tables(self, labels):
        """Z/n with element k named labels[k]: the identity is not id 0
        and the generator read off d^-1 is not id 1."""
        from tateform.groups import from_table
        from tateform.resolutions import periodic_resolution
        from tateform.tate import cup_via_diagonal

        n = len(labels)
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[labels[i]][labels[j]] = labels[(i + j) % n]
        G = from_table(table)
        X = complete_resolution(periodic_resolution(G, 6))
        diag = diagonal_approximation(X, 4)
        assert len(diag.verified) == 48
        C = concentrate(zmodule(G), 0)
        T = tate_hypercohomology(X, C, -2, 2)
        a = T.class_at(2, (1,))
        a_vec = T.element(2, a.coords)
        for q in (-2, 0, 2):
            p = q - 2
            tz = tate_hypercohomology(X, C, p, p)
            comp = cup_with(X, C, a, q)
            for i in range(tz.group(p).ngens):
                via = cup_via_diagonal(X, diag, C, tz.representative(p, i),
                                       p, a_vec, T, q)
                direct = tuple(comp.matrix[:, i])
                neg = T.group(q).reduce_coords(
                    -np.array(list(direct), dtype=object))
                assert tuple(via) in (direct, tuple(neg))

    @staticmethod
    def hand_built_z3(minus_entries):
        """Rank-one resolution of Z/3 whose odd differentials carry the
        given {element: coefficient} column and whose even ones are N."""
        from tateform.resolutions import FreeResolution, GenLists

        G = make_cyclic(3)
        minus = np.zeros((3, 1), dtype=object)
        for g, c in minus_entries.items():
            minus[g, 0] = c
        norm = np.ones((3, 1), dtype=object)
        aug = np.ones((1, 3), dtype=object)
        return complete_resolution(FreeResolution(
            G, 6, lambda _, i: GenLists.of(minus if i % 2 else norm), aug))

    def test_accepts_other_generator(self):
        X = self.hand_built_z3({2: 1, 0: -1})  # sigma^2 - 1
        assert len(diagonal_approximation(X, 4).verified) == 48

    def test_refuses_unsupported_differential_up_front(self):
        X = self.hand_built_z3({0: 1, 1: -1})  # 1 - sigma
        with pytest.raises(ValidationError, match="periodic engine"):
            diagonal_approximation(X, 4)
