"""Tests for free and complete resolutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform.errors import CapExceeded, ValidationError
from tateform.groups import direct_product, from_table, make_cyclic, symmetric_group
from tateform.intlinalg import (
    LatticeSolver,
    hstack,
    intmat,
    is_zero,
    kernel_basis,
    lattice_basis,
    zeros,
)
from tateform.resolutions import (
    SpanQuotient,
    bar_resolution,
    complete_resolution,
    dual_gen,
    free_full_matrix,
    peeled_resolution,
    periodic_resolution,
    resolution_for,
    validate_complete_resolution,
)
from test_differential import relabel


class TestFreeFullMatrix:
    def test_rank_one_identity_gen(self):
        G = make_cyclic(3)
        gen = intmat([[1], [0], [0]])
        full = free_full_matrix(G, 1, gen)
        # (0, e) -> (0, e) extends to the identity on Z[G]
        assert np.array_equal(full, np.eye(3, dtype=object))

    def test_sigma_minus_one(self):
        G = make_cyclic(3)
        gen = intmat([[-1], [1], [0]])  # image of generator = sigma - e
        full = free_full_matrix(G, 1, gen)
        P = np.zeros((3, 3), dtype=object)
        for t in range(3):
            P[(t + 1) % 3, t] = 1
        assert np.array_equal(full, P - np.eye(3, dtype=object))


_DUAL_GROUPS = [make_cyclic(1), make_cyclic(4), symmetric_group(3),
                direct_product(make_cyclic(2), make_cyclic(2))]


@st.composite
def generator_matrices(draw):
    G = draw(st.sampled_from(_DUAL_GROUPS))
    s = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=0, max_value=3))
    entries = draw(st.lists(st.integers(min_value=-4, max_value=4),
                            min_size=s * G.order * r,
                            max_size=s * G.order * r))
    return G, s, np.array(entries, dtype=object).reshape(s * G.order, r)


@settings(max_examples=100, deadline=None)
@given(generator_matrices())
def test_dual_gen_is_the_transposed_full_matrix(data):
    G, s, gen = data
    n, e = G.order, G.identity
    r = gen.shape[1]
    dual = dual_gen(G, s, gen)
    cols = [a * n + e for a in range(s)]
    assert np.array_equal(dual, free_full_matrix(G, s, gen).T[:, cols])
    # the transpose of an equivariant map is equivariant
    assert np.array_equal(free_full_matrix(G, r, dual),
                          free_full_matrix(G, s, gen).T)
    assert np.array_equal(dual_gen(G, r, dual), gen)


def test_dual_gen_checks_shape():
    with pytest.raises(ValidationError):
        dual_gen(make_cyclic(3), 2, intmat([[1], [0], [0]]))


class TestBar:
    def test_trivial_group_alternation(self):
        G = make_cyclic(1)
        res = bar_resolution(G, 4)
        assert res.ranks == [1, 1, 1, 1, 1]
        for i in range(1, 5):
            expected = 0 if i % 2 == 1 else 1
            assert res.d_gen(i)[0, 0] == expected

    def test_z2_ranks(self):
        res = bar_resolution(make_cyclic(2), 3)
        assert res.ranks == [1, 2, 4, 8]
        assert [res.ranks[i] * 2 for i in range(4)] == [2, 4, 8, 16]

    def test_d1_is_g_minus_one(self):
        G = make_cyclic(3)
        res = bar_resolution(G, 1)
        d1 = res.d_gen(1)
        for g in range(3):
            col = d1[:, g]
            expected = np.zeros(3, dtype=object)
            expected[g] += 1
            expected[0] -= 1
            assert np.array_equal(col, expected)

    def test_composite_vanishes(self):
        G = make_cyclic(2)
        res = bar_resolution(G, 3)
        assert is_zero(res.aug @ res.full(1))
        for i in range(2, 4):
            assert is_zero(res.full(i - 1) @ res.full(i))

    def test_exactness_z3(self):
        res = bar_resolution(make_cyclic(3), 3)
        assert validate_complete_resolution(complete_resolution(res)).passed

    def test_cap(self):
        with pytest.raises(CapExceeded):
            bar_resolution(symmetric_group(3), 5)


class TestPeriodic:
    def test_needs_cyclic(self):
        with pytest.raises(ValidationError):
            periodic_resolution(symmetric_group(3), 2)

    def test_trivial_group_degenerate(self):
        res = periodic_resolution(make_cyclic(1), 4)
        for i in range(1, 5):
            assert res.d_gen(i)[0, 0] == (0 if i % 2 == 1 else 1)

    def test_z4_matrices(self):
        res = periodic_resolution(make_cyclic(4), 4)
        P = np.zeros((4, 4), dtype=object)
        for t in range(4):
            P[(t + 1) % 4, t] = 1
        I = np.eye(4, dtype=object)
        norm = I + P + P @ P + P @ P @ P
        assert np.array_equal(res.full(1), P - I)
        assert np.array_equal(res.full(2), norm)
        assert np.array_equal(res.full(3), P - I)

    def test_exactness_z6(self):
        res = periodic_resolution(make_cyclic(6), 4)
        assert validate_complete_resolution(complete_resolution(res)).passed


def _table_group(elements, mul, name):
    return from_table([[elements.index(mul(a, b)) for b in elements]
                       for a in elements], name=name)


def _hamilton(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


PEEL_GROUPS = {
    "S3": symmetric_group(3),
    # r^i s^j, with s r = r^-1 s
    "D4": _table_group([(i, j) for j in range(2) for i in range(4)],
                       lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4,
                                     x[1] ^ y[1]), "D4"),
    # +-1, +-i, +-j, +-k as quaternions
    "Q8": _table_group([tuple(s * (k == i) for k in range(4))
                        for s in (1, -1) for i in range(4)], _hamilton, "Q8"),
    "S4": symmetric_group(4),
}


class TestPeeled:
    def test_klein_exact(self):
        G = direct_product(make_cyclic(2), make_cyclic(2))
        res = peeled_resolution(G, 4)
        assert validate_complete_resolution(complete_resolution(res)).passed

    def test_s3_exact(self):
        res = peeled_resolution(symmetric_group(3), 4)
        assert validate_complete_resolution(complete_resolution(res)).passed

    def test_cyclic_matches_minimal_rank(self):
        res = peeled_resolution(make_cyclic(4), 3)
        # the augmentation ideal of a cyclic group is principal over the
        # group ring, so peeling should not inflate ranks much
        assert all(r <= 3 for r in res.ranks)

    @pytest.mark.parametrize("name, seed", [
        ("S3", None), ("S3", 2), ("D4", None), ("D4", 0), ("Q8", None),
        ("Q8", 0), ("S4", None), ("S4", 1), ("S4", 2)])
    def test_quotient_membership_matches_the_lattice(self, name, seed):
        # every degree of the peel replayed kernel column by kernel column:
        # the quotient's verdict equals a fresh lattice_basis of the orbits
        # chosen so far, the one product over the remaining columns finds
        # the same next column, and the chosen columns are the peel's.
        # The relabelings are ones whose quotients carry torsion rows
        G = PEEL_GROUPS[name]
        if seed is not None:
            G = relabel(G, seed)
        res = peeled_resolution(G, 3 if name == "S4" else 4)
        kernel = kernel_basis(res.aug)
        for i in range(1, res.length + 1):
            m = kernel.shape[0]
            span, orbits, chosen = SpanQuotient(m), [], []
            lattice = lattice_basis(zeros(m, 0))
            start = 0  # the column after the last chosen one
            for j in range(kernel.shape[1]):
                v = kernel[:, j:j + 1]
                inside = span.first_outside(v) is None
                assert inside == lattice.contains(v[:, 0])
                if inside:
                    continue
                assert span.first_outside(kernel, start) == j
                start = j + 1
                chosen.append(v)
                orbits.append(free_full_matrix(G, m // G.order, v))
                span.add(orbits[-1])
                lattice = lattice_basis(hstack(orbits))
            assert span.first_outside(kernel) is None
            assert np.array_equal(hstack(chosen), res.dgens[i])
            kernel = kernel_basis(res.full(i))

    def test_dispatch(self):
        assert resolution_for(make_cyclic(5), 2).engine == "periodic"
        assert resolution_for(symmetric_group(3), 2).engine == "peeled"
        assert resolution_for(make_cyclic(2), 2, engine="bar").engine == "bar"
        with pytest.raises(ValidationError):
            resolution_for(make_cyclic(2), 2, engine="mystery")


class TestComplete:
    def test_ranks_mirror(self):
        res = bar_resolution(make_cyclic(2), 3)
        X = complete_resolution(res)
        assert X.window == 3
        assert [X.rank(q) for q in range(-3, 4)] == [8, 4, 2, 1, 1, 2, 4]

    def test_z2_splice_is_norm(self):
        res = periodic_resolution(make_cyclic(2), 4)
        X = complete_resolution(res)
        assert np.array_equal(X.full_diff(0), intmat([[1, 1], [1, 1]]))

    def test_dual_gen_matches_full_transpose(self):
        # reference: generator columns (b, e) of the transposed full matrix
        C2 = make_cyclic(2)
        for res in (periodic_resolution(make_cyclic(4), 3),
                    periodic_resolution(make_cyclic(6), 4),
                    peeled_resolution(symmetric_group(3), 4),
                    peeled_resolution(direct_product(C2, C2), 4),
                    bar_resolution(make_cyclic(3), 3)):
            X = complete_resolution(res)
            n, e = res.group.order, res.group.identity
            for q in range(1, X.window):
                cols = [b * n + e for b in range(res.ranks[q - 1])]
                assert np.array_equal(X.diff_gen(q), res.full(q).T[:, cols])

    def test_window_bounds(self):
        X = complete_resolution(periodic_resolution(make_cyclic(2), 2))
        with pytest.raises(ValidationError):
            X.rank(3)
        with pytest.raises(ValidationError):
            X.diff_gen(2)

    def test_composites_vanish_through_splice(self):
        X = complete_resolution(periodic_resolution(make_cyclic(3), 3))
        for q in range(-3, 2):
            assert is_zero(X.full_diff(q + 1) @ X.full_diff(q))


class TestValidation:
    def test_periodic_z6_window_exact(self):
        X = complete_resolution(periodic_resolution(make_cyclic(6), 4))
        audit = validate_complete_resolution(X)
        assert audit.passed
        assert audit.augmented_segment == "exact"
        assert audit.splice == "exact"
        assert all(v == "exact" for _, _, v in audit.entries)

    def test_bar_z2_window_exact(self):
        X = complete_resolution(bar_resolution(make_cyclic(2), 4))
        audit = validate_complete_resolution(X)
        assert audit.passed

    def test_peeled_klein_window_exact(self):
        G = direct_product(make_cyclic(2), make_cyclic(2))
        X = complete_resolution(peeled_resolution(G, 4))
        audit = validate_complete_resolution(X)
        assert audit.passed

    def test_tampered_differential_detected(self):
        X = complete_resolution(periodic_resolution(make_cyclic(2), 3))
        X.full_diff(-1)  # populate cache, then corrupt it
        X._full_cache[-1] = np.zeros((2, 2), dtype=object)
        audit = validate_complete_resolution(X)
        assert not audit.passed
        failures = [q for q, _, v in audit.entries if v.startswith("FAIL")]
        assert failures or audit.augmented_segment.startswith("FAIL")

    def test_size_skip_reported(self):
        X = complete_resolution(bar_resolution(make_cyclic(3), 4))
        audit = validate_complete_resolution(X, max_zdim=30)
        assert any(v == "skipped (size)" for _, _, v in audit.entries)

    @pytest.mark.parametrize("max_zdim", [2, 30])
    def test_skipped_degree_does_not_pass(self, max_zdim):
        # 2 skips all six interior degrees, 30 the two largest
        X = complete_resolution(bar_resolution(make_cyclic(3), 4))
        audit = validate_complete_resolution(X, max_zdim=max_zdim)
        skipped = [q for q, _, v in audit.entries if v == "skipped (size)"]
        assert skipped and not any(v.startswith("FAIL") for _, _, v in audit.entries)
        assert audit.passed is False

    def test_report_lines_mention_ranks(self):
        X = complete_resolution(periodic_resolution(make_cyclic(2), 2))
        text = "\n".join(validate_complete_resolution(X).lines())
        assert "Z-rank" in text


class TestAuditCorruption:
    def test_free_resolution_audit_catches_bad_map(self):
        G = make_cyclic(4)
        res = periodic_resolution(G, 3)
        res.dgens[2] = np.full((4, 1), 2, dtype=object)  # 2*norm: image too small
        assert not validate_complete_resolution(complete_resolution(res)).passed
