"""Tests for free and complete resolutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform.errors import CapExceeded, ValidationError
from tateform.groups import direct_product, make_cyclic, symmetric_group
from tateform.intlinalg import (
    LatticeSolver,
    hstack,
    intmat,
    is_zero,
    kernel_basis,
    lattice_basis,
    matmul64,
    narrow,
    smith_normal_form,
    zeros,
)
from tateform import resolutions
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
from test_differential import D4, Q8, relabel


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


def loop_full_matrix(G, rank_target, gen):
    """free_full_matrix one column (b, sigma) at a time: column (b, e)
    of gen moved by sigma's block permutation."""
    n = G.order
    rows, r = gen.shape
    out = zeros(rows, r * n)
    for sigma in range(n):
        for b in range(r):
            for a in range(rank_target):
                for tau in range(n):
                    out[a * n + G.table[sigma][tau], b * n + sigma] = gen[a * n + tau, b]
    return out


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


@settings(max_examples=100, deadline=None)
@given(generator_matrices())
def test_full_matrix_matches_the_column_loop(data):
    G, s, gen = data
    full = free_full_matrix(G, s, gen)
    want = loop_full_matrix(G, s, gen)
    assert full.dtype == object and full.shape == want.shape
    assert all(type(x) is int for x in full.flat)
    assert np.array_equal(full, want)
    full64 = free_full_matrix(G, s, gen.astype(np.int64))
    assert full64.dtype == np.int64 and np.array_equal(full64, want)


def test_dual_gen_checks_shape():
    with pytest.raises(ValidationError):
        dual_gen(make_cyclic(3), 2, intmat([[1], [0], [0]]))


class TestBar:
    def test_trivial_group_alternation(self):
        G = make_cyclic(1)
        res = bar_resolution(G, 4)
        res.d_gen(4)
        assert res.ranks == [1, 1, 1, 1, 1]
        for i in range(1, 5):
            expected = 0 if i % 2 == 1 else 1
            assert res.d_gen(i)[0, 0] == expected

    def test_z2_ranks(self):
        res = bar_resolution(make_cyclic(2), 3)
        res.d_gen(3)
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


PEEL_GROUPS = {
    "S3": symmetric_group(3),
    "D4": D4,
    "Q8": Q8,
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
        res.d_gen(3)
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
            assert np.array_equal(hstack(chosen), res.d_gen(i))
            kernel = kernel_basis(res.full(i))

    def test_dispatch(self):
        assert resolution_for(make_cyclic(5), 2).engine == "periodic"
        assert resolution_for(symmetric_group(3), 2).engine == "peeled"
        assert resolution_for(make_cyclic(2), 2, engine="bar").engine == "bar"
        with pytest.raises(ValidationError):
            resolution_for(make_cyclic(2), 2, engine="mystery")


def _reduced(prod, moduli):
    # prod with its first len(moduli) rows reduced modulo the moduli
    out = prod.copy()
    out[:len(moduli)] %= np.array(moduli, dtype=object).reshape(-1, 1)
    return out


def reference_outside(f, moduli, x):
    """The columns of x outside the quotient's lattice, read off the
    object product reduced modulo the moduli."""
    prod = _reduced(f.astype(object) @ x.astype(object), moduli)
    return [j for j in range(x.shape[1]) if np.any(prod[:, j] != 0)]


def reference_add(f, moduli, gens):
    """SpanQuotient.add on Python ints throughout: (F, moduli) after
    adding the columns of gens."""
    f = f.astype(object)
    k, t = f.shape[0], len(moduli)
    torsion = zeros(k, t)
    for i, p in enumerate(moduli):
        torsion[i, i] = p
    snf = smith_normal_form(
        hstack([_reduced(f @ gens.astype(object), moduli), torsion]), need="u")
    r = snf.rank
    keep = [i for i in range(r) if snf.diagonal[i] != 1] + list(range(r, k))
    new = [snf.diagonal[i] for i in keep if i < r]
    return _reduced(snf.u[keep].astype(object) @ f, new), new


def _first_from_each_start(outside, ncols):
    return [next((j for j in outside if j >= start), None)
            for start in range(ncols + 1)]


def _first_outside_from_each_start(span, x):
    return [span.first_outside(x, start) for start in range(x.shape[1] + 1)]


def _as_ints(a):
    return [[int(v) for v in row] for row in a]


def _alternating(k, x):
    # x, -x, x, ... over k entries, with a last 0 when k is odd: sums to 0
    out = np.array([x if i % 2 == 0 else -x for i in range(k)], dtype=object)
    if k % 2:
        out[-1] = 0
    return out


def _guard_state(edge):
    """(F, moduli, x): a quotient whose product F x sits at a guard of
    matmul64, and columns x with verdicts both ways."""
    if edge == "2^53-1":
        # 6361 * 69431 * 20394401 == 2^53 - 1, reached by column 0's sums
        k, a, b = 6361, 69431, 20394401
        f = np.full((2, k), a, dtype=object)
        x = np.stack([np.full(k, b, dtype=object), _alternating(k, b),
                      np.zeros(k, dtype=object)], axis=1)
        return f, [a], x
    if edge == "2^53":
        # 2 * 2^52 * 1: the first bound past the float64 tier
        f = intmat([[1 << 52, 1 << 52], [1 << 52, -(1 << 52)]])
        x = intmat([[1, 1, 1, 0], [1, -1, 0, 0]])
        return f, [3], x
    if edge == "2^53+1":
        # 3 c = 2^53 + 1, which float64 would round to 2^53 and so read
        # column 0 as inside: it is odd, and the torsion row's modulus is 2
        c = ((1 << 53) + 1) // 3
        f = intmat([[c, c, c], [c, -c, 0]])
        x = intmat([[1, 1, 2], [1, 1, 0], [1, 0, 1]])
        return f, [2], x
    if edge == "past 2^63":
        # 2 * 2^31 * (2^31 + 1) = 2^63 + 2^32: column 0's sums overflow int64
        f = intmat([[1 << 31, 1 << 31], [1 << 31, -(1 << 31)]])
        x = intmat([[(1 << 31) + 1, 1, 2, 0], [(1 << 31) + 1, -1, 1, 0]])
        return f, [5], x
    # a modulus of 2^63 + 1 and small F
    f = intmat([[1, 2], [3, 4], [1, -1]])
    x = intmat([[(1 << 62) + 1, 1, 2, 0], [(1 << 62), 1, -1, 0]])
    return f, [(1 << 63) + 1, 6], x


class TestSpanQuotientStorage:
    EDGES = ["2^53-1", "2^53", "2^53+1", "past 2^63", "modulus past 2^63"]

    @pytest.mark.parametrize("edge", EDGES)
    def test_guard_edges_match_the_object_product(self, edge):
        f, moduli, x = _guard_state(edge)
        span = SpanQuotient(f.shape[1])
        span.f, span.moduli = narrow(f), narrow(np.array(moduli, dtype=object))
        assert span.f.dtype == np.int64
        if edge == "modulus past 2^63":
            assert span.moduli.dtype == object
        else:
            assert span.moduli.dtype == np.int64
            # the tier the product takes: float64 or int64, or none
            assert (matmul64(span.f, narrow(x)) is None) == (edge == "past 2^63")
        outside = reference_outside(f, moduli, x)
        assert 0 < len(outside) < x.shape[1]
        want = _first_from_each_start(outside, x.shape[1])
        assert _first_outside_from_each_start(span, x) == want
        assert _first_outside_from_each_start(span, narrow(x)) == want
        want_f, want_moduli = reference_add(f, moduli, x[:, :1])
        span.add(x[:, :1])
        assert _as_ints(span.f) == _as_ints(want_f)
        assert [int(p) for p in span.moduli] == want_moduli
        for y in (x, -x):
            assert _first_outside_from_each_start(span, y) == _first_from_each_start(
                reference_outside(want_f, want_moduli, y), y.shape[1])

    def test_the_canonical_s4_peel_keeps_f_on_int64(self, monkeypatch):
        storage = []
        original = SpanQuotient.add

        def add(self, gens):
            original(self, gens)
            storage.append((self.f.dtype, self.moduli.dtype))

        monkeypatch.setattr(resolutions.SpanQuotient, "add", add)
        peeled_resolution(symmetric_group(4), 5).d_gen(5)
        assert storage
        assert all(f == np.int64 and m == np.int64 for f, m in storage)


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
        # reference: generator columns (b, e) of the transposed full matrix.
        # X is self-dual, which ShiftLift's lift above its anchor relies on
        C2 = make_cyclic(2)
        for res in (periodic_resolution(make_cyclic(4), 3),
                    periodic_resolution(make_cyclic(6), 4),
                    peeled_resolution(symmetric_group(3), 4),
                    peeled_resolution(direct_product(C2, C2), 4),
                    bar_resolution(make_cyclic(3), 3),
                    peeled_resolution(relabel(symmetric_group(3), 1), 4)):
            X = complete_resolution(res)
            N, n, e = X.window, res.group.order, res.group.identity
            for q in range(1, N):
                cols = [b * n + e for b in range(res.ranks[q - 1])]
                assert np.array_equal(X.diff_gen(q), res.full(q).T[:, cols])
            for q in range(1 - N, N):
                assert np.array_equal(X.full_diff(q).T, X.full_diff(-q)), q
            for q in range(1 - N, N + 1):
                assert X.rank(1 - q) == X.rank(q), q

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
        res.d_gen(3)
        res.dgens[2] = np.full((4, 1), 2, dtype=object)  # 2*norm: image too small
        assert not validate_complete_resolution(complete_resolution(res)).passed
