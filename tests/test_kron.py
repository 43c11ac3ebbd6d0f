"""Kronecker products and the block-diagonal copies that replace them.

kron(eye(n), b) is block_diag([b] * n); the total complex builds its
relator and coefficient blocks that way, so that a resolution of rank n
costs no n x n identity.  Building one for n = 1296 (bar Z/6) allocated
13 MB and, once freed, left the allocator holding memory that made the
process's peak resident size depend on the order of earlier work.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tateform import tate
from tateform.gcomplexes import concentrate
from tateform.gmodules import zmodule
from tateform.groups import make_cyclic
from tateform.intlinalg import block_diag, eye, kron
from tateform.resolutions import complete_resolution, periodic_resolution

from reference import trivial_cyclic


@st.composite
def small_matrices(draw):
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4))
    entries = st.integers(min_value=-5, max_value=5)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return np.array(rows, dtype=object).reshape(m, n)


@settings(max_examples=200, deadline=None)
@given(small_matrices(), small_matrices())
def test_kron_matches_numpy_including_empty_factors(a, b):
    out = kron(a, b)
    assert out.dtype == object
    assert out.shape == (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    assert np.array_equal(out, np.kron(a.astype(int), b.astype(int)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=5), small_matrices())
def test_identity_kron_is_a_block_diagonal_of_copies(n, b):
    copies = block_diag([b] * n)
    assert copies.shape == kron(eye(n), b).shape
    assert np.array_equal(copies, kron(eye(n), b))


def test_total_complex_and_cone_maps_build_no_identity(monkeypatch):
    G = make_cyclic(4)
    X = complete_resolution(periodic_resolution(G, 6))
    eyes = []
    monkeypatch.setattr(tate, "eye", lambda n: eyes.append(n) or eye(n))
    total = tate.TotalComplex(X, concentrate(trivial_cyclic(G, 2), 0), -2, 2)
    assert total.rel[2].shape == (X.rank(-2), X.rank(-2))
    # the cone's vertical blocks and the triangle maps
    report = tate.cone_les_check(X, concentrate(zmodule(G), 0), 2)
    assert all(row[-1] for row in report.rows + report.map_rows)
    assert eyes == []
