"""Differential tests: the resolution engines agree on relabeled groups.

Each group is retyped as a multiplication table under fixed-seed
permutations of its element ids.  The Tate invariants of Z over [-2, 2]
must not depend on the labels or on the engine that resolved the group,
and the peeled resolution must pass its exactness audit at every degree.
S4 is too large for the bar resolution's cap, so its relabelings are
checked on the peel alone; their span quotients carry torsion rows.
"""

import random

import pytest

from tateform.gcomplexes import concentrate
from tateform.gmodules import zmodule
from tateform.groups import direct_product, from_table, make_cyclic, symmetric_group
from tateform.resolutions import complete_resolution, resolution_for, validate_complete_resolution
from tateform.tate import tate_hypercohomology

def table_group(elements, mul, name):
    return from_table([[elements.index(mul(a, b)) for b in elements]
                       for a in elements], name=name)


def _hamilton(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


# r^i s^j, with s r = r^-1 s
D4 = table_group([(i, j) for j in range(2) for i in range(4)],
                 lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, x[1] ^ y[1]),
                 "D4")
# +-1, +-i, +-j, +-k as quaternions
Q8 = table_group([tuple(s * (k == i) for k in range(4))
                  for s in (1, -1) for i in range(4)], _hamilton, "Q8")

GROUPS = {
    "Z2": make_cyclic(2),
    "Z3": make_cyclic(3),
    "Z4": make_cyclic(4),
    "Z6": make_cyclic(6),
    "C2xC2": direct_product(make_cyclic(2), make_cyclic(2)),
    "S3": symmetric_group(3),
    "D4": D4,
    "Q8": Q8,
}
SEEDS = range(6)


def shuffled_ids(n, seed):
    """The seeded shuffle of 0..n-1 that ``relabel`` renames by."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def relabel(G, seed):
    """G with element a renamed perm[a], perm = shuffled_ids(|G|, seed)."""
    n = G.order
    perm = shuffled_ids(n, seed)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return from_table(table, name="%s-relabeled" % G.name)


def tate_invariants(G, engine):
    X = complete_resolution(resolution_for(G, 3, engine))
    T = tate_hypercohomology(X, concentrate(zmodule(G), 0), -2, 2)
    return X, [T.invariants(q) for q in range(-2, 3)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", GROUPS)
def test_engines_agree_under_relabeling(name, seed):
    _, expected = tate_invariants(GROUPS[name], "peeled")
    G = relabel(GROUPS[name], seed)
    engines = ["peeled", "bar"] + (["periodic"] if G.is_cyclic() else [])
    for engine in engines:
        X, got = tate_invariants(G, engine)
        assert got == expected, engine
        if engine == "peeled":
            # passed means every degree of the window read exact
            assert validate_complete_resolution(X).passed


@pytest.mark.parametrize("seed", range(5))
def test_relabeled_s4_peels_to_the_canonical_invariants(seed):
    _, expected = tate_invariants(symmetric_group(4), "peeled")
    X, got = tate_invariants(relabel(symmetric_group(4), seed), "peeled")
    assert got == expected
    assert validate_complete_resolution(X).passed
