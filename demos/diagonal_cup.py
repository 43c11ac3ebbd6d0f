"""Two independent routes to the same cup product.

The production cup product composes chain maps, never touching a
diagonal.  For a cyclic group on its minimal periodic resolution there
is also the textbook route: write down the closed-form diagonal
approximation Delta: X -> X (x) X (Cartan & Eilenberg XII.7) and
evaluate (w (x) alpha) o Delta directly.

Both routes are run on H^*(Z/3, Z), class by class, and must agree up
to a global sign per degree (the two conventions orient odd swaps
differently, so a sign is the most agreement one can ask for).
"""

import numpy as np

from tateform.gcomplexes import concentrate
from tateform.gmodules import zmodule
from tateform.groups import make_cyclic
from tateform.resolutions import complete_resolution, periodic_resolution
from tateform.tate import (
    cup_via_diagonal,
    cup_with,
    diagonal_approximation,
    tate_hypercohomology,
)

G = make_cyclic(3)
C = concentrate(zmodule(G), 0)
X = complete_resolution(periodic_resolution(G, 6))

diag = diagonal_approximation(X, 4)
print("closed-form diagonal approximation verified on %d identities"
      % len(diag.verified))

T = tate_hypercohomology(X, C, -2, 2)
a = T.class_at(2, (1,))
a_vec = T.element(2, a.coords)

for q in (-2, 0, 2):
    p = q - 2
    tz = tate_hypercohomology(X, concentrate(zmodule(G), 0), p, p)
    composition = cup_with(X, C, a, q)
    grp = T.group(q)
    for i in range(tz.group(p).ngens):
        via = cup_via_diagonal(X, diag, C, tz.representative(p, i),
                               p, a_vec, T, q)
        direct = tuple(composition.matrix[:, i])
        negated = tuple(grp.reduce_coords(
            -np.array(list(direct), dtype=object)))
        assert tuple(via) in (direct, negated), (q, i)
        print("H^%+d generator %d: composition %s, diagonal %s"
              % (p, i, direct, tuple(via)))

print("both cup product routes agree (up to the expected sign)")
