"""Checking the class formation axioms and computing reciprocity.

A formation pair (G, C) is tested against three axioms:
  (C1)  H^1(H, C) = 0 for every subgroup H,
  (C2)  H^2(H, C) is cyclic of order |H|,
  (C3)  generators of those H^2 can be chosen compatibly under restriction.
When all three hold the distinguished generator u (the fundamental class)
induces the reciprocity isomorphism  H^0(G, C) -> G^ab  via the inverse
of cupping with u followed by the degree -2 identification with G^ab.

The unramified story: Z/6 with trivial Z coefficients passes, and the
reciprocity map is an isomorphism of groups of order 6.  The Klein four
group fails at (C2), and the report says exactly where.
"""

from math import gcd

from tateform.cli import render_result
from tateform.formation import (
    check_class_formation,
    fundamental_class,
    reciprocity_map,
)
from tateform.gcomplexes import concentrate
from tateform.gmodules import zmodule
from tateform.groups import direct_product, make_cyclic
from tateform.resolutions import complete_resolution, resolution_for

G = make_cyclic(6)
C = concentrate(zmodule(G), 0)
X = complete_resolution(resolution_for(G, 6))

report = check_class_formation(X, C)
print("\n".join(render_result(report.as_dict())))
assert report.verdict == "PASS"

u = fundamental_class(X, C, report)
assert u.order == 6

rec = reciprocity_map(X, C, u)
assert rec.is_isomorphism()
assert rec.source.invariants() == (6,)
assert rec.target.invariants() == (6,)
print()
print("reciprocity matrix on canonical coordinates: %s"
      % rec.matrix.tolist())
image = rec.apply((1,))
assert len(image) == 1 and gcd(int(image[0]), 6) == 1

print()
K = direct_product(make_cyclic(2), make_cyclic(2))
XK = complete_resolution(resolution_for(K, 5))
failing = check_class_formation(XK, concentrate(zmodule(K), 0))
print("Klein four group with trivial Z coefficients: %s" % failing.verdict)
assert failing.verdict.startswith("FAIL (C2)")
assert failing.fundamental is None
