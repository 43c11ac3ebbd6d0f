"""Tate's criterion in action: one pass, one principled rejection.

Given a class a in H^2(G, C), the criterion asks for every subgroup H:
  (i)   H^1(H, C) = 0,
  (ii)  the restriction of a to H generates H^2(H, C), which has order |H|.
When both hold, cupping with a is an isomorphism H^q(G, Z) -> H^{q+2}(G, C)
in every degree.

Z/4 with trivial Z coefficients satisfies both.  The Klein four group
fails (ii): its H^2 has order 4 but no element of order 4, so no class
can generate, and the report pinpoints that hypothesis.
"""

from tateform.cli import render_result
from tateform.gcomplexes import concentrate
from tateform.gmodules import zmodule
from tateform.groups import direct_product, make_cyclic
from tateform.resolutions import complete_resolution, resolution_for
from tateform.tate import tate_hypercohomology, tate_nakayama_check

G = make_cyclic(4)
C = concentrate(zmodule(G), 0)
X = complete_resolution(resolution_for(G, 6))
a = tate_hypercohomology(X, C, 2, 2).class_at(2, (1,))

report = tate_nakayama_check(X, C, a, -2, 3)
print("\n".join(render_result(report.as_dict())))
assert report.verdict == "PASS"

print()

K = direct_product(make_cyclic(2), make_cyclic(2))
CK = concentrate(zmodule(K), 0)
XK = complete_resolution(resolution_for(K, 5))
b = tate_hypercohomology(XK, CK, 2, 2).class_at(2, (1, 0))

rejected = tate_nakayama_check(XK, CK, b, -2, 3)
print("Klein four group, candidate of order %d:" % b.order)
print("  verdict: %s" % rejected.verdict)
assert rejected.verdict == "FAIL (ii)"
assert not rejected.hypotheses_pass
