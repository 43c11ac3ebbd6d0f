"""The norm group correspondence at finite level.

For a passing formation pair and each normal subgroup V of G, the image
of corestriction  H^0(V, C) -> H^0(G, C)  plays the role of a norm
group, and the quotient by it should match the abelianization of G/V
through the reciprocity isomorphism.

Here G = Z/4 with trivial Z coefficients: H^0 is Z/4 (the image of the
norm on Z is the ideal (4)), and the three normal subgroups carve out
quotients Z/4, Z/2 and the trivial group, exactly the abelianizations
of Z/4, Z/2 and the trivial quotient.
"""

from tateform.cli import render_result
from tateform.formation import (
    check_class_formation,
    fundamental_class,
    norm_group_table,
)
from tateform.gcomplexes import concentrate
from tateform.gmodules import zmodule
from tateform.groups import make_cyclic
from tateform.resolutions import complete_resolution, resolution_for

G = make_cyclic(4)
C = concentrate(zmodule(G), 0)
X = complete_resolution(resolution_for(G, 6))

report = check_class_formation(X, C)
assert report.passed
u = fundamental_class(X, C, report)

table = norm_group_table(X, C, u)
print("\n".join(render_result(table.as_dict())))
assert table.passed

expected = {
    (0,): ((4,), (4,)),
    (0, 2): ((2,), (2,)),
    (0, 1, 2, 3): ((), ()),
}
for elements, quot, ab, ok in table.rows:
    assert expected[elements] == (quot, ab), elements
    assert ok
print("all %d normal subgroups verified" % len(table.rows))
