"""Free resolutions of Z over the integral group ring, and complete
resolutions obtained by splicing a resolution with its Z-linear dual.

Free modules here are always Z[G]^r with Z-basis indexed by pairs
(a, sigma) -> a*|G| + sigma, on which G acts by left translation in the
second slot.  A G-equivariant map out of a free module is stored as a
*generator matrix*: the column for generator a is the image of the basis
element (a, e).  Columns for the remaining basis vectors are recovered by
acting, which keeps the stored data |G| times smaller than the full
Z-matrix and makes equivariance automatic.
"""

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import CapExceeded, ValidationError
from .groups import FiniteGroup
from .intlinalg import (
    IntMatrix,
    LatticeSolver,
    hstack,
    is_zero,
    kernel_basis,
    matmul,
    matmul64,
    narrow,
    smith_normal_form,
    zeros,
)

BAR_CAP = 20000
PEEL_RANK_CAP = 64
WINDOW_CAP = 16


def free_full_matrix(G: FiniteGroup, rank_target: int, gen: IntMatrix) -> IntMatrix:
    """Materialize the full Z-matrix of a map Z[G]^r -> Z[G]^s from its
    generator matrix (shape (s*|G|, r)).

    Column (b, sigma) is obtained from column (b, e) by the target action,
    which for a free target is the block permutation (a, tau) -> (a, sigma*tau).
    The result has gen's storage, so an int64 orbit stays int64.
    """
    n = G.order
    rows, r = gen.shape
    if rows != rank_target * n:
        raise ValidationError(
            "generator matrix has %d rows, expected %d" % (rows, rank_target * n)
        )
    # column (b, sigma) holds gen[:, b] on the rows (a, sigma*tau)
    table = np.asarray(G.table, dtype=np.intp)
    perm = (np.arange(rank_target)[:, None, None] * n + table.T).reshape(rows, 1, n)
    out = np.zeros((rows, r * n), dtype=gen.dtype)
    out[perm, np.arange(r * n).reshape(1, r, n)] = gen[:, :, None]
    return out


def dual_gen(G: FiniteGroup, rank_target: int, gen: IntMatrix) -> IntMatrix:
    """Generator matrix of the Z-dual of the map Z[G]^r -> Z[G]^s with
    generator matrix gen: the columns (b, e) of the transposed full matrix.

    Entry ((b, sigma), (a, e)) of the transpose is entry ((a, e), (b, sigma))
    of the full matrix, which the block permutation takes from
    gen[(a, sigma^-1), b].  So column a of the dual lists those entries over
    the rows (b, sigma), and the full matrix is never built.  Dualizing
    twice gives gen back: dual_gen(G, r, dual_gen(G, s, gen)) == gen.
    """
    n = G.order
    rows, r = gen.shape
    if rows != rank_target * n:
        raise ValidationError(
            "generator matrix has %d rows, expected %d" % (rows, rank_target * n)
        )
    inv = np.asarray([G.inv(sigma) for sigma in range(n)], dtype=np.intp)
    out = zeros(r * n, rank_target)
    for a in range(rank_target):
        out[:, a] = gen[a * n + inv, :].T.reshape(-1)
    return out


class FreeResolution:
    """A free resolution P_N -> ... -> P_1 -> P_0 -> Z -> 0, built one
    degree at a time as it is read: the length N is only a cap.

    ``step(res, i)`` gives the generator matrix of d_i: P_i -> P_{i-1}
    from the degrees below i only, so a matrix does not depend on which
    read builds it.  ``d_gen(i)``, the one place a degree is built, and
    ``rank(i)`` build the missing degrees up to i in order.  ranks and
    dgens hold the degrees built so far (dgens[0] is None); aug is the
    full 1 x (ranks[0]*|G|) row of the augmentation P_0 -> Z.  Validation
    of d o d = 0 and exactness is deliberately deferred to
    validate_complete_resolution, because full-matrix composites are
    quadratically larger than the stored data.
    """

    def __init__(self, G: FiniteGroup, length: int,
                 step: Callable[["FreeResolution", int], IntMatrix],
                 aug: IntMatrix, engine: str = "custom"):
        if length < 0:
            raise ValidationError("resolution needs at least degree 0")
        if aug.shape[0] != 1 or aug.shape[1] % G.order:
            raise ValidationError("augmentation row has wrong shape")
        self.group = G
        self.length = length
        self.ranks = [aug.shape[1] // G.order]
        self.dgens: List[Optional[IntMatrix]] = [None]
        self.aug = aug
        self.engine = engine
        self._step = step

    def d_gen(self, i: int) -> IntMatrix:
        if not 1 <= i <= self.length:
            raise ValidationError("no differential %d in a resolution of "
                                  "length %d" % (i, self.length))
        while len(self.dgens) <= i:
            k = len(self.dgens)
            d = self._step(self, k)
            if d.shape[0] != self.ranks[k - 1] * self.group.order:
                raise ValidationError("differential %d has wrong shape" % k)
            self.ranks.append(d.shape[1])
            self.dgens.append(d)
        return self.dgens[i]

    def rank(self, i: int) -> int:
        """Z[G]-rank of P_i; degree i is built first."""
        if i:
            self.d_gen(i)
        return self.ranks[i]

    def full(self, i: int) -> IntMatrix:
        """Full Z-matrix of d_i on the induced bases."""
        return free_full_matrix(self.group, self.rank(i - 1), self.d_gen(i))


def bar_resolution(G: FiniteGroup, length: int) -> FreeResolution:
    """The normalized-free (bar) resolution: P_i = Z[G]^(|G|^i), generators
    written [g_1|...|g_i].  BAR_CAP counts the whole length, so it refuses
    before any degree is built.

    d[g_1|...|g_i] = g_1 [g_2|...|g_i]
                     + sum_j (-1)^j [g_1|...|g_j g_{j+1}|...|g_i]
                     + (-1)^i [g_1|...|g_{i-1}]
    """
    n = G.order
    total = sum(n ** (i + 1) for i in range(length + 1))
    if total > BAR_CAP:
        raise CapExceeded(
            "bar resolution needs %d Z-generators, cap is %d" % (total, BAR_CAP)
        )
    aug = np.full((1, n), 1, dtype=object)
    return FreeResolution(G, length, _bar_step, aug, engine="bar")


def _bar_step(res: FreeResolution, i: int) -> IntMatrix:
    # every generator b = [g_1|...|g_i] at once, its g's the base-|G|
    # digits of b, big-endian; face k carries the sign (-1)^k
    G = res.group
    n, e = G.order, G.identity
    b = np.arange(n ** i)
    g = b[:, None] // n ** np.arange(i - 1, -1, -1) % n
    table = np.asarray(G.table, dtype=np.intp)
    # leading face: g_1 . [g_2|...|g_i]
    faces = [b % n ** (i - 1) * n + g[:, 0]]
    # middle faces: [g_1|...|g_j g_{j+1}|...|g_i]
    for j in range(i - 1):
        merged = b // n ** (i - j) * n + table[g[:, j], g[:, j + 1]]
        faces.append((merged * n ** (i - j - 2) + b % n ** (i - j - 2)) * n + e)
    # trailing face: [g_1|...|g_{i-1}]
    faces.append(b // n * n + e)
    d = zeros(n ** i, n ** i)
    for k, rows in enumerate(faces):
        d[rows, b] += (-1) ** k  # one entry per column: no position repeats
    return d


def periodic_resolution(G: FiniteGroup, length: int) -> FreeResolution:
    """Rank-1 resolution for a cyclic group: differentials alternate
    multiplication by (sigma - 1) and by the norm.  For the trivial group
    this degenerates to alternating zero and identity maps.
    """
    sigma = G.cyclic_generator()
    if sigma is None:
        raise ValidationError("periodic resolution needs a cyclic group")
    n = G.order
    e = G.identity
    minus = zeros(n, 1)
    minus[sigma, 0] += 1
    minus[e, 0] += -1
    norm = np.full((n, 1), 1, dtype=object)
    return FreeResolution(G, length,
                          lambda res, i: (minus if i % 2 == 1 else norm).copy(),
                          np.full((1, n), 1, dtype=object), engine="periodic")


class SpanQuotient:
    """Z^m modulo the lattice L spanned by the columns added so far, kept
    as integer functionals F (one row each) with moduli: x lies in L iff
    F x is divisible by the modulus on the first ``len(moduli)`` rows (the
    torsion rows, moduli at least 2) and zero on the rest.  L = 0 at first,
    with F the identity.

    ``add`` eliminates only the new columns against the quotient: with O
    the new columns, Z^m / (L + span O) is the cokernel of
    M = [F O | diag(moduli)], whose elimination U M V = S carries just U.
    F becomes U F on the rows of S whose factor is not 1, with those
    factors as moduli; these are the rows ``cokernel_structure`` keeps as
    its reduce_map.  M has at most |O| + len(moduli) columns however large
    L is.  Torsion rows are reduced modulo their moduli, which changes no
    verdict and keeps F small.

    F, the moduli and M stay on int64 storage while they fit: every
    product goes through ``matmul64``, and the torsion rows are reduced
    on int64 when every modulus fits.  A product whose bound does not fit,
    or a modulus of 2^63 or more, sends that step through Python ints.
    """

    def __init__(self, m: int):
        self.f = np.eye(m, dtype=np.int64)
        self.moduli = np.zeros(0, dtype=np.int64)

    def _times(self, a: IntMatrix, b: IntMatrix) -> IntMatrix:
        # a b, with the torsion rows reduced modulo their moduli
        moduli = self.moduli
        out = matmul64(narrow(a), narrow(b)) if moduli.dtype == np.int64 else None
        if out is None:
            out, moduli = matmul(a, b), moduli.astype(object)
        out[:len(moduli)] %= moduli[:, None]
        return out

    def first_outside(self, x: IntMatrix, start: int = 0) -> Optional[int]:
        """Index of the first column of x from ``start`` on that lies
        outside L, or None; one product tests them all."""
        out = np.nonzero(np.any(self._times(self.f, x[:, start:]) != 0, axis=0))[0]
        return start + int(out[0]) if len(out) else None

    def add(self, gens: IntMatrix) -> None:
        k, t = self.f.shape[0], len(self.moduli)
        torsion = np.zeros((k, t), dtype=self.moduli.dtype)
        torsion[np.arange(t), np.arange(t)] = self.moduli
        m = hstack([self._times(self.f, gens), torsion])
        snf = smith_normal_form(m, need="u")
        r = snf.rank
        keep = [i for i in range(r) if snf.diagonal[i] != 1] + list(range(r, k))
        self.moduli = narrow(np.array([snf.diagonal[i] for i in keep if i < r],
                                      dtype=object))
        self.f = narrow(self._times(snf.u[keep], self.f))


def peeled_resolution(G: FiniteGroup, length: int) -> FreeResolution:
    """Resolution built by peeling kernels, one degree at a time as read.

    Degree i covers the kernel of d_{i-1} (of the augmentation for i = 1),
    a G-stable sublattice, greedily by the orbits of its own lattice basis
    vectors: a basis vector is chosen when it lies outside the span of the
    orbits chosen before it, and the chosen vectors become the images of
    P_i's generators.  That span is kept as a ``SpanQuotient``, so each
    chosen orbit is eliminated once, against the quotient and not with the
    orbits before it, and the remaining basis vectors are tested in one
    product.  Membership is a property of the lattice, so the chosen
    vectors do not depend on how the span is represented.  Building degree
    N makes N kernel eliminations, of the augmentation and of d_1, ...,
    d_{N-1}, and checks PEEL_RANK_CAP at each degree.  Exactness holds by
    construction and ranks stay near-minimal, which keeps noncyclic groups
    tractable where the bar resolution's |G|^i growth does not.
    """
    aug = np.full((1, G.order), 1, dtype=object)
    return FreeResolution(G, length, _peel_step, aug, engine="peeled")


def _peel_step(res: FreeResolution, i: int) -> IntMatrix:
    G = res.group
    prev_rank = res.ranks[i - 1]
    kernel = kernel_basis(res.aug if i == 1 else res.full(i - 1))
    chosen: List[IntMatrix] = []
    span = SpanQuotient(kernel.shape[0])
    narrowed = narrow(kernel)  # converted once for every membership test
    j = span.first_outside(narrowed)
    while j is not None:
        chosen.append(kernel[:, j:j + 1])
        span.add(free_full_matrix(G, prev_rank, narrowed[:, j:j + 1]))
        j = span.first_outside(narrowed, j + 1)
    r = max(len(chosen), 1)
    if r > PEEL_RANK_CAP:
        raise CapExceeded("peeled rank %d exceeds cap %d" % (r, PEEL_RANK_CAP))
    return hstack(chosen) if chosen else zeros(prev_rank * G.order, 1)


def resolution_for(G: FiniteGroup, length: int, engine: str = "auto") -> FreeResolution:
    """Engine dispatch: periodic for cyclic groups, peeled otherwise.
    The bar resolution is available by explicit request.  Lengths above
    WINDOW_CAP are refused here; below it the length is only a cap, and
    each degree is built when first read."""
    if length > WINDOW_CAP:
        raise CapExceeded("resolution length %d exceeds cap %d"
                          % (length, WINDOW_CAP))
    if engine == "auto":
        engine = "periodic" if G.is_cyclic() else "peeled"
    if engine == "periodic":
        return periodic_resolution(G, length)
    if engine == "bar":
        return bar_resolution(G, length)
    if engine == "peeled":
        return peeled_resolution(G, length)
    raise ValidationError("unknown resolution engine %r" % engine)


class CompleteResolution:
    """A doubly infinite exact sequence of free modules on the window
    [-N, N], which is only a cap: reads go through the FreeResolution, so
    a degree is built when first read.

    X^{-i} = P_i for i >= 0 and X^i = dual(P_{i-1}) for i >= 1, where the
    Z-linear dual of a free module is free on the dual basis with the
    contragredient action (for permutation actions this is again the
    translation action, so every term uses the same (a, sigma) indexing).
    The two halves are spliced through Z: d^0 = (dual of aug) o aug, so
    the composite X^0 -> X^1 factors through Z by construction.  X is
    self-dual: full_diff(q).T == full_diff(-q), rank(1 - q) == rank(q).
    ``solver(q)`` keeps d^q's one elimination, for the lifts and the audit.
    """

    def __init__(self, res: FreeResolution):
        self.res = res
        self.group = res.group
        self.window = res.length
        self._full_cache: Dict[int, IntMatrix] = {}
        self._gen_cache: Dict[int, IntMatrix] = {}
        self._solvers: Dict[int, LatticeSolver] = {}
        self._tate: Dict[object, object] = {}  # see tate._kept

    @property
    def eps(self) -> IntMatrix:
        return self.res.aug

    def rank(self, q: int) -> int:
        if abs(q) > self.window:
            raise ValidationError("degree %d outside window [-%d, %d]"
                                  % (q, self.window, self.window))
        return self.res.rank(-q if q <= 0 else q - 1)

    def zdim(self, q: int) -> int:
        return self.rank(q) * self.group.order

    def diff_gen(self, q: int) -> IntMatrix:
        """Generator matrix of d^q: X^q -> X^{q+1}, for q in [-N, N-1]."""
        if q < -self.window or q >= self.window:
            raise ValidationError("no differential at degree %d in window %d"
                                  % (q, self.window))
        if q in self._gen_cache:
            return self._gen_cache[q]
        n = self.group.order
        e = self.group.identity
        if q <= -1:
            gen = self.res.d_gen(-q)
        elif q == 0:
            # columns (b, e) of the full matrix (dual of aug) o aug
            cols = [b * n + e for b in range(self.res.rank(0))]
            gen = self.res.aug.T @ self.res.aug[:, cols]
        else:
            gen = dual_gen(self.group, self.res.rank(q - 1), self.res.d_gen(q))
        self._gen_cache[q] = gen
        return gen

    def full_diff(self, q: int) -> IntMatrix:
        if q not in self._full_cache:
            self._full_cache[q] = free_full_matrix(
                self.group, self.rank(q + 1), self.diff_gen(q))
        return self._full_cache[q]

    def solver(self, q: int) -> LatticeSolver:
        """Integer solves against d^q, from its one kept elimination."""
        if q not in self._solvers:
            self._solvers[q] = LatticeSolver(self.full_diff(q))
        return self._solvers[q]


def complete_resolution(res: FreeResolution) -> CompleteResolution:
    return CompleteResolution(res)


class ResolutionAudit:
    """Per-degree exactness report for a complete resolution window."""

    def __init__(self, window: int):
        self.window = window
        self.entries: List[Tuple[int, int, str]] = []  # (degree, zdim, verdict)
        self.augmented_segment: str = "unchecked"
        self.splice: str = "unchecked"

    def add(self, q: int, zdim: int, verdict: str) -> None:
        self.entries.append((q, zdim, verdict))

    @property
    def passed(self) -> bool:
        """True only when every check ran and read exact: a degree skipped
        for size does not pass."""
        return (self.augmented_segment == "exact" and self.splice == "exact"
                and all(v == "exact" for _, _, v in self.entries))

    def lines(self) -> List[str]:
        out = ["complete resolution window [-%d, %d]" % (self.window, self.window)]
        for q, zdim, verdict in self.entries:
            out.append("  degree %+d  Z-rank %d  %s" % (q, zdim, verdict))
        out.append("  augmented segment: %s" % self.augmented_segment)
        out.append("  splice through Z: %s" % self.splice)
        return out


def _exactness(d_in: LatticeSolver, d_out: LatticeSolver) -> str:
    """Verdict on ker(d_out) = im(d_in): d_out o d_in = 0 puts the image
    inside the kernel, and a kernel basis inside the image lattice gives
    the reverse containment.  Each solver's elimination carries ``u`` and
    ``v``, so d_out's serves, through V's last columns, as the kernel's
    basis."""
    if not is_zero(matmul(d_out.matrix, d_in.matrix)):
        return "FAIL: d o d != 0"
    out = d_out.snf
    if not d_in.contains(out.v[:, out.rank:]):
        return "FAIL: ker != im"
    return "exact"


def validate_complete_resolution(X: CompleteResolution,
                                 max_zdim: int = 1200) -> ResolutionAudit:
    """Exactness audit: ker(d^q) = im(d^{q-1}) at every interior degree,
    the augmented segment ... -> X^{-1} -> X^0 -> Z -> 0, and the splice
    factorization.  Degrees whose matrices exceed max_zdim are reported as
    skipped rather than silently trusted, and a skipped degree does not
    pass: ``passed`` is true only when every degree reads exact.  The audit
    shares X's one elimination per map with the chain lifts, for its kernel
    and its image, and covers the whole window, so it builds every degree.
    """
    N = X.window
    audit = ResolutionAudit(N)

    # augmented segment: eps surjective and ker(eps) = im(d^{-1})
    eps = LatticeSolver(X.eps)
    if not eps.contains(np.ones(1, dtype=object)):
        audit.augmented_segment = "FAIL: augmentation not surjective"
    elif _exactness(X.solver(-1), eps) != "exact":
        audit.augmented_segment = "FAIL: im(d^-1) != ker(aug)"
    else:
        audit.augmented_segment = "exact"

    # splice: d^0 recomputed from the augmentation, and im(eta) = ker(d^1)
    eta = X.eps.T
    if not np.array_equal(X.full_diff(0), eta @ X.eps):
        audit.splice = "FAIL: d^0 is not (dual aug) o aug"
    elif N >= 2 and _exactness(LatticeSolver(eta), X.solver(1)) != "exact":
        audit.splice = "FAIL: im(Z -> X^1) != ker(d^1)"
    else:
        audit.splice = "exact"

    for q in range(-N + 1, N - 1):
        zq = X.zdim(q)
        if zq > max_zdim or X.zdim(q - 1) > max_zdim or X.zdim(q + 1) > max_zdim:
            audit.add(q, zq, "skipped (size)")
            continue
        audit.add(q, zq, _exactness(X.solver(q - 1), X.solver(q)))
    return audit
