"""Tate hypercohomology of bounded complexes of modules over a finite
group, computed from a complete resolution.

The double complex has (i, j) entry Hom_G(X^{-i}, C^j); its total complex
in degree q collects the blocks Hom_G(X^{j-q}, C^j) for j in the support
of C.  A G-map out of a free module is stored by its values on the
Z[G]-generators, so each block is a direct sum of rank(X^{j-q}) copies of
C^j as a Z-module and every differential is an integer matrix on those
coordinates.

Sign rule (fixed once, audited on every constructed complex): for f of
total degree q,  D f = d_C o f - (-1)^q f o d_X.

Beyond the groups themselves this module provides a subgroup's groups, as
G's with coinduced coefficients, restriction and corestriction along
subgroups, cup products with degree-2 classes realized by lifted chain
maps, the identification of degree -2 cohomology of Z with the
abelianization, the Tate-Nakayama hypothesis checker, the multiplication
cone order bookkeeping, and diagonal approximations for cyclic groups.
"""

from functools import cached_property
from math import gcd
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classical import cochain_cohomology, h0, h_minus1
from .errors import CapExceeded, LiftingError, ValidationError, WindowError
from .gcomplexes import GComplex, concentrate, cone_of_mult
from .gmodules import GModule, regular_module, zmodule
from .groups import (
    Subgroup,
    abelianization,
    all_subgroups,
    conjugacy_representatives,
    right_transversal,
    whole_subgroup,
)
from .intlinalg import (
    AbGroup,
    AbMap,
    IntMatrix,
    LatticeSolver,
    Subquotient,
    block_diag,
    eye,
    hstack,
    int_list,
    is_zero,
    kron,
    matmul,
    preimage_lattice,
    zeros,
)
from .resolutions import GenLists, dual_gen, free_full_matrix


# ---------------------------------------------------------------------------
# total complex

# Widest total-complex degree built, in Z-coordinates, checked before any
# matrix is; the tests and benchmark cases reach 1296 (bar Z/6, window 4).
TOTAL_DIM_CAP = 1536


class HomBlock:
    """One Hom_G(X^s, C^j) block inside a total-complex degree."""

    __slots__ = ("j", "s", "rank", "gens", "offset")

    def __init__(self, j: int, s: int, rank: int, gens: int, offset: int):
        self.j = j
        self.s = s
        self.rank = rank
        self.gens = gens
        self.offset = offset

    @property
    def dim(self) -> int:
        return self.rank * self.gens

    def gen_matrix(self, vec: np.ndarray) -> IntMatrix:
        """This block of a cochain as a gens x rank generator matrix:
        column b holds the value on generator b."""
        return vec[self.offset:self.offset + self.dim].reshape(
            self.rank, self.gens).T

    def put(self, vec: np.ndarray, genmat: IntMatrix) -> None:
        """Write a gens x rank generator matrix into this block of vec."""
        vec[self.offset:self.offset + self.dim] = genmat.T.reshape(-1)


def _add_per_generator(out: IntMatrix, dst: HomBlock, src: HomBlock,
                       coeff: IntMatrix, copies: int) -> None:
    """Add block_diag([coeff] * copies) to the (dst, src) block of out: a
    map that acts on each of ``copies`` generators of the resolution term
    alike, by the coefficient matrix coeff.  The one place the Hom-block
    layout is written for such maps."""
    out[dst.offset:dst.offset + dst.dim,
        src.offset:src.offset + src.dim] += block_diag([coeff] * copies)


def _add_precomposed(out: IntMatrix, dst: HomBlock, src: HomBlock,
                     d: GenLists, pattern: tuple, sign: int) -> None:
    """Add sign * (f -> f o d) to the (dst, src) block of out, d with
    generator matrix read as coordinate lists: nonzero (a |G| + tau, c) adds
    its value times act(tau), from GModule.pattern, at generator c of dst
    and a of src.  Positions repeat across tau, so one accumulating scatter
    places them, over chunks of at most the block's cells or d's, whichever
    is more (a 1 x 1 block of Z takes the |G| nonzeros of a norm column)."""
    rows_e, cols_e, vals_e = pattern
    n, z = vals_e.shape
    vals = sign * d.vals
    a, tau = np.divmod(d.rows, n)
    r0, c0 = dst.offset + d.cols * dst.gens, src.offset + a * src.gens
    step = max(1, max(dst.dim * src.dim, d.shape[0] * d.shape[1]) // max(1, z))
    for lo in range(0, len(vals), step):
        s, t = slice(lo, lo + step), tau[lo:lo + step]
        np.add.at(out, (r0[s, None] + rows_e[t], c0[s, None] + cols_e[t]),
                  vals[s, None] * vals_e[t])


class TotalComplex:
    """The total Hom complex of (X, C), grown by degree: cover(qlo, qhi)
    adds the degrees [qlo-1, qhi+1] and differentials on [qlo-1, qhi] not
    held yet, and audits d o d = 0 (mod coefficient relators) on each new
    consecutive pair, one that joins two covers included."""

    def __init__(self, X, C: GComplex, qlo: int, qhi: int):
        self.X, self.C = X, C
        self.blocks: Dict[int, List[HomBlock]] = {}
        self.dim: Dict[int, int] = {}
        self.rel: Dict[int, IntMatrix] = {}
        self.diff: Dict[int, IntMatrix] = {}
        self._rel_solvers: Dict[int, LatticeSolver] = {}
        self.cover(qlo, qhi)

    def cover(self, qlo: int, qhi: int) -> None:
        X, C = self.X, self.C
        if qlo > qhi:
            raise ValidationError("empty degree range [%d, %d]" % (qlo, qhi))
        need_lo, need_hi, N = C.lo - qhi - 1, C.hi - qlo + 1, X.window
        if need_lo < -N or need_hi > N:
            raise WindowError(
                "degrees [%d, %d] with coefficient support [%d, %d] need "
                "resolution degrees [%d, %d]; window is [-%d, %d]"
                % (qlo, qhi, C.lo, C.hi, need_lo, need_hi, N, N))
        # every new degree is sized before any matrix is built
        for q in [q for q in range(qlo - 1, qhi + 2) if q not in self.blocks]:
            blocks, offset = [], 0
            for j in C.degrees():
                blk = HomBlock(j, j - q, X.rank(j - q), C.term(j).gens, offset)
                blocks.append(blk)
                offset += blk.dim
            if offset > TOTAL_DIM_CAP:
                raise CapExceeded(
                    "total complex degree %d has dimension %d, cap is %d"
                    % (q, offset, TOTAL_DIM_CAP))
            self.blocks[q], self.dim[q] = blocks, offset
        for q in self.blocks.keys() - self.rel.keys():
            self.rel[q] = block_diag(
                [block_diag([C.term(b.j).relators] * b.rank)
                 for b in self.blocks[q]]) if self.blocks[q] else zeros(0, 0)
        new = [q for q in range(qlo - 1, qhi + 1) if q not in self.diff]
        self.diff.update((q, self._assemble(q)) for q in new)
        # d o d on each built pair (d^q, d^{q+1}) with a member in new
        built = {q for q in self.diff if q + 1 in self.diff}
        for q in sorted(built & {p for n in new for p in (n - 1, n)}):
            prod = matmul(self.diff[q + 1], self.diff[q])
            if not self._in_relator_span(q + 2, prod):
                raise ValidationError(
                    "total complex fails d o d = 0 at degree %d" % q)

    def _assemble(self, q: int) -> IntMatrix:
        src = self.blocks[q]
        dst_by_j = {b.j: b for b in self.blocks[q + 1]}
        D = zeros(self.dim[q + 1], self.dim[q])
        hsign = -1 if q % 2 == 0 else 1  # -(-1)^q
        for b in src:
            if b.gens == 0:
                continue
            # vertical: postcompose with the coefficient differential
            tgt = dst_by_j.get(b.j + 1)
            if tgt is not None and tgt.gens:
                _add_per_generator(D, tgt, b, self.C.diff(b.j), b.rank)
            # horizontal: precompose with the resolution differential
            tgt = dst_by_j.get(b.j)
            if tgt is not None and tgt.gens:
                _add_precomposed(D, tgt, b, self.X.diff_lists(b.s - 1),
                                 self.C.term(b.j).pattern, hsign)
        return D

    def _in_relator_span(self, q: int, cols: IntMatrix) -> bool:
        rel = self.rel[q]
        if rel.shape[1] == 0 or cols.shape[1] == 0:
            return is_zero(cols)
        solver = self._rel_solvers.get(q)
        if solver is None:
            solver = self._rel_solvers[q] = LatticeSolver(rel)
        return solver.contains(cols)

    def homology(self, q: int) -> Subquotient:
        if q - 1 not in self.diff or q not in self.diff:
            raise ValidationError("degree %d outside computed range" % q)
        numerator = preimage_lattice(self.diff[q], self.rel[q + 1])
        denominator = hstack([self.diff[q - 1], self.rel[q]])
        return Subquotient(numerator, denominator)


# ---------------------------------------------------------------------------
# the groups


class TateClass:
    """A cohomology class: degree, coordinates in the canonical generators
    of its group, and its order."""

    __slots__ = ("degree", "coords", "order")

    def __init__(self, degree: int, coords: Tuple[int, ...], order: int):
        self.degree = degree
        self.coords = tuple(int(c) for c in coords)
        self.order = order

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return "TateClass(q=%d, coords=%s, order=%d)" % (
            self.degree, self.coords, self.order)


class TateGroups:
    """Per-degree Tate groups of a total complex, with stored subquotients
    and representative cocycles.  cover(qlo, qhi) covers the complex and
    reduces each degree of [qlo, qhi] not held yet, asserting that its group
    is finite (they are killed by |G|) and its representatives cocycles."""

    def __init__(self, total: TotalComplex, qlo: int, qhi: int):
        self.total = total
        self._sub: Dict[int, Subquotient] = {}
        self.cover(qlo, qhi)

    def cover(self, qlo: int, qhi: int) -> None:
        new = [q for q in range(qlo, qhi + 1) if q not in self._sub]
        if new or qlo > qhi:  # held degrees passed the window check
            self.total.cover(qlo, qhi)
        for q in new:
            sq = self.total.homology(q)
            if not sq.group.is_finite:
                raise ValidationError(
                    "Tate group at degree %d came out infinite" % q)
            if not self.total._in_relator_span(
                    q + 1, matmul(self.total.diff[q], sq.group.basis_lift)):
                raise ValidationError(
                    "representative at degree %d is not a cocycle" % q)
            self._sub[q] = sq

    def subquotient(self, q: int) -> Subquotient:
        return self._sub[q]

    def group(self, q: int) -> AbGroup:
        return self._sub[q].group

    def invariants(self, q: int) -> Tuple[int, ...]:
        return self._sub[q].group.invariants()

    def order(self, q: int) -> int:
        return self._sub[q].group.order()

    def representative(self, q: int, i: int) -> np.ndarray:
        return self._sub[q].representative(i)

    def element(self, q: int, coords: Sequence[int]) -> np.ndarray:
        """Ambient cochain representing the class with these coordinates."""
        sq = self._sub[q]
        out = np.zeros(self.total.dim[q], dtype=object)
        for i, c in enumerate(coords):
            if c:
                out = out + int(c) * sq.representative(i)
        return out

    def classify(self, q: int, cochain: np.ndarray) -> Tuple[int, ...]:
        return self._sub[q].classify(cochain)

    def class_at(self, q: int, coords: Sequence[int]) -> TateClass:
        grp = self.group(q)
        reduced = grp.reduce_coords(np.array(list(coords), dtype=object))
        return TateClass(q, reduced, grp.element_order(reduced))

    def classify_class(self, q: int, cochain: np.ndarray) -> TateClass:
        return self.class_at(q, self.classify(q, cochain))


def _kept(X, C: GComplex) -> SimpleNamespace:
    """X._tate[id(C)]: C, held so that its id stays its own while X lives,
    its one growing TateGroups (None before the first read), and C coinduced
    from the subgroups asked, by their elements.  X._tate["Z"] is Z's."""
    if id(C) not in X._tate:
        X._tate[id(C)] = SimpleNamespace(C=C, groups=None, coinduced={})
    return X._tate[id(C)]


def tate_hypercohomology(X, C: GComplex, qlo: int, qhi: int) -> TateGroups:
    """Tate hypercohomology of C over [qlo, qhi], kept on X as one object per
    C that grows by degree: a request checks [qlo, qhi] against the window
    and builds only the degrees it does not hold yet."""
    kept = _kept(X, C)
    if kept.groups is None:
        kept.groups = TateGroups(TotalComplex(X, C, qlo, qhi), qlo, qhi)
    else:
        kept.groups.cover(qlo, qhi)
    return kept.groups


def _z_groups(X, qlo: int, qhi: int) -> TateGroups:
    """Tate groups of Z in degree 0, from the one Z complex kept on X."""
    if "Z" not in X._tate:
        X._tate["Z"] = _kept(X, concentrate(zmodule(X.group), 0))
    return tate_hypercohomology(X, X._tate["Z"].C, qlo, qhi)


def remark_agreement(X, M: GModule, qlo: int = -1, qhi: int = 2):
    """Compare hypercohomology of a module concentrated in degree 0 with
    the directly computed ordinary Tate cohomology: fixed/norm at q = 0,
    norm-kernel/augmentation at q = -1, inhomogeneous cochains at q >= 1.

    Returns (q, hyper invariants, ordinary invariants, agree?) rows;
    degrees below -1 have no independent ordinary route and are skipped.
    """
    # M's complex is new to this call, so its groups are not kept on X
    T = TateGroups(TotalComplex(X, concentrate(M, 0), qlo, qhi), qlo, qhi)
    rows = []
    for q in range(qlo, qhi + 1):
        if q == 0:
            ordinary = h0(M).invariants()
        elif q == -1:
            ordinary = h_minus1(M).invariants()
        elif q >= 1:
            ordinary = cochain_cohomology(M, q).invariants()
        else:
            continue
        hyper = T.invariants(q)
        rows.append((q, hyper, ordinary, hyper == ordinary))
    return rows


# ---------------------------------------------------------------------------
# subgroups, by Shapiro's lemma


def _split(G, H: Subgroup) -> List[Tuple[int, int]]:
    """For each x in G the pair (k, h) with x = h g_k, over the right
    transversal {g_k} of H in G."""
    split = [(0, 0)] * G.order
    for k, gk in enumerate(right_transversal(G, H)):
        for h in H.elements:
            split[G.mul(h, gk)] = (k, h)
    return split


def _placed(M: GModule, pairs: Sequence[Tuple[int, int]],
            index: int) -> IntMatrix:
    """Row block k holds M.act(h) in column block i of index blocks, for
    (i, h) = pairs[k]."""
    g = M.gens
    out = zeros(len(pairs) * g, index * g)
    for k, (i, h) in enumerate(pairs):
        out[k * g:(k + 1) * g, i * g:(i + 1) * g] = M.act(h)
    return out


class _CoinducedModule(GModule):
    """A term CoInd_H^G Res_H M, |G:H| blocks of M, whose action is kept
    as the pairs _pairs[x, k] = (i, h) with g_k x = h g_i: block k of x is
    M.act(h) in column block i.  The pattern reads them, and act lays a
    matrix out when asked.  The laws follow from M's, which were checked,
    so they are not checked again."""

    def __init__(self, M: GModule, split: list, transversal: list):
        G, t = M.group, len(transversal)
        self.group, self.base, self.name = G, M, "coind(%s)" % M.name
        self.relators, self.gens = block_diag([M.relators] * t), M.gens * t
        self._pairs = np.array(split)[np.asarray(G.table)[transversal].T]

    @property
    def action(self) -> tuple:
        return tuple(map(self.act, self.group.elements))

    def act(self, g: int) -> IntMatrix:
        return _placed(self.base, self._pairs[g], len(self._pairs[g]))

    @cached_property
    def pattern(self) -> tuple:
        """M's coordinate lists, placed block by block by the pairs."""
        rows, cols, vals = self.base.pattern
        i, h = self._pairs[..., 0, None], self._pairs[..., 1]
        n, t, m = len(h), h.shape[1], self.base.gens
        return ((np.arange(t)[:, None] * m + rows[h]).reshape(n, -1),
                (i * m + cols[h]).reshape(n, -1), vals[h].reshape(n, -1))


class _CoinducedComplex(GComplex):
    def _validate(self):
        """Equivariance and d o d follow from C's, which were checked;
        checking them again would multiply |G:H|-fold matrices over G."""


def coinduced(C: GComplex, H: Subgroup) -> GComplex:
    """CoInd_H^G Res_H C over G, and C itself for H = G.  By Shapiro's
    lemma (Brown, Cohomology of Groups, III.5-III.6 and VI.5) its Tate
    groups over G are those of C over H.

    A function f with f(h x) = h f(x) is kept by its values f(g_k) on the
    right transversal, block k of each term, and g acts by
    (g f)(g_k) = h f(g_k') where g_k g = h g_k'.  On a resolution X,
    Hom_G(X^s, CoInd C^j) then keeps the value at the element g_k of
    generator a in block k of generator a.  The terms are built from C's
    checked terms, whose laws they inherit, so neither they nor the
    complex are checked again.
    """
    G = C.group
    if H.parent is not G:
        raise ValidationError("subgroup belongs to a different group")
    if H.is_whole_group():
        return C
    split, transversal = _split(G, H), right_transversal(G, H)
    terms = [_CoinducedModule(C.term(j), split, transversal)
             for j in C.degrees()]
    diffs = [block_diag([C.diff(j)] * H.index) for j in range(C.lo, C.hi)]
    return _CoinducedComplex(G, C.lo, terms, diffs,
                             name="coind(%s)" % C.name)


def restriction_blocks(C: GComplex, U: Subgroup, V: Subgroup,
                       total_U: TotalComplex, total_V: TotalComplex,
                       q: int) -> IntMatrix:
    """Cochain-level restriction matrix at degree q, from U's groups to
    those of V <= U, both on X with coinduced coefficients: the coefficient
    map CoInd_U C -> CoInd_V C reads a function on V's transversal, so
    block k takes h . (block i) where gV_k = h gU_i with h in U."""
    split = _split(C.group, U)
    pairs = [split[x] for x in right_transversal(C.group, V)]
    comps = {j: _placed(C.term(j), pairs, U.index) for j in C.degrees()}
    return _postcompose_map(total_U, total_V, comps, q, 0)


class SubgroupPair:
    """Tate groups of a group and one subgroup over a degree range, with
    the restriction and corestriction maps between them.  H's groups are
    G's with C coinduced from H, kept on X per (C, H); for H = G that is C
    itself.  Every degree of the range is computed on both sides, its
    representatives checked as cocycles."""

    def __init__(self, X, C: GComplex, H: Subgroup, qlo: int, qhi: int):
        self.C = C
        self.subgroup = H
        kept = _kept(X, C).coinduced
        if H.elements not in kept:
            kept[H.elements] = coinduced(C, H)
        self.tate_G = tate_hypercohomology(X, C, qlo, qhi)
        self.tate_H = tate_hypercohomology(X, kept[H.elements], qlo, qhi)

    def res_cochain(self, q: int) -> IntMatrix:
        return restriction_blocks(self.C, whole_subgroup(self.C.group),
                                  self.subgroup, self.tate_G.total,
                                  self.tate_H.total, q)

    def cor_cochain(self, q: int) -> IntMatrix:
        """The transfer, from the coefficient map CoInd_H C -> C sending f
        to the sum over the right transversal of g_k^{-1} f(g_k)."""
        G = self.C.group
        inverses = [G.inv(gk) for gk in right_transversal(G, self.subgroup)]
        comps = {j: hstack([self.C.term(j).act(x) for x in inverses])
                 for j in self.C.degrees()}
        return _postcompose_map(self.tate_H.total, self.tate_G.total, comps,
                                q, 0)

    def res_class(self, x: TateClass) -> TateClass:
        vec = self.tate_G.element(x.degree, x.coords)
        image = self.res_cochain(x.degree) @ vec
        return self.tate_H.classify_class(x.degree, image)

    def cor_matrix(self, q: int) -> IntMatrix:
        return induced_map(self.tate_H, self.tate_G, self.cor_cochain(q),
                           q, q).matrix


# ---------------------------------------------------------------------------
# chain-map lifting and cup products


def equivariant_full(acts: Sequence[IntMatrix], gen: IntMatrix) -> IntMatrix:
    """Full Z-matrix of an equivariant map Z[G]^r -> M from its generator
    matrix, where acts[sigma] is the action of sigma on M."""
    n = len(acts)
    dim, r = gen.shape
    out = zeros(dim, r * n)
    for sigma in range(n):
        block = acts[sigma] @ gen
        for b in range(r):
            out[:, b * n + sigma] = block[:, b]
    return out


class ShiftLift:
    """An equivariant chain map Xi raising resolution degree by p, lifting
    a degree-p cocycle w with Z coefficients (w lives on X^{-p}).

    Components Xi^(s): X^s -> X^{s+p} satisfy
        Xi^(s+1) o d^s = (-1)^p d^{s+p} o Xi^(s),
    anchored at s = -p by Xi(gen b) = w_b e_{(0, e)}, so that the
    augmentation recovers w.  One loop extends a chain map downward:
    Xi^(s) solves d^{s+p} o Xi^(s) = (-1)^p Xi^(s+1) o d^s on generators,
    against X's kept elimination of d^{s+p}.  Above the anchor the same
    loop runs on the transpose Xi*, which X's self-duality
    (d^q)^T = d^{-q} makes a chain map of the same p and sign:
    Xi*^(t) = (Xi^(1-t-p))^T, anchored at t = 1, with generator matrices
    related by dual_gen.  Exactness and freeness make every step solvable;
    failure raises LiftingError naming the degree s of Xi, since it
    indicates corrupted input, and every chain square is checked after
    construction.
    """

    def __init__(self, X, w: np.ndarray, p: int, s_lo: int, s_hi: int):
        self.X = X
        self.p = p
        s_lo = min(s_lo, -p)
        s_hi = max(s_hi, -p)
        G = X.group
        sign = -1 if p % 2 else 1

        def lift_down(top, t_top, t_lo, degree):
            # components t_lo..t_top of a chain map raising degree by p,
            # from the one at t_top; ``degree`` names a failed t as Xi's s
            gen = {t_top: top}
            for t in range(t_top - 1, t_lo - 1, -1):
                above = free_full_matrix(G, X.rank(t + 1 + p), gen[t + 1])
                gen[t] = X.solver(t + p).solve(sign * (above @ X.diff_gen(t)))
                if gen[t] is None:
                    raise LiftingError("chain extension failed at degree %d"
                                       % degree(t))
            return gen

        anchor = zeros(X.zdim(0), X.rank(-p))
        for b in range(X.rank(-p)):
            anchor[G.identity, b] = w[b]
        self.gen = lift_down(anchor, -p, s_lo, lambda t: t)
        dual = lift_down(dual_gen(G, X.rank(0), anchor), 1, 1 - s_hi - p,
                         lambda t: 1 - t - p)
        for s in range(1 - p, s_hi + 1):
            self.gen[s] = dual_gen(G, X.rank(s), dual[1 - s - p])
        for s in range(s_lo, s_hi):
            up = free_full_matrix(G, X.rank(s + 1 + p), self.gen[s + 1])
            rhs = sign * (X.full_diff(s + p) @ self.gen[s])
            if not np.array_equal(up @ X.diff_gen(s), rhs):
                raise LiftingError("chain square fails at degree %d" % s)


def cup_with(X, C: GComplex, a: TateClass, q: int) -> AbMap:
    """The map H^{q-2}(G, Z) -> H^q(G, C) given by cupping with a.

    Realized by composition: each source class w lifts to a chain map Xi
    raising resolution degree by q-2; postcomposing a representative of a
    with Xi gives the cup cochain.  Coefficient complexes wider than two
    adjacent degrees are rejected.
    """
    if a.degree != 2:
        raise ValidationError("cup_with expects a degree-2 class")
    tate = tate_hypercohomology(X, C, min(q, 2), max(q, 2))
    return cup_from_cochain(X, C, tate.element(2, a.coords), q)


def cup_from_cochain(X, C: GComplex, a_vec: np.ndarray, q: int) -> AbMap:
    """Same as cup_with, from an explicit degree-2 cocycle vector; used to
    demonstrate independence of the chosen representative."""
    if C.hi - C.lo + 1 > 2:
        raise ValidationError(
            "cup products support coefficient complexes of width <= 2, "
            "got support [%d, %d]" % (C.lo, C.hi))
    p = q - 2
    tate = tate_hypercohomology(X, C, min(q, 2), max(q, 2))
    tz = _z_groups(X, p, p)
    source = tz.group(p)
    target = tate.group(q)

    alpha_full: Dict[int, IntMatrix] = {}
    for blk in tate.total.blocks[2]:
        if blk.gens == 0:
            continue
        alpha_full[blk.j] = equivariant_full(C.term(blk.j).action,
                                             blk.gen_matrix(a_vec))

    s_needed = [j - q for j in C.degrees()]
    cols = []
    for i in range(source.ngens):
        w = tz.representative(p, i)
        xi = ShiftLift(X, w, p, min(s_needed), max(s_needed))
        phi = np.zeros(tate.total.dim[q], dtype=object)
        for blk in tate.total.blocks[q]:
            if blk.gens == 0 or blk.j not in alpha_full:
                continue
            blk.put(phi, alpha_full[blk.j] @ xi.gen[blk.j - q])
        cols.append(tate.classify(q, phi))
    return AbMap.from_columns(cols, source, target)


# ---------------------------------------------------------------------------
# degree -2 with Z coefficients vs the abelianization


def iota_abelianization(X) -> AbMap:
    """H^{-2}(G, Z) -> G^ab via the augmentation ideal: a cocycle w on X^2
    produces the element h = -(w~ o d^1)(generator) of the augmentation
    ideal, whose coordinates map onto the abelianization.  The overall sign
    is a fixed convention; the map is validated as an isomorphism."""
    G, n = X.group, X.group.order
    if X.rank(1) != 1:
        raise ValidationError("identification needs a rank-1 degree-0 term")
    ab, coords_of = abelianization(G)
    tz = _z_groups(X, -2, -2)
    grp = tz.group(-2)
    d1 = X.diff_lists(1)  # one column
    b, tau = np.divmod(d1.rows, n)
    cols = []
    for i in range(grp.ngens):
        h = np.zeros(n, dtype=object)
        np.subtract.at(h, tau, d1.vals * tz.representative(-2, i)[b])
        if sum(h) != 0:
            raise ValidationError("connecting element missed the "
                                  "augmentation ideal")
        acc = np.zeros(ab.ngens, dtype=object)
        for g in range(n):
            if h[g] and g != G.identity:
                acc = acc + h[g] * np.array(coords_of[g], dtype=object)
        cols.append(ab.reduce_coords(acc))
    return AbMap.from_columns(cols, grp, ab)


# ---------------------------------------------------------------------------
# Tate-Nakayama


class TateNakayamaReport:
    """Hypothesis and conclusion records for the cup-isomorphism theorem,
    for the candidate class a over the degrees [qlo, qhi]."""

    def __init__(self, candidate: TateClass, qlo: int, qhi: int):
        self.candidate = candidate
        self.qlo = qlo
        self.qhi = qhi
        self.h1_rows: List[Tuple[tuple, tuple, bool]] = []
        self.res_rows: List[Tuple[tuple, int, int, tuple, bool]] = []
        self.conclusion: List[Tuple[int, tuple, tuple, bool]] = []
        self.failed_hypothesis: Optional[str] = None

    @property
    def hypotheses_pass(self) -> bool:
        return self.failed_hypothesis is None

    @property
    def verdict(self) -> str:
        if self.failed_hypothesis:
            return "FAIL %s" % self.failed_hypothesis
        if all(ok for _, _, _, ok in self.conclusion):
            return "PASS"
        return "FAIL conclusion"

    def as_dict(self) -> dict:
        """The report's JSON form, as the CLI emits it."""
        return {
            "analysis": "tate-nakayama",
            "range": [self.qlo, self.qhi],
            "candidate": {"coords": int_list(self.candidate.coords),
                          "order": int(self.candidate.order)},
            "hypothesis_i": [
                {"subgroup": int_list(e), "h1": int_list(inv), "ok": ok}
                for e, inv, ok in self.h1_rows],
            "hypothesis_ii": [
                {"subgroup": int_list(e), "subgroup_order": int(size),
                 "res_order": int(order), "h2": int_list(inv), "ok": ok}
                for e, size, order, inv, ok in self.res_rows],
            "conclusion": [
                {"q": q, "source": int_list(src), "target": int_list(tgt),
                 "isomorphism": ok}
                for q, src, tgt, ok in self.conclusion],
            "verdict": self.verdict,
        }


def tate_nakayama_check(X, C: GComplex, a: TateClass,
                        qlo: int = -2, qhi: int = 3) -> TateNakayamaReport:
    """Verify hypothesis (i) H^1(H, C) = 0 for every subgroup, hypothesis
    (ii) res_H(a) generates H^2(H, C) and has order |H|, and (when those
    hold) that cupping with a is an isomorphism in each requested degree.
    Both are read once per conjugacy class: conjugation is an isomorphism
    on Tate groups commuting with res from G, fixing a (Brown III.8, VI.5)."""
    G = X.group
    report = TateNakayamaReport(a, qlo, qhi)
    subs = all_subgroups(G)
    reps = conjugacy_representatives(G, subs)
    for H in subs:
        pair = SubgroupPair(X, C, reps[H.elements], 1, 2)
        inv1 = pair.tate_H.invariants(1)
        ok1 = inv1 == ()
        report.h1_rows.append((H.elements, inv1, ok1))
        if not ok1 and report.failed_hypothesis is None:
            report.failed_hypothesis = "(i)"
        res_a = pair.res_class(a)
        h2 = pair.tate_H.group(2)
        ok2 = res_a.order == H.order and h2.order() == H.order
        report.res_rows.append(
            (H.elements, H.order, res_a.order, h2.invariants(), ok2))
        if not ok2 and report.failed_hypothesis is None:
            report.failed_hypothesis = "(ii)"
    if report.failed_hypothesis is None and qlo <= qhi:
        # the conclusion's range is checked against the window as a whole,
        # so a window too small names it and not one degree's cup
        tate_hypercohomology(X, C, min(qlo, 2), max(qhi, 2))
        _z_groups(X, qlo - 2, qhi - 2)
        for q in range(qlo, qhi + 1):
            cup = cup_with(X, C, a, q)
            report.conclusion.append(
                (q, cup.source.invariants(), cup.target.invariants(),
                 cup.is_isomorphism()))
    return report


# ---------------------------------------------------------------------------
# cones of multiplication


class ConeReport:
    """Order bookkeeping for the exact sequences induced by the cone of
    multiplication by m, over the degrees [ilo, ihi]."""

    def __init__(self, m: int, ilo: int, ihi: int):
        self.m = m
        self.ilo = ilo
        self.ihi = ihi
        self.rows: List[Tuple[int, int, int, int, bool]] = []
        self.map_rows: List[Tuple[int, int, int, bool]] = []

    @property
    def passed(self) -> bool:
        return (all(ok for *_, ok in self.rows)
                and all(ok for *_, ok in self.map_rows))

    def as_dict(self) -> dict:
        """The report's JSON form, as the CLI emits it."""
        return {
            "analysis": "cone-les",
            "m": self.m,
            "range": [self.ilo, self.ihi],
            "rows": [{"i": i, "cone_order": int(lhs), "quotient_order": int(qo),
                      "torsion_order": int(to), "ok": ok}
                     for i, lhs, qo, to, ok in self.rows],
            "maps": [{"i": i, "inclusion_image": int(a),
                      "projection_image": int(b), "ok": ok}
                     for i, a, b, ok in self.map_rows],
            "verdict": "ok" if self.passed else "MISMATCH",
        }


def _mod_m_order(invariants: Tuple[int, ...], m: int) -> int:
    out = 1
    for t in invariants:
        out *= gcd(int(t), m) if t else m
    return out


def cone_les_check(X, C: GComplex, m: int, ilo: int = -2,
                   ihi: int = 2) -> ConeReport:
    """For each degree verify |H^i(cone m)| = |H^i(C)/m| * |_m H^{i+1}(C)|
    and that the inclusion/projection maps realize the exact sequence:
    their composite vanishes and their image orders multiply out."""
    tri = cone_of_mult(C, m)
    tC = tate_hypercohomology(X, C, ilo, ihi + 1)
    # the cone is new to this call, so its groups are not kept on X
    tK = TateGroups(TotalComplex(X, tri.cone, ilo, ihi), ilo, ihi)
    report = ConeReport(m, ilo, ihi)
    for i in range(ilo, ihi + 1):
        lhs = tK.order(i)
        quot = _mod_m_order(tC.invariants(i), m)
        tors = _mod_m_order(tC.invariants(i + 1), m)
        report.rows.append((i, lhs, quot, tors, lhs == quot * tors))

        inc = _postcompose_map(tC.total, tK.total, tri.inclusion, i, 0)
        proj = _postcompose_map(tK.total, tC.total, tri.projection, i, 1)
        im_inc = induced_map(tC, tK, inc, i, i).image_order()
        im_proj = induced_map(tK, tC, proj, i, i + 1).image_order()
        composite_zero = not any(
            any(tC.classify(i + 1, proj @ (inc @ tC.representative(i, gi))))
            for gi in range(tC.group(i).ngens))
        ok = (composite_zero and im_inc == quot
              and im_proj == tors and im_inc * im_proj == lhs)
        report.map_rows.append((i, im_inc, im_proj, ok))
    return report


def _postcompose_map(total_src: TotalComplex, total_dst: TotalComplex,
                     comps: Dict[int, IntMatrix], q: int,
                     j_shift: int) -> IntMatrix:
    """Blockwise postcomposition with a degreewise coefficient map C^j ->
    D^{j + j_shift}, from degree q to degree q + j_shift: each source
    block goes to the destination block of the same resolution degree."""
    dst_q = q + j_shift
    out = zeros(total_dst.dim[dst_q], total_src.dim[q])
    dst_by_s = {b.s: b for b in total_dst.blocks[dst_q]}
    for b in total_src.blocks[q]:
        tgt = dst_by_s.get(b.s)
        comp = comps.get(b.j)
        if tgt is not None and comp is not None:
            _add_per_generator(out, tgt, b, comp, b.rank)
    return out


def induced_map(src: TateGroups, dst: TateGroups, cochain_map: IntMatrix,
                q_src: int, q_dst: int) -> AbMap:
    """The map H^{q_src} -> H^{q_dst} induced by a cochain map."""
    cols = [dst.classify(q_dst, cochain_map @ src.representative(q_src, i))
            for i in range(src.group(q_src).ngens)]
    return AbMap.from_columns(cols, src.group(q_src), dst.group(q_dst))


# ---------------------------------------------------------------------------
# diagonal approximation (cyclic groups)


class DiagonalApproximation:
    """Components Delta_{a,b}: X^{a+b} -> X^a (x) X^b of a complete
    diagonal for a cyclic group, stored as generator matrices over a
    diamond |a|, |b|, |a+b| <= depth.

    The components are written down in closed form (Cartan & Eilenberg,
    Homological Algebra, XII.7).  Let T be the generator read off the
    degree -1 differential, d(e) = T e - e.  On the resolution whose odd
    differentials are T - 1 and whose even ones are the norm N,
        a even:        Delta_{a,b}(e) = e (x) e,
        a odd, b even: Delta_{a,b}(e) = e (x) T e,
        a, b odd:      Delta_{a,b}(e) = sum_{0<=i<j<|G|} T^i e (x) T^j e.
    In a complete resolution the odd differentials in positive degrees
    are the duals T^{-1} - 1 instead.  Multiplication by the units
    u_q = (-T^{-1})^{floor(q/2)} for q > 0 (u_q = 1 for q <= 0) carries
    the first complex onto the second, so each component is transported:
        Delta^X_{a,b}(e) = (u_a (x) u_b) u_{a+b}^{-1} Delta_{a,b}(e).
    Resolutions with any other differential are refused up front.
    verified lists the commuting equations
        (d (x) 1) Delta_{a-1,b} + (-1)^a (1 (x) d) Delta_{a,b-1}
            = Delta_{a,b} o d
    checked by direct multiplication.
    """

    def __init__(self, X, depth: int):
        G = X.group
        if not G.is_cyclic():
            raise ValidationError(
                "diagonal approximation is provided for cyclic groups only")
        if X.window < depth + 1:
            raise WindowError("diagonal depth %d needs window >= %d"
                              % (depth, depth + 1))
        for s in range(-depth - 1, depth + 1):
            if X.rank(s) != 1:
                raise ValidationError(
                    "diagonal approximation needs a rank-one resolution; "
                    "use the periodic engine")
        self.X = X
        self.depth = depth
        self.gen: Dict[Tuple[int, int], IntMatrix] = {}
        self.verified: List[Tuple[int, int]] = []
        powers = self._generator_powers()
        for t in range(-depth, depth + 1):
            for (a, b) in self._pairs_at(t):
                if G.order == 1:
                    # X = X (x) X canonically; every component is the identity
                    self.gen[(a, b)] = np.ones((1, 1), dtype=object)
                else:
                    self.gen[(a, b)] = self._closed_form(a, b, powers)
        self._verify()

    def _generator_powers(self) -> List[int]:
        """T^0, ..., T^{|G|-1}, after checking that every differential in
        the diamond is T - 1 (odd, below 0), N (even) or T^{-1} - 1 (odd,
        above 0)."""
        G = self.X.group
        n, e = G.order, G.identity

        def minus(g: int) -> List[int]:
            return [int(k == g) - int(k == e) for k in range(n)]

        def column(q: int) -> List[int]:
            return [int(v) for v in self.X.diff_gen(q)[:, 0]]

        # T is the element with d^{-1}(e) = T e - e
        T = next((g for g in range(n) if column(-1) == minus(g)), e)
        powers = [e]
        for _ in range(n - 1):
            powers.append(G.mul(T, powers[-1]))
        ok = len(set(powers)) == n
        for q in range(-self.depth, self.depth):
            want = minus(T if q < 0 else G.inv(T)) if q % 2 else [1] * n
            ok = ok and column(q) == want
        if not ok:
            raise ValidationError(
                "diagonal approximation needs the differentials T - 1, N "
                "and T^-1 - 1 of a periodic resolution; use the periodic "
                "engine")
        return powers

    def _closed_form(self, a: int, b: int, powers: List[int]) -> IntMatrix:
        n = len(powers)
        if a % 2 == 0:
            terms = [(0, 0)]
        elif b % 2 == 0:
            terms = [(0, 1)]
        else:
            terms = [(i, j) for j in range(n) for i in range(j)]
        # u_q = (-1)^h T^{-h} with h = floor(q/2) for q > 0, else h = 0
        ha, hb, ht = (q // 2 if q > 0 else 0 for q in (a, b, a + b))
        sign = -1 if (ha + hb + ht) % 2 else 1
        out = zeros(n * n, 1)
        for i, j in terms:
            left = powers[(i + ht - ha) % n]
            right = powers[(j + ht - hb) % n]
            out[left * n + right, 0] += sign
        return out

    def _pairs_at(self, t: int) -> List[Tuple[int, int]]:
        D = self.depth
        return [(a, t - a) for a in range(-D, D + 1) if abs(t - a) <= D]

    def _lhs(self, a: int, b: int) -> IntMatrix:
        """(d (x) 1) Delta_{a-1,b} + (-1)^a (1 (x) d) Delta_{a,b-1}."""
        X = self.X
        out = kron(X.full_diff(a - 1), eye(X.zdim(b))) @ self.gen[(a - 1, b)]
        s = -1 if a % 2 else 1
        return out + s * (kron(eye(X.zdim(a)), X.full_diff(b - 1))
                          @ self.gen[(a, b - 1)])

    def _verify(self) -> None:
        X = self.X
        G = X.group
        acts = [kron(P, P) for P in regular_module(G).action]
        for t in range(-self.depth + 1, self.depth + 1):
            for (a, b) in self._pairs_at(t):
                if (a - 1, b) in self.gen and (a, b - 1) in self.gen:
                    full = equivariant_full(acts, self.gen[(a, b)])
                    if not np.array_equal(self._lhs(a, b),
                                          full @ X.diff_gen(t - 1)):
                        raise LiftingError(
                            "diagonal equation fails at (%d, %d)" % (a, b))
                    self.verified.append((a, b))


def diagonal_approximation(X, depth: int) -> DiagonalApproximation:
    return DiagonalApproximation(X, depth)


def cup_via_diagonal(X, diag: DiagonalApproximation, C: GComplex,
                     w: np.ndarray, p: int, a_vec: np.ndarray,
                     tate: TateGroups, q: int) -> Tuple[int, ...]:
    """Cross-check route for cup products on a module concentrated in
    degree 0: evaluate (w (x) alpha) o Delta_{-p,-2} on generators and
    classify.  Agreement with the composition route is expected only up to
    a global sign per degree."""
    if C.lo != 0 or C.hi != 0:
        raise ValidationError("diagonal cup cross-check expects a module "
                              "concentrated in degree 0")
    n = X.group.order
    M = C.term(0)
    alpha_gen = tate.total.blocks[2][0].gen_matrix(a_vec)
    delta = GenLists.of(diag.gen[(-p, -2)])
    zb = X.zdim(-2)
    phi = zeros(M.gens, X.rank(-p - 2))
    for row, c, val in zip(delta.rows, delta.cols, delta.vals):
        u, v = divmod(int(row), zb)
        b_idx, rho = divmod(v, n)
        val = val * w[u // n]
        if val:
            phi[:, c] += val * (M.act(rho) @ alpha_gen[:, b_idx])
    vec = np.zeros(tate.total.dim[q], dtype=object)
    tate.total.blocks[q][0].put(vec, phi)
    return tate.classify(q, vec)
