"""Non-simplicity screening for rank-3 restricted algebras.

The machinery here turns dimension patterns of root spaces into verified
proper ideals.  The central facts, each realized as a checkable operation:

* a centerless algebra of rank r has r independent roots and dim >= 2r
  (:func:`check_dim_bound`);
* if all root spaces are one-dimensional, the nilpotent part plus the root
  spaces form an ideal (:func:`one_dim_rootspace_ideal`);
* if the squares of g_xi do not vanish under the extended functional eta,
  then g_eta and g_{xi+eta} have equal dimension and ad of a witness maps
  either injectively into the other (:func:`dimension_transfer`);
* squares of a root space are confined to a small torus slice plus the
  nilpotent part once enough dimension inequalities hold
  (:func:`kernel_confinement`, :func:`self_bracket_bound`);
* with all seven roots present and two root-space dimensions different,
  an explicit construction yields a proper nonzero ideal: the pure
  :func:`dispatch` picks one of seven from the order pattern of the
  dimensions through the stage table ``_STAGES``, and
  :func:`construct_ideal_rank3` builds it (the eighth,
  AlphaGammaGtBetaGamma, never fires first and is reached only through
  :func:`named_construction`);
* with fewer than seven roots, the torus projections of all self-brackets
  land in an explicit subspace of dimension at most two, so the Cartan
  subalgebra cannot be recovered from them and a proper ideal exists
  (:func:`missing_roots_obstruction`);
* therefore a simple rank-3 algebra with triangulable Cartan subalgebra
  must have all seven root spaces of equal dimension, which pushes its
  dimension past 16 (:func:`simplicity_screen`, a necessary-condition
  screen that never claims simplicity).

Every produced IdealReport re-verifies its subspace from scratch (ideal
property, properness, nonzeroness), and :func:`is_simple` gives the
independent brute-force verdict by spinning every 1-dimensional generator.
It stops a spin as soon as the spin reaches an earlier generator: that
generator's closure is already known to be the whole algebra, and a proper
closure never contains one, so the verdict, the closure count and the
counterexample are those of spinning every closure in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebra import (
    LieAlgebra,
    bracket_span,
    center,
    is_ideal,
    spin,
)
from .errors import BudgetExceededError, ContradictionError, PreconditionError
from .field import gf
from .linalg import Subspace, combine, kernel_of_map, pivot_index, rref_rows, solve, vget
from .restricted import TwoMap, square
from .roots import (
    DELTA_SETS,
    DeltaClass,
    RootDecomposition,
    apply_gl3,
    canonical_toral_basis,
    classify_delta,
    extended_root,
    format_root,
    gl3_matrices,
    is_triangulable,
    root_decomposition,
    square_span,
)
from .tori import maximal_torus

SIMPLE_ORACLE_BITS = 20  # ceiling on k*n for the exhaustive simplicity oracle

# construction labels: which dimension-inequality pattern fired
LEMMA_ALPHA_GT_BETA = "AlphaGtBeta"
LEMMA_BETA_GT_XI = "BetaGtXi"
LEMMA_AB_GT_AG = "AlphaBetaGtAlphaGamma"
LEMMA_BG_GT_ABG = "BetaGammaGtABG"
LEMMA_AG_GT_EQ = "AlphaGammaGtEq"
LEMMA_GAMMA_GT_XI = "GammaGtXi"
LEMMA_ABG_GT_AG = "ABGGtAlphaGamma"
LEMMA_AG_GT_BG = "AlphaGammaGtBetaGamma"
LEMMA_DIM1 = "Dim1"
LEMMA_CENTER = "Center"
LEMMA_MISSING_ROOTS = "MissingRoots"

VERDICT_WITNESS = "NotSimpleWitness"
VERDICT_PASSES = "PassesNecessaryConditions"
VERDICT_OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class IdealReport:
    """A constructed subspace with its independently recomputed status."""

    lemma: str | None
    subspace: Subspace
    verified_ideal: bool
    proper: bool
    nonzero: bool
    basis_change: tuple | None = None

    def __repr__(self):
        flags = []
        if self.verified_ideal:
            flags.append("ideal")
        if self.proper:
            flags.append("proper")
        if self.nonzero:
            flags.append("nonzero")
        return f"IdealReport({self.lemma}, dim {self.subspace.dim}, {'+'.join(flags) or 'INVALID'})"


def _ideal_report(g: LieAlgebra, lemma, subspace, basis_change=None) -> IdealReport:
    # [g, u] inside u is the same as u being its own ideal closure: the spin
    # starts from u's rows and stays inside u exactly when [g, u] lies in u
    return IdealReport(
        lemma,
        subspace,
        is_ideal(g, subspace),
        subspace.dim < g.dim,
        subspace.dim > 0,
        basis_change,
    )


# ---------------------------------------------------------------------------
# decomposition bookkeeping
# ---------------------------------------------------------------------------

def _h_coordinates(g, d, v):
    """Coordinates of v in the basis (toral basis | nil basis) of h."""
    basis = list(d.torus.toral_basis) + list(d.nil_part.rows)
    c = solve(g.field, basis, v)
    if c is None:
        raise PreconditionError("vector does not lie in the Cartan subalgebra")
    return c


def _torus_projection(g, d, vectors):
    """Span of the t-components (along n) of vectors lying in h."""
    # the toral basis comes first in h, so combine reads only its coordinates
    rows = [combine(g.field, d.torus.toral_basis, _h_coordinates(g, d, v)) for v in vectors]
    return Subspace.from_vectors(g.field, g.dim, rows)


def _torus_slice(g, basis, masks) -> Subspace:
    """Subspace of t spanned by combinations of a toral basis (s1, s2, s3).

    ``masks`` are 3-bit masks over the basis, bit j selecting s_(j+1).
    """
    f1 = gf(1)
    return Subspace.from_vectors(g.field, g.dim, [combine(f1, basis, m) for m in masks])


def _roots_by_canonical(d: RootDecomposition, mat):
    """Map canonical root -> (observed root, subspace)."""
    return {apply_gl3(mat, lam): (lam, sp) for lam, sp in d.roots.items()}


# ---------------------------------------------------------------------------
# dimension bound (centerless rank-r algebras)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimBoundReport:
    independent_roots: int
    rank: int
    dim: int
    ok: bool


def check_dim_bound(g: LieAlgebra, tm: TwoMap, d: RootDecomposition) -> DimBoundReport:
    """Verify r independent roots exist and dim(g) >= 2r; centerless only."""
    if center(g).dim != 0:
        raise PreconditionError("dimension bound applies to centerless algebras")
    r = d.rank
    indep = len(rref_rows(gf(1), list(d.roots))[0])
    ok = indep >= r and g.dim >= 2 * r
    return DimBoundReport(indep, r, g.dim, ok)


# ---------------------------------------------------------------------------
# one-dimensional root spaces
# ---------------------------------------------------------------------------

def one_dim_rootspace_ideal(g: LieAlgebra, tm: TwoMap, d: RootDecomposition) -> IdealReport:
    """n plus all root spaces, an ideal when every root space has dim 1."""
    if center(g).dim != 0:
        raise PreconditionError("construction requires a centerless algebra")
    if any(sp.dim != 1 for sp in d.roots.values()):
        raise PreconditionError("construction requires all root spaces one-dimensional")
    vecs = list(d.nil_part.rows)
    for sp in d.roots.values():
        vecs.extend(sp.rows)
    return _ideal_report(g, LEMMA_DIM1, Subspace.from_vectors(g.field, g.dim, vecs))


# ---------------------------------------------------------------------------
# squares linking dimensions of root spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionTransfer:
    status: str  # "HypothesisNotMet" or "DimsEqual"
    witness: int | None = None
    dim_eta: int | None = None
    dim_xi_eta: int | None = None
    rank_into: int | None = None
    rank_back: int | None = None


def dimension_transfer(g, tm, d, xi: int, eta: int) -> DimensionTransfer:
    """If the squares of g_xi see eta, then dim g_eta = dim g_{xi+eta}.

    Returns HypothesisNotMet when every square of g_xi kills eta; otherwise
    exhibits a witness x with eta(x^[2]) != 0 and the two injective
    restrictions of ad(x).  An inequality of dimensions under the met
    hypothesis falsifies the theory and raises ContradictionError.
    """
    if xi not in d.roots or eta not in d.roots:
        raise PreconditionError("both functionals must be roots")
    er = extended_root(g, d, eta)
    if er.kernel().contains_space(square_span(g, tm, d, xi)):
        return DimensionTransfer("HypothesisNotMet")
    witness = None
    sp = d.roots[xi]
    candidates = list(sp.rows) + [a ^ b for a, b in combinations(sp.rows, 2)]
    for x in candidates:
        if er.value(square(g, tm, x)):
            witness = x
            break
    if witness is None:
        raise ContradictionError("square span escapes the kernel but no witness found")
    target = d.space(xi ^ eta)
    source = d.roots[eta]
    rank_into = len(rref_rows(g.field, [g.bracket(witness, y) for y in source.rows])[0])
    rank_back = len(rref_rows(g.field, [g.bracket(witness, y) for y in target.rows])[0])
    if source.dim != target.dim or rank_into != source.dim or rank_back != target.dim:
        raise ContradictionError(
            f"dimension transfer violated: dim g_eta={source.dim}, "
            f"dim g_(xi+eta)={target.dim}, ranks {rank_into}/{rank_back}"
        )
    return DimensionTransfer("DimsEqual", witness, source.dim, target.dim, rank_into, rank_back)


@dataclass(frozen=True)
class ConfinementReport:
    confined: bool
    slice_dim: int
    bound_dim_ok: bool
    slice_subspace: Subspace

    @property
    def ok(self):
        return self.confined and self.bound_dim_ok


def kernel_confinement(g, tm, d, alpha1: int, others) -> ConfinementReport:
    """Squares of g_{alpha1} land in a torus slice of dim <= r - k plus n.

    Requires {alpha1} union others independent with
    dim g_{alpha_i} != dim g_{alpha1 + alpha_i} for each listed root.
    """
    roots_all = [alpha1] + list(others)
    if len(rref_rows(gf(1), roots_all)[0]) != len(roots_all):
        raise PreconditionError("roots must be linearly independent")
    if alpha1 not in d.roots:
        raise PreconditionError("alpha1 must be a root")
    f = g.field
    r = d.rank
    for lam in others:
        if d.space(lam).dim == d.space(alpha1 ^ lam).dim:
            raise PreconditionError(
                f"need dim g_{format_root(lam, r)} != dim g_{format_root(alpha1 ^ lam, r)} "
                "for the confinement to be forced"
            )
    # slice = {t in torus : alpha_i(t) = 0 for all i}, in toral-basis coordinates
    images = []
    for j in range(r):
        bits = 0
        for i, lam in enumerate(roots_all):
            bits |= (lam >> j & 1) << i
        images.append(bits)
    coeff_kernel = kernel_of_map(f, r, images)
    rows = [combine(f, d.torus.toral_basis, cr) for cr in coeff_kernel.rows]
    slice_sub = Subspace.from_vectors(f, g.dim, rows)
    bound = slice_sub.sum(d.nil_part)
    confined = bound.contains_space(square_span(g, tm, d, alpha1))
    return ConfinementReport(confined, slice_sub.dim, slice_sub.dim <= r - len(roots_all), slice_sub)


def self_bracket_bound(g, tm, d, xi: int) -> ConfinementReport:
    """[g_xi, g_xi] sits inside a shape-dependent torus slice plus n.

    The slice depends on how xi reads in the canonical labelling: a basis
    root keeps the partner torals whose sum with xi is still a root, a sum
    of two basis roots keeps their difference direction (plus the third
    toral when the full sum is a root too), and the full sum keeps the
    two-dimensional slice killing it.
    """
    cls = classify_delta(d)
    if cls.index is None:
        raise PreconditionError("root set does not match any canonical configuration")
    if xi not in d.roots:
        raise PreconditionError("xi must be a root")
    mu = apply_gl3(cls.basis_change, xi)
    delta_set = DELTA_SETS[cls.index]
    s = canonical_toral_basis(d, cls)
    masks = []
    if mu in (1, 2, 4):
        for j in range(3):
            sigma = 1 << j
            if (sigma ^ mu) in delta_set:
                masks.append(sigma)
    elif mu == 7:
        masks = [0b101, 0b110]  # s1+s3, s2+s3
    else:
        masks = [mu]  # s_rho + s_omega for mu = rho + omega
        if 7 in delta_set:
            masks.append(7 ^ mu)
    slice_sub = _torus_slice(g, s, masks)
    bound = slice_sub.sum(d.nil_part)
    got = bracket_span(g, d.roots[xi], d.roots[xi])
    return ConfinementReport(bound.contains_space(got), slice_sub.dim, True, slice_sub)


# ---------------------------------------------------------------------------
# the N(sigma, delta) building block
# ---------------------------------------------------------------------------

def n_subspace(g, tm, d, sigma: int, delta: int) -> Subspace:
    """{x in g_sigma : [x, g_sigma] in n and [[x, g_delta], g_{sigma+delta}] in n}.

    Both conditions are linear in x, so the result is one kernel
    computation; when sigma+delta is not a root the second condition is
    vacuous.  Satisfies n_subspace(sigma, delta) = n_subspace(sigma,
    sigma+delta).
    """
    if sigma == delta:
        raise PreconditionError("the two roots must differ")
    if sigma not in d.roots:
        raise PreconditionError("sigma must be a root")
    f = g.field
    sp = d.roots[sigma]
    nil = d.nil_part
    sum_space = d.space(sigma ^ delta)
    delta_space = d.space(delta)
    images = []
    for x in sp.rows:
        blocks = []
        for y in sp.rows:
            blocks.append(nil.reduce(g.bracket(x, y)))
        for y in delta_space.rows:
            w = g.bracket(x, y)
            for z in sum_space.rows:
                blocks.append(nil.reduce(g.bracket(w, z)))
        stacked = 0
        for t, b in enumerate(blocks):
            stacked |= b << (t * g.dim * f.k)
        images.append(stacked)
    coeff_kernel = kernel_of_map(f, sp.dim, images)
    rows = [combine(f, sp.rows, cr) for cr in coeff_kernel.rows]
    return Subspace.from_vectors(f, g.dim, rows)


# ---------------------------------------------------------------------------
# the rank-3 ideal constructions and their dispatch
# ---------------------------------------------------------------------------

_ALL_ROOTS = (1, 2, 3, 4, 5, 6, 7)

# Each construction, read in the canonical labelling (s1, s2, s3) of the
# torus and of the roots: the torus slice it keeps (3-bit masks over the s_j),
# the N(sigma, delta) blocks it takes, and the root spaces it takes whole.
# Every construction also takes the 2-nilpotent part n of the Cartan subalgebra.
_CONSTRUCTIONS = {
    LEMMA_ALPHA_GT_BETA: ((0b010, 0b100), (), _ALL_ROOTS),      # s2, s3
    LEMMA_BETA_GT_XI: ((0b100, 0b011), (), _ALL_ROOTS),         # s3, s1+s2
    LEMMA_BG_GT_ABG: ((0b011, 0b101), (), _ALL_ROOTS),          # s1+s2, s1+s3
    LEMMA_AG_GT_EQ: ((0b010, 0b100), (), _ALL_ROOTS),           # s2, s3
    LEMMA_GAMMA_GT_XI: ((0b011, 0b101), (), _ALL_ROOTS),        # s1+s2, s1+s3
    LEMMA_AG_GT_BG: ((0b001, 0b110), (), _ALL_ROOTS),           # s1, s2+s3
    LEMMA_AB_GT_AG: ((), ((1, 2), (2, 1), (3, 1)), (4, 5, 6, 7)),
    LEMMA_ABG_GT_AG: ((), ((3, 5), (5, 6), (6, 3)), (1, 2, 4, 7)),
}


def named_construction(g, tm, d: RootDecomposition, lemma: str, mat) -> IdealReport:
    """Build one specific construction under an explicit relabelling.

    ``mat`` is the dual-basis change (a GL(3, GF(2)) matrix as row ints)
    under which the construction's dimension hypothesis is meant to hold;
    the caller is responsible for that hypothesis.  The report's flags are
    recomputed from scratch either way, so a misapplied construction simply
    comes back with verified_ideal=False.
    """
    if lemma not in _CONSTRUCTIONS:
        raise PreconditionError(f"unknown construction label {lemma!r}")
    masks, blocks, whole = _CONSTRUCTIONS[lemma]
    by_canon = _roots_by_canonical(d, mat)
    s = canonical_toral_basis(d, DeltaClass("Delta0", 0, mat))
    vecs = list(_torus_slice(g, s, masks).rows) + list(d.nil_part.rows)
    for sig, del_ in blocks:
        vecs.extend(n_subspace(g, tm, d, by_canon[sig][0], by_canon[del_][0]).rows)
    for mu in whole:
        vecs.extend(by_canon[mu][1].rows)
    return _ideal_report(g, lemma, Subspace.from_vectors(g.field, g.dim, vecs), mat)


def _dependent_triple(dd):
    # the chain through alpha+beta; all seven equal satisfies it and fires nothing
    if dd[1] == dd[2] == dd[3] and dd[3] >= dd[4] >= dd[5] >= dd[6] >= dd[7]:
        if dd[3] > dd[5]:
            return LEMMA_AB_GT_AG
        if dd[6] > dd[7]:
            return LEMMA_BG_GT_ABG
        if dd[5] > dd[6]:
            return LEMMA_AG_GT_EQ
    return None


# The stage hypotheses in the paper's priority order.  Each reads the seven
# dimensions relabelled by one GL(3, GF(2)) matrix, dd[mu] being the dimension
# of the root the matrix sends to mu, and names the construction that fires.
_STAGES = (
    # 1: a unique maximal root space
    lambda dd: LEMMA_ALPHA_GT_BETA if all(dd[1] > dd[m] for m in range(2, 8)) else None,
    # 2: exactly two root spaces at the maximum
    lambda dd: LEMMA_BETA_GT_XI
    if dd[1] == dd[2] and all(dd[1] > dd[m] for m in range(3, 8)) else None,
    # 3: a dependent triple at the maximum
    _dependent_triple,
    # 4: an independent triple at the maximum, sums strictly below
    lambda dd: LEMMA_GAMMA_GT_XI
    if dd[1] == dd[2] == dd[4] and all(dd[1] > dd[m] for m in (3, 5, 6, 7)) else None,
    # 5: the three basis roots and the full sum at the maximum
    lambda dd: LEMMA_ABG_GT_AG
    if dd[1] == dd[2] == dd[4] == dd[7] and dd[7] >= dd[3] >= dd[5] >= dd[6] and dd[7] > dd[5]
    else None,
)


@lru_cache(maxsize=1)
def _relabellings():
    """(matrix, preimages) per GL(3, GF(2)) matrix, in lexicographic order.

    preimages[mu] is the root the matrix sends to mu, and preimages[0] = 0.
    """
    out = []
    for mat in gl3_matrices():
        pre = [0] * 8
        for lam in _ALL_ROOTS:
            pre[apply_gl3(mat, lam)] = lam
        out.append((mat, pre))
    return tuple(out)


def dispatch(dims):
    """The construction that the dimension pattern fires, and its relabelling.

    ``dims`` maps each of the seven root ints to its root-space dimension.
    Walks the stages in priority order and, within a stage, the 168
    dual-basis changes in lexicographic order; returns ``(lemma, matrix)``
    for the first hypothesis that holds, or None when all seven dimensions
    are equal (the tests check by enumeration that nothing else gives None).
    AlphaGammaGtBetaGamma never fires: whenever its hypothesis holds, an
    earlier stage does.
    """
    if sorted(dims) != list(_ALL_ROOTS):
        raise PreconditionError("the dispatch needs the dimensions of all seven roots")
    row = [0] + [dims[lam] for lam in _ALL_ROOTS]
    relabelled = [(mat, [row[lam] for lam in pre]) for mat, pre in _relabellings()]
    for stage in _STAGES:
        for mat, dd in relabelled:
            lemma = stage(dd)
            if lemma is not None:
                return lemma, mat
    return None


def construct_ideal_rank3(g, tm, d: RootDecomposition) -> IdealReport:
    """The rank-3 construction that the root-space dimensions fire.

    Requires a centerless algebra with a rank-3 triangulable torus and all
    seven roots.  :func:`dispatch` picks the construction and relabelling
    from the dimensions alone, and :func:`named_construction` builds it; the
    returned subspace is re-verified from scratch.  Equal dimensions
    everywhere yield lemma None and the zero subspace.
    """
    if center(g).dim != 0:
        raise PreconditionError("rank-3 constructions require a centerless algebra")
    if d.rank != 3:
        raise PreconditionError("rank-3 constructions require a rank-3 torus")
    if classify_delta(d).index != 0:
        raise PreconditionError("all seven roots must be present")
    if not is_triangulable(g, d):
        raise PreconditionError("Cartan subalgebra must be triangulable")
    hit = dispatch({lam: sp.dim for lam, sp in d.roots.items()})
    if hit is None:
        return IdealReport(None, Subspace.zero(g.field, g.dim), False, True, False, None)
    return named_construction(g, tm, d, *hit)


# ---------------------------------------------------------------------------
# missing-roots obstruction (fewer than seven roots)
# ---------------------------------------------------------------------------

# canonical bounding slices per configuration index, as masks over (s1, s2, s3)
_OBSTRUCTION_SLICES = {
    1: (),
    2: (0b001, 0b010),          # s1, s2
    3: (),
    4: (0b010, 0b100),          # s2, s3
    5: (0b011, 0b100),          # s1+s2, s3
    6: (0b101, 0b110),          # s1+s3, s2+s3
    7: (0b001, 0b110),          # s1, s2+s3
}


@dataclass(frozen=True)
class ObstructionReport:
    configuration: str
    contained: bool
    projection_dim: int
    slice_dim: int
    obstruction: bool  # slice dim < rank, so self-brackets cannot rebuild t

    @property
    def ok(self):
        return self.contained and self.obstruction


def missing_roots_obstruction(g, tm, d: RootDecomposition) -> ObstructionReport:
    """Torus projections of all self-brackets fit in the tabulated slice.

    Applies to configurations with three to six roots (indices 1..7).  The
    slice has dimension at most two while the torus has dimension three,
    which obstructs simplicity: the Cartan subalgebra cannot equal the sum
    of the self-brackets.  Containment failure on a verified triangulable
    input contradicts the theory and is surfaced via ok=False.
    """
    cls = classify_delta(d)
    if cls.index is None or cls.index == 0:
        raise PreconditionError("obstruction applies to configurations with missing roots")
    if not is_triangulable(g, d):
        raise PreconditionError("obstruction requires a triangulable Cartan subalgebra")
    s = canonical_toral_basis(d, cls)
    slice_sub = _torus_slice(g, s, _OBSTRUCTION_SLICES[cls.index])
    projections = []
    for lam, sp in d.roots.items():
        got = bracket_span(g, sp, sp)
        projections.extend(_torus_projection(g, d, got.rows).rows)
    proj = Subspace.from_vectors(g.field, g.dim, projections)
    contained = slice_sub.contains_space(proj)
    return ObstructionReport(
        cls.label, contained, proj.dim, slice_sub.dim, slice_sub.dim < d.rank
    )


def missing_roots_ideal(g, tm, d: RootDecomposition) -> IdealReport:
    """The ideal sum of self-brackets + n + root spaces (missing-root case)."""
    vecs = list(d.nil_part.rows)
    for lam, sp in d.roots.items():
        vecs.extend(bracket_span(g, sp, sp).rows)
        vecs.extend(sp.rows)
    sub = Subspace.from_vectors(g.field, g.dim, vecs)
    return _ideal_report(g, LEMMA_MISSING_ROOTS, sub)


# ---------------------------------------------------------------------------
# the screen and the oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreenResult:
    verdict: str
    ideal: IdealReport | None = None
    reason: str | None = None
    unequal_pair: tuple | None = None

    def __repr__(self):
        extra = f", {self.reason}" if self.reason else ""
        extra += f", ideal dim {self.ideal.subspace.dim}" if self.ideal else ""
        return f"ScreenResult({self.verdict}{extra})"


def simplicity_screen(g: LieAlgebra, tm: TwoMap) -> ScreenResult:
    """Necessary-condition pipeline for simplicity at rank 3.

    Never claims simplicity: the best verdict is PassesNecessaryConditions.
    Refusals (rank != 3, budget, non-triangulable, abelian) come back as
    OutOfScope; every NotSimpleWitness carries a re-verified proper nonzero
    ideal.
    """
    z = center(g)
    if z.dim:
        if z.dim == g.dim:
            return ScreenResult(VERDICT_OUT_OF_SCOPE, reason="abelian algebra")
        rep = _ideal_report(g, LEMMA_CENTER, z)
        if not (rep.verified_ideal and rep.proper and rep.nonzero):
            raise ContradictionError("center failed to verify as a proper nonzero ideal")
        return ScreenResult(VERDICT_WITNESS, ideal=rep, reason="nonzero center")
    try:
        t = maximal_torus(g, tm)
    except BudgetExceededError as exc:
        return ScreenResult(VERDICT_OUT_OF_SCOPE, reason=str(exc))
    if t.dim != 3:
        return ScreenResult(VERDICT_OUT_OF_SCOPE, reason=f"toral rank {t.dim} != 3")
    d = root_decomposition(g, tm, t)
    if not is_triangulable(g, d):
        return ScreenResult(VERDICT_OUT_OF_SCOPE, reason="Cartan subalgebra not triangulable")
    cls = classify_delta(d)
    if cls.index is None:
        raise ContradictionError(
            "centerless rank-3 algebra without three independent roots"
        )
    if cls.index != 0:
        obs = missing_roots_obstruction(g, tm, d)
        if not obs.ok:
            raise ContradictionError(f"obstruction containment failed: {obs}")
        rep = missing_roots_ideal(g, tm, d)
        if not (rep.verified_ideal and rep.proper and rep.nonzero):
            raise ContradictionError(f"missing-roots ideal failed verification: {rep}")
        return ScreenResult(VERDICT_WITNESS, ideal=rep, reason=f"configuration {cls.label}")
    # the preconditions of construct_ideal_rank3 all hold here, so fire directly
    hit = dispatch({lam: sp.dim for lam, sp in d.roots.items()})
    if hit is not None:
        rep = named_construction(g, tm, d, *hit)
        if not (rep.verified_ideal and rep.proper and rep.nonzero):
            raise ContradictionError(f"rank-3 construction failed verification: {rep}")
        pair = _first_unequal_pair(d)
        return ScreenResult(
            VERDICT_WITNESS, ideal=rep, reason=f"construction {rep.lemma}", unequal_pair=pair
        )
    common = next(iter(sp.dim for sp in d.roots.values()))
    if common == 1:
        rep = one_dim_rootspace_ideal(g, tm, d)
        if not (rep.verified_ideal and rep.proper and rep.nonzero):
            raise ContradictionError(f"one-dimensional construction failed verification: {rep}")
        return ScreenResult(VERDICT_WITNESS, ideal=rep, reason="all root spaces one-dimensional")
    return ScreenResult(
        VERDICT_PASSES,
        reason=f"all seven root spaces of dimension {common}, dim(g) = {g.dim}",
    )


def _first_unequal_pair(d: RootDecomposition):
    roots = d.root_list()
    for a, b in combinations(roots, 2):
        if d.roots[a].dim != d.roots[b].dim:
            return (a, b)
    return None


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    counterexample: int | None  # generator whose closure is a proper nonzero ideal
    closures_run: int
    reason: str | None = None


def is_simple(g: LieAlgebra, tm: TwoMap, budget_bits: int = SIMPLE_ORACLE_BITS) -> SimplicityVerdict:
    """Brute-force simplicity oracle.

    Spins every 1-dimensional generator (all nonzero vectors over GF(2),
    one projective representative per line over extensions), in ascending
    integer order, and declares simple iff every closure is the whole
    algebra and dim != 1.  Any proper nonzero ideal contains a nonzero
    vector, whose closure is then a proper nonzero ideal, so the
    enumeration is sound and complete.

    Each spin stops at the first row w < v that :func:`spin` yields for the
    generator v.  A yielded row has coefficient 1 at its lowest nonzero
    coordinate, so w is the projective representative of a generator spun
    before v; every earlier closure was the whole algebra, or the oracle
    would have returned, hence ideal(v) contains ideal(w) = g.  A proper
    ideal(v) contains no earlier generator, so its spin never stops early:
    the generators, their order, ``closures_run``, the counterexample and the
    verdict are those of spinning every closure in full.
    """
    f, n = g.field, g.dim
    if n < 2:
        return SimplicityVerdict(False, None, 0, f"dimension {n} algebra is not simple")
    if f.k * n > budget_bits:
        raise BudgetExceededError(
            f"simplicity oracle needs 2^{f.k * n} closures, budget is 2^{budget_bits}"
        )
    closures = 0
    for v in range(1, 1 << (f.k * n)):
        if f.k > 1 and vget(f, v, pivot_index(f, v)) != 1:
            continue  # projective representative only
        closures += 1
        dim = 0
        for w in spin(g, [v]):
            if w < v:
                break  # an earlier generator: ideal(v) is the whole algebra
            dim += 1
        else:
            if dim < n:
                return SimplicityVerdict(False, v, closures, "proper nonzero ideal found")
    return SimplicityVerdict(True, None, closures, None)
