"""Non-simplicity screening for rank-3 restricted algebras.

The machinery here turns dimension patterns of root spaces into verified
proper ideals.  The central facts, each realized as a checkable operation:

* a centerless algebra of rank r has r independent roots and dim >= 2r
  (:func:`check_dim_bound`);
* if all root spaces are one-dimensional, the nilpotent part plus the root
  spaces form an ideal (:func:`one_dim_rootspace_ideal`);
* if the squares of g_xi do not all lie in slice(eta) + n, slice(eta)
  being the part of the torus that eta kills, then g_eta and g_{xi+eta}
  have equal dimension and ad of a witness maps either injectively into
  the other (:func:`dimension_transfer`);
* squares of a root space are confined to the torus slice where certain
  roots vanish, plus the nilpotent part, once enough dimension
  inequalities hold (:func:`kernel_confinement`, :func:`self_bracket_bound`);
* with all seven roots present and two root-space dimensions different,
  an explicit construction yields a proper nonzero ideal: the pure
  :func:`dispatch` picks one of seven from the order pattern of the
  dimensions through the stage table ``_STAGES``, and
  :func:`named_construction` builds it (the eighth,
  AlphaGammaGtBetaGamma, never fires first and is reached only by naming
  it);
* with fewer than seven roots, all self-brackets lie in the torus slice
  where one canonical root, or all three basis roots, vanish, plus n; that
  slice has dimension at most two, so the Cartan subalgebra cannot be
  recovered from them and a proper ideal exists
  (:func:`missing_roots_obstruction`);
* therefore a simple rank-3 algebra with triangulable Cartan subalgebra
  must have all seven root spaces of equal dimension, which pushes its
  dimension past 16 (:func:`simplicity_screen`, a necessary-condition
  screen that never claims simplicity).

Every torus slice above is the set of torus elements on which a list of
roots vanishes, :func:`lie2.roots.vanishing_slice`.  The constructions,
the obstruction and :func:`self_bracket_bound` list those roots in the
canonical labelling and read the observed roots off the preimage table
:func:`lie2.roots.relabellings`.  Every "lies in a torus slice plus n" is
one containment test of ``slice.sum(d.nil_part)``.

Every produced IdealReport re-verifies its subspace from scratch (ideal
property, properness, nonzeroness; :attr:`IdealReport.ok` is all three),
and :func:`is_simple` gives the independent brute-force verdict by
spinning every 1-dimensional generator.  It walks the generators in
integer order with their brackets [v, b_j] packed into one int, which
moves from one generator to the next by one xor, and does not spin a
generator when one guard-bit compare finds a nonzero bracket below its
top coordinate.  It stops a spin as soon as the spin reaches an earlier
generator.  Either way that generator's closure is already known to be
the whole algebra, and a proper closure never contains one, so the
verdict, the closure count and the counterexample are those of spinning
every closure in full.
"""

from __future__ import annotations

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
from .linalg import Subspace, kernel_of_map, rref_rows
from .record import Record
from .restricted import TwoMap, square
from .roots import (
    DELTA_SETS,
    RootDecomposition,
    classify_delta,
    format_root,
    is_triangulable,
    relabellings,
    root_decomposition,
    square_span,
    vanishing_slice,
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


class IdealReport(Record):
    """A constructed subspace with its independently recomputed status."""

    __slots__ = ("lemma", "subspace", "verified_ideal", "proper", "nonzero", "basis_change")
    _defaults = {"basis_change": None}

    @property
    def ok(self):
        return self.verified_ideal and self.proper and self.nonzero

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
# dimension bound (centerless rank-r algebras)
# ---------------------------------------------------------------------------

class DimBoundReport(Record):
    __slots__ = ("independent_roots", "rank", "dim", "ok")


def check_dim_bound(g: LieAlgebra, d: RootDecomposition) -> DimBoundReport:
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

def one_dim_rootspace_ideal(g: LieAlgebra, d: RootDecomposition) -> IdealReport:
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

class DimensionTransfer(Record):
    __slots__ = (
        "status",  # "HypothesisNotMet" or "DimsEqual"
        "witness", "dim_eta", "dim_xi_eta", "rank_into", "rank_back",
    )
    _defaults = dict.fromkeys(__slots__[1:])


def dimension_transfer(g, tm, d, xi: int, eta: int) -> DimensionTransfer:
    """If the squares of g_xi see eta, then dim g_eta = dim g_{xi+eta}.

    The squares of g_xi lie in h = t + n, and eta extended to h by zero on
    n vanishes exactly on slice(eta) + n, where slice(eta) is the part of
    the torus that eta kills.  Since (a+b)^[2] = a^[2] + b^[2] + [a, b],
    the squares of the basis vectors of g_xi and of their sums of two span
    the square span, so the hypothesis fails (HypothesisNotMet) exactly
    when each of these squares lies in slice(eta) + n.  Otherwise the first
    candidate whose square escapes is the witness x, reported with the two
    injective restrictions of ad(x).  An inequality of dimensions under
    the met hypothesis falsifies the theory and raises ContradictionError.
    """
    if xi not in d.roots or eta not in d.roots:
        raise PreconditionError("both functionals must be roots")
    bound = vanishing_slice(g, d, [eta]).sum(d.nil_part)
    sp = d.roots[xi]
    candidates = list(sp.rows) + [a ^ b for a, b in combinations(sp.rows, 2)]
    witness = next((x for x in candidates if not bound.contains(square(g, tm, x))), None)
    if witness is None:
        return DimensionTransfer("HypothesisNotMet")
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


class ConfinementReport(Record):
    __slots__ = ("confined", "slice_dim", "bound_dim_ok", "slice_subspace")

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
    r = d.rank
    for lam in others:
        if d.space(lam).dim == d.space(alpha1 ^ lam).dim:
            raise PreconditionError(
                f"need dim g_{format_root(lam, r)} != dim g_{format_root(alpha1 ^ lam, r)} "
                "for the confinement to be forced"
            )
    slice_sub = vanishing_slice(g, d, roots_all)
    confined = slice_sub.sum(d.nil_part).contains_space(square_span(g, tm, d, alpha1))
    return ConfinementReport(confined, slice_sub.dim, slice_sub.dim <= r - len(roots_all), slice_sub)


def self_bracket_bound(g, d, xi: int) -> ConfinementReport:
    """[g_xi, g_xi] lies in the torus slice where some canonical roots vanish, plus n.

    Read xi as the canonical root mu.  For mu = alpha+beta+gamma the slice
    is where mu vanishes.  Otherwise mu vanishes there, and so does every
    basis root sigma != mu for which sigma + mu is not in the configuration.
    """
    cls = classify_delta(d)
    if cls.index is None:
        raise PreconditionError("root set does not match any canonical configuration")
    if xi not in d.roots:
        raise PreconditionError("xi must be a root")
    pre = relabellings()[cls.basis_change]
    mu = pre.index(xi)
    killed = [mu]
    if mu != 7:
        killed += [s for s in (1, 2, 4) if s != mu and s ^ mu not in DELTA_SETS[cls.index]]
    slice_sub = vanishing_slice(g, d, [pre[m] for m in killed])
    got = bracket_span(g, d.roots[xi], d.roots[xi])
    return ConfinementReport(slice_sub.sum(d.nil_part).contains_space(got), slice_sub.dim, True,
                             slice_sub)


# ---------------------------------------------------------------------------
# the N(sigma, delta) building block
# ---------------------------------------------------------------------------

def n_subspace(g, d, sigma: int, delta: int) -> Subspace:
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
    return g.subspace(kernel_of_map(f, sp.rows, images))


# ---------------------------------------------------------------------------
# the rank-3 ideal constructions and their dispatch
# ---------------------------------------------------------------------------

_ALL_ROOTS = (1, 2, 3, 4, 5, 6, 7)

# Each construction, read in the canonical labelling of the roots: the canonical
# roots that vanish on the torus slice it keeps (all three basis roots for the
# zero slice), the N(sigma, delta) blocks it takes, and the root spaces it takes
# whole.  Every construction also takes the 2-nilpotent part n of the Cartan
# subalgebra.
_CONSTRUCTIONS = {
    LEMMA_ALPHA_GT_BETA: ((1,), (), _ALL_ROOTS),
    LEMMA_BETA_GT_XI: ((3,), (), _ALL_ROOTS),
    LEMMA_BG_GT_ABG: ((7,), (), _ALL_ROOTS),
    LEMMA_AG_GT_EQ: ((1,), (), _ALL_ROOTS),
    LEMMA_GAMMA_GT_XI: ((7,), (), _ALL_ROOTS),
    LEMMA_AG_GT_BG: ((6,), (), _ALL_ROOTS),
    LEMMA_AB_GT_AG: ((1, 2, 4), ((1, 2), (2, 1), (3, 1)), (4, 5, 6, 7)),
    LEMMA_ABG_GT_AG: ((1, 2, 4), ((3, 5), (5, 6), (6, 3)), (1, 2, 4, 7)),
}


def named_construction(g, d: RootDecomposition, lemma: str, mat) -> IdealReport:
    """Build one specific construction under an explicit relabelling.

    ``mat`` is the dual-basis change (a GL(3, GF(2)) matrix as row ints)
    under which the construction's dimension hypothesis is meant to hold;
    the caller is responsible for that hypothesis.  The report's flags are
    recomputed from scratch either way, so a misapplied construction simply
    comes back with verified_ideal=False.  A decomposition without all
    seven roots of a rank-3 torus raises PreconditionError.
    """
    if lemma not in _CONSTRUCTIONS:
        raise PreconditionError(f"unknown construction label {lemma!r}")
    pre = relabellings().get(mat)
    if pre is None:
        raise PreconditionError(f"{mat!r} is not a GL(3, GF(2)) matrix")
    if d.rank != 3 or len(d.roots) != 7:
        raise PreconditionError("the constructions need all seven roots of a rank-3 torus")
    killed, blocks, whole = _CONSTRUCTIONS[lemma]
    vecs = list(vanishing_slice(g, d, [pre[mu] for mu in killed]).rows) + list(d.nil_part.rows)
    for sig, del_ in blocks:
        vecs.extend(n_subspace(g, d, pre[sig], pre[del_]).rows)
    for mu in whole:
        vecs.extend(d.roots[pre[mu]].rows)
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


def dispatch(dims):
    """The construction that the dimension pattern fires, and its relabelling.

    ``dims`` maps each of the seven root ints to its root-space dimension.
    Walks the stages in priority order and, within a stage, the 168
    dual-basis changes in lexicographic order; returns ``(lemma, matrix)``
    for the first hypothesis that holds, or None when all seven dimensions
    are equal, at once, since no hypothesis holds on a constant pattern (the
    tests check by enumeration that nothing else gives None).
    AlphaGammaGtBetaGamma never fires: whenever its hypothesis holds, an
    earlier stage does.
    """
    if sorted(dims) != list(_ALL_ROOTS):
        raise PreconditionError("the dispatch needs the dimensions of all seven roots")
    if len(set(dims.values())) == 1:
        return None
    row = [0] + [dims[lam] for lam in _ALL_ROOTS]
    relabelled = [(mat, [row[lam] for lam in pre]) for mat, pre in relabellings().items()]
    for stage in _STAGES:
        for mat, dd in relabelled:
            lemma = stage(dd)
            if lemma is not None:
                return lemma, mat
    return None


# ---------------------------------------------------------------------------
# missing-roots obstruction (fewer than seven roots)
# ---------------------------------------------------------------------------

# per configuration index, the canonical roots that vanish on the slice bounding
# every self-bracket (all three basis roots for the zero slice)
_OBSTRUCTION_KILLS = {1: (1, 2, 4), 2: (4,), 3: (1, 2, 4), 4: (1,), 6: (7,)}


class ObstructionReport(Record):
    __slots__ = (
        "configuration", "contained", "projection_dim", "slice_dim",
        "obstruction",  # slice dim < rank, so self-brackets cannot rebuild t
    )

    @property
    def ok(self):
        return self.contained and self.obstruction


def missing_roots_obstruction(g, d: RootDecomposition) -> ObstructionReport:
    """All self-brackets [g_lam, g_lam] lie in the tabulated slice plus n.

    Applies to the configurations with three to six roots that the
    classifier returns, Delta1..Delta4 and Delta6.  The slice is where the
    tabulated canonical roots vanish: one root for Delta2, Delta4 and
    Delta6, giving dimension two, and all three basis roots for Delta1 and
    Delta3, giving the zero slice.  So it has dimension at most two while
    the torus has dimension three,
    which obstructs simplicity: the Cartan subalgebra cannot equal the sum
    of the self-brackets.  Containment failure on a verified triangulable
    input contradicts the theory and is surfaced via ok=False.

    The self-brackets span a subspace S of h = t + n, and the projection
    of h onto t along n has kernel n, so the torus projection of S has
    dimension dim(S + n) - dim n; it lies in the slice exactly when S lies
    in slice + n.
    """
    cls = classify_delta(d)
    if cls.index is None or cls.index == 0:
        raise PreconditionError("obstruction applies to configurations with missing roots")
    if not is_triangulable(g, d):
        raise PreconditionError("obstruction requires a triangulable Cartan subalgebra")
    pre = relabellings()[cls.basis_change]
    slice_sub = vanishing_slice(g, d, [pre[mu] for mu in _OBSTRUCTION_KILLS[cls.index]])
    got = g.subspace([v for sp in d.roots.values() for v in bracket_span(g, sp, sp).rows])
    return ObstructionReport(
        cls.label,
        slice_sub.sum(d.nil_part).contains_space(got),
        got.sum(d.nil_part).dim - d.nil_part.dim,
        slice_sub.dim,
        slice_sub.dim < d.rank,
    )


def missing_roots_ideal(g, d: RootDecomposition) -> IdealReport:
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

class ScreenResult(Record):
    __slots__ = ("verdict", "ideal", "reason", "unequal_pair")
    _defaults = dict.fromkeys(__slots__[1:])

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
        return _witness(_ideal_report(g, LEMMA_CENTER, z), "nonzero center")
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
        obs = missing_roots_obstruction(g, d)
        if not obs.ok:
            raise ContradictionError(f"obstruction containment failed: {obs}")
        return _witness(missing_roots_ideal(g, d), f"configuration {cls.label}")
    hit = dispatch({lam: sp.dim for lam, sp in d.roots.items()})
    if hit is not None:
        rep = named_construction(g, d, *hit)
        return _witness(rep, f"construction {rep.lemma}", _first_unequal_pair(d))
    common = next(iter(sp.dim for sp in d.roots.values()))
    if common == 1:
        return _witness(one_dim_rootspace_ideal(g, d), "all root spaces one-dimensional")
    return ScreenResult(
        VERDICT_PASSES,
        reason=f"all seven root spaces of dimension {common}, dim(g) = {g.dim}",
    )


def _witness(rep: IdealReport, reason: str, unequal_pair=None) -> ScreenResult:
    """A NotSimpleWitness on a constructed ideal, which is proved to verify."""
    if not rep.ok:
        raise ContradictionError(f"{rep.lemma} ideal failed verification: {rep}")
    return ScreenResult(VERDICT_WITNESS, ideal=rep, reason=reason, unequal_pair=unequal_pair)


def _first_unequal_pair(d: RootDecomposition):
    roots = d.root_list()
    for a, b in combinations(roots, 2):
        if d.roots[a].dim != d.roots[b].dim:
            return (a, b)
    return None


class SimplicityVerdict(Record):
    __slots__ = (
        "simple",
        "counterexample",  # generator whose closure is a proper nonzero ideal, or None
        "closures_run",
        "reason",
    )
    _defaults = {"reason": None}


def _pack(fields, bits: int) -> int:
    """fields[j] at bits [j*W, j*W + bits) with W = bits + 1: a zero guard bit above each."""
    return sum(w << (j * (bits + 1)) for j, w in enumerate(fields))


def is_simple(g: LieAlgebra) -> SimplicityVerdict:
    """Brute-force simplicity oracle.

    Spins every 1-dimensional generator (all nonzero vectors over GF(2),
    one projective representative per line over extensions), in ascending
    integer order, and declares simple iff every closure is the whole
    algebra and dim != 1.  Any proper nonzero ideal contains a nonzero
    vector, whose closure is then a proper nonzero ideal, so the
    enumeration is sound and complete.  An algebra with k*n >
    ``SIMPLE_ORACLE_BITS`` is refused with :class:`BudgetExceededError`.

    The brackets [v, b_j] of every v are kept in one packed int P, field j
    at bits [j*W, j*W + k*n) with W = k*n + 1, so that a zero guard bit
    sits above every field.  ad is linear and v differs from v - 1 in
    exactly its bits 0..t, t being v's trailing zeros, so P moves from
    v - 1 to v by one xor with S_t = R_0 ^ ... ^ R_t, R_a being the packed
    ad of the raw bit a.  A v at k > 1 is a projective representative iff
    its lowest nonzero coordinate, at bits [t - t % k, t - t % k + k), is 1.

    A generator v is not spun when some [v, b_j] satisfies 0 < w < T,
    T = 2^(k*q) with q v's top coordinate: w's projective representative
    has the same nonzero coordinates, so it precedes T <= v, and every earlier
    closure was the whole algebra, or the oracle would have returned, hence
    ideal(v) contains it and is the whole algebra.  All fields are compared
    at once with guard bits (Lamport, "Multiple byte processing with
    full-word instructions", CACM 18(8), 1975): the guard of field j in
    (T - 1)*REP + GUARD - P is set iff w_j < T, and in P + ONES iff
    w_j > 0, with REP = sum 2^(j*W), GUARD = REP << k*n and ONES =
    (2^(k*n) - 1)*REP, and no field borrows from or carries into the next.

    A spin stops at the first row w < v that :func:`spin` yields.  A
    yielded row has coefficient 1 at its lowest nonzero coordinate, so w is
    the projective representative of a generator spun before v, and
    ideal(v) contains ideal(w) = g as above.  A proper ideal(v) contains no
    earlier generator, so neither shortcut fires on it: the generators,
    their order, ``closures_run``, the counterexample and the verdict are
    those of spinning every closure in full.
    """
    f, n = g.field, g.dim
    if n < 2:
        return SimplicityVerdict(False, None, 0, f"dimension {n} algebra is not simple")
    k, kn = f.k, f.k * n
    if kn > SIMPLE_ORACLE_BITS:
        raise BudgetExceededError(
            f"simplicity oracle needs 2^{kn} closures, budget is 2^{SIMPLE_ORACLE_BITS}"
        )
    rep = _pack([1] * n, kn)
    guard = rep << kn
    ones = rep * ((1 << kn) - 1)
    steps, prefix = [], 0  # steps[t] = (S_t, start bit of the coordinate holding bit t)
    for t in range(kn):
        prefix ^= _pack(g.ad(1 << t), kn)
        steps.append((prefix, t - t % k))
    mask = f.mask
    packed = 0  # the brackets [v, b_j], one field each
    closures = 0
    for q in range(n):
        below = ((1 << (k * q)) - 1) * rep + guard  # (T - 1) * REP + GUARD
        for v in range(1 << (k * q), 1 << (k * (q + 1))):
            step, low = steps[(v & -v).bit_length() - 1]
            packed ^= step
            if (v >> low) & mask != 1:
                continue  # projective representative only
            closures += 1
            if (below - packed) & (packed + ones) & guard:
                continue  # ideal(v) holds an earlier generator, so it is the whole algebra
            dim = 0
            for w in spin(g, [v]):
                if w < v:
                    break  # an earlier generator: ideal(v) is the whole algebra
                dim += 1
            else:
                if dim < n:
                    return SimplicityVerdict(False, v, closures, "proper nonzero ideal found")
    return SimplicityVerdict(True, None, closures, None)
