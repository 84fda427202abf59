"""The rank-3 screening machinery end to end.

Every constructed ideal is double-checked here through the spinning oracle
(ideal_closure) and, where the dimension budget allows, through the
brute-force simplicity oracle; the two routes must never disagree.
"""

import pickle
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lie2.algebra import (
    LieAlgebra,
    abelian,
    bracket_span,
    center,
    ideal_closure,
    is_ideal,
    verify_lie,
)
from lie2.cli import _suite_corpus
from lie2.errors import BudgetExceededError, PreconditionError
from lie2.field import gf
from lie2.fixtures import (
    delta0,
    delta2,
    f6,
    f6n,
    f7,
    gl,
    gltor,
    graded,
    permute_basis,
    psl4,
    rank2sq,
    sl,
    torus,
    u1,
    u2,
    vacuity_family,
    witt,
)
from lie2.linalg import Subspace, combine, kernel_of_map, pivot_index, solve, unit, vget, vscale
from lie2.restricted import TwoMap, extend_scalars, square, subquotient, verify_two_map
from lie2.roots import (
    DELTA_SETS,
    Torus,
    apply_gl3,
    classify_delta,
    grading_check,
    is_triangulable,
    relabellings,
    root_decomposition,
    square_span,
    vanishing_slice,
)
from lie2.screening import (
    _CONSTRUCTIONS,
    _OBSTRUCTION_KILLS,
    LEMMA_AB_GT_AG,
    LEMMA_ABG_GT_AG,
    LEMMA_AG_GT_BG,
    LEMMA_AG_GT_EQ,
    LEMMA_ALPHA_GT_BETA,
    LEMMA_BETA_GT_XI,
    LEMMA_BG_GT_ABG,
    LEMMA_DIM1,
    LEMMA_GAMMA_GT_XI,
    VERDICT_OUT_OF_SCOPE,
    VERDICT_PASSES,
    VERDICT_WITNESS,
    DimBoundReport,
    DimensionTransfer,
    ObstructionReport,
    ScreenResult,
    _pack,
    check_dim_bound,
    dimension_transfer,
    dispatch,
    is_simple,
    kernel_confinement,
    missing_roots_ideal,
    missing_roots_obstruction,
    n_subspace,
    named_construction,
    one_dim_rootspace_ideal,
    self_bracket_bound,
    simplicity_screen,
)
from lie2.tori import TORAL_ENUM_BITS, maximal_torus

F2 = gf(1)


def decomposition(build):
    g, tm = build() if callable(build) else build
    t = maximal_torus(g, tm)
    return g, tm, root_decomposition(g, tm, t)


def assert_sound(g, rep):
    """The soundness contract of every ideal report."""
    assert rep.ok
    assert is_ideal(g, rep.subspace)
    assert ideal_closure(g, rep.subspace) == rep.subspace
    assert 0 < rep.subspace.dim < g.dim


# -- dimension bound -------------------------------------------------------------

def test_dim_bound_f6_tight():
    g, tm, d = decomposition(f6)
    rep = check_dim_bound(g, d)
    assert rep.ok and rep.dim == 2 * rep.rank == 6
    assert rep.independent_roots == 3


def test_dim_bound_needs_centerless():
    g, tm, d = decomposition(lambda: torus(3))
    with pytest.raises(PreconditionError):
        check_dim_bound(g, d)


def test_dim_bound_f7():
    g, tm, d = decomposition(f7)
    rep = check_dim_bound(g, d)
    assert rep.ok and rep.dim == 10 >= 2 * rep.rank


# -- one-dimensional root spaces ---------------------------------------------------

def test_one_dim_ideal_f6():
    g, tm, d = decomposition(f6)
    rep = one_dim_rootspace_ideal(g, d)
    assert rep.lemma == LEMMA_DIM1
    assert rep.subspace == g.subspace([unit(F2, 3), unit(F2, 4), unit(F2, 5)])
    assert_sound(g, rep)


def test_one_dim_ideal_f7():
    g, tm, d = decomposition(f7)
    rep = one_dim_rootspace_ideal(g, d)
    assert rep.subspace.dim == 7
    assert_sound(g, rep)


def test_one_dim_ideal_rejects_fat_root_spaces():
    g, tm, d = decomposition(lambda: gl(2))
    with pytest.raises(PreconditionError):
        one_dim_rootspace_ideal(g, d)


def test_one_dim_ideal_rejects_center():
    g, tm, d = decomposition(f6n)
    with pytest.raises(PreconditionError):
        one_dim_rootspace_ideal(g, d)


# -- dimension transfer ----------------------------------------------------------------

def test_transfer_hypothesis_not_met_on_f6():
    g, tm, d = decomposition(f6)
    roots = d.root_list()
    for xi in roots:
        for eta in roots:
            if xi != eta:
                assert dimension_transfer(g, tm, d, xi, eta).status == "HypothesisNotMet"


def test_transfer_fires_on_squares_reaching_torus():
    g, tm, d = decomposition(rank2sq)
    xi, eta = 1, 2
    res = dimension_transfer(g, tm, d, xi, eta)
    assert res.status == "DimsEqual"
    assert res.dim_eta == res.dim_xi_eta == 1
    assert res.rank_into == res.rank_back == 1
    assert res.witness == unit(F2, 2)  # the vector squaring onto t2


def test_transfer_requires_roots():
    g, tm, d = decomposition(f6)
    with pytest.raises(PreconditionError):
        dimension_transfer(g, tm, d, 3, 1)


def test_corrupted_tensor_caught_by_grading_first():
    # breaking the grading is detected before any dimension conclusion is drawn
    g, tm = f6()
    pairs = {(i, j): g.table[i][j] for i in range(6) for j in range(i + 1, 6)}
    pairs[(3, 4)] = unit(F2, 0)  # [x_a, x_b] := t1, off-grade
    from lie2.algebra import LieAlgebra

    bad = LieAlgebra(F2, 6, pairs, "f6corrupt")
    t = maximal_torus(bad, tm)
    d = root_decomposition(bad, tm, t)
    assert not grading_check(bad, d).ok


# -- confinement -----------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_kernel_confinement_u1(k):
    # wherever dim g_alpha != dim g_{alpha1+alpha}, squares of g_alpha1 are
    # confined to ker(alpha1) & ker(alpha), a line at every field degree, plus n
    g, tm, d = decomposition(extend_scalars(*u1(), k))
    checked = 0
    for alpha1 in d.root_list():
        for alpha in d.root_list():
            if alpha == alpha1 or d.space(alpha).dim == d.space(alpha1 ^ alpha).dim:
                continue
            rep = kernel_confinement(g, tm, d, alpha1, [alpha])
            assert (rep.slice_dim, rep.ok) == (1, True), (alpha1, alpha)
            checked += 1
    assert checked == 12


def test_kernel_confinement_requires_unequal_dims():
    g, tm, d = decomposition(f7)
    with pytest.raises(PreconditionError):
        kernel_confinement(g, tm, d, 1, [2])


def test_kernel_confinement_requires_independence():
    g, tm, d = decomposition(u1)
    a = 1
    with pytest.raises(PreconditionError):
        kernel_confinement(g, tm, d, a, [a])


# -- the rank-general lemmas at ranks 4 and 2 ---------------------------------------------

def sl5_diagonal():
    """sl(5) split by its diagonal torus h_0..h_3 (basis indices 20-23), with no search."""
    g, tm = sl(5)
    basis = tuple(unit(F2, i) for i in range(20, 24))
    return g, tm, root_decomposition(g, tm, Torus(g.subspace(basis), basis))


def test_dimension_transfer_on_sl5_at_rank_4():
    g, tm, d = sl5_diagonal()
    roots = d.root_list()
    assert (d.rank, len(roots), center(g).dim) == (4, 10, 0)
    statuses = Counter(dimension_transfer(g, tm, d, xi, eta).status
                       for xi in roots for eta in roots if xi != eta)
    assert statuses == {"DimsEqual": 60, "HypothesisNotMet": 30}


@pytest.mark.parametrize("k, held, candidates", [(1, 30, 90), (2, 30, 360), (3, 0, 840)])
def test_kernel_confinement_on_sl5_with_k_others(k, held, candidates):
    # over GF(2) the ten roots of sl(5) are the pairs {i, j} in 0..4, each of dim 2, and
    # alpha1 + lambda is a root iff the pairs meet.  So the others that apply are the three
    # roots disjoint from alpha1, and any three of them sum to 0: at k = 3 every candidate
    # is refused by a precondition, and the bound slice dim <= r - 1 - k is met at k <= 2
    g, tm, d = sl5_diagonal()
    roots = d.root_list()
    confined = refused = 0
    for alpha1 in roots:
        for others in combinations([lam for lam in roots if lam != alpha1], k):
            try:
                rep = kernel_confinement(g, tm, d, alpha1, others)
            except PreconditionError:
                refused += 1
                continue
            assert rep.ok, (alpha1, others)
            confined += 1
    assert (confined, confined + refused) == (held, candidates)


@pytest.mark.parametrize("build", [lambda: sl(3), psl4], ids=["sl3", "psl4"])
def test_dimension_transfer_fires_on_every_pair_at_rank_2(build):
    g, tm, d = decomposition(build)
    roots = d.root_list()
    statuses = [dimension_transfer(g, tm, d, xi, eta).status
                for xi in roots for eta in roots if xi != eta]
    assert d.rank == 2 and statuses == ["DimsEqual"] * 6


def test_self_bracket_bounds_hold():
    for build in (f6, f6n, delta2, f7, u1, u2):
        g, tm, d = decomposition(build)
        for xi in d.root_list():
            assert self_bracket_bound(g, d, xi).confined, (g.name, xi)


# -- torus slices against the canonical toral basis -----------------------------------
#
# The screen names each torus slice by the canonical roots that vanish on it and
# reads the observed roots off the preimage table.  The reference spans the same
# slices directly: row j of the relabelling matrix selects the torals summed into
# the canonical toral basis vector s_(j+1), and each slice is spanned by 3-bit
# masks over (s1, s2, s3), bit j selecting s_(j+1).

CONSTRUCTION_MASKS = {
    LEMMA_ALPHA_GT_BETA: (0b010, 0b100),    # s2, s3
    LEMMA_BETA_GT_XI: (0b100, 0b011),       # s3, s1+s2
    LEMMA_BG_GT_ABG: (0b011, 0b101),        # s1+s2, s1+s3
    LEMMA_AG_GT_EQ: (0b010, 0b100),         # s2, s3
    LEMMA_GAMMA_GT_XI: (0b011, 0b101),      # s1+s2, s1+s3
    LEMMA_AG_GT_BG: (0b001, 0b110),         # s1, s2+s3
    LEMMA_AB_GT_AG: (),
    LEMMA_ABG_GT_AG: (),
}

# per configuration index, the slice bounding every self-bracket
OBSTRUCTION_MASKS = {
    1: (),
    2: (0b001, 0b010),          # s1, s2
    3: (),
    4: (0b010, 0b100),          # s2, s3
    6: (0b101, 0b110),          # s1+s3, s2+s3
}


def mask_slice(g, d, mat, masks):
    # the rows and masks select GF(2) combinations, so they pack over F2
    s = [combine(F2, d.torus.toral_basis, row) for row in mat]
    return g.subspace([combine(F2, s, m) for m in masks])


def self_bracket_masks(config, mu):
    """A basis root keeps the partners whose sum with it is a root, a sum of
    two basis roots keeps their difference direction (plus the third toral
    when the full sum is a root), and the full sum keeps the slice killing it."""
    if mu in (1, 2, 4):
        return [sigma for sigma in (1, 2, 4) if sigma ^ mu in config]
    if mu == 7:
        return [0b101, 0b110]  # s1+s3, s2+s3
    return [mu] + ([7 ^ mu] if 7 in config else [])


def reference_construction(g, tm, d, lemma, mat):
    """named_construction through the mask slice and the matrix applied to each root."""
    by_canon = {apply_gl3(mat, lam): lam for lam in d.roots}
    _, blocks, whole = _CONSTRUCTIONS[lemma]
    vecs = list(mask_slice(g, d, mat, CONSTRUCTION_MASKS[lemma]).rows) + list(d.nil_part.rows)
    for sig, del_ in blocks:
        vecs.extend(n_subspace(g, d, by_canon[sig], by_canon[del_]).rows)
    for mu in whole:
        vecs.extend(d.roots[by_canon[mu]].rows)
    return g.subspace(vecs)


def test_slices_match_the_canonical_basis_route(slice_cases):
    vacuity = [(label, *decomposition(build)) for label, build in vacuity_family()]
    counts, bases = Counter(), set()
    for name, g, tm, d in slice_cases + vacuity:
        if d.rank != 3:
            continue
        cls = classify_delta(d)
        if cls.index is None or not is_triangulable(g, d):
            continue
        for xi in d.root_list():
            mu = apply_gl3(cls.basis_change, xi)
            want = mask_slice(g, d, cls.basis_change,
                              self_bracket_masks(DELTA_SETS[cls.index], mu))
            assert self_bracket_bound(g, d, xi).slice_subspace == want, (name, xi)
            counts["self-bracket"] += 1
        if cls.index:
            pre = relabellings()[cls.basis_change]
            got = vanishing_slice(g, d, [pre[mu] for mu in _OBSTRUCTION_KILLS[cls.index]])
            assert got == mask_slice(g, d, cls.basis_change, OBSTRUCTION_MASKS[cls.index]), name
            counts["obstruction"] += 1
            continue
        # both routes read only the toral basis, so each one is checked once
        key = (g.field.k, g.dim, d.torus.toral_basis)
        if key not in bases:
            bases.add(key)
            for mat, pre in relabellings().items():
                for lemma, masks in CONSTRUCTION_MASKS.items():
                    got = vanishing_slice(g, d, [pre[mu] for mu in _CONSTRUCTIONS[lemma][0]])
                    assert got == mask_slice(g, d, mat, masks), (name, lemma, mat)
                    counts["construction"] += 1
        hit = dispatch({lam: sp.dim for lam, sp in d.roots.items()})
        if hit is not None:
            got = named_construction(g, d, *hit).subspace
            assert got == reference_construction(g, tm, d, *hit), (name, hit)
            counts["named"] += 1
    assert counts == {"construction": 22848, "named": 145, "obstruction": 20,
                      "self-bracket": 1127}


# -- the slice + n test against the coordinate route ------------------------------------
#
# dimension_transfer and missing_roots_obstruction test "lies in a torus slice
# plus n" as one subspace containment.  The references below take an
# independent route through coordinates in the basis (toral basis | nil basis)
# of h: a root extended to h by zero on n, and the torus projection of each
# self-bracket.

def h_coordinates(g, d, v):
    """Coordinates of v in the basis (toral basis | nil basis) of h."""
    c = solve(g.field, list(d.torus.toral_basis) + list(d.nil_part.rows), v)
    assert c is not None, "vector outside the Cartan subalgebra"
    return c


def extended_root_value(g, d, root, x):
    """The root extended to h by zero on n, at x in h."""
    c = h_coordinates(g, d, x)
    acc = 0
    for i in range(d.rank):
        if root >> i & 1:
            acc ^= vget(g.field, c, i)
    return acc


def extended_root_kernel(g, d, root):
    """{x in h : the extended root vanishes at x}."""
    f = g.field
    h_basis = list(d.torus.toral_basis) + list(d.nil_part.rows)
    images = [root >> i & 1 if i < d.rank else 0 for i in range(len(h_basis))]
    coords = kernel_of_map(f, [unit(f, i) for i in range(len(h_basis))], images)
    return Subspace.from_vectors(f, g.dim, [combine(f, h_basis, c) for c in coords])


def torus_projection(g, d, vectors):
    """Span of the t-components (along n) of vectors lying in h."""
    rows = [combine(g.field, d.torus.toral_basis, h_coordinates(g, d, v)) for v in vectors]
    return Subspace.from_vectors(g.field, g.dim, rows)


def reference_transfer(g, tm, d, xi, eta):
    if extended_root_kernel(g, d, eta).contains_space(square_span(g, tm, d, xi)):
        return DimensionTransfer("HypothesisNotMet")
    sp = d.roots[xi]
    candidates = list(sp.rows) + [a ^ b for a, b in combinations(sp.rows, 2)]
    witness = next(x for x in candidates if extended_root_value(g, d, eta, square(g, tm, x)))
    source, target = d.roots[eta], d.space(xi ^ eta)

    def rank(space):
        return g.subspace([g.bracket(witness, y) for y in space.rows]).dim

    return DimensionTransfer("DimsEqual", witness, source.dim, target.dim,
                             rank(source), rank(target))


def reference_obstruction(g, d):
    cls = classify_delta(d)
    slice_sub = mask_slice(g, d, cls.basis_change, OBSTRUCTION_MASKS[cls.index])
    projections = []
    for sp in d.roots.values():
        projections.extend(torus_projection(g, d, bracket_span(g, sp, sp).rows).rows)
    proj = Subspace.from_vectors(g.field, g.dim, projections)
    return ObstructionReport(cls.label, slice_sub.contains_space(proj), proj.dim, slice_sub.dim,
                             slice_sub.dim < d.rank)


# the seven missing-root screen patterns: configuration index -> root-space dims
SCREEN_DELTA_DIMS = {1: (3, 3, 1), 2: (2, 2, 2, 2), 3: (3, 2, 2, 1), 4: (2, 2, 2, 2, 1),
                     5: (3, 2, 2, 1, 1), 6: (2, 2, 2, 2, 1, 1), 7: (3, 2, 2, 1, 1, 1)}


def _slice_cases():
    """The corpus and one seeded relabelling of each, at k = 1 and 2 where the
    toral budget allows, then the seven missing-root patterns and delta2fat."""
    cases = []
    for seed, (name, build) in enumerate(_suite_corpus()):
        g, tm = build()
        perm = list(range(g.dim))
        random.Random(seed).shuffle(perm)
        for k in (1, 2):
            if k * g.dim <= TORAL_ENUM_BITS:
                cases.append((f"{name}/k{k}", extend_scalars(g, tm, k)))
                cases.append((f"{name}_perm/k{k}", extend_scalars(*permute_basis(g, tm, perm), k)))
    for idx, dims in SCREEN_DELTA_DIMS.items():
        order = sorted(DELTA_SETS[idx], key=(1, 2, 4, 3, 5, 6, 7).index)
        cases.append((f"delta{idx}", graded(dict(zip(order, dims)))))
    cases.append(("delta2fat", delta2fat()))
    return cases


@pytest.fixture(scope="module")
def slice_cases():
    return [(name, *decomposition(alg)) for name, alg in _slice_cases()]


def test_dimension_transfer_matches_the_extended_root(slice_cases):
    pairs = fired = 0
    for name, g, tm, d in slice_cases:
        for xi in d.root_list():
            for eta in d.root_list():
                if xi != eta:
                    got = dimension_transfer(g, tm, d, xi, eta)
                    assert got == reference_transfer(g, tm, d, xi, eta), (name, xi, eta)
                    pairs += 1
                    fired += got.status == "DimsEqual"
    assert (pairs, fired) == (714, 50)


def test_obstruction_matches_the_torus_projection(slice_cases):
    checked = set()
    for name, g, tm, d in slice_cases:
        if d.rank != 3 or classify_delta(d).index in (None, 0) or not is_triangulable(g, d):
            continue
        got = missing_roots_obstruction(g, d)
        assert got == reference_obstruction(g, d), name
        checked.add(got.configuration)
    assert checked == {"Delta1", "Delta2", "Delta3", "Delta4", "Delta6"}


# -- N(sigma, delta) ----------------------------------------------------------------------

def test_n_subspace_trivial_brackets_is_whole_root_space():
    g, tm, d = decomposition(f7)
    sigma, delta = 1, 2
    assert n_subspace(g, d, sigma, delta) == d.roots[sigma]


def test_n_subspace_excludes_vectors_bracketing_onto_torus():
    # in gl(2) + outer toral line, [E12, E21] = E11 + E22 is toral, so no
    # nonzero element of the matrix root space satisfies the nil condition
    g, tm = gltor()
    t = maximal_torus(g, tm)
    assert t.dim == 3
    d = root_decomposition(g, tm, t)
    sigma = 3
    delta = 4
    assert d.roots[sigma].dim == 2
    assert n_subspace(g, d, sigma, delta).dim == 0


def test_n_subspace_u2_values():
    g, tm, d = decomposition(u2)
    alpha, beta = 1, 2
    # self-brackets of g_alpha land in the nil part, cross brackets vanish
    assert n_subspace(g, d, alpha, beta) == d.roots[alpha]
    assert n_subspace(g, d, beta, alpha) == d.roots[beta]


def test_n_subspace_shift_identity_randomized():
    rng = random.Random(20240)
    pool = [decomposition(b) for b in (f7, u1, u2, lambda: delta0((1, 2, 1, 2, 1, 1, 2)))]
    checked = 0
    while checked < 100:
        g, tm, d = pool[rng.randrange(len(pool))]
        roots = d.root_list()
        sigma = roots[rng.randrange(len(roots))]
        delta = roots[rng.randrange(len(roots))]
        if sigma == delta:
            continue
        assert n_subspace(g, d, sigma, delta) == n_subspace(g, d, sigma, sigma ^ delta)
        checked += 1


def test_n_subspace_rejects_equal_roots():
    g, tm, d = decomposition(f7)
    a = 1
    with pytest.raises(PreconditionError):
        n_subspace(g, d, a, a)


# -- the eight constructions -----------------------------------------------------------------

DISPATCH_CASES = [
    ((2, 1, 1, 1, 1, 1, 1), LEMMA_ALPHA_GT_BETA, 10),
    ((2, 2, 1, 1, 1, 1, 1), LEMMA_BETA_GT_XI, 11),
    ((2, 2, 2, 1, 1, 1, 1), LEMMA_AB_GT_AG, 10),
    ((2, 2, 2, 2, 2, 2, 1), LEMMA_BG_GT_ABG, 15),
    ((2, 2, 2, 2, 2, 1, 1), LEMMA_AG_GT_EQ, 14),
    ((2, 2, 1, 2, 1, 1, 1), LEMMA_GAMMA_GT_XI, 12),
    ((2, 2, 1, 2, 1, 1, 2), LEMMA_ABG_GT_AG, 11),
]


def fire(g, tm, d):
    """The construction the root-space dimensions fire, as the screen builds it."""
    hit = dispatch({lam: sp.dim for lam, sp in d.roots.items()})
    return None if hit is None else named_construction(g, d, *hit)


@pytest.mark.parametrize("dims,lemma,ideal_dim", DISPATCH_CASES)
def test_construction_dispatch(dims, lemma, ideal_dim):
    g, tm, d = decomposition(lambda: delta0(dims))
    rep = fire(g, tm, d)
    assert rep.lemma == lemma
    assert rep.subspace.dim == ideal_dim
    assert_sound(g, rep)


def test_construction_equal_dims_returns_none():
    g, tm, d = decomposition(f7)
    assert fire(g, tm, d) is None


def test_construction_u1_documented_example():
    g, tm, d = decomposition(u1)
    rep = fire(g, tm, d)
    assert rep.lemma == LEMMA_ALPHA_GT_BETA
    assert rep.subspace.dim == 10  # torus slice (2) + all root spaces (8)
    assert_sound(g, rep)


def test_construction_u2_fires_n_construction():
    g, tm, d = decomposition(u2)
    rep = fire(g, tm, d)
    assert rep.lemma == LEMMA_AB_GT_AG
    assert rep.subspace.dim == 12
    assert_sound(g, rep)
    # the building blocks are nontrivial
    alpha = 1
    beta = 2
    assert n_subspace(g, d, alpha, beta).dim == 2


def test_named_construction_last_pattern_direct():
    # the dispatch resolves the (M,M,M,M,M,M,<M) pattern through an earlier
    # stage, so drive the remaining construction directly: relabelled so the
    # short root is beta+gamma, the slice span{s1, s2+s3} + n + roots is an
    # ideal
    g, tm, d = decomposition(lambda: delta0((2, 2, 2, 2, 2, 2, 1)))
    identity = (1, 2, 4)
    rep = named_construction(g, d, LEMMA_AG_GT_BG, identity)
    assert rep.lemma == LEMMA_AG_GT_BG
    assert rep.subspace.dim == 15
    assert_sound(g, rep)


def test_named_construction_refuses_missing_roots_and_non_matrices():
    g, tm, d = decomposition(delta2)
    with pytest.raises(PreconditionError):
        named_construction(g, d, LEMMA_ALPHA_GT_BETA, (1, 2, 4))
    g, tm, d = decomposition(f7)
    with pytest.raises(PreconditionError):
        named_construction(g, d, LEMMA_ALPHA_GT_BETA, (1, 2, 3))  # singular


def test_dispatch_covers_random_patterns():
    # any pattern with two unequal entries must fire some construction,
    # and the fired ideal must re-verify; seeded sample across {1,2,3}^7
    rng = random.Random(31)
    seen_lemmas = set()
    trials = 0
    while trials < 40:
        dims = tuple(rng.choice((1, 2, 3)) for _ in range(7))
        if len(set(dims)) == 1 or sum(dims) > 13:
            continue
        trials += 1
        g, tm, d = decomposition(lambda dd=dims: delta0(dd))
        rep = fire(g, tm, d)
        assert rep is not None, dims
        assert_sound(g, rep)
        seen_lemmas.add(rep.lemma)
    assert len(seen_lemmas) >= 4  # the sample exercises several stages


def test_dispatch_determinism_under_relabelling():
    mats = [(1, 2, 4), (2, 1, 4), (4, 2, 1), (2, 4, 1), (3, 1, 4), (1, 6, 4)]
    for build in (u1, u2, lambda: delta0((2, 2, 1, 2, 1, 1, 2))):
        g, tm, d = decomposition(build)
        base = fire(g, tm, d)
        for mat in mats:
            s = [0, 0, 0]
            for j, row in enumerate(mat):
                for i in range(3):
                    if (row >> i) & 1:
                        s[j] ^= d.torus.toral_basis[i]
            d2 = root_decomposition(g, tm, Torus(d.torus.subspace, tuple(s)))
            rep = fire(g, tm, d2)
            assert rep.subspace.dim == base.subspace.dim
            assert (rep.verified_ideal, rep.proper, rep.nonzero) == (
                base.verified_ideal, base.proper, base.nonzero,
            )


# -- missing-roots obstruction ------------------------------------------------------------------

def test_obstruction_f6():
    g, tm, d = decomposition(f6)
    obs = missing_roots_obstruction(g, d)
    assert obs.configuration == "Delta1"
    assert obs.ok and obs.projection_dim == 0 and obs.slice_dim == 0
    rep = missing_roots_ideal(g, d)
    assert rep.subspace.dim == 3
    assert_sound(g, rep)


def test_obstruction_delta2():
    g, tm, d = decomposition(delta2)
    obs = missing_roots_obstruction(g, d)
    assert obs.configuration == "Delta2"
    assert obs.ok and obs.slice_dim == 2 < 3
    rep = missing_roots_ideal(g, d)
    assert_sound(g, rep)


def delta2fat():
    """Four-root configuration where [g_a, g_a] reaches t_2.

    A self-bracket of the two-dimensional g_alpha landing on a toral
    element forces the compensating cross brackets [x_a2, y] = w and
    [x_a1, w] = y through g_{alpha+beta} (otherwise the Jacobi identity
    fails), which is exactly the dimension-transfer mechanism at work.
    Basis order: t1 t2 t3 | x_a1 x_a2 | y | x_c | w.
    """
    from lie2.algebra import LieAlgebra
    from lie2.restricted import verify_two_map

    e = [unit(F2, i) for i in range(8)]
    pairs = {
        (0, 3): e[3], (0, 4): e[4],            # alpha(t1) = 1
        (1, 5): e[5],                          # beta(t2) = 1
        (2, 6): e[6],                          # gamma(t3) = 1
        (0, 7): e[7], (1, 7): e[7],            # (alpha+beta) on t1, t2
        (3, 4): e[1],                          # [x_a1, x_a2] = t2
        (4, 5): e[7],                          # [x_a2, y] = w
        (3, 7): e[5],                          # [x_a1, w] = y
    }
    g = LieAlgebra(F2, 8, pairs, "delta2fat")
    tm = TwoMap([e[0], e[1], e[2], 0, 0, 0, 0, 0])
    assert g.verify().ok
    assert verify_two_map(g, tm).ok
    return g, tm


def test_obstruction_nontrivial_projection():
    g, tm, d = decomposition(delta2fat)
    assert center(g).dim == 0
    obs = missing_roots_obstruction(g, d)
    assert obs.configuration == "Delta2"
    assert obs.contained and obs.projection_dim == 1
    rep = missing_roots_ideal(g, d)
    assert_sound(g, rep)
    assert rep.subspace.dim == 6  # t2 plus four root spaces of total dim 5


def test_obstruction_rejects_delta0():
    g, tm, d = decomposition(f7)
    with pytest.raises(PreconditionError):
        missing_roots_obstruction(g, d)


def test_obstruction_across_configurations():
    # one fixture per reachable configuration index; the slice dimension
    # stays below the rank everywhere, which is the obstruction
    cases = [
        (lambda: graded({1: 1, 2: 1, 4: 1, 7: 1}, name="frame4"), "Delta3", 0),
        (lambda: graded({1: 1, 2: 1, 3: 1, 4: 1, 6: 2}, name="five"), "Delta4", 2),
        (lambda: graded({m: 1 for m in range(1, 7)}, name="six"), "Delta6", 2),
    ]
    for build, label, slice_dim in cases:
        g, tm, d = decomposition(build)
        obs = missing_roots_obstruction(g, d)
        assert obs.configuration == label
        assert obs.slice_dim == slice_dim < d.rank
        assert obs.ok
        rep = missing_roots_ideal(g, d)
        assert_sound(g, rep)


# -- the screen -----------------------------------------------------------------------------------

def test_screen_witness_fixtures():
    for build, expected_reason in [
        (f6, "configuration Delta1"),
        (delta2, "configuration Delta2"),
        (f7, "all root spaces one-dimensional"),
        (u1, "construction AlphaGtBeta"),
        (u2, "construction AlphaBetaGtAlphaGamma"),
    ]:
        g, tm = build()
        res = simplicity_screen(g, tm)
        assert res.verdict == VERDICT_WITNESS, g.name
        assert res.reason == expected_reason
        assert_sound(g, res.ideal)


def test_screen_unequal_pair_recorded():
    g, tm = u1()
    res = simplicity_screen(g, tm)
    assert res.unequal_pair is not None
    a, b = res.unequal_pair
    assert a != b


def test_screen_center_witness():
    for build in (lambda: gl(2), lambda: gl(3), gltor):
        g, tm = build()
        res = simplicity_screen(g, tm)
        assert res.verdict == VERDICT_WITNESS
        assert res.reason == "nonzero center"
        assert_sound(g, res.ideal)


def test_screen_out_of_scope():
    g, tm = torus(3)
    assert simplicity_screen(g, tm).verdict == VERDICT_OUT_OF_SCOPE
    g, tm = witt(2)
    res = simplicity_screen(g, tm)
    assert res.verdict == VERDICT_OUT_OF_SCOPE and "rank 1" in res.reason
    g, tm = rank2sq()
    assert simplicity_screen(g, tm).verdict == VERDICT_OUT_OF_SCOPE


def test_screen_budget_refusal():
    # abelian: refused before any enumeration
    g = abelian(30)
    tm = TwoMap([unit(F2, i) for i in range(30)])
    res = simplicity_screen(g, tm)
    assert res.verdict == VERDICT_OUT_OF_SCOPE and "abelian" in res.reason
    # non-abelian, centerless, dim 26: the exhaustive rank stage refuses
    g, tm = delta0((4, 3, 3, 3, 3, 4, 3))
    assert g.dim == 26
    res = simplicity_screen(g, tm)
    assert res.verdict == VERDICT_OUT_OF_SCOPE and "budget" in res.reason


def test_screen_passes_on_equal_dims():
    # dim 17, and dim 24: the top of the 2^24 toral-enumeration budget
    for dims, dim in (((2,) * 7, 17), ((3,) * 7, 24)):
        g, tm = delta0(dims)
        assert g.dim == dim
        res = simplicity_screen(g, tm)
        assert res.verdict == VERDICT_PASSES
        assert res.ideal is None


# -- the oracle -----------------------------------------------------------------------------------

def test_oracle_dim_one_and_abelian():
    g = abelian(1)
    assert not is_simple(g).simple
    g = abelian(3)
    v = is_simple(g)
    assert not v.simple and v.counterexample is not None


def test_oracle_counterexample_generates_proper_ideal():
    for build in (f6, f7, u1, lambda: gl(2)):
        g, tm = build()
        v = is_simple(g)
        assert not v.simple
        cl = ideal_closure(g, g.subspace([v.counterexample]))
        assert 0 < cl.dim < g.dim and is_ideal(g, cl)


def test_oracle_budget():
    g = abelian(21)
    with pytest.raises(BudgetExceededError):
        is_simple(g)


def test_oracle_projective_representatives_over_gf4():
    g, tm = torus(2, k=2)
    v = is_simple(g)
    assert not v.simple
    assert v.closures_run <= 5  # (16 - 1) / 3 lines


def test_screen_and_oracle_agree():
    # every witness the screen produces must be confirmed non-simple
    for build in (f6, f6n, f7, delta2, u1, lambda: gl(2), lambda: gl(3),
                  lambda: witt(2), gltor, rank2sq, lambda: torus(3)):
        g, tm = build()
        res = simplicity_screen(g, tm)
        if g.dim <= 12:
            verdict = is_simple(g)
            if res.verdict == VERDICT_WITNESS:
                assert not verdict.simple, g.name
            assert not (res.verdict == VERDICT_WITNESS and verdict.simple)


def plain_spin_oracle(g):
    """Reference oracle: every generator's full ideal closure, no shortcut."""
    f, n = g.field, g.dim
    if n < 2:
        return False, None, 0
    closures = 0
    for v in range(1, 1 << (f.k * n)):
        if f.k > 1 and vget(f, v, pivot_index(f, v)) != 1:
            continue
        closures += 1
        if ideal_closure(g, g.subspace([v])).dim < n:
            return False, v, closures
    return True, None, closures


def _oracle_differential_cases():
    corpus = [f6, f6n, f7, delta2, u1, u2, gltor, rank2sq,
              lambda: gl(2), lambda: gl(3), lambda: witt(1), lambda: witt(2),
              lambda: sl(3), lambda: sl(4)] + [lambda r=r: torus(r) for r in (1, 2, 3, 4)]
    cases = []
    for seed, build in enumerate(corpus):
        g, tm = build()
        assert g.field.k * g.dim <= 16, g.name
        cases.append((g, tm))
        rng = random.Random(seed)
        for _ in range(2):
            perm = list(range(g.dim))
            rng.shuffle(perm)
            cases.append(permute_basis(g, tm, perm))
    for build in (f6, lambda: gl(2), lambda: sl(3)):
        cases.append(extend_scalars(*build(), 2))
    for build in (f6, lambda: gl(2)):
        cases.append(extend_scalars(*build(), 3))
    cases.extend(build() for _, build in vacuity_family()[:20])
    return cases


def test_oracle_shortcut_matches_plain_spin():
    # stopping a spin at an earlier generator changes no verdict, count or counterexample
    for g, tm in _oracle_differential_cases():
        v = is_simple(g)
        assert (v.simple, v.counterexample, v.closures_run) == plain_spin_oracle(g), g.name


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_guard_bit_compare_matches_the_unpacked_fields(data):
    # is_simple's skip test: some packed field w has 0 < w < T, for any
    # 1 <= T <= 2^bits, with no borrow or carry between fields
    bits = data.draw(st.integers(1, 20), label="bits")
    top = (1 << bits) - 1
    t = data.draw(st.one_of(st.sampled_from([1, 2, top, top + 1]), st.integers(1, top + 1)),
                  label="T")
    edges = [w for w in (0, t - 1, t, top) if w <= top]
    fields = data.draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, top)),
                                min_size=1, max_size=8), label="fields")
    rep = _pack([1] * len(fields), bits)
    guard = rep << bits
    packed = _pack(fields, bits)
    found = ((t - 1) * rep + guard - packed) & (packed + rep * top) & guard
    assert bool(found) == any(0 < w < t for w in fields)


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_counterexample_on_every_two_dim_algebra_over_an_extension(k):
    # [b_0, b_1] = c: the line of c is the one proper nonzero ideal, and the
    # oracle returns its representative with coefficient 1 at the pivot,
    # whatever the scalars in c (a generator is skipped only when one of its
    # brackets, scaled to 1 at its pivot, precedes it)
    f = gf(k)
    for c in range(1, 1 << (2 * k)):
        g = LieAlgebra(f, 2, {(0, 1): c})
        v = is_simple(g)
        assert (v.simple, v.counterexample, v.closures_run) == plain_spin_oracle(g), c
        line = {vscale(f, c, s) for s in range(1, 1 << k)}
        assert v.counterexample in line and vget(f, v.counterexample, pivot_index(f, c)) == 1


def test_oracle_positive_control_sl3():
    g, tm = sl(3)
    v = is_simple(g)
    assert v.simple is True and v.counterexample is None and v.closures_run == 255


def test_oracle_positive_control_sl3_over_gf4():
    g, tm = extend_scalars(*sl(3), 2)
    v = is_simple(g)
    assert v.simple is True and v.closures_run == (4 ** 8 - 1) // 3 == 21845


def test_oracle_sl4_counterexample_is_the_centre():
    # basis: the 12 off-diagonal units, then h_p = E_pp + E_(p+1)(p+1) for p = 0, 1, 2
    g, tm = sl(4)
    v = is_simple(g)
    identity = unit(g.field, 12) | unit(g.field, 14)  # h_0 + h_2
    assert not v.simple and v.counterexample == identity and v.closures_run == 20480
    cl = ideal_closure(g, g.subspace([identity]))
    assert cl.dim == 1 and cl == center(g)


def test_psl4_is_a_simple_control_out_of_scope():
    # sl(4) modulo the centre above: simple, but of toral rank 2 over GF(2)
    g, tm = psl4()
    assert g.dim == 14 and verify_lie(g).ok and verify_two_map(g, tm).ok
    assert center(g).dim == 0
    v = is_simple(g)
    assert v.simple is True and v.counterexample is None and v.closures_run == 2 ** 14 - 1
    assert maximal_torus(g, tm).dim == 2
    res = simplicity_screen(g, tm)
    assert (res.verdict, res.reason) == (VERDICT_OUT_OF_SCOPE, "toral rank 2 != 3")


# -- invariance under a change of basis -----------------------------------------------------------

def random_basis(f, n, rng):
    """A uniformly drawn invertible basis of GF(2^k)^n."""
    rows = []
    while len(rows) < n:
        v = rng.getrandbits(f.k * n)
        if Subspace.from_vectors(f, n, rows + [v]).dim > len(rows):
            rows.append(v)
    return rows


def rebase(g, tm, seed):
    """g in a seeded random basis."""
    return subquotient(g, tm, random_basis(g.field, g.dim, random.Random(seed)))


def rebased(g, tm, seed):
    """g in a random basis; it must verify like g."""
    h, tm2 = rebase(g, tm, seed)
    assert verify_lie(h).ok and verify_two_map(h, tm2).ok
    return h, tm2


def screen_key(g, tm):
    res = simplicity_screen(g, tm)
    return res.verdict, res.reason, res.ideal.subspace.dim if res.ideal else None


REBASE_CASES = [(b.__name__, b) for b in (f6, f6n, f7, delta2, u1, u2)] + vacuity_family()[::14]


@pytest.mark.parametrize("label,build", REBASE_CASES, ids=[label for label, _ in REBASE_CASES])
def test_screen_is_invariant_under_a_change_of_basis(label, build):
    g, tm = build()
    assert screen_key(*rebased(g, tm, seed=g.dim)) == screen_key(g, tm)


@pytest.mark.parametrize("build", [f6, lambda: gl(2)], ids=["f6", "gl2"])
def test_screen_and_toral_rank_are_invariant_under_a_change_of_basis_over_gf4(build):
    g, tm = extend_scalars(*build(), 2)
    h, tm2 = rebased(g, tm, seed=g.dim)
    assert maximal_torus(h, tm2).dim == maximal_torus(g, tm).dim
    assert screen_key(h, tm2) == screen_key(g, tm)


def structure_key(g, tm):
    """Root-dimension multiset, Delta class (rank 3 only) and oracle verdict."""
    _, _, d = decomposition((g, tm))
    delta = classify_delta(d).label if d.rank == 3 else None
    return sorted(sp.dim for sp in d.roots.values()), delta, is_simple(g).simple


STRUCTURE_CASES = REBASE_CASES + [
    ("psl4", psl4),
    ("f6_gf4", lambda: extend_scalars(*f6(), 2)),
    ("gl2_gf4", lambda: extend_scalars(*gl(2), 2)),
]


@pytest.mark.parametrize("label,build", STRUCTURE_CASES,
                         ids=[label for label, _ in STRUCTURE_CASES])
def test_roots_delta_class_and_oracle_are_invariant_under_a_change_of_basis(label, build):
    g, tm = build()
    assert structure_key(*rebased(g, tm, seed=g.dim)) == structure_key(g, tm)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("build", [f6, f6n, f7, delta2, u1, u2], ids=lambda b: b.__name__)
def test_axiom_verdicts_and_toral_rank_are_invariant_under_a_change_of_basis(build, seed):
    g, tm = build()
    h, tm2 = rebased(g, tm, seed)
    assert maximal_torus(h, tm2).dim == maximal_torus(g, tm).dim
    # a corruption made before the change of basis is still found after it
    pairs = {(i, j): g.table[i][j] for i, j in combinations(range(g.dim), 2)}
    pairs[(0, 1)] ^= 1  # [t_0, t_1] = t_0
    bad = LieAlgebra(g.field, g.dim, pairs, g.name)
    assert not verify_lie(bad).ok and not verify_lie(rebase(bad, tm, seed)[0]).ok
    # t_0^[2] = 0; a root vector squares to 0 already, so the torus is where this shows
    bad_tm = TwoMap((0,) + tm.images[1:])
    assert not verify_two_map(g, bad_tm).ok and not verify_two_map(*rebase(g, bad_tm, seed)).ok


def test_result_records_are_frozen_values():
    full = DimensionTransfer("DimsEqual", 3, 2, 2, 2, 2)
    assert full == DimensionTransfer("DimsEqual", 3, 2, 2, 2, 2)
    assert hash(full) == hash(DimensionTransfer("DimsEqual", 3, 2, 2, 2, 2))
    assert full != DimensionTransfer("HypothesisNotMet") and full != ("DimsEqual", 3, 2, 2, 2, 2)
    assert DimensionTransfer("HypothesisNotMet").witness is None
    assert ScreenResult(VERDICT_OUT_OF_SCOPE, reason="r") == ScreenResult(VERDICT_OUT_OF_SCOPE, None, "r")
    assert repr(DimBoundReport(3, 3, 12, True)) == \
        "DimBoundReport(independent_roots=3, rank=3, dim=12, ok=True)"
    assert pickle.loads(pickle.dumps(full)) == full
    with pytest.raises(AttributeError):
        full.status = "HypothesisNotMet"
    with pytest.raises(AttributeError):
        del full.witness
    for args, kwargs in (((), {}), (("v",), {"verdict": "w"}), (("v",), {"extra": 1}),
                         (("v", None, None, None, None), {})):
        with pytest.raises(TypeError):
            ScreenResult(*args, **kwargs)
