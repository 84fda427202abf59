"""Toral elements, torus recognition, maximal tori, relative rank.

gl(2) toral elements are cross-checked against the idempotent 2x2 matrices
found by direct enumeration; the field-relativity example is an abelian
algebra whose squaring map is invertible but fixes nothing over GF(2), so
its toral rank grows from 0 to 2 when the scalars reach GF(8).
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lie2.algebra import LieAlgebra, abelian, center
from lie2.errors import BudgetExceededError, FieldTooSmallError, PreconditionError
from lie2.field import gf
from lie2.fileio import loads
from lie2.fixtures import (
    delta0,
    delta2,
    f6,
    f6n,
    f7,
    fixture,
    gl,
    gltor,
    graded,
    permute_basis,
    rank2sq,
    sl,
    torus,
    u1,
    u2,
    vacuity_family,
    witt,
)
from lie2.linalg import Subspace, coeffs, reduce_vector, rref_rows, unit, vector
from lie2.restricted import TwoMap, extend_scalars, square
from lie2.tori import (
    TORAL_ENUM_BITS,
    Torus,
    _bit_columns,
    _cover,
    _max_toral_span,
    _torals_sliced,
    _torals_solved,
    is_torus,
    maximal_torus,
    toral_basis,
    toral_elements,
)

F2 = gf(1)


def twisted_torus():
    """Abelian dim 2 with e1 -> e2 -> e1 + e2 under squaring.

    The squaring map is the invertible matrix [[0,1],[1,1]] of order 3, so
    it has no nonzero fixed vectors over GF(2) or GF(4); fixed vectors
    appear over GF(8).
    """
    g = LieAlgebra(F2, 2, {}, "twisted")
    tm = TwoMap([unit(F2, 1), unit(F2, 0) ^ unit(F2, 1)])
    return g, tm


# -- toral elements ------------------------------------------------------------

def test_toral_elements_zero_two_map():
    g = abelian(3)
    assert toral_elements(g, TwoMap([0, 0, 0])) == []


def test_toral_elements_one_dim_fixed_point():
    g = abelian(1)
    tm = TwoMap([unit(F2, 0)])
    assert toral_elements(g, tm) == [unit(F2, 0)]


def test_toral_elements_gl2_match_idempotent_matrices():
    g, tm = gl(2)

    def mat_sq(v):
        c = coeffs(F2, 4, v)
        m = ((c[0], c[1]), (c[2], c[3]))
        mm = tuple(
            tuple(sum(m[i][t] * m[t][j] for t in range(2)) % 2 for j in range(2))
            for i in range(2)
        )
        return vector(F2, (mm[0][0], mm[0][1], mm[1][0], mm[1][1]))

    oracle = sorted(v for v in range(1, 16) if mat_sq(v) == v)
    got = toral_elements(g, tm)
    assert got == oracle
    e11, e12 = unit(F2, 0), unit(F2, 1)
    assert e11 in got and (e11 ^ e12) in got  # E11 and E11+E12 are idempotent


def test_toral_elements_budget():
    g = abelian(25)
    with pytest.raises(BudgetExceededError):
        toral_elements(g, TwoMap([0] * 25))


def test_maximal_torus_refuses_past_the_budget():
    g, tm = torus(25)
    with pytest.raises(BudgetExceededError) as err:
        maximal_torus(g, tm)
    assert "needs 2^25 candidates, budget is 2^24" in str(err.value)


# The fixture corpus of the paper suite, the u2 relabellings of its vacuity
# sweep, sl(2), and sl(3) relabelled so that its last two coordinates do not
# commute.  Inputs over 12 bits walk the high block, and the relabellings
# make high bits meet with nonzero brackets.
CORPUS = {
    "torus1": lambda: torus(1), "torus2": lambda: torus(2), "torus3": lambda: torus(3),
    "torus4": lambda: torus(4), "f6": f6, "f6n": f6n, "f7": f7, "delta2": delta2, "u1": u1,
    "u2": u2, "gl2": lambda: gl(2), "gl3": lambda: gl(3), "sl2": lambda: sl(2),
    "sl3": lambda: permute_basis(*sl(3), [0, 1, 2, 3, 4, 7, 5, 6]),
    "witt1": lambda: witt(1), "witt2": lambda: witt(2), "rank2sq": rank2sq, "gltor": gltor,
}
CORPUS.update((label, build) for label, build in vacuity_family() if label.startswith("u2_"))


def _any_cover(g):
    """A vertex cover of the bracket graph without the rule's bound: in index
    order, each vector joined to one already left out joins the cover."""
    cover, out = [], []
    for i, row in enumerate(g.table):
        (cover if any(row[j] for j in out) else out).append(i)
    return cover


def test_toral_elements_incremental_matches_direct():
    # both kernels, and the one the rule picks, against the definition, over
    # GF(2), GF(4), GF(8); the solve walk is forced with an unbounded cover
    checked = 0
    for name, build in CORPUS.items():
        g, tm = build()
        for k in (1, 2, 3):
            if k * g.dim > 16:
                continue
            gk, tmk = extend_scalars(g, tm, k) if k > 1 else (g, tm)
            direct = [v for v in range(1, 1 << (k * g.dim)) if square(gk, tmk, v) == v]
            assert toral_elements(gk, tmk) == direct, (name, k)
            assert _torals_sliced(gk, tmk) == direct, (name, k)
            assert _torals_solved(gk, tmk, _any_cover(gk)) == direct, (name, k)
            checked += 1
    assert checked == 46


def _perfbench_inputs():
    """The benchmark's input module, which builds its algebras without lie2."""
    module = sys.modules.get("perfbench_inputs")
    if module is None:
        path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _workload_algebras(workload, seeds=(1, 2, 3)):
    inputs = _perfbench_inputs()
    return [(op.name, loads(op.text)) for seed in seeds for op in inputs.BUILDERS[workload](seed)]


KERNEL_CASES = {
    "delta0_3333333": lambda: delta0((3,) * 7),
    "graded_nil3": lambda: graded({1: 2, 2: 2, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1}, nil_dim=3),
}


def test_kernels_agree_on_the_screen_workload_and_at_the_ceiling():
    cases = _workload_algebras("screen") + [(name, build()) for name, build in KERNEL_CASES.items()]
    assert len(cases) == 3 * 25 + 2
    for name, (g, tm) in cases:
        cover = _cover(g)
        assert cover is not None, name  # root-vector bases: the solve walk runs
        solved = _torals_solved(g, tm, cover)
        assert solved == _torals_sliced(g, tm) == toral_elements(g, tm), name
        assert solved and all(square(g, tm, t) == t for t in solved[:: max(1, len(solved) // 50)])


def _sparse_algebra(data, dim, k):
    f = gf(k)
    top = (1 << (k * dim)) - 1
    pairs = {}
    for i, j, v in data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                                st.integers(1, top)), max_size=dim)):
        if i != j:
            pairs[(min(i, j), max(i, j))] = v
    images = data.draw(st.lists(st.integers(0, top), min_size=dim, max_size=dim))
    return LieAlgebra(f, dim, pairs, "sparse"), TwoMap(images)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernels_match_the_definition_on_sparse_random_tables(data):
    # the kernels read only the raw bracket table and the 2-map images, so
    # neither needs the axioms to hold
    k = data.draw(st.sampled_from((1, 2)))
    dim = data.draw(st.integers(1, 8))
    g, tm = _sparse_algebra(data, dim, k)
    direct = [v for v in range(1, 1 << (k * dim)) if square(g, tm, v) == v]
    assert _torals_sliced(g, tm) == direct
    assert _torals_solved(g, tm, _any_cover(g)) == direct
    assert toral_elements(g, tm) == direct


SLICED_BY_RULE = {
    "sl4": lambda: sl(4), "gl4": lambda: gl(4), "psl4": lambda: fixture("psl4"),
    "witt3_gf4": lambda: extend_scalars(*witt(3), 2), "f6_gf4": lambda: extend_scalars(*f6(), 2),
}


def test_rule_picks_the_solve_walk_on_root_vector_bases():
    for dims in ((2,) * 7, (3,) * 7):
        assert _cover(delta0(dims)[0]) == [0, 1, 2]  # the torus covers every bracket
    assert len(_cover(u2()[0])) == 5  # the torus, and two vectors for the extra brackets


def test_rule_keeps_the_bit_sliced_kernel_where_the_cover_is_large():
    for name, build in SLICED_BY_RULE.items():
        assert _cover(build()[0]) is None, name
    for name, (g, tm) in _workload_algebras("rank"):
        for k in (1, 2):
            assert _cover(extend_scalars(g, tm, k)[0] if k > 1 else g) is None, (name, k)


@pytest.mark.parametrize("bits", range(1, TORAL_ENUM_BITS + 1))
def test_bit_columns_match_per_vector_reference(bits):
    rng = random.Random(f"columns/{bits}")
    for size in (0, 1, 7, 8, 9, 3000):
        vectors = [rng.getrandbits(bits) for _ in range(size)]
        expected = [sum(1 << j for j, v in enumerate(vectors) if v >> q & 1) for q in range(bits)]
        assert _bit_columns(vectors, bits) == expected, size


def _generic_max_toral_span(g, torals):
    """Reference search: every GF(2^k)-span of commuting torals, memoized by its rows."""
    f = g.field
    seen = set()
    best = ((), ())

    def visit(rows, gens, cands):
        nonlocal best
        key = tuple(rows)
        if key in seen:
            return
        seen.add(key)
        if len(rows) > len(best[0]):
            best = (tuple(rows), tuple(gens))
        for v in cands:
            if reduce_vector(f, rows, v) == 0:
                continue
            new_rows, _ = rref_rows(f, rows + [v])
            new_cands = [w for w in cands if g.bracket(v, w) == 0]
            visit(new_rows, gens + [v], new_cands)

    visit([], [], list(torals))
    return best


# (algebra, k) cases on which the reference search takes at most about 1 s.
# u2 is left out: the reference takes about 30 s on its 608 torals over GF(2).
# Over GF(8) it takes about 45 s on f6 and gltor, and over GF(4) 9 s on sl(3)
# and 124 s on gl(3).
_SMALL = ["gl2", "rank2sq", "sl2", "torus1", "torus2", "torus3", "torus4", "witt1", "witt2"]
SEARCH_CASES = [(name, 1) for name in sorted(n for n in CORPUS if not n.startswith("u2"))] + [
    (name, 2) for name in sorted(_SMALL + ["f6", "gltor"])] + [(name, 3) for name in _SMALL]


@pytest.mark.parametrize(
    "name,k", SEARCH_CASES, ids=[n if k == 1 else f"{n}-gf{2 ** k}" for n, k in SEARCH_CASES]
)
def test_bitset_search_matches_generic_search(name, k):
    g, tm = CORPUS[name]()
    if k > 1:
        g, tm = extend_scalars(g, tm, k)
    f = g.field
    torals = toral_elements(g, tm)
    rows, gens = _max_toral_span(g, torals)
    generic_rows, _ = _generic_max_toral_span(g, torals)
    assert len(rows) == len(gens) == len(generic_rows)
    assert Subspace.from_vectors(f, g.dim, gens) == Subspace(f, g.dim, rows)
    assert all(square(g, tm, t) == t for t in gens)
    assert is_torus(g, tm, Subspace(f, g.dim, rows))


def _bit_order(g, torals):
    """The search's bit order, from its definition: next, the raw bit set in the
    most torals that have no bit set earlier in the order, ties to the lowest
    bit; it ends once every toral has a bit in it."""
    order, left = [], list(torals)
    while left:
        q = max(range(g.field.k * g.dim), key=lambda q: sum(t >> q & 1 for t in left))
        order.append(q)
        left = [t for t in left if not t >> q & 1]
    return order


def _echelon_walk(g, torals):
    """Unpruned reference walk: every chain of pairwise-commuting torals with
    increasing pivots (first set bits in :func:`_bit_order`) in which no
    generator has the pivot of a later one set, so that the chain is its span's
    reduced echelon basis over GF(2) in that order.  Each step takes
    candidates pivot class first, then by index."""
    rank = {q: r for r, q in enumerate(_bit_order(g, torals))}
    piv = [min((q for q in rank if t >> q & 1), key=rank.get) for t in torals]
    commute = [[g.bracket(s, t) == 0 for t in torals] for s in torals]
    order = sorted(range(len(torals)), key=lambda j: (rank[piv[j]], j))

    def visit(chain, last):
        yield tuple(torals[i] for i in chain)
        for j in order:
            if rank[piv[j]] > last and all(commute[i][j] and not torals[i] >> piv[j] & 1
                                           for i in chain):
                yield from visit(chain + [j], rank[piv[j]])

    return visit([], -1)


def _first_longest_chain(g, torals):
    """The first chain of maximum length in the unpruned walk."""
    best = ()
    for chain in _echelon_walk(g, torals):
        if len(chain) > len(best):
            best = chain
    return best


# delta0((1,1,1,1,1,2,2)) has 272 torals; once the best span is found, most
# of them lie in pivot classes that can no longer beat it and are not walked.
PRUNE_CORPUS = dict(CORPUS, delta0_1111122=lambda: delta0((1, 1, 1, 1, 1, 2, 2)))
PRUNE_CASES = [("f6", 1), ("f6", 2), ("gltor", 2), ("rank2sq", 2), ("gl2", 2), ("witt2", 2),
               ("sl3", 1), ("gl3", 1), ("delta0_1111122", 1)]


@pytest.mark.parametrize("name,k", PRUNE_CASES, ids=[f"{n}-gf{2 ** k}" for n, k in PRUNE_CASES])
@pytest.mark.parametrize("relabel", range(3))
def test_pruned_search_returns_first_longest_chain(name, k, relabel):
    # the growth bound cuts only subtrees that cannot beat the best span, so
    # the span is that of the unpruned walk on every basis numbering, and the
    # generators are its reduced echelon basis over the raw bits in index order
    g, tm = PRUNE_CORPUS[name]()
    perm = random.Random(f"{name}/{relabel}").sample(range(g.dim), g.dim)
    g, tm = permute_basis(g, tm, perm)
    if k > 1:
        g, tm = extend_scalars(g, tm, k)
    torals = toral_elements(g, tm)
    first = _first_longest_chain(g, torals)
    assert _max_toral_span(g, torals)[1] == tuple(rref_rows(F2, list(first))[0])


def _span(vectors):
    """All GF(2)-combinations of the vectors, as a frozenset."""
    span = {0}
    for v in vectors:
        span |= {w ^ v for w in span}
    return frozenset(span)


# The number of GF(2)-spans of pairwise-commuting torals, the empty span
# included.  delta0((1,1,1,1,1,2,2)) is left out: its 2,321 spans take 3 s.
SPAN_COUNTS = [("f6", 1, 79), ("gltor", 1, 65), ("gl2", 1, 11), ("sl3", 1, 57), ("gl3", 1, 226),
               ("rank2sq", 1, 6), ("witt2", 1, 5), ("f6", 2, 493), ("gl2", 2, 32)]


@pytest.mark.parametrize("name,k,count", SPAN_COUNTS,
                         ids=[n if k == 1 else f"{n}-gf{2 ** k}" for n, k, _ in SPAN_COUNTS])
def test_walk_reaches_every_commuting_span_once(name, k, count):
    g, tm = CORPUS[name]()
    if k > 1:
        g, tm = extend_scalars(g, tm, k)
    torals = toral_elements(g, tm)
    walked = [_span(chain) for chain in _echelon_walk(g, torals)]
    # the same spans, grown by closure from the empty span one commuting toral at a time
    spans, frontier = {frozenset({0})}, [frozenset({0})]
    while frontier:
        grown = {s | {v ^ t for v in s} for s in frontier for t in torals
                 if t not in s and all(g.bracket(t, v) == 0 for v in s)}
        frontier = list(grown - spans)
        spans |= grown
    assert len(walked) == len(set(walked)) == len(spans) == count
    assert set(walked) == spans


# -- torus recognition -----------------------------------------------------------

def test_is_torus_examples():
    g, tm = f6()
    t = g.subspace([unit(F2, i) for i in range(3)])
    assert is_torus(g, tm, t)
    # a line through a 2-nilpotent element is not a torus
    assert not is_torus(g, tm, g.subspace([unit(F2, 3)]))
    # non-abelian subspaces are not tori
    g2, tm2 = gl(2)
    assert not is_torus(g2, tm2, g2.subspace([unit(F2, 1), unit(F2, 2)]))


def test_twisted_square_map_is_torus_without_toral_basis():
    g, tm = twisted_torus()
    whole = g.full_space()
    assert is_torus(g, tm, whole)
    with pytest.raises(FieldTooSmallError):
        toral_basis(g, tm, whole)
    assert toral_elements(g, tm) == []


def test_toral_basis_examples():
    g, tm = torus(1)
    assert toral_basis(g, tm, g.full_space()) == [unit(F2, 0)]
    g2, tm2 = gl(2)
    diag = g2.subspace([unit(F2, 0), unit(F2, 3)])
    tb = toral_basis(g2, tm2, diag)
    assert sorted(tb) == [unit(F2, 0), unit(F2, 3)]
    g6, tm6 = f6()
    t = g6.subspace([unit(F2, i) for i in range(3)])
    assert sorted(toral_basis(g6, tm6, t)) == [unit(F2, i) for i in range(3)]


@pytest.mark.parametrize("build", [f6, gltor, lambda: gl(2)], ids=["f6", "gltor", "gl2"])
@pytest.mark.parametrize("k", [2, 3])
def test_toral_basis_over_extension_fields(build, k):
    g, tm = extend_scalars(*build(), k)
    u = maximal_torus(g, tm).subspace
    tb = toral_basis(g, tm, u)
    assert len(tb) == u.dim
    assert all(square(g, tm, t) == t for t in tb)
    assert Subspace.from_vectors(g.field, g.dim, tb) == u


def test_twisted_torus_gets_a_toral_basis_over_gf8_only():
    # GF(2) is refused in test_twisted_square_map_is_torus_without_toral_basis
    g, tm = twisted_torus()
    g4, tm4 = extend_scalars(g, tm, 2)
    with pytest.raises(FieldTooSmallError):
        toral_basis(g4, tm4, g4.full_space())
    g8, tm8 = extend_scalars(g, tm, 3)
    tb = toral_basis(g8, tm8, g8.full_space())
    assert len(tb) == 2 and all(square(g8, tm8, t) == t for t in tb)
    assert Subspace.from_vectors(g8.field, 2, tb) == g8.full_space()


def test_toral_basis_requires_torus():
    g, tm = gl(2)
    with pytest.raises(PreconditionError):
        toral_basis(g, tm, g.subspace([unit(F2, 1)]))


# -- maximal torus ------------------------------------------------------------------

def test_maximal_torus_abelian_identity_two_map():
    g, tm = torus(4)
    t = maximal_torus(g, tm)
    assert t.subspace == g.full_space()


def test_maximal_torus_f6():
    g, tm = f6()
    t = maximal_torus(g, tm)
    assert t.dim == 3
    assert t.subspace == g.subspace([unit(F2, i) for i in range(3)])
    assert is_torus(g, tm, t.subspace)


def test_maximal_torus_gl2():
    g, tm = gl(2)
    t = maximal_torus(g, tm)
    assert t.dim == 2
    assert is_torus(g, tm, t.subspace)


def test_maximal_torus_known_ranks_on_fixtures():
    # gl(n) has its n-dimensional diagonal torus, sl(n) rank n - 1 and the
    # Witt algebras rank 1
    for build, rank in ((f6, 3), (f7, 3), (u1, 3), (lambda: gl(2), 2), (lambda: gl(3), 3),
                        (lambda: gl(4), 4), (lambda: sl(4), 3), (rank2sq, 2),
                        (lambda: witt(1), 1), (lambda: witt(2), 1), (lambda: torus(3), 3)):
        g, tm = build()
        t = maximal_torus(g, tm)
        assert t.dim == rank, g.name
        assert is_torus(g, tm, t.subspace)


def test_maximal_torus_sl5_has_rank_4():
    # sl(5) has 10,416 torals; its split rank is 4
    g, tm = sl(5)
    t = maximal_torus(g, tm)
    assert t.dim == 4
    assert is_torus(g, tm, t.subspace)


# -- toral rank ------------------------------------------------------------------------

def test_rank_zero_algebra():
    g, tm = torus(0)
    assert maximal_torus(g, tm).dim == 0


def test_rank_torus_fixture():
    for r in range(1, 5):
        g, tm = torus(r)
        assert maximal_torus(g, tm).dim == r


def test_rank_f6_with_bounds():
    g, tm = f6()
    t = maximal_torus(g, tm)
    assert t.dim == 3
    # upper bound: the centralizer of the witness torus is 3-dimensional
    from lie2.algebra import centralizer

    assert centralizer(g, t.subspace).dim == 3


def test_dim_bound_on_centerless_fixtures():
    for build in (f6, f7, u1, u2, rank2sq, lambda: witt(1), lambda: witt(2)):
        g, tm = build()
        assert center(g).dim == 0
        r = maximal_torus(g, tm).dim
        assert g.dim >= 2 * r, g.name
    g, tm = f6()
    assert g.dim == 2 * maximal_torus(g, tm).dim  # tight


def test_rank_monotone_on_nested_fixtures():
    # gl(2) embeds into gl(3) as a corner block
    r2 = maximal_torus(*gl(2)).dim
    r3 = maximal_torus(*gl(3)).dim
    assert r2 <= r3
    assert (r2, r3) == (2, 3)


def test_rank_over_gf4_known_answers():
    # gl(3) keeps its diagonal torus; sl(3) has rank 2 over every field
    assert maximal_torus(*extend_scalars(*gl(3), 2)).dim == 3
    assert maximal_torus(*extend_scalars(*sl(3), 2)).dim == 2


def test_rank_is_field_relative():
    g, tm = twisted_torus()
    assert maximal_torus(g, tm).dim == 0
    g4, tm4 = extend_scalars(g, tm, 2)
    assert maximal_torus(g4, tm4).dim == 0
    g8, tm8 = extend_scalars(g, tm, 3)
    t = maximal_torus(g8, tm8)
    assert t.dim == 2  # fixed vectors of squaring exist over GF(8)
    assert is_torus(g8, tm8, t.subspace)


def test_returned_torus_basis_is_toral():
    for build in (f6, f7, lambda: gl(3), lambda: sl(3), u2):
        g, tm = build()
        t = maximal_torus(g, tm)
        for b in t.toral_basis:
            assert square(g, tm, b) == b
        assert Subspace.from_vectors(g.field, g.dim, t.toral_basis) == t.subspace
