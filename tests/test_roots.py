"""Root space decompositions, the Cartan split, and the rank-3 taxonomy."""

import random
from itertools import product
from types import SimpleNamespace

import pytest

from lie2.algebra import bracket_span, centralizer
from lie2.errors import NonToralBasisError, PreconditionError, SplitFailureError
from lie2.field import gf
from lie2.fixtures import (
    delta2,
    f6,
    f6n,
    f7,
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
from lie2.linalg import Subspace, combine, kernel_of_map, unit, vget
from lie2.restricted import extend_scalars, is_two_nilpotent
from lie2.roots import (
    DELTA_SETS,
    apply_gl3,
    classify_delta,
    grading_check,
    is_standard,
    is_triangulable,
    relabellings,
    root_decomposition,
    split_cartan,
    square_span,
    vanishing_slice,
)
from lie2.tori import Torus, maximal_torus

F2 = gf(1)


def decomposition(build):
    g, tm = build() if callable(build) else build
    t = maximal_torus(g, tm)
    return g, tm, root_decomposition(g, tm, t)


# -- cartan subalgebra ---------------------------------------------------------

def test_cartan_abelian_is_everything():
    g, tm = torus(3)
    t = maximal_torus(g, tm)
    assert centralizer(g, t.subspace) == g.full_space()


def test_cartan_f6_is_torus():
    g, tm = f6()
    t = maximal_torus(g, tm)
    assert centralizer(g, t.subspace) == g.subspace([unit(F2, i) for i in range(3)])


def test_cartan_gl2_is_diagonal():
    g, tm = gl(2)
    t = maximal_torus(g, tm)
    assert centralizer(g, t.subspace) == g.subspace([unit(F2, 0), unit(F2, 3)])


# -- splitting the Cartan subalgebra ----------------------------------------------

def test_split_f6_has_zero_nil_part():
    g, tm = f6()
    t = maximal_torus(g, tm)
    h = centralizer(g, t.subspace)
    assert split_cartan(g, tm, h, t).dim == 0


def test_split_f6n_finds_the_nil_generator():
    g, tm = f6n()
    t = maximal_torus(g, tm)
    h = centralizer(g, t.subspace)
    n_sub = split_cartan(g, tm, h, t)
    assert n_sub == g.subspace([unit(F2, 3)])  # basis order: t1 t2 t3 z ...
    assert t.subspace.sum(n_sub) == h


def test_split_fails_on_sl2():
    # in sl(2, GF(2)) the 2-nilpotent elements of the Cartan subalgebra do
    # not form a subspace: E12 and E21 square to zero but their sum squares
    # to the identity.  sl(2) in characteristic 2 is the Heisenberg algebra,
    # so a lower-central-series check of h would pass; the split must still
    # refuse it, over GF(2) and GF(4)
    for k in (1, 2):
        g, tm = extend_scalars(*sl(2), k)
        t = maximal_torus(g, tm)
        assert t.dim == 1  # span{I}
        h = centralizer(g, t.subspace)
        assert h == g.full_space()
        assert bracket_span(g, h, bracket_span(g, h, h)).dim == 0
        with pytest.raises(SplitFailureError):
            split_cartan(g, tm, h, t)


def test_split_requires_containment():
    g, tm = f6()
    t = maximal_torus(g, tm)
    with pytest.raises(PreconditionError):
        split_cartan(g, tm, g.subspace([unit(F2, 0)]), t)


def split_by_enumeration(g, tm, h, t):
    """Reference split: collect the 2-nilpotent elements of h one by one."""
    nil_vectors = [x for x in h.vectors() if is_two_nilpotent(g, tm, x)]
    n_sub = g.subspace(nil_vectors)
    if len(nil_vectors) != g.field.order ** n_sub.dim:
        raise SplitFailureError("2-nilpotent elements of h do not form a subspace")
    if t.subspace.intersect(n_sub).dim != 0 or t.subspace.sum(n_sub) != h:
        raise SplitFailureError("2-nilpotent part does not complement the torus in h")
    if bracket_span(g, t.subspace, n_sub).dim != 0:
        raise SplitFailureError("torus does not commute with the 2-nilpotent part")
    return n_sub


def _nil_rows(split, g, tm, h, t):
    try:
        return split(g, tm, h, t).rows
    except SplitFailureError:
        return "refused"


_CORPUS = (
    [lambda r=r: torus(r) for r in range(1, 5)]
    + [f6, f6n, f7, delta2, u1, rank2sq, gltor]
    + [lambda n=n: gl(n) for n in (2, 3)]
    + [lambda n=n: sl(n) for n in (2, 3)]
    + [lambda m=m: witt(m) for m in (1, 2, 3)]
)


def _differential_cases():
    rng = random.Random(11)
    for build in _CORPUS:
        g, tm = build()
        perm = list(range(g.dim))
        rng.shuffle(perm)
        for k in (1, 2):
            yield extend_scalars(g, tm, k)
            yield extend_scalars(*permute_basis(g, tm, perm), k)
    for _label, build in vacuity_family():
        yield build()


def test_split_matches_enumeration():
    # wherever the reference enumeration is affordable (k * dim h <= 16)
    checked = refused = 0
    for g, tm in _differential_cases():
        t = maximal_torus(g, tm)
        h = centralizer(g, t.subspace)
        assert g.field.k * h.dim <= 16, g.name
        want = _nil_rows(split_by_enumeration, g, tm, h, t)
        assert _nil_rows(split_cartan, g, tm, h, t) == want, (g.name, g.field.k)
        checked += 1
        refused += want == "refused"
    assert checked == 4 * len(_CORPUS) + 140 and refused == 4  # sl(2), twice at each k


def test_split_past_the_enumeration_ceiling():
    # k * dim h = 17 and 18: beyond a 2^16 enumeration of h
    g, tm = graded({1: 1, 2: 1, 4: 1}, nil_dim=14)
    t = maximal_torus(g, tm)
    h = centralizer(g, t.subspace)
    assert (g.dim, h.dim) == (20, 17)
    n_sub = split_cartan(g, tm, h, t)
    assert n_sub.dim == 14 and t.subspace.sum(n_sub) == h

    g, tm = torus(18)
    t = maximal_torus(g, tm)
    assert t.subspace == g.full_space()
    assert split_cartan(g, tm, g.full_space(), t) == Subspace.zero(F2, 18)


# -- root decomposition -------------------------------------------------------------

def test_torus_fixture_has_no_roots():
    for r in range(5):
        g, tm, d = decomposition(lambda r=r: torus(r))
        assert d.roots == {}
        assert d.cartan == g.full_space()
        assert d.nil_part.dim == 0


def test_f6_decomposition():
    g, tm, d = decomposition(f6)
    assert d.rank == 3 and d.cartan.dim == 3 and d.nil_part.dim == 0
    dims = {lam: sp.dim for lam, sp in d.roots.items()}
    assert dims == {1: 1, 2: 1, 4: 1}
    assert d.roots[1] == g.subspace([unit(F2, 3)])


def test_gl2_decomposition():
    g, tm, d = decomposition(lambda: gl(2))
    assert d.rank == 2 and d.cartan.dim == 2
    assert len(d.roots) == 1
    lam = next(iter(d.roots))
    assert lam == 0b11
    assert d.roots[lam] == g.subspace([unit(F2, 1), unit(F2, 2)])


def test_completeness_on_fixtures():
    for build in (f6, f6n, f7, delta2, u1, u2, lambda: gl(2), lambda: gl(3), rank2sq):
        g, tm, d = decomposition(build)
        assert d.cartan.dim + sum(sp.dim for sp in d.roots.values()) == g.dim, g.name


def test_non_toral_basis_rejected():
    g, tm = f6()
    x_alpha = unit(F2, 3)
    fake = Torus(g.subspace([x_alpha]), (x_alpha,))
    with pytest.raises(NonToralBasisError):
        root_decomposition(g, tm, fake)
    # E11 and E11 + E12 of gl(2) are toral but do not commute: splitting by
    # the second overshoots, 2 + 2 + 1 + 1 > 4
    g, tm = gl(2)
    pair = Torus(g.subspace([1, 3]), (1, 3))
    with pytest.raises(NonToralBasisError, match="sum to 6 != 4"):
        root_decomposition(g, tm, pair)


def joint_eigenspaces(g, basis):
    """Reference: every joint eigenspace as an intersection of kernels of ad t_i + b_i."""
    f, n = g.field, g.dim
    kernels = []
    for ti in basis:
        cols = [g.bracket(ti, unit(f, j)) for j in range(n)]
        kernels.append([g.subspace(kernel_of_map(f, g.full_space().rows,
                                                 [c ^ (b * unit(f, j)) for j, c in enumerate(cols)]))
                        for b in (0, 1)])
    out = {}
    for bits in range(1 << len(basis)):
        space = g.full_space()
        for i, pair in enumerate(kernels):
            space = space.intersect(pair[bits >> i & 1])
        if space.dim or not bits:
            out[bits] = space
    return out


def test_split_matches_joint_eigenspaces():
    checked = 0
    for g, tm in _differential_cases():
        try:
            d = decomposition((g, tm))[2]
        except SplitFailureError:
            continue  # sl(2): the eigenspaces are fine, the Cartan split refuses
        want = joint_eigenspaces(g, d.torus.toral_basis)
        assert want.pop(0) == d.cartan and want == d.roots, (g.name, g.field.k)
        checked += 1
    assert checked == 4 * len(_CORPUS) + 140 - 4


def test_split_builds_linearly_many_subspaces(monkeypatch):
    # at most two parts per joint eigenspace per toral: linear in the rank,
    # where a table of every joint eigenspace would take 2^r
    g, tm = torus(12)
    t = Torus(g.full_space(), tuple(unit(F2, i) for i in range(12)))
    built = []
    from_vectors = Subspace.from_vectors.__func__

    def counting(cls, *args):
        built.append(args)
        return from_vectors(cls, *args)

    monkeypatch.setattr(Subspace, "from_vectors", classmethod(counting))
    d = root_decomposition(g, tm, t)
    assert d.cartan == g.full_space() and d.roots == {}
    assert len(built) <= 2 * g.dim * t.dim


def test_eigenvalue_dichotomy():
    # ad(t)^2 = ad(t) for every toral basis element
    for build in (f6, f7, u2, lambda: gl(3)):
        g, tm, d = decomposition(build)
        for ti in d.torus.toral_basis:
            m = g.ad_matrix(ti)
            assert m.matmul(m) == m


# -- grading / triangulability ---------------------------------------------------------

def test_grading_passes_on_fixtures():
    for build in (f6, f6n, f7, delta2, u1, u2, lambda: gl(2), lambda: gl(3)):
        g, tm, d = decomposition(build)
        assert grading_check(g, d).ok, g.name


def test_triangulable_and_standard_on_fixtures():
    for build in (f6, f6n, f7, delta2, u1, u2):
        g, tm, d = decomposition(build)
        assert is_triangulable(g, d), g.name
        assert is_standard(g, d), g.name


# -- torus slices and square spans ----------------------------------------------

def test_square_span_examples():
    g, tm, d = decomposition(lambda: gl(2))
    lam = next(iter(d.roots))
    ssp = square_span(g, tm, d, lam)
    assert ssp == g.subspace([unit(F2, 0) ^ unit(F2, 3)])  # span{E11 + E22}
    g6, tm6, d6 = decomposition(f6)
    for lam in d6.roots:
        assert square_span(g6, tm6, d6, lam).dim == 0


def test_square_span_confined_by_extended_kernel():
    # [g_xi, g_xi] inside span of squares inside ker(extended xi) = slice(xi) + n
    for build in (f6, f7, u1, u2, delta2):
        g, tm, d = decomposition(build)
        for lam in d.roots:
            ssp = square_span(g, tm, d, lam)
            assert ssp.contains_space(bracket_span(g, d.roots[lam], d.roots[lam]))
            bound = vanishing_slice(g, d, [lam]).sum(d.nil_part)
            assert bound.contains_space(ssp), (g.name, lam)


@pytest.mark.parametrize("k", [1, 2])
def test_vanishing_slice_is_the_common_kernel(k):
    # oracle: every combination of the toral basis that each root kills
    g, tm, d = decomposition(extend_scalars(*u1(), k))
    f, r = g.field, d.rank

    def value(lam, c):  # lam(sum c_j t_j), as lam(t_j) is bit j of lam
        acc = 0
        for j in range(r):
            if lam >> j & 1:
                acc ^= vget(f, c, j)
        return acc

    for roots in ([], [1], [1, 2], [3, 5], [1, 2, 4]):
        kept = {
            combine(f, d.torus.toral_basis, c) for c in range(1 << (f.k * r))
            if all(value(lam, c) == 0 for lam in roots)
        }
        assert set(vanishing_slice(g, d, roots).vectors()) == kept, roots


# -- configuration taxonomy ----------------------------------------------------------------

def test_classify_f6_is_delta1_under_identity():
    g, tm, d = decomposition(f6)
    cls = classify_delta(d)
    assert cls.label == "Delta1" and cls.index == 1
    assert cls.basis_change == (1, 2, 4)  # identity matrix


def test_classify_delta2_fixture():
    g, tm, d = decomposition(delta2)
    cls = classify_delta(d)
    assert cls.label == "Delta2"
    observed = set(d.roots)
    assert {apply_gl3(cls.basis_change, b) for b in observed} == DELTA_SETS[2]


def test_classify_five_root_configuration():
    # {a, b, a+b, c, b+c}: the five-root configurations form a single orbit
    # of GL(3, GF(2)), so the classifier resolves to the lower index Delta4
    g, tm, d = decomposition(lambda: graded({1: 1, 2: 1, 3: 1, 4: 1, 6: 1}, name="fiveroots"))
    cls = classify_delta(d)
    assert cls.label == "Delta4"
    observed = set(d.roots)
    assert {apply_gl3(cls.basis_change, b) for b in observed} == DELTA_SETS[4]


def test_classify_delta0():
    g, tm, d = decomposition(f7)
    assert classify_delta(d).label == "Delta0"


def test_classify_gl3_root_set_degenerate():
    # gl(3) has three pairwise-dependent roots spanning only a plane
    g, tm, d = decomposition(lambda: gl(3))
    assert d.rank == 3
    assert classify_delta(d).label == "NonStandardBasis"


def test_classify_requires_rank3():
    g, tm, d = decomposition(lambda: gl(2))
    with pytest.raises(PreconditionError):
        classify_delta(d)


def test_classifier_equivariance():
    # relabelling the toral basis must not change the configuration label
    rng = random.Random(7)
    mats = tuple(relabellings())
    for build in (f6, delta2, f7,
                  lambda: graded({1: 1, 2: 1, 3: 1, 4: 1, 6: 1}, name="fiveroots"),
                  lambda: graded({1: 1, 2: 1, 4: 1, 7: 2}, name="frame")):
        g, tm, d = decomposition(build)
        base = classify_delta(d)
        for _ in range(6):
            mat = mats[rng.randrange(len(mats))]
            s = [0, 0, 0]
            for j, row in enumerate(mat):
                for i in range(3):
                    if (row >> i) & 1:
                        s[j] ^= d.torus.toral_basis[i]
            d2 = root_decomposition(g, tm, Torus(d.torus.subspace, tuple(s)))
            assert classify_delta(d2).label == base.label, g.name


def test_relabellings_is_gl3_in_lexicographic_order():
    table = relabellings()
    assert len(table) == 168
    assert list(table) == sorted(table) and next(iter(table)) == (1, 2, 4)
    for mat, pre in table.items():
        assert pre[0] == 0 and sorted(pre) == list(range(8))
        assert all(apply_gl3(mat, pre[mu]) == mu for mu in range(1, 8)), mat


def test_preimage_table_realizes_canonical_set():
    # the toral basis s_j = sum of the t_i over the set bits i of row j reads
    # the observed root pre[mu] as the canonical root mu
    for build in (delta2, f7, lambda: graded({1: 1, 2: 1, 3: 1, 4: 1, 6: 1}, name="fiveroots")):
        g, tm, d = decomposition(build)
        cls = classify_delta(d)
        pre = relabellings()[cls.basis_change]
        assert {pre[mu] for mu in DELTA_SETS[cls.index]} == set(d.roots)
        s = tuple(combine(F2, d.torus.toral_basis, row) for row in cls.basis_change)
        d2 = root_decomposition(g, tm, Torus(d.torus.subspace, s))
        assert set(d2.roots) == DELTA_SETS[cls.index]
        assert all(d2.roots[mu] == d.roots[pre[mu]] for mu in d2.roots), g.name


def reference_classify(observed):
    """The classifier that still tries Delta5 and Delta7, by applying every matrix."""
    candidates = {3: (1,), 4: (2, 3), 5: (4, 5), 6: (6, 7), 7: (0,)}
    matrices = [mat for mat in product(range(1, 8), repeat=3)
                if len({apply_gl3(mat, lam) for lam in range(1, 8)}) == 7]
    for idx in candidates.get(len(observed), ()):
        for mat in matrices:
            if {apply_gl3(mat, lam) for lam in observed} == DELTA_SETS[idx]:
                return f"Delta{idx}", mat
    return "NonStandardBasis", None


def test_classifier_matches_the_reference_on_every_root_set():
    # the five-root and the six-root sets each form one orbit, so the
    # Delta5 and Delta7 rows of the reference never match first
    labels = set()
    for mask in range(1 << 7):
        observed = [lam for lam in range(1, 8) if mask >> (lam - 1) & 1]
        cls = classify_delta(SimpleNamespace(rank=3, roots=dict.fromkeys(observed)))
        assert (cls.label, cls.basis_change) == reference_classify(observed), observed
        labels.add(cls.label)
    assert labels == {"Delta0", "Delta1", "Delta2", "Delta3", "Delta4", "Delta6",
                      "NonStandardBasis"}
