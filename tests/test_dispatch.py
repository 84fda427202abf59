"""The rank-3 case analysis as a table, checked by enumeration.

``dispatch`` reads only the seven root-space dimensions, and only through
their order pattern.  It tries every GL(3, GF(2)) relabelling, so a pattern
and its relabellings fire the same construction: one representative per
orbit covers every pattern.  The 47,292 non-constant weak orderings of seven
dimensions fall into 356 orbits, and every one of them fires.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

from lie2.errors import PreconditionError
from lie2.fixtures import delta0
from lie2.roots import apply_gl3, relabellings
from lie2.screening import (
    LEMMA_AB_GT_AG,
    LEMMA_ABG_GT_AG,
    LEMMA_AG_GT_BG,
    LEMMA_AG_GT_EQ,
    LEMMA_ALPHA_GT_BETA,
    LEMMA_BETA_GT_XI,
    LEMMA_BG_GT_ABG,
    LEMMA_DIM1,
    LEMMA_GAMMA_GT_XI,
    VERDICT_WITNESS,
    dispatch,
    simplicity_screen,
)

# a coordinate cycle and a transvection; together they generate GL(3, GF(2))
GENERATORS = ((2, 4, 1), (3, 2, 4))


def relabel(dims, mat):
    """The pattern read after the dual-basis change ``mat``; dims[lam - 1] is dim g_lam."""
    out = [0] * 7
    for lam in range(1, 8):
        out[apply_gl3(mat, lam) - 1] = dims[lam - 1]
    return tuple(out)


def as_dict(dims):
    return {lam: dims[lam - 1] for lam in range(1, 8)}


def orbit_representatives(patterns):
    """The first pattern of each GL(3, GF(2)) orbit, by union-find over the generators."""
    index = {p: i for i, p in enumerate(patterns)}
    parent = list(range(len(patterns)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, p in enumerate(patterns):
        for mat in GENERATORS:
            a, b = find(i), find(index[relabel(p, mat)])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [p for i, p in enumerate(patterns) if find(i) == i]


@lru_cache(maxsize=1)
def weak_orderings():
    """Every order pattern of seven dimensions, as dims 1..m using every level."""
    out = []
    ranks = [0] * 7

    def extend(rest, level):
        if not rest:
            out.append(tuple(ranks))
            return
        block = rest
        while block:  # every nonempty subset of the rest takes the next level
            for i in range(7):
                if block >> i & 1:
                    ranks[i] = level
            extend(rest & ~block, level + 1)
            block = (block - 1) & rest

    extend(0b1111111, 1)
    return tuple(out)


@lru_cache(maxsize=1)
def ordering_orbits():
    return orbit_representatives([p for p in weak_orderings() if len(set(p)) > 1])


def patterns_up_to(total, n=7):
    """Positive n-tuples with sum at most ``total``."""
    if n == 0:
        yield ()
        return
    for first in range(1, total - n + 2):
        for rest in patterns_up_to(total - first, n - 1):
            yield (first,) + rest


def reference_dispatch(dims_now):
    """The five copied stage loops that ``dispatch`` replaced, kept as its reference."""
    if len(set(dims_now.values())) == 1:
        return None
    matrices = tuple(relabellings())

    def dims_for(mat):
        return {apply_gl3(mat, lam): dim for lam, dim in dims_now.items()}

    for mat in matrices:
        dd = dims_for(mat)
        if all(dd[1] > dd[m] for m in range(2, 8)):
            return LEMMA_ALPHA_GT_BETA, mat
    for mat in matrices:
        dd = dims_for(mat)
        if dd[1] == dd[2] and all(dd[1] > dd[m] for m in range(3, 8)):
            return LEMMA_BETA_GT_XI, mat
    for mat in matrices:
        dd = dims_for(mat)
        if dd[1] == dd[2] == dd[3] and dd[3] >= dd[4] >= dd[5] >= dd[6] >= dd[7]:
            if dd[3] > dd[5]:
                return LEMMA_AB_GT_AG, mat
            if dd[6] > dd[7]:
                return LEMMA_BG_GT_ABG, mat
            if dd[5] > dd[6]:
                return LEMMA_AG_GT_EQ, mat
    for mat in matrices:
        dd = dims_for(mat)
        if dd[1] == dd[2] == dd[4] and all(dd[1] > dd[m] for m in (3, 5, 6, 7)):
            return LEMMA_GAMMA_GT_XI, mat
    for mat in matrices:
        dd = dims_for(mat)
        if (
            dd[1] == dd[2] == dd[4] == dd[7]
            and dd[7] >= dd[3] >= dd[5] >= dd[6]
            and dd[7] > dd[5]
        ):
            return LEMMA_ABG_GT_AG, mat
    raise AssertionError(f"unequal dimensions {dims_now} matched no stage")


def test_generators_generate_gl3():
    perms = {tuple(range(1, 8))}
    frontier = list(perms)
    while frontier:
        frontier = [q for q in {relabel(p, mat) for p in frontier for mat in GENERATORS}
                    if q not in perms]
        perms.update(frontier)
    assert len(perms) == len(relabellings()) == 168


def test_weak_orderings_and_their_orbits():
    assert len(weak_orderings()) == 47293  # the ordered Bell number of 7
    assert len(ordering_orbits()) == 356


def test_dispatch_is_exhaustive():
    fired = Counter()
    for dims in ordering_orbits():
        hit = dispatch(as_dict(dims))
        assert hit is not None, dims
        fired[hit[0]] += 1
    assert fired == {
        LEMMA_ALPHA_GT_BETA: 225,
        LEMMA_BETA_GT_XI: 92,
        LEMMA_GAMMA_GT_XI: 20,
        LEMMA_AB_GT_AG: 12,
        LEMMA_ABG_GT_AG: 4,
        LEMMA_BG_GT_ABG: 2,
        LEMMA_AG_GT_EQ: 1,
    }
    assert LEMMA_AG_GT_BG not in fired
    for m in (1, 2, 5):
        assert dispatch(as_dict((m,) * 7)) is None


def test_dispatch_matches_the_stage_loops():
    # every orbit representative, and each under two seeded relabellings,
    # which must fire the representative's construction
    rng = random.Random(7)
    matrices = tuple(relabellings())
    for dims in ordering_orbits():
        hit = dispatch(as_dict(dims))
        assert hit == reference_dispatch(as_dict(dims)), dims
        for _ in range(2):
            moved = as_dict(relabel(dims, rng.choice(matrices)))
            got = dispatch(moved)
            assert got == reference_dispatch(moved), moved
            assert got[0] == hit[0]


def test_dispatch_needs_all_seven_roots():
    with pytest.raises(PreconditionError):
        dispatch({1: 2, 2: 1, 4: 1})


def test_complete_sweep_up_to_dim_16():
    # every seven-root pattern with dim(delta0) = 3 + sum <= 16, one per orbit
    patterns = list(patterns_up_to(13))
    assert len(patterns) == 1716
    reps = orbit_representatives(patterns)
    assert len(reps) == 45
    fired = Counter()
    for dims in reps:
        g, tm = delta0(dims)
        res = simplicity_screen(g, tm)
        assert res.verdict == VERDICT_WITNESS, dims
        rep = res.ideal
        assert rep.verified_ideal and rep.proper and rep.nonzero, dims
        fired[rep.lemma] += 1
    assert fired == {
        LEMMA_ALPHA_GT_BETA: 28,
        LEMMA_BETA_GT_XI: 8,
        LEMMA_AB_GT_AG: 3,
        LEMMA_GAMMA_GT_XI: 2,
        LEMMA_DIM1: 1,
        LEMMA_ABG_GT_AG: 1,
        LEMMA_AG_GT_EQ: 1,
        LEMMA_BG_GT_ABG: 1,
    }
