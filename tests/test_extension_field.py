"""End-to-end over GF(4): the generic-k code paths of every stage."""

import random

import pytest

from lie2 import (
    classify_delta,
    extend_scalars,
    fixture,
    is_simple,
    maximal_torus,
    root_decomposition,
    simplicity_screen,
    square,
    toral_elements,
    verify_lie,
    verify_two_map,
)
from lie2.algebra import LieAlgebra
from lie2.cli import _suite_corpus
from lie2.errors import BudgetExceededError
from lie2.field import gf
from lie2.linalg import support, vget, vscale
from lie2.restricted import TwoMap
from lie2.screening import VERDICT_WITNESS
from lie2.tori import maximal_torus


def test_f6_over_gf4_full_pipeline():
    g0, tm0 = fixture("f6")
    g, tm = extend_scalars(g0, tm0, 2)
    assert verify_lie(g).ok and verify_two_map(g, tm).ok

    # incremental enumeration agrees with direct squaring
    direct = sorted(v for v in range(1, 1 << 12) if square(g, tm, v) == v)
    assert toral_elements(g, tm) == direct

    t = maximal_torus(g, tm)
    assert t.dim == 3
    d = root_decomposition(g, tm, t)
    assert {lam: sp.dim for lam, sp in d.roots.items()} == {1: 1, 2: 1, 4: 1}
    assert classify_delta(d).label == "Delta1"

    res = simplicity_screen(g, tm)
    assert res.verdict == VERDICT_WITNESS
    assert not is_simple(g, tm).simple


def test_gl2_over_gf4_keeps_rank_two():
    g0, tm0 = fixture("gl", n=2)
    g, tm = extend_scalars(g0, tm0, 2)
    t = maximal_torus(g, tm)
    assert t.dim == 2
    d = root_decomposition(g, tm, t)
    lam = next(iter(d.roots))
    assert d.roots[lam].dim == 2 and d.cartan.dim == 2


# ---------------------------------------------------------------------------
# raw-bit bracket and square against the per-coordinate extension rule
# ---------------------------------------------------------------------------

def _coordinate_bracket(g, x, y):
    """Reference: sum of c_i d_j [e_i, e_j] over the coordinates of x and y."""
    f, acc = g.field, 0
    for i in support(f, x):
        ci = vget(f, x, i)
        row = g.table[i]
        for j in support(f, y):
            c = f.mul(ci, vget(f, y, j))
            if c:
                acc ^= vscale(f, row[j], c)
    return acc


def _coordinate_square(g, tm, x):
    """Reference: sum c_i^2 e_i^[2] + sum_{i<j} c_i c_j [e_i, e_j]."""
    f, acc = g.field, 0
    idx = [(i, vget(f, x, i)) for i in support(f, x)]
    for t, (i, ci) in enumerate(idx):
        acc ^= vscale(f, tm.images[i], f.square(ci))
        row = g.table[i]
        for j, cj in idx[t + 1:]:
            acc ^= vscale(f, row[j], f.mul(ci, cj))
    return acc


def _random_table(rng, n, bits, shape):
    """A valid (zero diagonal, symmetric) table, or one that breaks that shape."""
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = rng.getrandbits(bits) if rng.random() < 0.6 else 0
    if shape in ("diagonal", "both"):
        for i in range(n):
            table[i][i] = rng.getrandbits(bits)
    if shape in ("asymmetric", "both"):
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    table[j][i] = rng.getrandbits(bits)
    return table


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", ["valid", "diagonal", "asymmetric", "both"])
def test_raw_bracket_and_square_match_coordinate_rule_on_random_tables(k, shape):
    rng = random.Random(1000 * k + len(shape))
    f = gf(k)
    for _ in range(25):
        n = rng.randint(1, 5)
        bits = k * n
        g = LieAlgebra(f, n, _random_table(rng, n, bits, shape))
        tm = TwoMap([rng.getrandbits(bits) for _ in range(n)])
        for _ in range(8):
            x, y = rng.getrandbits(bits), rng.getrandbits(bits)
            assert g.bracket(x, y) == _coordinate_bracket(g, x, y), (k, shape, x, y)
            assert square(g, tm, x) == _coordinate_square(g, tm, x), (k, shape, x)


@pytest.mark.parametrize("k", [2, 3])
def test_raw_bracket_and_square_match_coordinate_rule_on_the_corpus(k):
    rng = random.Random(k)
    for name, build in _suite_corpus():
        g, tm = extend_scalars(*build(), k)
        bits = k * g.dim
        for _ in range(20):
            x, y = rng.getrandbits(bits), rng.getrandbits(bits)
            assert g.bracket(x, y) == _coordinate_bracket(g, x, y), (name, x, y)
            assert square(g, tm, x) == _coordinate_square(g, tm, x), (name, x)


def test_refused_degree_builds_no_raw_table():
    g0, tm0 = fixture("u2")
    g, tm = extend_scalars(g0, tm0, 16)
    with pytest.raises(BudgetExceededError):
        maximal_torus(g, tm)
    assert g._raw is None and not tm._raw
