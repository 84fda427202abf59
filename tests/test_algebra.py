"""Structure-constant algebras: bracket, axioms, centralizers, ideals.

The gl(2) expectations are cross-checked against an independent in-test
oracle that multiplies 2x2 matrices over GF(2) directly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lie2.algebra import (
    LieAlgebra,
    abelian,
    acts_nilpotently,
    bracket_span,
    center,
    centralizer,
    derived_subalgebra,
    ideal_closure,
    is_ideal,
    verify_lie,
)
from lie2.cli import _suite_corpus
from lie2.errors import AmbientMismatchError
from lie2.field import gf
from lie2.fixtures import f6, fixture, gl, u2
from lie2.screening import simplicity_screen
from lie2.linalg import Subspace, coeffs, unit, vector
from lie2.restricted import extend_scalars

F2 = gf(1)


# -- independent 2x2 matrix oracle -----------------------------------------

def mat_mul(a, b):
    """2x2 matrices over GF(2) as ((a,b),(c,d)) tuples."""
    return tuple(
        tuple((sum(a[i][t] * b[t][j] for t in range(2)) % 2) for j in range(2))
        for i in range(2)
    )


def mat_add(a, b):
    return tuple(tuple((a[i][j] + b[i][j]) % 2 for j in range(2)) for i in range(2))


GL2_BASIS = [  # E11, E12, E21, E22 in fixture order
    ((1, 0), (0, 0)),
    ((0, 1), (0, 0)),
    ((0, 0), (1, 0)),
    ((0, 0), (0, 1)),
]


def mat_to_vec(m):
    return vector(F2, (m[0][0], m[0][1], m[1][0], m[1][1]))


def vec_to_mat(v):
    c = coeffs(F2, 4, v)
    return ((c[0], c[1]), (c[2], c[3]))


@pytest.fixture(scope="module")
def gl2():
    return gl(2)


def test_gl2_bracket_matches_matrix_commutator(gl2):
    g, _ = gl2
    for x in range(16):
        for y in range(16):
            mx, my = vec_to_mat(x), vec_to_mat(y)
            comm = mat_add(mat_mul(mx, my), mat_mul(my, mx))
            assert g.bracket(x, y) == mat_to_vec(comm)


def test_gl2_e12_e21_bracket(gl2):
    g, _ = gl2
    e11, e12, e21, e22 = (unit(F2, i) for i in range(4))
    assert g.bracket(e12, e21) == e11 ^ e22


def test_bracket_alternating_and_bilinear(gl2):
    g, _ = gl2
    for x in range(16):
        assert g.bracket(x, x) == 0
        for y in range(16):
            assert g.bracket(x, y) == g.bracket(y, x)  # characteristic 2


def test_abelian_brackets_vanish():
    g = abelian(3)
    for x in range(8):
        for y in range(8):
            assert g.bracket(x, y) == 0


def test_verify_lie_reports():
    assert verify_lie(abelian(4)).ok
    g, _ = gl(2)
    assert verify_lie(g).ok


@pytest.mark.parametrize("pair", [(0, 0), (2, 2), (1, 0), (2, 1), (1, 3), (3, 4), (-1, 1)])
def test_lie_algebra_takes_only_the_upper_triangle(pair):
    # a diagonal, lower-triangular or out-of-range entry is refused, so every
    # table is alternating (zero diagonal, symmetric) by construction
    with pytest.raises(ValueError, match=r"need 0 <= i < j < dim"):
        LieAlgebra(F2, 3, {pair: 1})


def test_lie_algebra_mirrors_the_upper_triangle():
    g = LieAlgebra(F2, 3, {(0, 1): 4, (1, 2): 1})
    assert g.table == ((0, 4, 0), (4, 0, 1), (0, 1, 0))


def test_verify_lie_catches_jacobi_failure():
    # [e0,e1]=e3, [e0,e2]=0, [e1,e2]=e0: [[e0,e1],e2]+[[e1,e2],e0]+[[e2,e0],e1] = [e3,e2]
    f = F2
    pairs = {(0, 1): unit(f, 3), (1, 2): unit(f, 0), (2, 3): unit(f, 1)}
    g = LieAlgebra(f, 4, pairs)
    rep = verify_lie(g)
    assert not rep.ok and rep.jacobi_violations


# -- centralizer / center -----------------------------------------------------

def centralizer_oracle(g, u):
    """Enumerate all vectors commuting with every basis row of u."""
    hits = [v for v in range(1 << g.dim) if all(g.bracket(v, r) == 0 for r in u.rows)]
    return set(hits)


def test_centralizer_of_zero_is_everything(gl2):
    g, _ = gl2
    assert centralizer(g, Subspace.zero(F2, g.dim)) == g.full_space()


def test_centralizer_abelian_is_everything():
    g = abelian(3)
    u = g.subspace([unit(F2, 0)])
    assert centralizer(g, u) == g.full_space()


def test_centralizer_gl2_diagonal(gl2):
    g, _ = gl2
    diag = g.subspace([unit(F2, 0), unit(F2, 3)])
    got = centralizer(g, diag)
    assert got == diag  # the diagonal subalgebra, dim 2
    assert set(got.vectors()) == centralizer_oracle(g, diag)


def test_center_examples(gl2):
    assert center(abelian(3)) == Subspace.full(F2, 3)
    g, _ = gl2
    assert center(g) == g.subspace([unit(F2, 0) ^ unit(F2, 3)])  # scalar matrices
    gf6, _ = f6()
    # oracle: enumerate all 64 vectors
    assert center(gf6).dim == 0
    assert centralizer_oracle(gf6, gf6.full_space()) == {0}


def test_centralizer_antitone(gl2):
    g, _ = gl2
    small = g.subspace([unit(F2, 0)])
    big = g.subspace([unit(F2, 0), unit(F2, 1)])
    assert centralizer(g, small).contains_space(centralizer(g, big))


# -- ideal machinery -----------------------------------------------------------

def test_ideal_closure_trivial_cases():
    g = abelian(3)
    u = g.subspace([unit(F2, 1)])
    assert ideal_closure(g, u) == u
    gf6, _ = f6()
    assert ideal_closure(gf6, gf6.full_space()) == gf6.full_space()


def test_f6_root_vector_closure_is_line():
    g, _ = f6()
    x_alpha = unit(F2, 3)  # basis order: t1 t2 t3 x_a x_b x_c
    cl = ideal_closure(g, g.subspace([x_alpha]))
    assert cl == g.subspace([x_alpha])
    assert is_ideal(g, cl)


def test_closure_idempotent_monotone(gl2):
    g, _ = gl2
    for bits in range(1, 16):
        u = g.subspace([bits])
        cl = ideal_closure(g, u)
        assert is_ideal(g, cl)
        assert cl.contains_space(u)
        assert ideal_closure(g, cl) == cl
        bigger = ideal_closure(g, u.sum(g.subspace([unit(F2, 1)])))
        assert bigger.contains_space(cl)


def test_is_ideal_iff_closure_fixed(gl2):
    g, _ = gl2
    for bits in range(1, 16):
        u = g.subspace([bits, unit(F2, 0)])
        assert is_ideal(g, u) == (ideal_closure(g, u) == u)
    # every screen witness of the paper-suite corpus, then random subspaces of u2
    witnesses = 0
    for _name, build in _suite_corpus():
        g, tm = build()
        rep = simplicity_screen(g, tm).ideal
        if rep is not None:
            assert is_ideal(g, rep.subspace) == (ideal_closure(g, rep.subspace) == rep.subspace)
            witnesses += 1
    assert witnesses > 0
    g, _ = u2()
    rng = random.Random(8)
    for _ in range(200):
        u = g.subspace([rng.getrandbits(g.dim) for _ in range(rng.randint(1, g.dim))])
        closure = ideal_closure(g, u)
        assert is_ideal(g, u) == (closure == u)
        assert is_ideal(g, closure) and ideal_closure(g, closure) == closure


def test_is_ideal_reads_every_row():
    # an ideal plus one more line: is_ideal must bracket the line too,
    # wherever its row falls among the canonical rows
    for build, seed in ((u2, 3), (f6, 4)):
        g, _ = build()
        rng = random.Random(seed)
        proper = 0
        for _ in range(100):
            ideal = ideal_closure(g, g.subspace([rng.getrandbits(g.dim)]))
            u = ideal.sum(g.subspace([rng.getrandbits(g.dim)]))
            closure = ideal_closure(g, u)
            assert is_ideal(g, u) == (closure == u)
            proper += closure != u
        assert proper > 0


def test_bracket_span_symmetric(gl2):
    g, _ = gl2
    u = g.subspace([unit(F2, 1), unit(F2, 0)])
    v = g.subspace([unit(F2, 2)])
    assert bracket_span(g, u, v) == bracket_span(g, v, u)


def test_acts_nilpotently(gl2):
    g, _ = gl2
    assert acts_nilpotently(g, Subspace.zero(F2, g.dim))
    assert acts_nilpotently(g, g.subspace([unit(F2, 1)]))       # E12
    assert not acts_nilpotently(g, g.subspace([unit(F2, 0)]))   # E11
    ab = abelian(2)
    assert acts_nilpotently(ab, ab.full_space())


def test_acts_nilpotently_when_bracket_vanishes(gl2):
    g, _ = gl2
    z = center(g)
    assert acts_nilpotently(g, z)


def test_derived_subalgebra(gl2):
    g, _ = gl2
    d = derived_subalgebra(g, g.full_space())
    # [gl2, gl2] = sl2: E12, E21, E11+E22
    assert d == g.subspace([unit(F2, 1), unit(F2, 2), unit(F2, 0) ^ unit(F2, 3)])


def test_bracket_length_mismatch():
    g = abelian(2)
    with pytest.raises(AmbientMismatchError):
        g.bracket(1 << 5, 1)


AD_FIXTURES = {
    "torus3": ("torus", {"r": 3}), "f6": ("f6", {}), "f6n": ("f6n", {}), "f7": ("f7", {}),
    "delta2": ("delta2", {}), "u1": ("u1", {}), "u2": ("u2", {}),
    "delta0": ("delta0", {"dims": (1, 2, 1, 1, 1, 1, 2)}), "gl3": ("gl", {"n": 3}),
    "sl3": ("sl", {"n": 3}), "sl4": ("sl", {"n": 4}), "witt3": ("witt", {"m": 3}),
    "rank2sq": ("rank2sq", {}), "gltor": ("gltor", {}),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", AD_FIXTURES)
def test_ad_agrees_with_bracket(case, k):
    name, params = AD_FIXTURES[case]
    g, _ = extend_scalars(*fixture(name, **params), k)
    f, n = g.field, g.dim
    rng = random.Random(f"ad/{case}/{k}")
    xs = [0, (1 << (k * n)) - 1] + [unit(f, i) for i in range(n)]
    xs += [rng.getrandbits(k * n) for _ in range(25)]
    for x in xs:
        assert g.ad(x) == [g.bracket(x, unit(f, j)) for j in range(n)]
    for x in xs[-3:]:  # column j of ad_matrix(x) holds the coordinates of [x, b_j]
        columns = list(zip(*g.ad_matrix(x).entries()))
        assert columns == [coeffs(f, n, g.bracket(x, unit(f, j))) for j in range(n)]
    for past in (1 << (k * n), (1 << (k * n + 3)) | 1):
        with pytest.raises(AmbientMismatchError):
            g.ad(past)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 63), st.integers(1, 63))
def test_f6_closure_monotone_property(a, b):
    g, _ = f6()
    u = g.subspace([a])
    v = g.subspace([a, b])
    assert ideal_closure(g, v).contains_space(ideal_closure(g, u))
