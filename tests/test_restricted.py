"""The squaring map: evaluation, axiom verification, and the split into
semisimple and 2-nilpotent parts.

gl(2) expectations come from squaring actual 2x2 matrices in-test; the
split is cross-checked against a test-local brute-force search over the
envelope, independent of both package code paths.
"""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lie2.algebra import LieAlgebra, center, verify_lie
from lie2.errors import PreconditionError
from lie2.field import gf
from lie2.fixtures import f6, gl, gltor, torus, witt
from lie2.linalg import coeffs, unit, vector, vscale
from lie2.restricted import (
    TwoMap,
    extend_scalars,
    is_semisimple,
    is_two_nilpotent,
    iterate_square,
    jcs_decompose,
    span_of_squares,
    square,
    two_envelope,
    verify_two_map,
)

F2 = gf(1)


def mat_sq(v):
    c = coeffs(F2, 4, v)
    m = ((c[0], c[1]), (c[2], c[3]))
    mm = tuple(
        tuple(sum(m[i][t] * m[t][j] for t in range(2)) % 2 for j in range(2))
        for i in range(2)
    )
    return vector(F2, (mm[0][0], mm[0][1], mm[1][0], mm[1][1]))


# -- square ------------------------------------------------------------------

def test_square_zero():
    g, tm = f6()
    assert square(g, tm, 0) == 0


def test_square_toral_basis():
    g, tm = torus(3)
    for i in range(3):
        assert square(g, tm, unit(F2, i)) == unit(F2, i)


def test_square_f6_mixed_vector():
    g, tm = f6()
    t1, x_alpha = unit(F2, 0), unit(F2, 3)
    # (t1 + x_a)^[2] = t1 + [t1, x_a] = t1 + x_a
    assert square(g, tm, t1 ^ x_alpha) == t1 ^ x_alpha
    # adjoint axiom holds for the result on every basis vector
    for j in range(6):
        ej = unit(F2, j)
        lhs = g.bracket(t1 ^ x_alpha, g.bracket(t1 ^ x_alpha, ej))
        rhs = g.bracket(square(g, tm, t1 ^ x_alpha), ej)
        assert lhs == rhs


def test_square_matches_matrix_squaring():
    g, tm = gl(2)
    for v in range(16):
        assert square(g, tm, v) == mat_sq(v)


def test_square_frobenius_scaling_exhaustive_small_fields():
    for k in (2, 3, 4):
        f = gf(k)
        g, tm = torus(2, k=k)
        for lam in f.elements():
            for v in range(1 << (2 * k)):
                assert square(g, tm, vscale(f, v, lam)) == vscale(
                    f, square(g, tm, v), f.square(lam)
                )


# -- the scalar and sum axioms are identities of square --------------------------
# verify_two_map leaves them out; these properties keep them checked, on
# random vectors rather than basis vectors, for every degree k <= 4.

_BUILDS = {"f6": f6, "gl2": lambda: gl(2), "gltor": gltor, "witt2": lambda: witt(2)}


@lru_cache(maxsize=None)
def _extended(name, k):
    g, tm = _BUILDS[name]()
    return extend_scalars(g, tm, k)


@st.composite
def _algebra_and_vectors(draw, count):
    g, tm = _extended(draw(st.sampled_from(sorted(_BUILDS))), draw(st.integers(1, 4)))
    top = (1 << (g.field.k * g.dim)) - 1
    return g, tm, [draw(st.integers(0, top)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(_algebra_and_vectors(1), st.integers(0, 15))
def test_square_scalar_axiom(case, c):
    g, tm, (x,) = case
    f = g.field
    c &= f.mask
    assert square(g, tm, vscale(f, x, c)) == vscale(f, square(g, tm, x), f.square(c))


@settings(max_examples=150, deadline=None)
@given(_algebra_and_vectors(2))
def test_square_sum_axiom(case):
    g, tm, (x, y) = case
    assert square(g, tm, x ^ y) == square(g, tm, x) ^ square(g, tm, y) ^ g.bracket(x, y)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_sum_axiom_holds_on_every_algebra_built_from_random_pairs(k, n, data):
    # every LieAlgebra is alternating and symmetric by construction, so the
    # sum identity of square holds on any pairs and any 2-map (the Jacobi
    # identity does not enter)
    vec = st.integers(0, (1 << (k * n)) - 1)
    pairs = {p: data.draw(vec) for p in itertools.combinations(range(n), 2)}
    g, tm = LieAlgebra(gf(k), n, pairs), TwoMap([data.draw(vec) for _ in range(n)])
    for x, y in data.draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=16)):
        assert square(g, tm, x ^ y) == square(g, tm, x) ^ square(g, tm, y) ^ g.bracket(x, y)


# -- verify_two_map -------------------------------------------------------------

def test_verify_abelian_zero_images():
    g = LieAlgebra(F2, 3, {})
    assert verify_two_map(g, TwoMap([0, 0, 0])).ok


def test_verify_gl2_matrix_squaring():
    g, tm = gl(2)
    assert verify_two_map(g, tm).ok
    # oracle: the images really are the matrix squares
    for i in range(4):
        assert tm.images[i] == mat_sq(unit(F2, i))


def test_verify_catches_bad_square():
    g, tm = f6()
    bad = list(tm.images)
    bad[3] = unit(F2, 0)  # declare x_alpha^[2] = t1
    rep = verify_two_map(g, TwoMap(bad))
    assert not rep.ok
    assert any(v == unit(F2, 3) for v, _ in rep.adjoint_violations)


def test_verify_reports_exactly_the_bad_basis_vector():
    g, tm = f6()
    bad = list(tm.images)
    bad[3] = unit(F2, 0)
    assert [v for v, _ in verify_two_map(g, TwoMap(bad)).adjoint_violations] == [unit(F2, 3)]


@pytest.mark.parametrize("k", [1, 2])
def test_span_of_squares_is_the_span_of_every_square(k):
    for build in (f6, lambda: gl(2), lambda: witt(2)):
        g, tm = extend_scalars(*build(), k)
        for u in (g.full_space(), g.subspace([unit(g.field, 0), unit(g.field, 1)])):
            assert span_of_squares(g, tm, u) == g.subspace(square(g, tm, v) for v in u.vectors())


def _adjoint_axiom_everywhere(g, tm):
    """ad(x^[2]) = ad(x)^2 for every x of the algebra, by enumeration."""
    f = g.field
    for x in range(1 << (f.k * g.dim)):
        sq = square(g, tm, x)
        for j in range(g.dim):
            ej = unit(f, j)
            if g.bracket(sq, ej) != g.bracket(x, g.bracket(x, ej)):
                return False
    return True


def test_adjoint_axiom_on_basis_implies_everywhere():
    # with the Jacobi identity verified, the defect of the adjoint axiom is
    # additive and scales by c^2, so the basis verdict is the verdict on
    # every x; confirmed by enumeration at k = 1, 2, on the true 2-maps and
    # on 2-maps with one image perturbed (central perturbations keep the
    # axiom)
    rng = random.Random(1)
    for build, k in itertools.product((f6, lambda: gl(2), gltor, lambda: witt(2)), (1, 2)):
        g, tm = extend_scalars(*build(), k)
        assert verify_lie(g).ok
        assert verify_two_map(g, tm).ok and _adjoint_axiom_everywhere(g, tm)
        top = 1 << (k * g.dim)
        shifts = [rng.randrange(1, top) for _ in range(6)] + list(center(g).rows)
        for shift in shifts:
            images = list(tm.images)
            images[rng.randrange(g.dim)] ^= shift
            perturbed = TwoMap(images)
            assert verify_two_map(g, perturbed).ok == _adjoint_axiom_everywhere(g, perturbed)


# -- iterated squares and classifications -----------------------------------------

def test_iterate_square():
    g, tm = gl(2)
    e12 = unit(F2, 1)
    assert iterate_square(g, tm, e12, 1) == 0
    assert iterate_square(g, tm, unit(F2, 0), 5) == unit(F2, 0)


def test_two_nilpotent_examples():
    g, tm = f6()
    assert is_two_nilpotent(g, tm, 0)
    assert not is_two_nilpotent(g, tm, unit(F2, 0))  # toral
    g2, tm2 = gl(2)
    assert is_two_nilpotent(g2, tm2, unit(F2, 1))  # E12^2 = 0
    assert mat_sq(unit(F2, 1)) == 0


def test_semisimple_examples():
    g, tm = f6()
    assert is_semisimple(g, tm, 0)
    assert is_semisimple(g, tm, unit(F2, 0))
    assert not is_semisimple(g, tm, unit(F2, 3))  # nonzero 2-nilpotent


def test_two_envelope():
    g, tm = gl(2)
    e12 = unit(F2, 1)
    env = two_envelope(g, tm, e12)
    assert env == g.subspace([e12])
    x = unit(F2, 0) ^ unit(F2, 1)  # E11 + E12, squares to itself
    assert mat_sq(x) == x
    assert two_envelope(g, tm, x) == g.subspace([x])


# -- the semisimple/2-nilpotent split ----------------------------------------------

def brute_split(g, tm, x):
    """Test-local oracle: search the whole envelope for the unique split."""
    env = two_envelope(g, tm, x)
    hits = []
    for xs in env.vectors():
        xn = x ^ xs
        if (
            g.bracket(xs, xn) == 0
            and is_semisimple(g, tm, xs)
            and is_two_nilpotent(g, tm, xn)
        ):
            hits.append((xs, xn))
    assert len(hits) == 1, f"expected unique split, got {hits}"
    return hits[0]


def test_split_trivial_cases():
    g, tm = f6()
    t1, x_a = unit(F2, 0), unit(F2, 3)
    assert jcs_decompose(g, tm, t1) == (t1, 0)
    assert jcs_decompose(g, tm, x_a) == (0, x_a)


def test_split_f6_documented_example():
    g, tm = f6()
    t1, x_b = unit(F2, 0), unit(F2, 4)
    xs, xn = jcs_decompose(g, tm, t1 ^ x_b)
    assert (xs, xn) == (t1, x_b)
    assert brute_split(g, tm, t1 ^ x_b) == (t1, x_b)


@pytest.mark.parametrize("build", [f6, lambda: gl(2)])
def test_split_exhaustive_against_oracle(build):
    g, tm = build()
    for x in range(1 << g.dim):
        xs, xn = jcs_decompose(g, tm, x)
        assert xs ^ xn == x
        assert g.bracket(xs, xn) == 0
        assert is_semisimple(g, tm, xs)
        assert is_two_nilpotent(g, tm, xn)
        assert (xs, xn) == brute_split(g, tm, x)


def test_split_unique_on_small_algebras():
    # uniqueness is part of brute_split's assertion; cover a rank-2 algebra too
    g, tm = torus(2)
    for x in range(4):
        brute_split(g, tm, x)


# -- scalar extension ----------------------------------------------------------------

def test_extend_scalars_roundtrip_structure():
    g, tm = f6()
    g4, tm4 = extend_scalars(g, tm, 2)
    assert g4.dim == g.dim and g4.field.k == 2
    f4 = gf(2)
    # brackets of basis vectors agree after the embedding
    for i in range(6):
        for j in range(6):
            old = coeffs(F2, 6, g.table[i][j])
            new = coeffs(f4, 6, g4.table[i][j])
            assert old == new
    assert verify_two_map(g4, tm4).ok


def test_extend_scalars_refuses_non_prime_field():
    g, tm = torus(2, k=2)
    with pytest.raises(PreconditionError):
        extend_scalars(g, tm, 4)
