"""Exact linear algebra: canonical forms, kernels, and subspace lattice ops.

Derived expectations are frozen from independent oracles computed inside
this module: ranks by enumerating all row combinations, intersections and
memberships by enumerating whole subspaces.
"""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from lie2.errors import AmbientMismatchError
from lie2.field import gf
from lie2.linalg import (
    Matrix,
    Subspace,
    coeffs,
    combine,
    kernel_of_map,
    nullspace,
    pivot_index,
    rref,
    rref_rows,
    solve,
    unit,
    vector,
    vget,
    vscale,
)

F2 = gf(1)
F4 = gf(2)


def apply(m, v):
    """Matrix-vector product M*v for a packed length-ncols vector, entry by entry."""
    f = m.field
    out = []
    for i in range(m.nrows):
        acc = 0
        for j in range(m.ncols):
            acc ^= f.mul(m.entry(i, j), vget(f, v, j))
        out.append(acc)
    return vector(f, out)


def units(field, n):
    return [unit(field, i) for i in range(n)]


def enumerate_span(field, n, rows):
    """Oracle: the full set of vectors spanned by rows."""
    out = set()
    for cs in product(range(field.order), repeat=len(rows)):
        v = 0
        for c, r in zip(cs, rows):
            v ^= vscale(field, r, c)
        out.add(v)
    return out


def rank_oracle(field, n, rows):
    return len(enumerate_span(field, n, rows)).bit_length() - 1 if field.k == 1 else None


# -- rref ------------------------------------------------------------------

def test_rref_zero_matrix():
    m = Matrix.from_entries(F2, [[0, 0], [0, 0]])
    assert rref(m).entries() == [[0, 0], [0, 0]]


def test_rref_identity():
    m = Matrix.identity(F2, 3)
    assert rref(m) == m


def test_rref_hand_example():
    # hand row-reduction: rows (1,1),(0,1),(1,0) reduce to the identity
    m = Matrix.from_entries(F2, [[1, 1], [0, 1], [1, 0]])
    r = rref(m)
    assert r.entries() == [[1, 0], [0, 1], [0, 0]]
    # cross-check rank with the enumeration oracle
    assert rank_oracle(F2, 2, m.rows) == 2


def test_rref_idempotent():
    m = Matrix.from_entries(F2, [[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert rref(rref(m)) == rref(m)
    assert m.rank() == rank_oracle(F2, 3, m.rows)


def test_rref_rows_canonical_under_row_order():
    # rows that reduce only at their lowest pivot keep entries at earlier pivots
    assert rref_rows(F2, [0b100, 0b110]) == rref_rows(F2, [0b110, 0b100]) == ([2, 4], [1, 2])
    rng = random.Random(5)
    for k in (1, 2, 3):
        f = gf(k)
        for _ in range(20):
            n = rng.randrange(2, 6)
            rows = [rng.randrange(1 << (n * k)) for _ in range(rng.randrange(1, 5))]
            outputs = {tuple(map(tuple, rref_rows(f, list(p)))) for p in permutations(rows)}
            assert len(outputs) == 1, (k, rows, outputs)
            out, pivots = rref_rows(f, rows)
            assert enumerate_span(f, n, out) == enumerate_span(f, n, rows)
            for row, p in zip(out, pivots):
                assert pivot_index(f, row) == p and vget(f, row, p) == 1
                assert all(vget(f, other, p) == 0 for other in out if other != row)


def test_rref_gf4_normalizes_pivots():
    m = Matrix.from_entries(F4, [[2, 1], [3, 2]])
    r = rref(m)
    for row in r.rows:
        if row:
            first = next(c for c in coeffs(F4, 2, row) if c)
            assert first == 1


# -- nullspace ---------------------------------------------------------------

def test_nullspace_identity_is_zero():
    assert nullspace(Matrix.identity(F2, 3)).dim == 0


def test_nullspace_zero_matrix_is_full():
    assert nullspace(Matrix.zero(F2, 2, 3)).dim == 3


def test_nullspace_hand_example():
    # [[1,1,0]] has kernel {v : v0 + v1 = 0}; oracle: all 8 vectors
    m = Matrix.from_entries(F2, [[1, 1, 0]])
    ns = nullspace(m)
    expected = {v for v in range(8) if apply(m, v) == 0}
    assert enumerate_span(F2, 3, ns.rows) == expected
    assert ns.dim == 2


@pytest.mark.parametrize("entries", [
    [[1, 0, 1], [0, 1, 1]],
    [[1, 1, 1]],
    [[1, 0], [0, 1], [1, 1]],
])
def test_nullspace_vectors_annihilate(entries):
    m = Matrix.from_entries(F2, entries)
    ns = nullspace(m)
    assert ns.dim == m.ncols - m.rank()
    for v in ns.vectors():
        assert apply(m, v) == 0


# -- subspace lattice ---------------------------------------------------------

def test_sum_and_intersection_idempotent():
    u = Subspace.from_vectors(F2, 3, [vector(F2, (1, 1, 0)), vector(F2, (0, 1, 1))])
    assert u.sum(u) == u
    assert u.intersect(u) == u


def test_unit_vector_sum():
    u = Subspace.from_vectors(F2, 3, [1])
    v = Subspace.from_vectors(F2, 3, [2])
    assert u.sum(v) == Subspace.from_vectors(F2, 3, [1, 2])


def test_intersection_hand_example():
    # oracle: enumerate both sides over all 8 vectors
    u = Subspace.from_vectors(F2, 3, [vector(F2, (1, 1, 0)), vector(F2, (0, 1, 1))])
    v = Subspace.from_vectors(F2, 3, [vector(F2, (1, 0, 1))])
    got = u.intersect(v)
    expected = enumerate_span(F2, 3, u.rows) & enumerate_span(F2, 3, v.rows)
    assert enumerate_span(F2, 3, got.rows) == expected
    assert got.rows == (vector(F2, (1, 0, 1)),)


def test_canonical_equality():
    a = Subspace.from_vectors(F2, 3, [vector(F2, (1, 1, 0)), vector(F2, (0, 1, 1))])
    b = Subspace.from_vectors(F2, 3, [vector(F2, (1, 0, 1)), vector(F2, (0, 1, 1))])
    # same row space presented by different generators
    assert enumerate_span(F2, 3, a.rows) == enumerate_span(F2, 3, b.rows)
    assert a == b and a.rows == b.rows and hash(a) == hash(b)


def test_contains_by_residual():
    u = Subspace.from_vectors(F2, 4, [vector(F2, (1, 1, 0, 0)), vector(F2, (0, 0, 1, 1))])
    assert u.contains(vector(F2, (1, 1, 1, 1)))
    assert not u.contains(vector(F2, (1, 0, 0, 0)))


def test_ambient_mismatch_raises():
    u = Subspace.from_vectors(F2, 3, [1])
    v = Subspace.from_vectors(F2, 4, [1])
    with pytest.raises(AmbientMismatchError):
        u.sum(v)
    with pytest.raises(AmbientMismatchError):
        u.intersect(v)


@st.composite
def gf2_subspace(draw, ambient=5):
    count = draw(st.integers(0, 4))
    vecs = [draw(st.integers(0, (1 << ambient) - 1)) for _ in range(count)]
    return Subspace.from_vectors(F2, ambient, vecs)


@settings(max_examples=120, deadline=None)
@given(gf2_subspace(), gf2_subspace())
def test_dimension_formula_gf2(u, v):
    assert u.dim + v.dim == u.sum(v).dim + u.intersect(v).dim


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, (1 << 8) - 1), max_size=3),
       st.lists(st.integers(0, (1 << 8) - 1), max_size=3))
def test_dimension_formula_gf4(rows_u, rows_v):
    u = Subspace.from_vectors(F4, 4, rows_u)
    v = Subspace.from_vectors(F4, 4, rows_v)
    assert u.dim + v.dim == u.sum(v).dim + u.intersect(v).dim


def test_intersection_gf4_against_enumeration():
    u = Subspace.from_vectors(F4, 3, [vector(F4, (1, 2, 0)), vector(F4, (0, 1, 1))])
    v = Subspace.from_vectors(F4, 3, [vector(F4, (1, 3, 1))])
    got = u.intersect(v)
    expected = enumerate_span(F4, 3, u.rows) & enumerate_span(F4, 3, v.rows)
    assert enumerate_span(F4, 3, got.rows) == expected


# -- solve / kernel helpers ----------------------------------------------------

def test_solve_finds_combination():
    images = [vector(F2, (1, 1, 0)), vector(F2, (0, 1, 1))]
    target = vector(F2, (1, 0, 1))
    c = solve(F2, images, target)
    assert c is not None
    acc = 0
    for i, im in enumerate(images):
        if (c >> i) & 1:
            acc ^= im
    assert acc == target
    assert solve(F2, images, vector(F2, (1, 0, 0))) is None


def test_kernel_of_map_matches_bruteforce():
    images = [3, 5, 6, 0]  # map from GF(2)^4 into GF(2)^3
    ker = kernel_of_map(F2, units(F2, 4), images)
    brute = set()
    for v in range(16):
        acc = 0
        for i in range(4):
            if (v >> i) & 1:
                acc ^= images[i]
        if acc == 0:
            brute.add(v)
    assert enumerate_span(F2, 4, ker) == brute
    with pytest.raises(ValueError):
        kernel_of_map(F2, units(F2, 3), images)


def combination_oracle(field, vectors, x):
    """sum_i x_i * vectors[i], one coordinate of x at a time."""
    acc = 0
    for c, v in zip(coeffs(field, len(vectors), x), vectors):
        acc ^= vscale(field, v, c)
    return acc


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.integers(0, (1 << 3 * k) - 1), max_size=3),
    st.integers(0, (1 << 3 * k) - 1),
)))
def test_solve_kernel_and_combine_against_enumeration(case):
    # a map from GF(2^k)^m into GF(2^k)^3, m <= 3, over k = 1, 2, 3
    k, images, target = case
    f, m = gf(k), len(images)
    domain = range(1 << (k * m))
    for x in domain:
        assert combine(f, images, x) == combination_oracle(f, images, x)
        assert combine(f, images, x | (1 << (k * m))) == combine(f, images, x)  # past the end
    kernel = {x for x in domain if combination_oracle(f, images, x) == 0}
    assert enumerate_span(f, m, kernel_of_map(f, units(f, m), images)) == kernel
    x = solve(f, images, target)
    reachable = any(combination_oracle(f, images, y) == target for y in domain)
    assert (x is not None) == reachable
    if x is not None:
        assert combination_oracle(f, images, x) == target


def kernel_via_coefficients(field, basis, images):
    """Reference: the coefficient kernel on the unit basis, read back through ``basis``."""
    coords = kernel_of_map(field, units(field, len(basis)), images)
    return [combine(field, basis, c) for c in coords]


def test_kernel_of_map_tags_match_the_coefficient_route():
    # bases with zero and repeated entries, as Subspace.intersect passes them
    rng = random.Random(18)
    for k in (1, 2, 3):
        f = gf(k)
        for _ in range(60):
            n, m = rng.randrange(1, 5), rng.randrange(0, 6)
            basis = [rng.randrange(1 << (n * k)) for _ in range(m)]
            for i in rng.sample(range(m), min(m, rng.randrange(3))):
                basis[i] = rng.choice([0] + basis)
            images = [rng.randrange(1 << (3 * k)) if rng.random() < 0.7 else 0 for _ in range(m)]
            got = kernel_of_map(f, basis, images)
            want = Subspace.from_vectors(f, n, kernel_via_coefficients(f, basis, images))
            assert Subspace.from_vectors(f, n, got) == want, (k, basis, images)
            assert 0 not in got
            if Subspace.from_vectors(f, n, basis).dim == m:  # independent basis, independent kernel
                assert len(got) == want.dim


def matmul_oracle(a, b):
    """Entrywise product: (AB)_ij = sum_t A_it B_tj."""
    f = a.field
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for t in range(a.ncols):
                acc ^= f.mul(a.entry(i, t), b.entry(t, j))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matmul_and_transpose_against_entries(k):
    f, rng = gf(k), random.Random(k)
    for _ in range(40):
        p, q, r = (rng.randrange(1, 5) for _ in range(3))
        a = Matrix.from_entries(f, [[rng.randrange(f.order) for _ in range(q)] for _ in range(p)])
        b = Matrix.from_entries(f, [[rng.randrange(f.order) for _ in range(r)] for _ in range(q)])
        assert (a @ b).entries() == matmul_oracle(a, b)
        assert a.transpose().entries() == [list(col) for col in zip(*a.entries())]
        assert a.transpose().transpose() == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vectors_lists_each_element_once(k):
    f, rng = gf(k), random.Random(10 + k)
    for _ in range(20):
        n = rng.randrange(1, 4)
        vecs = [rng.randrange(1 << (n * k)) for _ in range(rng.randrange(4))]
        u = Subspace.from_vectors(f, n, vecs)
        vs = list(u.vectors())
        assert len(vs) == len(set(vs)) == f.order ** u.dim
        assert set(vs) == enumerate_span(f, n, u.rows)


def test_matmul_and_apply_agree():
    a = Matrix.from_entries(F2, [[1, 0, 1], [0, 1, 1]])
    b = Matrix.from_entries(F2, [[1, 1], [0, 1], [1, 0]])
    ab = a.matmul(b)
    for v in range(4):
        assert apply(ab, v) == apply(a, apply(b, v))
