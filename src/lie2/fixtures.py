"""Built-in algebra fixtures.

Every generator returns a ``(LieAlgebra, TwoMap)`` pair whose Lie and
squaring axioms hold by construction; nothing is re-checked at build time,
and the test suite runs both axiom checks on the output of every generator.
The graded families follow one recipe (:func:`graded`): a torus t_1, t_2,
t_3 acts diagonally on labelled root vectors, ``[t_i, x_lam] = lam(t_i)
x_lam``, with all torus elements toral and the root vectors squaring to
zero.  Out-of-range parameters raise :class:`lie2.errors.FixtureError`.

Main families
-------------
``torus(r)``      abelian torus of rank r (optionally over GF(2^k))
``f6``            six-dimensional: three-root configuration, centerless
``f6n``           f6 plus a central 2-nilpotent generator in the Cartan
``f7``            all seven roots, one-dimensional root spaces (dim 10)
``delta2``        f6 plus a fourth root alpha+beta fed by [g_a, g_b]
``u1``            all seven roots, one two-dimensional root space
``u2``            dim 15, four two-dimensional root spaces, a nonzero
                  nilpotent part, and a web of compensating brackets
``delta0(dims)``  all seven roots with prescribed dimensions, brackets
                  trivial across root spaces
``gl(n)``/``sl(n)``  matrix algebras with squaring as the 2-map
``psl4``          sl(4) modulo its centre: dim 14, simple, toral rank 2 over GF(2)
``witt(m)``       derivations f d/dx of GF(2)[x]/(x^(2^m)); closed under
                  squaring via (f d/dx)^2 = (f f') d/dx
``rank2sq``       rank-2 algebra whose root vectors square onto the torus
``gltor``         gl(2) with an adjoined outer toral line (two coupled roots)

sl(n), psl4 and :func:`permute_basis` are :func:`lie2.restricted.subquotient` calls.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import LieAlgebra
from .errors import FixtureError
from .field import gf
from .linalg import unit
from .restricted import TwoMap, subquotient

ROOT_ORDER = (1, 2, 3, 4, 5, 6, 7)  # 3-bit root labels, bit i = value on t_{i+1}


def graded(dims_by_root, nil_dim: int = 0, name: str | None = None, extra=()):
    """Rank-3 torus acting diagonally on root spaces of prescribed dimension.

    ``dims_by_root`` maps 3-bit root labels (1..7) to dimensions.  The basis
    is t_0, t_1, t_2 (toral), then ``nil_dim`` vectors z_j that the torus
    kills, then the root vectors in label order; everything but the torus
    squares to zero.  ``extra`` lists further brackets ``(a, b, c)`` meaning
    [a, b] = c, with basis keys ``("t", i)``, ``("z", j)`` or ``(root, j)``;
    all other cross brackets are trivial.  An extra bracket that names a
    key outside the basis, or brackets a key with itself, raises
    :class:`~lie2.errors.FixtureError`.  Like the pairs of
    :class:`LieAlgebra`, the extra brackets are taken as given, not
    verified: a caller who passes them vouches for the axioms, which
    :func:`lie2.algebra.verify_lie` and :func:`lie2.restricted.verify_two_map`
    check.
    """
    dims = dict(dims_by_root)
    if not set(dims) <= set(ROOT_ORDER):
        raise FixtureError(f"root labels must lie in 1..7, got {list(dims)}")
    if nil_dim < 0 or any(dim < 0 for dim in dims.values()):
        raise FixtureError("root-space dimensions and nil_dim must be nonnegative")
    f = gf(1)
    index = {("t", i): i for i in range(3)}
    for j in range(nil_dim):
        index[("z", j)] = len(index)
    pairs = {}
    for lam in ROOT_ORDER:
        for j in range(dims.get(lam, 0)):
            pos = index[(lam, j)] = len(index)
            for i in range(3):
                if (lam >> i) & 1:
                    pairs[(i, pos)] = unit(f, pos)
    for a, b, c in extra:
        if not {a, b, c} <= index.keys():
            raise FixtureError(f"extra bracket {(a, b, c)} names a basis key not in the algebra")
        i, j = index[a], index[b]
        if i == j:
            raise FixtureError(f"extra bracket {(a, b, c)} brackets {a} with itself")
        pairs[(min(i, j), max(i, j))] = unit(f, index[c])
    n = len(index)
    g = LieAlgebra(f, n, pairs, name or "graded")
    return g, TwoMap([unit(f, i) for i in range(3)] + [0] * (n - 3))


def torus(r: int, k: int = 1):
    """Abelian algebra of dimension r whose basis is toral."""
    if r < 0:
        raise FixtureError("torus(r) needs r >= 0")
    if not 1 <= k <= 16:
        raise FixtureError("torus(r, k) supported for 1 <= k <= 16")
    f = gf(k)
    g = LieAlgebra(f, r, {}, f"torus{r}" if k == 1 else f"torus{r}@k{k}")
    return g, TwoMap([unit(f, i) for i in range(r)])


def f6():
    return graded({1: 1, 2: 1, 4: 1}, name="f6")


def f6n():
    return graded({1: 1, 2: 1, 4: 1}, nil_dim=1, name="f6n")


def f7():
    return graded({lam: 1 for lam in ROOT_ORDER}, name="f7")


def delta2():
    """Four roots: the product [g_alpha, g_beta] feeds g_{alpha+beta}."""
    return graded({1: 1, 2: 1, 4: 1, 3: 1}, name="delta2",
                  extra=[((1, 0), (2, 0), (3, 0))])


def u1():
    return delta0((2, 1, 1, 1, 1, 1, 1), name="u1")


def u2():
    """Unequal-dimension configuration with a nonzero nilpotent part.

    The two basis vectors of g_alpha bracket onto the nilpotent generator
    z, and z acts nilpotently but nontrivially on the two-dimensional
    g_gamma; the Jacobi identity then forces the compensating brackets
    [x1, y1] = p and [x2, p] = y2 through g_{alpha+gamma}.  The result is
    centerless and triangulable with root dimensions (2,2,2,2,1,1,1).
    """
    x1, x2 = (1, 0), (1, 1)
    y1, y2 = (4, 0), (4, 1)
    p = (5, 0)
    z = ("z", 0)
    return graded({1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}, nil_dim=1, name="u2",
                  extra=[(x1, x2, z), (z, y1, y2), (x1, y1, p), (x2, p, y2)])


def delta0(dims, name=None):
    """All seven roots with prescribed dimensions and trivial cross brackets."""
    if len(dims) != 7 or any(d < 1 for d in dims):
        raise FixtureError("delta0 needs seven positive root-space dimensions")
    return graded({lam: dims[lam - 1] for lam in ROOT_ORDER},
                  name=name or "delta0_" + "".join(map(str, dims)))


def rank2sq():
    """Rank 2, three one-dimensional root spaces, root vectors squaring
    onto the torus: x^[2] = t_2, y^[2] = t_1, w^[2] = t_1 + t_2."""
    f = gf(1)
    t1, t2, x, y, w = (unit(f, i) for i in range(5))
    pairs = {
        (0, 2): x, (1, 3): y, (0, 4): w, (1, 4): w,
        (2, 3): w, (2, 4): y, (3, 4): x,
    }
    g = LieAlgebra(f, 5, pairs, "rank2sq")
    return g, TwoMap([t1, t2, t2, t1, t1 ^ t2])


def gltor():
    """gl(2) with an adjoined toral line acting on one extra root vector."""
    f = gf(1)
    e11, e12, e21, e22, t3, u = (unit(f, i) for i in range(6))
    pairs = {
        (0, 1): e12, (0, 2): e21, (1, 2): e11 ^ e22, (1, 3): e12, (2, 3): e21,
        (4, 5): u,
    }
    g = LieAlgebra(f, 6, pairs, "gltor")
    return g, TwoMap([e11, 0, 0, e22, t3, 0])


# ---------------------------------------------------------------------------
# matrix algebras
# ---------------------------------------------------------------------------

def gl(n: int):
    """gl(n, GF(2)) with matrix squaring as the 2-map, basis E_pq at p*n + q.

    [E_ij, E_kl] = d_jk E_il + d_li E_kj and E_ij^[2] = d_ij E_ii.
    """
    if not 1 <= n <= 5:
        raise FixtureError("gl(n) supported for 1 <= n <= 5")
    f, cells = gf(1), list(product(range(n), repeat=2))
    e = {cell: unit(f, a) for a, cell in enumerate(cells)}
    pairs = {(a, b): (e[i, l] if j == k else 0) ^ (e[k, j] if l == i else 0)
             for (a, (i, j)), (b, (k, l)) in combinations(enumerate(cells), 2)}
    images = [e[i, i] if i == j else 0 for i, j in cells]
    return LieAlgebra(f, n * n, pairs, f"gl{n}"), TwoMap(images)


def sl(n: int):
    """Trace-zero matrices; contains the identity when 2 divides n."""
    if not 2 <= n <= 5:
        raise FixtureError("sl(n) supported for 2 <= n <= 5")
    basis = [1 << (p * n + q) for p in range(n) for q in range(n) if p != q]
    basis += [(1 << (p * n + p)) ^ (1 << ((p + 1) * n + p + 1)) for p in range(n - 1)]
    return subquotient(*gl(n), basis, name=f"sl{n}")


def psl4():
    """sl(4) modulo its centre, the identity h_0 + h_2 (dim 14, simple)."""
    # the basis of sl(4) ends h_0, h_1, h_2 (indices 12-14): keep all but h_2
    return subquotient(*sl(4), [1 << i for i in range(14)], ideal=[1 << 12 | 1 << 14], name="psl4")


# ---------------------------------------------------------------------------
# derivation algebras of truncated polynomial rings
# ---------------------------------------------------------------------------

def witt(m: int):
    """Derivations f * d/dx of GF(2)[x]/(x^(2^m)).

    Basis e_a = x^a d/dx with [e_a, e_b] = (a+b mod 2) x^(a+b-1) d/dx and
    e_a^[2] = a * x^(2a-1) d/dx, truncated past degree 2^m - 1.  Not simple
    for m >= 2 (the high-degree part is an ideal), which is the point of
    shipping it.
    """
    if not 1 <= m <= 4:
        raise FixtureError("witt(m) supported for 1 <= m <= 4")
    f = gf(1)
    dim = 1 << m
    pairs = {}
    for a, b in combinations(range(dim), 2):
        if (a + b) % 2 == 1 and 0 <= a + b - 1 < dim:
            pairs[(a, b)] = unit(f, a + b - 1)
    images = [0] * dim
    for a in range(dim):
        if a % 2 == 1 and 2 * a - 1 < dim:
            images[a] = unit(f, 2 * a - 1)
    return LieAlgebra(f, dim, pairs, f"witt{m}"), TwoMap(images)


# ---------------------------------------------------------------------------
# relabelling helper and the dispatcher
# ---------------------------------------------------------------------------

def permute_basis(g: LieAlgebra, tm: TwoMap, perm, name=None):
    """The same algebra with basis b'_i = b_{perm[i]}.

    Useful for exercising basis-change searches: the relabelled algebra is
    isomorphic but its root data appear shuffled.
    """
    if sorted(perm) != list(range(g.dim)):
        raise FixtureError("perm must be a permutation of range(dim)")
    return subquotient(g, tm, [unit(g.field, p) for p in perm], name=name or f"{g.name}_perm")


def vacuity_family():
    """140 centerless seven-root instances of dimension at most 16.

    Yields (label, generator) pairs in a fixed order: every root-dimension
    pattern in {1,2}^7 except the all-2 pattern (its total dimension is 17),
    seven patterns touching dimension 3, the u2 fixture, and five basis
    relabellings of u2.  The screening suite checks that none is simple and
    each yields a verified witness ideal.
    """
    out = []
    for dims in product((1, 2), repeat=7):
        if dims == (2,) * 7:
            continue
        out.append(("pattern" + "".join(map(str, dims)), lambda d=dims: delta0(d)))
    for dims in [
        (3, 1, 1, 1, 1, 1, 1),
        (3, 2, 1, 1, 1, 1, 1),
        (3, 2, 2, 1, 1, 1, 1),
        (3, 3, 1, 1, 1, 1, 1),
        (3, 3, 3, 1, 1, 1, 1),
        (1, 3, 2, 1, 2, 1, 1),
        (2, 3, 1, 3, 1, 1, 1),
    ]:
        out.append(("pattern" + "".join(map(str, dims)), lambda d=dims: delta0(d)))
    out.append(("u2", u2))
    n = 15
    perms = [
        list(reversed(range(n))),
        list(range(3, n)) + [0, 1, 2],
        [0, 2, 1] + list(range(n - 1, 2, -1)),
        list(range(1, n)) + [0],
        [n - 1] + list(range(n - 1)),
    ]
    for t, perm in enumerate(perms):
        out.append((f"u2_perm{t}",
                    lambda p=perm, t=t: permute_basis(*u2(), p, name=f"u2_perm{t}")))
    return out


_FIXTURES = {
    "torus": torus,
    "f6": f6,
    "f6n": f6n,
    "f7": f7,
    "delta2": delta2,
    "u1": u1,
    "u2": u2,
    "delta0": delta0,
    "gl": gl,
    "sl": sl,
    "psl4": psl4,
    "witt": witt,
    "rank2sq": rank2sq,
    "gltor": gltor,
}


def fixture(name: str, **params):
    """Look up a fixture generator by name and build it."""
    if name not in _FIXTURES:
        raise FixtureError(f"unknown fixture {name!r}; known: {sorted(_FIXTURES)}")
    try:
        return _FIXTURES[name](**params)
    except TypeError as exc:
        raise FixtureError(f"bad parameters for fixture {name!r}: {exc}") from None
