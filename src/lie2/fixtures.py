"""Built-in algebra fixtures.

Every generator returns a ``(LieAlgebra, TwoMap)`` pair and self-verifies
both the Lie axioms and the squaring axioms before returning, so the rest
of the suite never trusts construction code.  The graded families follow
one recipe: a torus t_1, t_2, t_3 acts diagonally on labelled root vectors,
``[t_i, x_lam] = lam(t_i) x_lam``, with all torus elements toral and the
root vectors squaring to zero unless stated otherwise.

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
``witt(m)``       derivations f d/dx of GF(2)[x]/(x^(2^m)); closed under
                  squaring via (f d/dx)^2 = (f f') d/dx
``rank2sq``       rank-2 algebra whose root vectors square onto the torus
``gltor``         gl(2) with an adjoined outer toral line (two coupled roots)
"""

from __future__ import annotations

from itertools import combinations

from .algebra import LieAlgebra
from .errors import FixtureError
from .field import gf
from .linalg import solve, unit, vector
from .restricted import TwoMap, verify_two_map

ROOT_ORDER = (1, 2, 3, 4, 5, 6, 7)  # 3-bit root labels, bit i = value on t_{i+1}


def _verified(g: LieAlgebra, tm: TwoMap):
    rep = g.verify()
    if not rep.ok:
        raise FixtureError(f"fixture {g.name} fails the Lie axioms: {rep}")
    rep2 = verify_two_map(g, tm)
    if not rep2.ok:
        raise FixtureError(f"fixture {g.name} fails the squaring axioms: {rep2}")
    return g, tm


def _root_value(lam: int, i: int) -> int:
    return (lam >> i) & 1


class _GradedBuilder:
    """Torus plus labelled root vectors; fills in the diagonal action."""

    def __init__(self, dims, nil_dim=0, name=""):
        self.f = gf(1)
        self.dims = dims  # root label (1..7) -> dimension
        self.index = {}
        idx = 0
        for i in range(3):
            self.index[("t", i)] = idx
            idx += 1
        for j in range(nil_dim):
            self.index[("z", j)] = idx
            idx += 1
        for lam in ROOT_ORDER:
            for j in range(dims.get(lam, 0)):
                self.index[(lam, j)] = idx
                idx += 1
        self.dim = idx
        self.name = name
        self.pairs = {}
        # diagonal torus action on every root vector
        for key, pos in self.index.items():
            tag = key[0]
            if tag in ("t", "z"):
                continue
            lam = tag
            for i in range(3):
                if _root_value(lam, i):
                    self._set(self.index[("t", i)], pos, unit(self.f, pos))

    def _set(self, i, j, value):
        if i == j:
            raise FixtureError("diagonal bracket entry")
        a, b = min(i, j), max(i, j)
        self.pairs[(a, b)] = value

    def e(self, key):
        return unit(self.f, self.index[key])

    def set_bracket(self, key_a, key_b, value):
        self._set(self.index[key_a], self.index[key_b], value)

    def build(self, squares=None):
        images = [0] * self.dim
        for i in range(3):
            images[self.index[("t", i)]] = self.e(("t", i))
        for key, val in (squares or {}).items():
            images[self.index[key]] = val
        g = LieAlgebra.from_pairs(self.f, self.dim, self.pairs, self.name)
        return _verified(g, TwoMap(images))


def graded(dims_by_root, nil_dim: int = 0, name: str | None = None):
    """Rank-3 torus acting diagonally on root spaces of prescribed dimension.

    ``dims_by_root`` maps 3-bit root labels (1..7) to dimensions; cross
    brackets are trivial.  The workhorse behind several shipped fixtures,
    exposed for building custom root configurations.
    """
    b = _GradedBuilder(dict(dims_by_root), nil_dim=nil_dim,
                       name=name or "graded")
    return b.build()


def torus(r: int, k: int = 1):
    """Abelian algebra of dimension r whose basis is toral."""
    f = gf(k)
    g = LieAlgebra(f, r, [[0] * r for _ in range(r)], f"torus{r}" if k == 1 else f"torus{r}@k{k}")
    return _verified(g, TwoMap([unit(f, i) for i in range(r)]))


def f6():
    return graded({1: 1, 2: 1, 4: 1}, name="f6")


def f6n():
    return graded({1: 1, 2: 1, 4: 1}, nil_dim=1, name="f6n")


def f7():
    return graded({lam: 1 for lam in ROOT_ORDER}, name="f7")


def delta2():
    """Four roots: the product [g_alpha, g_beta] feeds g_{alpha+beta}."""
    b = _GradedBuilder({1: 1, 2: 1, 4: 1, 3: 1}, name="delta2")
    b.set_bracket((1, 0), (2, 0), b.e((3, 0)))
    return b.build()


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
    b = _GradedBuilder({1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}, nil_dim=1, name="u2")
    x1, x2 = (1, 0), (1, 1)
    y1, y2 = (4, 0), (4, 1)
    p = (5, 0)
    z = ("z", 0)
    b.set_bracket(x1, x2, b.e(z))
    b.set_bracket(z, y1, b.e(y2))
    b.set_bracket(x1, y1, b.e(p))
    b.set_bracket(x2, p, b.e(y2))
    return b.build()


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
    g = LieAlgebra.from_pairs(f, 5, pairs, "rank2sq")
    return _verified(g, TwoMap([t1, t2, t2, t1, t1 ^ t2]))


def gltor():
    """gl(2) with an adjoined toral line acting on one extra root vector."""
    f = gf(1)
    e11, e12, e21, e22, t3, u = (unit(f, i) for i in range(6))
    pairs = {
        (0, 1): e12, (0, 2): e21, (1, 2): e11 ^ e22, (1, 3): e12, (2, 3): e21,
        (4, 5): u,
    }
    g = LieAlgebra.from_pairs(f, 6, pairs, "gltor")
    return _verified(g, TwoMap([e11, 0, 0, e22, t3, 0]))


# ---------------------------------------------------------------------------
# matrix algebras
# ---------------------------------------------------------------------------

def _mat_mul2(a, b, n):
    """Product of n x n matrices over GF(2) packed row-major into ints."""
    out = 0
    for i in range(n):
        rowa = (a >> (i * n)) & ((1 << n) - 1)
        acc = 0
        t = rowa
        while t:
            low = t & -t
            q = low.bit_length() - 1
            t ^= low
            acc ^= (b >> (q * n)) & ((1 << n) - 1)
        out |= acc << (i * n)
    return out


def _from_matrix_basis(mats, n, name):
    """Structure constants for a bracket-closed space of n x n GF(2) matrices."""
    f = gf(1)
    dim = len(mats)
    basis = [m for m in mats]

    def coords(m):
        c = solve(f, basis, m)
        if c is None:
            raise FixtureError(f"{name}: commutator leaves the span")
        return c

    table = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = _mat_mul2(mats[i], mats[j], n) ^ _mat_mul2(mats[j], mats[i], n)
            v = coords(comm)
            table[i][j] = v
            table[j][i] = v
    images = [coords(_mat_mul2(m, m, n)) for m in mats]
    g = LieAlgebra(f, dim, table, name)
    return _verified(g, TwoMap(images))


def gl(n: int):
    """gl(n, GF(2)) with matrix squaring as the 2-map."""
    if not 1 <= n <= 5:
        raise FixtureError("gl(n) supported for 1 <= n <= 5")
    mats = [1 << (p * n + q) for p in range(n) for q in range(n)]
    return _from_matrix_basis(mats, n, f"gl{n}")


def sl(n: int):
    """Trace-zero matrices; contains the identity when 2 divides n."""
    if not 2 <= n <= 5:
        raise FixtureError("sl(n) supported for 2 <= n <= 5")
    mats = [1 << (p * n + q) for p in range(n) for q in range(n) if p != q]
    mats += [(1 << (p * n + p)) ^ (1 << ((p + 1) * n + p + 1)) for p in range(n - 1)]
    return _from_matrix_basis(mats, n, f"sl{n}")


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
    g = LieAlgebra.from_pairs(f, dim, pairs, f"witt{m}")
    return _verified(g, TwoMap(images))


# ---------------------------------------------------------------------------
# relabelling helper and the dispatcher
# ---------------------------------------------------------------------------

def permute_basis(g: LieAlgebra, tm: TwoMap, perm, name=None):
    """The same algebra with basis b'_i = b_{perm[i]}.

    Useful for exercising basis-change searches: the relabelled algebra is
    isomorphic but its root data appear shuffled.
    """
    f, n = g.field, g.dim
    if sorted(perm) != list(range(n)):
        raise FixtureError("perm must be a permutation of range(dim)")
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i

    def relabel(v):
        return vector(f, [  # coordinate i of new vector = old coordinate perm[i]
            (v >> (perm[i] * f.k)) & f.mask for i in range(n)
        ])

    table = [[relabel(g.table[perm[i]][perm[j]]) for j in range(n)] for i in range(n)]
    g2 = LieAlgebra(f, n, table, name or f"{g.name}_perm")
    tm2 = TwoMap([relabel(tm.images[perm[i]]) for i in range(n)])
    return _verified(g2, tm2)


def vacuity_family():
    """140 centerless seven-root instances of dimension at most 16.

    Yields (label, generator) pairs in a fixed order: every root-dimension
    pattern in {1,2}^7 except the all-2 pattern (its total dimension is 17),
    seven patterns touching dimension 3, the u2 fixture, and five basis
    relabellings of u2.  The screening suite checks that none is simple and
    each yields a verified witness ideal.
    """
    from itertools import product as _product

    out = []
    for dims in _product((1, 2), repeat=7):
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

    def _u2_perm(perm, tag):
        def build():
            g, tm = u2()
            return permute_basis(g, tm, perm, name=f"u2_{tag}")
        return build

    n = 15
    perms = [
        list(reversed(range(n))),
        list(range(3, n)) + [0, 1, 2],
        [0, 2, 1] + list(range(n - 1, 2, -1)),
        list(range(1, n)) + [0],
        [n - 1] + list(range(n - 1)),
    ]
    for t, perm in enumerate(perms):
        out.append((f"u2_perm{t}", _u2_perm(perm, f"perm{t}")))
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


def fixture_names():
    return sorted(_FIXTURES)
