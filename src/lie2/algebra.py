"""Lie algebras over GF(2^k) given by structure constants.

The bracket of an n-dimensional algebra is stored as an n x n table of
packed vectors: ``table[i][j]`` is [b_i, b_j] expressed in the basis.  In
characteristic 2 the bracket is alternating with ``[x, y] = [y, x]``, so the
table has zero diagonal and is symmetric.  :class:`LieAlgebra` is built from
the entries with i < j only and mirrors them, so every algebra has that
shape by construction; :func:`verify_lie` checks the Jacobi identity on all
triples and reports every violation instead of assuming it, which lets
deliberately corrupted tensors be inspected.

A vector over GF(2^k) is an int of k*n raw bits, and the bracket is
GF(2)-bilinear in them: for every k it sums entries of :attr:`LieAlgebra.raw`,
the brackets of raw bits, which squaring and :mod:`lie2.tori` read too.
Over a proper extension it is built the first time it is read.

:meth:`LieAlgebra.ad` is the one path for "bracket with every basis
vector": it returns every [x, b_j] from one pass over the raw bits of x.
:func:`spin`, :func:`is_ideal`, :meth:`LieAlgebra.ad_matrix`,
:func:`centralizer`, the Jacobi check and the adjoint axiom of
:func:`lie2.restricted.verify_two_map` read it, and
:func:`lie2.screening.is_simple` reads it once per raw bit to build the
packed adjoint it then moves by xor from one generator to the next.

All operations are pure; a LieAlgebra is immutable after construction.
"""

from __future__ import annotations

from .errors import AmbientMismatchError
from .field import GF2k, gf
from .linalg import (
    Matrix,
    Subspace,
    _reduce,
    kernel_of_map,
    pivot_index,
    rref_rows,
    vscale,
)


class LieReport:
    """Outcome of :func:`verify_lie`: an empty list means a valid Lie algebra."""

    def __init__(self, jacobi):
        self.jacobi_violations = jacobi  # [(i, j, l)]

    @property
    def ok(self) -> bool:
        return not self.jacobi_violations

    def __repr__(self):
        if self.ok:
            return "LieReport(ok)"
        return f"LieReport(jacobi={self.jacobi_violations})"


class LieAlgebra:
    """An algebra with an alternating bilinear bracket, fixed by its structure table.

    ``pairs`` maps (i, j) with 0 <= i < j < dim to the packed vector
    [b_i, b_j]; absent pairs are zero.  ``table`` mirrors each entry
    (characteristic 2: c_ij = c_ji) and has a zero diagonal.
    """

    __slots__ = ("field", "dim", "name", "table", "_raw", "_ad")

    def __init__(self, field: GF2k, dim: int, pairs, name: str | None = None):
        table = [[0] * dim for _ in range(dim)]
        for (i, j), v in pairs.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"need 0 <= i < j < dim, got ({i}, {j})")
            table[i][j] = v
            table[j][i] = v
        self.field = field
        self.dim = dim
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self._raw = self.table if field.k == 1 else None
        self._ad = None

    def __repr__(self):
        return f"LieAlgebra({self.name or 'unnamed'}, dim {self.dim} over {self.field})"

    # -- bracket ------------------------------------------------------------

    @property
    def raw(self):
        """``raw[a][b] = [u_a, u_b] = w^(s+t) [e_i, e_j]`` for the raw bits
        u_a = 1 << a = w^s e_i, a = i*k + s, w = x; ``table`` itself at k = 1."""
        if self._raw is None:
            f, k = self.field, self.field.k
            w = [f.pow(2, p) for p in range(2 * k - 1)]
            raw = []
            for row in self.table:  # row i; scaled[j][p] = w^p [e_i, e_j]
                scaled = [[vscale(f, v, c) for c in w] for v in row]
                raw.extend(tuple(sj[s + t] for sj in scaled for t in range(k)) for s in range(k))
            self._raw = tuple(raw)
        return self._raw

    def bracket(self, x: int, y: int) -> int:
        """[x, y], the sum of ``raw[a][b]`` over the raw bits a of x and b of y."""
        if (x | y) >> (self.dim * self.field.k):
            raise AmbientMismatchError("vector has coordinates beyond the algebra dimension")
        raw = self._raw or self.raw  # the slot skips the property once built
        acc = 0
        while x:
            low = x & -x
            x ^= low
            row = raw[low.bit_length() - 1]
            ys = y
            while ys:
                lo2 = ys & -ys
                acc ^= row[lo2.bit_length() - 1]
                ys ^= lo2
        return acc

    def ad(self, x: int) -> list:
        """[x, b_j] for j < dim, from one xor per set raw bit of x.

        Row a of the packed adjoint holds [u_a, b_j] at bits [j*k*n, (j+1)*k*n)
        (b_j is the raw bit j*k); the rows are built from ``raw`` on the
        first call.  Like :meth:`bracket`, refuses coordinates past dim.
        """
        kn = self.dim * self.field.k
        if x >> kn:
            raise AmbientMismatchError("vector has coordinates beyond the algebra dimension")
        rows = self._ad
        if rows is None:
            k = self.field.k
            rows = self._ad = tuple(
                sum(row[j * k] << (j * kn) for j in range(self.dim)) for row in self.raw
            )
        acc = 0
        while x:
            low = x & -x
            x ^= low
            acc ^= rows[low.bit_length() - 1]
        mask = (1 << kn) - 1
        return [(acc >> s) & mask for s in range(0, self.dim * kn, kn)]

    def ad_matrix(self, x: int) -> Matrix:
        """The matrix of ad(x); column j is [x, b_j]."""
        n = self.dim
        return Matrix(self.field, n, n, self.ad(x)).transpose()

    # -- whole-space helpers -------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def subspace(self, vectors_) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim, vectors_)

    # -- verification --------------------------------------------------------

    def verify(self) -> LieReport:
        """Exhaustively check the Jacobi identity on all triples.

        [[b_i, b_j], b_l] is ``ad(table[i][j])[l]``; ad is taken once per
        distinct table entry.
        """
        n, table = self.dim, self.table
        ad = {v: self.ad(v) for v in {v for row in table for v in row}}
        jacobi = []
        for i in range(n):
            for j in range(i + 1, n):
                ad_ij = ad[table[i][j]]
                for l in range(j + 1, n):
                    if ad_ij[l] ^ ad[table[j][l]][i] ^ ad[table[l][i]][j]:
                        jacobi.append((i, j, l))
        return LieReport(jacobi)


def verify_lie(g: LieAlgebra) -> LieReport:
    return g.verify()


# ---------------------------------------------------------------------------
# subspace-level operations
# ---------------------------------------------------------------------------

def bracket_span(g: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """span{[x, y] : x in u, y in v}; equals the span of basis brackets."""
    vecs = [g.bracket(r, s) for r in u.rows for s in v.rows]
    return g.subspace(vecs)


def centralizer(g: LieAlgebra, u: Subspace) -> Subspace:
    """{x : [x, y] = 0 for all y in u}, computed as one nullspace."""
    f, n = g.field, g.dim
    if u.dim == 0:
        return g.full_space()
    units = g.full_space().rows
    # stack the maps x -> [x, y_t] over the basis of u into one codomain;
    # [e_i, y_t] = ad(y_t)[i]
    kn = n * f.k
    ads = [g.ad(y) for y in u.rows]
    images = [sum(a[i] << (t * kn) for t, a in enumerate(ads)) for i in range(n)]
    return g.subspace(kernel_of_map(f, units, images))


def center(g: LieAlgebra) -> Subspace:
    return centralizer(g, g.full_space())


def derived_subalgebra(g: LieAlgebra, u: Subspace) -> Subspace:
    return bracket_span(g, u, u)


def is_ideal(g: LieAlgebra, u: Subspace) -> bool:
    """True iff [g, u] is contained in u.

    Every bracket of a row with a basis vector is reduced against the pivots
    of u's canonical rows; ``limit=0`` leaves that echelon unchanged.
    """
    f = g.field
    echelon = {pivot_index(f, r): r for r in u.rows}
    return not any(_reduce(f, echelon, w, 0) for r in u.rows for w in g.ad(r))


def spin(g: LieAlgebra, vectors):
    """Yield a basis of the ideal generated by ``vectors``, one row at a time.

    Every seed, then every bracket [r, b_j] of a yielded row r with a basis
    vector (``g.ad(r)``), is fed to the elimination primitive of
    :mod:`lie2.linalg`; a nonzero residual comes back scaled to coefficient
    1 at its lowest nonzero coordinate, stored and is yielded.  By bilinearity the yielded
    rows span the ideal; the caller may stop early.  At most dim(g) rows.
    """
    f, n = g.field, g.dim
    echelon = {}
    rows = []

    def candidates():
        yield from vectors
        i = 0
        while i < len(rows):  # rows grows while it is read
            r = rows[i]
            i += 1
            yield from g.ad(r)

    for w in candidates():
        w = _reduce(f, echelon, w)
        if w:
            rows.append(w)
            yield w
            if len(rows) == n:
                return


def ideal_closure(g: LieAlgebra, u: Subspace) -> Subspace:
    """Smallest ideal containing u: one elimination of the rows :func:`spin` yields."""
    rows, _ = rref_rows(g.field, spin(g, u.rows))
    return Subspace(g.field, g.dim, rows)


def acts_nilpotently(g: LieAlgebra, s: Subspace) -> bool:
    """True iff the chain V_0 = g, V_{i+1} = [s, V_i] hits 0 within dim steps."""
    v = g.full_space()
    for _ in range(g.dim):
        nxt = bracket_span(g, s, v)
        if nxt.dim == 0:
            return True
        if nxt == v:
            return False
        v = nxt
    return v.dim == 0


# ---------------------------------------------------------------------------
# convenience constructors used across fixtures and tests
# ---------------------------------------------------------------------------

def abelian(n: int, k: int = 1, name: str | None = None) -> LieAlgebra:
    """The abelian algebra of dimension n."""
    f = gf(k)
    return LieAlgebra(f, n, {}, name or f"abelian{n}")
