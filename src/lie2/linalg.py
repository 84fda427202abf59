"""Exact linear algebra over GF(2^k) on bit-packed vectors.

A length-``n`` vector over GF(2^k) is packed into a single Python int:
coordinate ``i`` occupies bits ``[i*k, (i+1)*k)``, low coordinate first.
Because field addition is coefficient-wise xor, *vector addition is plain
integer xor for every k*, equality is int equality, and enumerating all
vectors of GF(2^k)^n is ``range(1 << (n*k))``.  For k = 1 this degenerates
to the classic bit-packed-row representation where a row operation is one
word-wise xor.

Elimination runs through two loops.  :func:`_reduce`, over a dict from
pivot (lowest nonzero coordinate) to row, reduces only the lowest
coordinate of a row until it is no pivot: enough to grow an echelon and to
test membership (the residual is 0 exactly on the span), but the residual
is not canonical.  :func:`reduce_vector` clears every pivot coordinate
against rows in reduced echelon form, so two vectors differing by an
element of the span get the same residue; :meth:`Subspace.reduce` gives
that canonical coset representative, and :func:`rref_rows` uses it for
its back-substitution.  :func:`lie2.algebra.spin` and the spans of
iterated squares and toral elements grow an echelon one vector at a time.

Augmented elimination puts a tag block above the image.  In
:func:`kernel_of_map` the tag of row i is the domain vector ``basis[i]``,
so a kernel comes back as vectors of the domain with no coefficients to
read back: :func:`nullspace` and :func:`lie2.algebra.centralizer` pass the
unit basis, :func:`lie2.roots.vanishing_slice` the toral basis,
:func:`lie2.screening.n_subspace` the rows of a root space,
:func:`lie2.tori.toral_basis` a GF(2)-spanning set of the torus, and
:meth:`Subspace.intersect` (Zassenhaus) the rows of one side with zero
tags on the other.  :func:`solve` tags with the units, to read off the
coefficients of one solution.  :func:`combine` is the one loop that
multiplies coefficients into a basis: matrix products and
:meth:`Subspace.vectors` run through it.

Everything here is immutable after construction and safe to share between
threads; operations are pure functions of their inputs.
"""

from __future__ import annotations

from .errors import AmbientMismatchError
from .field import GF2k


# ---------------------------------------------------------------------------
# packed-vector helpers
# ---------------------------------------------------------------------------

def vget(field: GF2k, v: int, i: int) -> int:
    """Coordinate ``i`` of packed vector ``v``."""
    return (v >> (i * field.k)) & field.mask


def vector(field: GF2k, coeffs) -> int:
    """Pack a coefficient sequence into a vector."""
    v = 0
    for i, c in enumerate(coeffs):
        if c & ~field.mask:
            raise ValueError(f"coefficient {c} out of range for {field}")
        v |= c << (i * field.k)
    return v


def coeffs(field: GF2k, n: int, v: int):
    """Unpack ``v`` into a tuple of ``n`` coefficients."""
    k, mask = field.k, field.mask
    return tuple((v >> (i * k)) & mask for i in range(n))


def unit(field: GF2k, i: int) -> int:
    """The basis vector e_i."""
    return 1 << (i * field.k)


def vscale(field: GF2k, v: int, c: int) -> int:
    """Scalar multiple ``c * v``."""
    if c == 0:
        return 0
    if c == 1:
        return v
    k, mask, mul = field.k, field.mask, field.mul
    r, i = 0, 0
    while v:
        chunk = v & mask
        if chunk:
            r |= mul(chunk, c) << i
        v >>= k
        i += k
    return r


def pivot_index(field: GF2k, v: int) -> int:
    """Index of the lowest nonzero coordinate (v must be nonzero)."""
    return ((v & -v).bit_length() - 1) // field.k


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def _reduce(field: GF2k, echelon: dict, row: int, limit: int | None = None) -> int:
    """Reduce ``row`` against ``echelon`` and store what is left.

    ``echelon`` maps a pivot (lowest nonzero coordinate) to a row with
    coefficient 1 there.  ``row`` is reduced at its lowest coordinate until
    that coordinate is no pivot.  A nonzero residual is scaled to 1 at its
    pivot and stored, unless its pivot lies at or above ``limit``; the
    residual is returned either way (scaled only if stored).

    This is the package's elimination loop; only canonical residues need
    the second, :func:`reduce_vector`.  Augmented elimination needs no
    other loop: a row that carries a tag above coordinate
    ``limit`` has a residual with zero image part exactly when the residual
    has run into the tag, and such a residual is not stored.  ``limit=0``
    stores nothing, which reduces a vector against a fixed echelon.
    """
    k, mask = field.k, field.mask
    while row:
        p = ((row & -row).bit_length() - 1) // k
        other = echelon.get(p)
        c = (row >> (p * k)) & mask
        if other is None:
            if limit is None or p < limit:
                if c != 1:
                    row = vscale(field, row, field.inv(c))
                echelon[p] = row
            return row
        row ^= other if c == 1 else vscale(field, other, c)
    return 0


def rref_rows(field: GF2k, rows):
    """Reduced row echelon form of a list of packed rows.

    Returns ``(rows, pivots)`` where rows are nonzero, pivot-normalized,
    cleared above and below, and sorted by ascending pivot index.  The
    output is the canonical representative of the row space.
    """
    echelon = {}
    for row in rows:
        _reduce(field, echelon, row)
    pivots = sorted(echelon)
    # back-substitution: each row is cleared at the pivots above its own
    out = []
    for p in reversed(pivots):
        out.append(reduce_vector(field, out, echelon[p]))
    out.reverse()
    return out, pivots


def reduce_vector(field: GF2k, rows, v: int) -> int:
    """Residual of ``v`` after eliminating against canonical ``rows``."""
    k, mask = field.k, field.mask
    for row in rows:
        p = ((row & -row).bit_length() - 1) // k
        c = (v >> (p * k)) & mask
        if c:
            v ^= row if c == 1 else vscale(field, row, c)
    return v


def combine(field: GF2k, basis, coeffs: int) -> int:
    """The linear combination sum_j c_j * basis[j], ``coeffs`` packed.

    Coordinates of ``coeffs`` past the end of ``basis`` are ignored.
    """
    k, mask = field.k, field.mask
    v = 0
    for b in basis:
        c = coeffs & mask
        if c:
            v ^= b if c == 1 else vscale(field, b, c)
        coeffs >>= k
    return v


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------

class Matrix:
    """A dense matrix over GF(2^k) stored as packed rows."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: GF2k, nrows: int, ncols: int, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_entries(cls, field: GF2k, entries) -> "Matrix":
        entries = [list(r) for r in entries]
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        return cls(field, nrows, ncols, (vector(field, r) for r in entries))

    @classmethod
    def identity(cls, field: GF2k, n: int) -> "Matrix":
        return cls(field, n, n, (unit(field, i) for i in range(n)))

    @classmethod
    def zero(cls, field: GF2k, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, (0,) * nrows)

    def entries(self):
        return [list(coeffs(self.field, self.ncols, r)) for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, {self.entries()})"

    def entry(self, i: int, j: int) -> int:
        return vget(self.field, self.rows[i], j)

    def transpose(self) -> "Matrix":
        """Row j of the transpose is column j packed as a length-nrows vector."""
        f = self.field
        cols = (vector(f, (vget(f, r, j) for r in self.rows)) for j in range(self.ncols))
        return Matrix(f, self.ncols, self.nrows, cols)

    def matmul(self, other: "Matrix") -> "Matrix":
        """Row i of the product is row i of ``self`` read as coefficients of ``other``'s rows."""
        if self.ncols != other.nrows:
            raise AmbientMismatchError("matmul shape mismatch")
        f = self.field
        return Matrix(f, self.nrows, other.ncols, (combine(f, other.rows, r) for r in self.rows))

    def __matmul__(self, other):
        return self.matmul(other)

    def rank(self) -> int:
        return len(rref_rows(self.field, self.rows)[0])


def rref(m: Matrix) -> Matrix:
    """The unique reduced row-echelon form; zero rows dropped to the bottom."""
    rows, _ = rref_rows(m.field, m.rows)
    rows = rows + [0] * (m.nrows - len(rows))
    return Matrix(m.field, m.nrows, m.ncols, rows)


def nullspace(m: Matrix) -> "Subspace":
    """Solution space of M*x = 0."""
    f, n = m.field, m.ncols
    return Subspace.from_vectors(f, n, kernel_of_map(f, Subspace.full(f, n).rows, m.transpose().rows))


def _tag_shift(field: GF2k, vectors) -> int:
    """Bit offset of a tag block above every vector, on a coordinate boundary."""
    k = field.k
    width = max((v.bit_length() for v in vectors), default=0)
    return ((width + k - 1) // k) * k


def kernel_of_map(field: GF2k, basis, images) -> list:
    """Kernel of the linear map sending ``basis[i]`` to ``images[i]``.

    ``images`` are packed vectors in any codomain; the kernel is returned as
    vectors of the domain, the sums of ``c_i * basis[i]`` over the
    solutions c of ``sum c_i * images[i] = 0``, spanning that space and
    independent when ``basis`` is.  Uses tag-augmented elimination: row i
    carries ``basis[i]`` in the high bits above ``images[i]``, and a row
    whose image part cancels already holds a kernel vector in its tag.
    """
    shift = _tag_shift(field, images)
    echelon = {}
    kernel = []
    for b, im in zip(basis, images, strict=True):
        row = _reduce(field, echelon, im | (b << shift), shift // field.k)
        if row and not row & ((1 << shift) - 1):
            kernel.append(row >> shift)
    return kernel


def solve(field: GF2k, images, target: int):
    """One solution x of ``sum x_i * images[i] = target`` or None."""
    shift = _tag_shift(field, list(images) + [target])
    limit = shift // field.k
    echelon = {}
    for i, im in enumerate(images):
        _reduce(field, echelon, im | (unit(field, i) << shift), limit)
    # target - sum x_i images[i] leaves the tag x once its image part is gone
    residual = _reduce(field, echelon, target, 0)
    if residual & ((1 << shift) - 1):
        return None
    return residual >> shift


# ---------------------------------------------------------------------------
# Subspace
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of GF(2^k)^n in canonical (RREF) form.

    Two equal subspaces have identical basis tuples, so ``==`` and ``hash``
    are structural.
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: GF2k, ambient: int, rows):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(rows)  # trusted canonical; use from_vectors otherwise

    @classmethod
    def from_vectors(cls, field: GF2k, ambient: int, vectors_) -> "Subspace":
        rows, _ = rref_rows(field, vectors_)
        return cls(field, ambient, rows)

    @classmethod
    def zero(cls, field: GF2k, ambient: int) -> "Subspace":
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field: GF2k, ambient: int) -> "Subspace":
        return cls(field, ambient, (unit(field, i) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        vecs = [coeffs(self.field, self.ambient, r) for r in self.rows]
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient}: {vecs})"

    def _check_ambient(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.field}^{self.ambient} vs {other.field}^{other.ambient}"
            )

    def reduce(self, v: int) -> int:
        return reduce_vector(self.field, self.rows, v)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_space(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(r) for r in other.rows)

    def __le__(self, other):
        return other.contains_space(self)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, self.rows + other.rows)

    def __add__(self, other):
        return self.sum(other)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection.

        Rows (u | u) for u in self and (v | 0) for v in other are reduced in
        one pass; the residuals whose left half cancels carry a basis of the
        intersection in their right half (the stored rows' left halves span
        the sum, so the dimension formula holds by construction).  That is
        :func:`kernel_of_map` with the rows of both as images and tags
        u_1, ..., u_d, 0, ..., 0.
        """
        self._check_ambient(other)
        f, n = self.field, self.ambient
        tags = self.rows + (0,) * other.dim
        return Subspace.from_vectors(f, n, kernel_of_map(f, tags, self.rows + other.rows))

    def vectors(self):
        """Every element of the subspace (2^(k*dim) of them)."""
        f = self.field
        for c in range(1 << (f.k * self.dim)):
            yield combine(f, self.rows, c)
