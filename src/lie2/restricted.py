"""The squaring operation of a restricted Lie algebra in characteristic 2.

A 2-map is determined by the images of the basis vectors: for
``x = sum c_i b_i`` the squaring axioms force

    x^[2] = sum c_i^2 b_i^[2]  +  sum_{i<j} c_i c_j [b_i, b_j],

so :func:`square` evaluates that extension rule, on the raw bits of x for
every k (:attr:`lie2.algebra.LieAlgebra.raw`).  The scalar axiom
``(c x)^[2] = c^2 x^[2]`` holds by construction, and so does the sum axiom
``(x+y)^[2] = x^[2] + y^[2] + [x, y]``, on every
:class:`~lie2.algebra.LieAlgebra`, whose table is alternating and symmetric
by construction; both identities are property tests of :func:`square`, not
runtime checks.  What genuinely needs checking is the adjoint axiom
``ad(x^[2]) = ad(x)^2``; its defect is additive once the Jacobi identity
holds (the cross terms cancel) and scales by c^2, so the basis vectors
decide it, and :func:`verify_two_map` checks those n vectors only.  The
span of the squares of a subspace V is the span of its basis squares plus
[V, V] by the same rule (:func:`span_of_squares`).

Semisimple and 2-nilpotent parts are computed from the orbit of iterated
squaring: on the span of the iterates of ``x`` squaring is an additive
(Frobenius-semilinear) map, so the orbit is eventually periodic, the
nilpotent part dies within dim-many steps, and iterating to a multiple of
the period past that point lands exactly on the semisimple part.  Spans of
iterates grow one vector at a time on the elimination primitive of
:mod:`lie2.linalg`.

:func:`subquotient` is the one change-of-basis, subalgebra and quotient
constructor; :func:`extend_scalars` changes the field, not the basis.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import LieAlgebra, bracket_span
from .errors import FixtureError, PreconditionError
from .field import gf
from .linalg import Subspace, _reduce, rref_rows, solve, unit, vscale


class TwoMap:
    """A candidate 2-map, given by the images of the basis vectors."""

    __slots__ = ("images", "_raw")

    def __init__(self, images):
        self.images = tuple(images)
        self._raw = {}  # field degree -> images of the raw bits, see _raw_images

    def __repr__(self):
        return f"TwoMap({len(self.images)} basis images)"

    def __eq__(self, other):
        return isinstance(other, TwoMap) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


class TwoMapReport:
    """Violations found by :func:`verify_two_map`."""

    def __init__(self, adjoint):
        # [(vector, witness basis index)] where ad(x^[2]) != ad(x)^2
        self.adjoint_violations = adjoint

    @property
    def ok(self) -> bool:
        return not self.adjoint_violations

    def __repr__(self):
        if self.ok:
            return "TwoMapReport(ok)"
        return f"TwoMapReport(adjoint={self.adjoint_violations[:4]})"


def _raw_images(g: LieAlgebra, tm: TwoMap):
    """(u_a)^[2] = w^(2s) e_i^[2] for every raw bit u_a = w^s e_i, once per 2-map and k."""
    f, k = g.field, g.field.k
    raw = tm._raw.get(k)
    if raw is None:
        w2 = [f.pow(2, 2 * s) for s in range(k)]
        raw = tm._raw[k] = tuple(vscale(f, v, c) for v in tm.images for c in w2)
    return raw


def square(g: LieAlgebra, tm: TwoMap, x: int) -> int:
    """x^[2] by the extension rule, over the raw bits of x.

    Frobenius is additive, so c_i^2 e_i^[2] sums raw images, and c_i c_j [e_i, e_j]
    sums ``g.raw[a][b]`` over the set bits a < b of x in coordinates i < j.
    """
    k = g.field.k
    table, images = g.raw, tm._raw.get(k) or _raw_images(g, tm)
    acc = 0
    later, same, coord = [], [], -1  # set bits of x in coordinates above a's, in a's
    while x:  # from the top bit down
        a = x.bit_length() - 1
        x ^= 1 << a
        if a // k != coord:
            later += same
            same, coord = [], a // k
        same.append(a)
        acc ^= images[a]
        row = table[a]
        for b in later:
            acc ^= row[b]
    return acc


def iterate_square(g: LieAlgebra, tm: TwoMap, x: int, m: int) -> int:
    """m-fold application of the squaring map."""
    for _ in range(m):
        x = square(g, tm, x)
    return x


def _ad_defect_witness(g: LieAlgebra, tm: TwoMap, x: int):
    """First basis index where ad(x^[2]) and ad(x)^2 disagree, or None."""
    sq = square(g, tm, x)
    for j, (s, y) in enumerate(zip(g.ad(sq), g.ad(x))):
        if s != g.bracket(x, y):  # [x^[2], b_j] against [x, [x, b_j]]
            return j
    return None


def verify_two_map(g: LieAlgebra, tm: TwoMap) -> TwoMapReport:
    """Check the adjoint axiom, the one squaring axiom :func:`square` leaves open.

    It is checked on the basis vectors, which suffices once the Jacobi
    identity holds (see the module docstring).  The scalar and sum axioms
    are identities of the extension rule.
    """
    if len(tm.images) != g.dim:
        raise PreconditionError("two-map image count differs from algebra dimension")
    f, n = g.field, g.dim
    adjoint = []
    for i in range(n):
        w = _ad_defect_witness(g, tm, unit(f, i))
        if w is not None:
            adjoint.append((unit(f, i), w))
    return TwoMapReport(adjoint)


def span_of_squares(g: LieAlgebra, tm: TwoMap, u: Subspace) -> Subspace:
    """span{v^[2] : v in u}: the squares of u's basis plus [u, u]."""
    squares = Subspace.from_vectors(g.field, g.dim, [square(g, tm, b) for b in u.rows])
    return squares.sum(bracket_span(g, u, u))


# ---------------------------------------------------------------------------
# orbit of iterated squaring
# ---------------------------------------------------------------------------

def _orbit(g: LieAlgebra, tm: TwoMap, x: int):
    """Iterates x, x^[2], x^[4], ... until the first repeat.

    Returns (sequence, preperiod, period): sequence[preperiod + period]
    would equal sequence[preperiod].
    """
    seen = {}
    seq = []
    cur = x
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = square(g, tm, cur)
    first = seen[cur]
    return seq, first, len(seq) - first


def is_two_nilpotent(g: LieAlgebra, tm: TwoMap, x: int) -> bool:
    """True iff some iterated square of x is zero.

    The iterates are eventually periodic, so zero appears within the orbit
    or never; no a-priori iteration bound is needed.
    """
    seq, _first, _period = _orbit(g, tm, x)
    return 0 in seq


def _iterate_span(g: LieAlgebra, tm: TwoMap, x: int) -> dict:
    """Echelon of span{x, x^[2], x^[4], ...}, grown until an iterate adds nothing."""
    f = g.field
    echelon = {}
    while _reduce(f, echelon, x):
        x = square(g, tm, x)
    return echelon


def is_semisimple(g: LieAlgebra, tm: TwoMap, x: int) -> bool:
    """True iff x lies in the span of its own iterated squares x^[2], x^[4], ..."""
    echelon = _iterate_span(g, tm, square(g, tm, x))
    return _reduce(g.field, echelon, x, 0) == 0


def two_envelope(g: LieAlgebra, tm: TwoMap, x: int) -> Subspace:
    """span{x, x^[2], x^[4], ...} up to stabilization."""
    rows, _ = rref_rows(g.field, _iterate_span(g, tm, x).values())
    return Subspace(g.field, g.dim, rows)


def jcs_decompose(g: LieAlgebra, tm: TwoMap, x: int):
    """Split x = x_s + x_n into commuting semisimple and 2-nilpotent parts.

    The iterates x, x^[2], x^[4], ... repeat with period p from the
    preperiod q on.  The iterates of x_n die and those of x_s cycle with
    period p, so the M-th iterate is x_s at every multiple M of p with
    M >= q; the least such M lies in the detected orbit.  The split is
    checked before returning: under a 2-map that is not semilinear (a
    corrupted input) that iterate need not be semisimple.
    """
    seq, first, period = _orbit(g, tm, x)
    xs = seq[-(-first // period) * period]
    xn = x ^ xs
    if not (
        is_semisimple(g, tm, xs)
        and is_two_nilpotent(g, tm, xn)
        and g.bracket(xs, xn) == 0
    ):
        raise PreconditionError(
            "no commuting semisimple/2-nilpotent split found; "
            "input is not a verified restricted algebra"
        )
    return xs, xn


def extend_scalars(g: LieAlgebra, tm: TwoMap, k: int):
    """View a GF(2) algebra over GF(2^k) (same structure constants).

    Only prime-field inputs are supported: 0/1 coefficients embed into
    every extension, whereas embedding a proper extension into another
    would depend on a choice of field homomorphism.
    """
    if g.field.k != 1:
        raise PreconditionError("scalar extension is implemented from GF(2) only")
    f2 = gf(k)
    if k == 1:
        return g, tm

    def spread(v: int) -> int:
        out, i = 0, 0
        while v:
            if v & 1:
                out |= 1 << (i * k)
            v >>= 1
            i += 1
        return out

    pairs = {(i, j): spread(g.table[i][j]) for i in range(g.dim) for j in range(i + 1, g.dim)}
    g2 = LieAlgebra(f2, g.dim, pairs, g.name)
    return g2, TwoMap([spread(x) for x in tm.images])


def subquotient(g: LieAlgebra, tm: TwoMap, basis, ideal=(), name=None):
    """The algebra on ``basis`` modulo ``ideal``: a change of basis, subalgebra or quotient.

    Each [b_i, b_j] (i < j) and b_i^[2] is solved for in ``basis + ideal``
    (:func:`lie2.linalg.solve`) and its ideal coordinates dropped; one that
    leaves the span raises :class:`~lie2.errors.FixtureError`.  That ``basis
    + ideal`` is independent and ``ideal`` a restricted ideal of the
    subalgebra they span is the caller's precondition, as for ``LieAlgebra``.
    """
    f, basis = g.field, list(basis)
    span, mask = basis + list(ideal), (1 << (len(basis) * f.k)) - 1

    def coords(v: int) -> int:
        c = solve(f, span, v)
        if c is None:
            raise FixtureError(f"{name or g.name}: a bracket or square leaves the span")
        return c & mask

    pairs = {(i, j): coords(g.bracket(basis[i], basis[j])) for i, j in combinations(range(len(basis)), 2)}
    images = [coords(square(g, tm, b)) for b in basis]
    return LieAlgebra(f, len(basis), pairs, name or g.name), TwoMap(images)
