"""Toral elements, torus recognition, and relative toral rank.

A toral element satisfies t^[2] = t.  A vector over GF(2^k) is an int of
k*n raw bits, and the torus search and the toral-basis computation work on
those bits over GF(2), for every k.  Two facts make that exact:

1. If s and t are commuting torals, (s + t)^[2] = s^[2] + t^[2] + [s, t]
   = s + t, so their xor is toral, and the GF(2)-span of pairwise-commuting
   torals consists of torals.  In particular the canonical rows of such a
   span over the raw bits are toral and carry pairwise-distinct pivots
   (lowest set bits).  Rows in GF(2^k)-echelon form need not be toral when
   k > 1; raw-bit rows always are.
2. On an abelian subalgebra squaring is additive and Frobenius-semilinear,
   (c x)^[2] = c^2 x^[2], and torals are its fixed points.  A shortest
   GF(2^k)-relation sum c_i t_i = 0 among commuting torals with c_1 = 1
   squares to sum c_i^2 t_i = 0; the sum of the two is shorter, so it is
   trivial and every c_i lies in GF(2).  Hence GF(2)-independent commuting
   torals are GF(2^k)-independent, and the GF(2)-dimension of a span of
   commuting torals is the dimension of the torus it spans over GF(2^k).

So the tori with a toral basis are exactly the spans of commuting toral
sets.  :func:`maximal_torus` is the one way to a torus and the toral
rank: it enumerates every toral and searches the GF(2)-spans of
commuting torals for one of maximum dimension.  A reduced echelon basis
is unique in any order of the raw bits, so the search fixes one order,
the bit set in the most torals first, and reaches each span exactly once,
through its reduced echelon basis in that order, with no visited-set.
The span found is returned as its reduced echelon basis in index order,
which depends only on the span.

Toral elements are the zeros of F(x) = x^[2] + x, a quadratic map of the
k*n raw bits of x whose cross terms are the brackets [u_a, u_b] of raw
bits in different coordinates.  Two kernels find them (see
:func:`toral_elements`).  Once the raw bits W of a vertex cover of the
basis bracket graph are fixed, every cross term has a fixed factor, so F
is linear in the other bits: the solve walk takes the 2^|W| assignments
of W in Gray-code order, with one linear solve each.  On a root-vector
basis the torus covers the brackets and |W| is k*rank.  Where the cover is
most of the basis (sl(n), gl(n), witt(m), any random basis) the bit-sliced
kernel runs instead: it evaluates F on all 2^12 assignments of a low block
of bits at once, one truth-table int per output coordinate, while a
Gray-code walk over the remaining high bits updates each table by xor on
every flip.  The choice compares the two walks' sizes.  Both kernels and
the torus search, whose candidate sets are bitsets over toral indices,
read the algebra's raw-bit bracket table.  The search's set-up is linear
in the number of torals: their raw-bit columns are read in C from one
byte string (:func:`_bit_columns`), and each search state walks its
candidates pivot class by pivot class, stopping once the classes left
are too few to beat the best span found so far.

Rank values are relative to the coefficient field: over a small field a
2-map can be invertible on an abelian subalgebra that contains no toral
element at all, and such subspaces are invisible to a toral-basis search.
Callers who care should compare ranks across field degrees (the command
line surface reports this per degree).
"""

from __future__ import annotations

import sys
from array import array
from operator import xor

from .algebra import LieAlgebra
from .errors import BudgetExceededError, FieldTooSmallError, PreconditionError
from .field import gf
from .linalg import Subspace, _reduce, kernel_of_map, reduce_vector, rref_rows, vscale
from .record import Record
from .restricted import TwoMap, _raw_images, square

TORAL_ENUM_BITS = 24        # ceiling on k*n for exhaustive toral enumeration
_LOW_BITS = 12              # low-block width of the bit-sliced toral enumeration
_F2 = gf(1)
assert array("I").itemsize * 8 >= TORAL_ENUM_BITS  # _bit_columns packs a toral per item


class Torus(Record):
    """A torus together with a basis of toral elements."""

    __slots__ = ("subspace", "toral_basis")  # Subspace, tuple

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def __repr__(self):
        return f"Torus(dim {self.dim})"


def _xor_into(tables, v, mask):
    """tables[q] ^= mask for every set bit q of v."""
    while v:
        low = v & -v
        tables[low.bit_length() - 1] ^= mask
        v ^= low


def toral_elements(g: LieAlgebra, tm: TwoMap):
    """All nonzero t with t^[2] = t, by exhaustive enumeration, sorted ascending.

    Over the k*n raw bits x_a of a vector, F(x) = x^[2] + x is quadratic:
    F(x) = sum_a x_a F(u_a) + sum_{a<b} x_a x_b [u_a, u_b], where u_a = 1 << a
    and the cross term [u_a, u_b] = ``g.raw[a][b]`` is zero within one
    coordinate (see :func:`lie2.restricted.square`).  Two kernels solve
    F(x) = 0.  The bit-sliced one (:func:`_torals_sliced`) walks
    2^(k*n - h) assignments of the high bits, h = min(k*n, _LOW_BITS), each
    evaluating F on all 2^h low assignments at once.  The solve walk
    (:func:`_torals_solved`) fixes the raw bits W of a vertex cover of the
    basis bracket graph (:func:`_cover`): every cross term then has a fixed
    factor, so F is linear in the other bits and each of the 2^|W|
    assignments costs one linear solve.  The solve walk runs iff
    2^|W| < h * 2^(k*n - h) or W is empty (F is then linear), which holds
    on root-vector bases, where the torus covers the brackets; on sl(n),
    gl(n), witt(m) or a random basis the cover is most of the basis and
    the bit-sliced kernel runs.
    """
    bits = g.field.k * g.dim
    if bits > TORAL_ENUM_BITS:
        raise BudgetExceededError(
            f"toral enumeration needs 2^{bits} candidates, budget is 2^{TORAL_ENUM_BITS}"
        )
    cover = _cover(g)
    return _torals_sliced(g, tm) if cover is None else _torals_solved(g, tm, cover)


def _cover(g: LieAlgebra):
    """A vertex cover of the basis bracket graph, or None where the solve walk loses.

    b_i and b_j are joined when [b_i, b_j] != 0, which is when some cross
    term [u_a, u_b] of their raw bits is.  The basis is taken by ascending
    degree, then index; a vector joined to one already left out joins the
    cover, so the vectors left out pairwise commute.  The greedy stops with
    None as soon as a vector joining the cover makes its 2^|W| assignments
    reach h * 2^(k*n - h), h = min(k*n, _LOW_BITS): the bit-sliced walk's
    2^(k*n - h) steps, each counted as h solve steps.  Costs O(n^2) on the
    basis, in C, not O((k*n)^2) on the raw bits.
    """
    k, table = g.field.k, g.table
    bits = k * g.dim
    h = min(bits, _LOW_BITS)
    limit = h << (bits - h)
    zeros = [row.count(0) for row in table]
    cover, out = [], []
    for i in sorted(range(g.dim), key=zeros.__getitem__, reverse=True):  # stable
        if any(map(table[i].__getitem__, out)):
            cover.append(i)
            if 1 << (k * len(cover)) >= limit:
                return None
        else:
            out.append(i)
    return cover


def _torals_sliced(g: LieAlgebra, tm: TwoMap):
    """The torals by the bit-sliced Gray-code walk (Bouillaguet et al., CHES 2010).

    The raw bits split into a low block of h = min(k*n, _LOW_BITS) bits and a
    high block.  F is evaluated on all 2^h low assignments at once,
    bit-sliced: coordinate q of F is one 2^h-bit int whose bit i is that
    coordinate at low assignment i.  The high block is walked in Gray-code
    order; flipping high bit u_b adds the constant F(u_b) + [hi, u_b] and
    the cross term [lo, u_b], which is linear in the low bits and comes from
    a per-flip table.  The torals under one high assignment are the low
    assignments at which no coordinate is set.
    """
    bits = g.field.k * g.dim
    polar = g.raw  # [u_a, u_b], zero within a coordinate
    lin = [s ^ (1 << a) for a, s in enumerate(_raw_images(g, tm))]  # F(u_a)
    h = min(bits, _LOW_BITS)
    full = (1 << (1 << h)) - 1
    # xs[a]: the low assignments with bit a set
    xs = [full // ((1 << (2 << a)) - 1) * (((1 << (1 << a)) - 1) << (1 << a))
          for a in range(h)]
    cur = [0] * bits  # coordinate tables of F(lo + hi), hi = 0 to start
    for a in range(h):
        _xor_into(cur, lin[a], xs[a])
        for b in range(a + 1, h):
            _xor_into(cur, polar[a][b], xs[a] & xs[b])
    flips = []  # flips[b - h]: coordinate tables of [lo, u_b]
    for b in range(h, bits):
        tables = [0] * bits
        for a in range(h):
            _xor_into(tables, polar[a][b], xs[a])
        flips.append(tables)

    out = []
    hi = 0
    for step in range(1 << (bits - h)):
        if step:  # flip high bit h + b, b the lowest set bit of step
            b = (step & -step).bit_length() - 1
            cur = [t ^ d for t, d in zip(cur, flips[b])]
            b += h
            const = lin[b]  # F(u_b) + [hi, u_b]
            rest = hi
            while rest:
                low = rest & -rest
                const ^= polar[b][low.bit_length() - 1]
                rest ^= low
            _xor_into(cur, const, full)
            hi ^= 1 << b
        nonzero = 0
        for t in cur:
            nonzero |= t
        zeros = full ^ nonzero
        while zeros:
            low = zeros & -zeros
            out.append(hi | (low.bit_length() - 1))
            zeros ^= low
    out.remove(0)  # F(0) = 0
    out.sort()
    return out


def _torals_solved(g: LieAlgebra, tm: TwoMap, cover):
    """The torals by one linear solve per assignment of the cover's raw bits W.

    For w over W and y over the other bits S, no two of which have a cross
    term, F(w + y) = F(w) + M(w) y, where column s of M(w) is
    F(u_s) + [w, u_s].  So the torals over w are empty or one coset
    y_p + ker M(w).  W is walked in Gray-code order; flipping u_a adds
    cols[a] = F(u_a) + [w, u_a] to F(w) and the row ``g.raw[a]`` to every
    column, one xor each.  Each step is one tag-augmented elimination
    through :func:`lie2.linalg._reduce`: column s carries raw bit s
    mirrored into a tag block above the image, so a column whose image
    cancels (a zero column at once) holds a kernel vector in its tag, and
    F(w) reduced against the stored columns leaves y_p in its tag or has
    no solution.  The columns go in ascending s, so the kernel vector found
    at column s has highest raw bit s, its lowest tag bit once mirrored;
    :func:`lie2.linalg.reduce_vector` against the earlier ones clears their
    highest bits from it and then from y_p.  Doubling the coset over that
    reduced basis, lowest leading bit first, emits it in ascending order,
    so the final sort only merges one sorted run per w.
    """
    k = g.field.k
    bits = k * g.dim
    raw = g.raw
    cols = [s ^ (1 << a) for a, s in enumerate(_raw_images(g, tm))]  # F(u_a) + [w, u_a]
    covered = set(cover)
    walk = [i * k + s for i in cover for s in range(k)]
    free = [(a, 1 << (2 * bits - 1 - a)) for a in range(bits) if a // k not in covered]
    image = (1 << bits) - 1
    mirror = f"0{bits}b"  # format(t, mirror)[::-1] reads a tag in raw bit order

    out = []
    fw = w = 0
    for step in range(1 << len(walk)):
        if step:  # flip u_a, a the raw bit of the lowest set bit of step
            a = walk[(step & -step).bit_length() - 1]
            fw ^= cols[a]
            cols = list(map(xor, cols, raw[a]))
            w ^= 1 << a
        echelon = {}
        kernel = []
        for a, tag in free:
            c = cols[a]
            row = _reduce(_F2, echelon, c | tag, bits) if c else tag
            if not row & image:  # tag bit a and tag bits of raw bits below a
                kernel.append(row >> bits)
        y = _reduce(_F2, echelon, fw, 0)
        if y & image:
            continue
        basis = []  # reduced, by ascending highest raw bit
        for v in kernel:
            basis.append(reduce_vector(_F2, basis, v))
        run = [w | int(format(reduce_vector(_F2, basis, y >> bits), mirror)[::-1], 2)]
        for b in basis:
            b = int(format(b, mirror)[::-1], 2)
            run += [v ^ b for v in run]
        out += run
    out.remove(0)  # F(0) = 0
    out.sort()
    return out


def is_torus(g: LieAlgebra, tm: TwoMap, u: Subspace) -> bool:
    """Abelian, closed under squaring, and squaring invertible on u.

    Invertibility is equivalent to the basis squares being independent,
    and to u containing no nonzero 2-nilpotent element.
    """
    rows = u.rows
    for i, r in enumerate(rows):
        for s in rows[i + 1:]:
            if g.bracket(r, s):
                return False
    squares = [square(g, tm, r) for r in rows]
    if not all(u.contains(s) for s in squares):
        return False
    return len(rref_rows(g.field, squares)[0]) == u.dim


def toral_basis(g: LieAlgebra, tm: TwoMap, u: Subspace):
    """A basis of u consisting of toral elements.

    On a torus the map x -> x^[2] + x is GF(2)-linear (u is abelian, so the
    cross term [x, y] of squaring a sum vanishes), and its kernel over GF(2)
    is the set of toral elements of u.  The kernel is computed on the raw
    spanning set {w^s * r : r a row of u, 0 <= s < k}, where w = x and
    w^0, ..., w^(k-1) are a GF(2)-basis of GF(2^k).  GF(2)-independent torals are GF(2^k)-independent (see the
    module docstring), so a toral basis exists iff the kernel has dimension
    dim(u).  Otherwise the missing basis lives in a larger field, which is
    reported as FieldTooSmallError.
    """
    if not is_torus(g, tm, u):
        raise PreconditionError("toral_basis requires a torus")
    f = g.field
    raw = [vscale(f, r, f.pow(2, s)) for r in u.rows for s in range(f.k)]
    torals = kernel_of_map(gf(1), raw, [square(g, tm, v) ^ v for v in raw])
    if len(torals) != u.dim:
        raise FieldTooSmallError(
            "torus has no basis of toral elements over this field; extend the field"
        )
    return torals


# ---------------------------------------------------------------------------
# maximal torus search
# ---------------------------------------------------------------------------

# _BIT_CHAR[r] maps a byte to ASCII '1' if its bit r is set and '0' otherwise
_BIT_CHAR = [bytes(0x31 if x >> r & 1 else 0x30 for x in range(256)) for r in range(8)]


def _bit_columns(vectors, bits):
    """cols[q]: the indices j with bit q of vectors[j] set, as a bitset over j.

    The vectors are packed by ``array`` into one byte string, little-endian,
    one unsigned int of w bytes each (w >= 3, checked on import).  Column q
    is the stride-w slice of byte q // 8, which ``bytes.translate`` turns
    into one ASCII digit per vector; reversed, so that vector j lands on
    bit j, it is read by ``int(..., 2)``.  Every step runs in C, so the
    columns take time linear in len(vectors) * bits.
    """
    if not vectors:
        return [0] * bits
    packed = array("I", vectors)
    if sys.byteorder == "big":
        packed.byteswap()
    w, packed = packed.itemsize, packed.tobytes()
    return [int(packed[q >> 3::w].translate(_BIT_CHAR[q & 7])[::-1], 2) for q in range(bits)]


def _max_toral_span(g: LieAlgebra, torals):
    """Maximum-dimension span of pairwise-commuting torals.

    The search works on the k*n raw bits of a vector, over GF(2), for every
    field degree k.  Two facts make that enough (see the module docstring):
    the GF(2)-span of commuting torals consists of torals, so each such
    span has a basis of torals with pairwise-distinct pivots, its reduced
    echelon basis; and GF(2)-independent commuting torals are
    GF(2^k)-independent, so the GF(2)-dimension of the span is the
    dimension of the torus it spans.

    A span's reduced echelon basis is unique in any order of the raw bits,
    so the search fixes one, once: the next bit is the one set in the most
    torals not yet placed, ties going to the lowest index, and a toral is
    placed at its pivot, its first set bit in that order.  ``pivots[q]`` is
    the class of torals with pivot q.  A state is extended only by a toral
    that commutes with every generator, has a later pivot than the last
    one, and has its pivot set in no generator; it has no bit set at an
    earlier pivot, since those come before its own.  The generators are
    then the span's reduced echelon basis in this order, so each span is
    reached exactly once.

    A state walks its candidates class by class, in the order, and by index
    within a class.  Every child from class c on builds its span inside the
    classes from c on, with distinct pivots, so the number of those classes
    bounds its growth.  The state stops at the first child that cannot beat
    the best span.  No subtree holding a longer span than the best so far
    is cut, so the result is the first maximum span of the unpruned walk.
    It is returned as its reduced echelon basis over the raw bits in index
    order, which depends only on the span, not on the search order.

    Candidate sets are bitsets over toral indices.  The set-up is linear in
    the number m of torals: the bit columns ``has[q]`` (the torals with raw
    bit q set) are built in C by :func:`_bit_columns`, the order and its
    classes follow from them, and a toral's successors, the torals that may
    follow it as generators, are computed from ``g.raw`` only when it is
    visited.  Returns (rows, generators).
    """
    bits = g.field.k * g.dim
    everyone = (1 << len(torals)) - 1
    has = _bit_columns(torals, bits)
    order = []            # the bit order, up to the last bit that places a toral
    pivots = [0] * bits   # pivots[q]: torals with pivot q
    left = everyone
    while left:
        q = max(range(bits), key=lambda q: (has[q] & left).bit_count())
        order.append(q)
        pivots[q] = has[q] & left
        left ^= pivots[q]
    table = g.raw
    adj = {}

    def successors(i):
        """The torals that commute with torals[i] and whose pivot is not one
        of its set bits, as a bitset."""
        s = adj.get(i)
        if s is None:
            cols = [0] * bits  # cols[q] = [torals[i], u_q]
            drop = 0
            t = torals[i]
            while t:
                low = t & -t
                q = low.bit_length() - 1
                cols = [c ^ x for c, x in zip(cols, table[q])]
                drop |= pivots[q]
                t ^= low
            coords = [0] * bits  # raw bit r of [torals[i], torals[j]], every j at once
            for q, col in enumerate(cols):
                _xor_into(coords, col, has[q])
            for c in coords:
                drop |= c
            s = adj[i] = everyone & ~drop
        return s

    best: tuple = ()

    def visit(gens, cand):
        nonlocal best
        if len(gens) > len(best):
            best = gens
        classes = [c for c in (cand & pivots[q] for q in order) if c]
        for i, rest in enumerate(classes):
            # the children from here build their spans inside classes i on,
            # and the children of class i take generators from later classes
            reach = len(gens) + len(classes) - i
            cand ^= rest
            while rest:
                if reach <= len(best):
                    return
                low = rest & -rest
                rest ^= low
                idx = low.bit_length() - 1
                sub = cand & successors(idx)
                if sub or len(gens) >= len(best):  # a leaf matters only as a new best
                    visit(gens + (torals[idx],), sub)

    visit((), everyone)
    gens = rref_rows(_F2, list(best))[0]
    return tuple(rref_rows(g.field, gens)[0]), tuple(gens)


def maximal_torus(g: LieAlgebra, tm: TwoMap) -> Torus:
    """A torus of maximum dimension, with a toral basis.

    Its dimension is the toral rank of g relative to the coefficient field.
    The torals are enumerated exhaustively and their commuting spans
    searched for one of maximum dimension (see :func:`_max_toral_span`), so
    the answer is the true maximum; an algebra past the enumeration budget
    is refused with BudgetExceededError.
    """
    f, n = g.field, g.dim
    torals = toral_elements(g, tm)
    if not torals:
        return Torus(Subspace.zero(f, n), ())
    rows, gens = _max_toral_span(g, torals)
    return Torus(Subspace(f, n, rows), tuple(gens))
