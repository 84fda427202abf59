"""Toral elements, torus recognition, and relative toral rank.

A toral element satisfies t^[2] = t.  Over GF(2) every nonzero element of
a span of pairwise-commuting toral elements is again toral, so the tori
this module finds are exactly the subspaces spanned by commuting toral
sets, and the exhaustive rank search enumerates such subspaces through
their canonical bases: a canonical basis row with a fresh, larger pivot is
itself toral, so each subspace is generated exactly once from the subspace
spanned by its lower-pivot rows.  No visited-set is needed over GF(2); for
k > 1 the search falls back to a memoized variant because canonical rows
need not be toral there.

Toral elements are found by one bit-sliced kernel for every field degree:
x -> x^[2] + x is a quadratic map of the k*n raw bits of x, so it is
evaluated on all 2^12 assignments of a low block of bits at once, one
truth-table int per output coordinate, while a Gray-code walk over the
remaining high bits updates each table by xor on every flip (see
:func:`toral_elements`).  The torus search keeps its candidate sets as
bitsets over toral indices.

Rank values are relative to the coefficient field: over a small field a
2-map can be invertible on an abelian subalgebra that contains no toral
element at all, and such subspaces are invisible to a toral-basis search.
Callers who care should compare ranks across field degrees (the command
line surface reports this per degree).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, centralizer
from .errors import BudgetExceededError, FieldTooSmallError, PreconditionError
from .linalg import (
    Subspace,
    _reduce,
    combine,
    kernel_of_map,
    reduce_vector,
    rref_rows,
    solve,
    unit,
)
from .restricted import TwoMap, square

TORAL_ENUM_BITS = 24        # ceiling on k*n for exhaustive toral enumeration
TORAL_BASIS_ENUM_BITS = 20  # ceiling on k*dim(u) for k>1 toral-basis search
_LOW_BITS = 12              # low-block width of the bit-sliced toral enumeration


@dataclass(frozen=True)
class Torus:
    """A torus together with a basis of toral elements."""

    subspace: Subspace
    toral_basis: tuple

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def __repr__(self):
        return f"Torus(dim {self.dim})"


@dataclass(frozen=True)
class RankResult:
    rank: int
    certificate: Torus
    mode: str  # "exhaustive" (true maximum) or "greedy" (lower bound)

    @property
    def is_lower_bound_only(self) -> bool:
        return self.mode == "greedy"


def _xor_into(tables, v, mask):
    """tables[q] ^= mask for every set bit q of v."""
    while v:
        low = v & -v
        tables[low.bit_length() - 1] ^= mask
        v ^= low


def toral_elements(g: LieAlgebra, tm: TwoMap, budget_bits: int = TORAL_ENUM_BITS):
    """All nonzero t with t^[2] = t, by exhaustive enumeration, sorted ascending.

    Over the k*n raw bits x_a of a vector, F(x) = x^[2] + x is quadratic:
    F(x) = sum_a x_a F(u_a) + sum_{a<b} x_a x_b P(u_a, u_b), where u_a = 1 << a
    and P is the polar form of squaring (the bracket, by the sum axiom; for
    k > 1 too, since Frobenius is additive).  The bits split into a low block
    of h = min(k*n, _LOW_BITS) bits and a high block.  F is evaluated on all
    2^h low assignments at once, bit-sliced: coordinate q of F is one 2^h-bit
    int whose bit i is that coordinate at low assignment i.  The high block is
    walked in Gray-code order; flipping high bit u_b adds the constant
    F(u_b) + P(hi, u_b) and the cross term P(lo, u_b), which is linear in the
    low bits and comes from a per-flip table.  The torals under one high
    assignment are the low assignments at which no coordinate is set.
    """
    f, n = g.field, g.dim
    bits = f.k * n
    if bits > budget_bits:
        raise BudgetExceededError(
            f"toral enumeration needs 2^{bits} candidates, budget is 2^{budget_bits}; "
            "shrink the field or use the greedy search"
        )
    sq = [square(g, tm, 1 << a) for a in range(bits)]
    lin = [s ^ (1 << a) for a, s in enumerate(sq)]  # F(u_a)
    polar = [[0] * bits for _ in range(bits)]  # P(u_a, u_b)
    for a in range(bits):
        for b in range(a + 1, bits):
            polar[a][b] = polar[b][a] = square(g, tm, (1 << a) | (1 << b)) ^ sq[a] ^ sq[b]

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
    flips = []  # flips[b - h]: coordinate tables of P(lo, u_b)
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
            const = lin[b]  # F(u_b) + P(hi, u_b)
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

    Over GF(2) the squaring map restricted to a torus is linear, so the
    fixed space is one kernel computation; a toral basis exists iff every
    element of u is fixed.  Over proper extensions the fixed points are
    found by enumeration, and may fail to span u even though u is a torus;
    that failure is reported as FieldTooSmallError because the missing
    basis lives in a larger field.
    """
    if not is_torus(g, tm, u):
        raise PreconditionError("toral_basis requires a torus")
    f = g.field
    if u.dim == 0:
        return []
    if f.k == 1:
        # coordinates of square(r_i) in the basis of u
        d = u.dim
        cols = []
        for i, r in enumerate(u.rows):
            c = solve(f, list(u.rows), square(g, tm, r))
            cols.append(c ^ unit(f, i))  # column i of (S + I) in u-coordinates
        fixed = kernel_of_map(f, d, cols)
        if fixed.dim != d:
            raise FieldTooSmallError(
                "torus has no basis of toral elements over GF(2); extend the field"
            )
        return [combine(f, u.rows, c) for c in fixed.rows]
    if f.k * u.dim > TORAL_BASIS_ENUM_BITS:
        raise BudgetExceededError("toral basis search over extension field exceeds budget")
    # the first toral elements, in enumeration order, that are independent
    basis, echelon = [], {}
    for v in u.vectors():
        if v and square(g, tm, v) == v and _reduce(f, echelon, v):
            basis.append(v)
            if len(basis) == u.dim:
                return basis
    raise FieldTooSmallError(
        "torus has no basis of toral elements over this field; extend the field"
    )


# ---------------------------------------------------------------------------
# maximal torus search
# ---------------------------------------------------------------------------

def _max_toral_span_gf2(g: LieAlgebra, torals):
    """Maximum-dimension span of pairwise-commuting torals over GF(2).

    Orderly generation over canonical bases (see the module docstring): a
    state is extended only by torals that are reduced against its rows and
    carry a strictly larger pivot, so every commuting toral subspace is
    generated exactly once and no visited-set is needed.  Since canonical
    rows have pairwise-distinct pivots, the number of distinct candidate
    pivots above the current one bounds all further growth; that prune
    collapses the search as soon as one maximum-dimension span is found.
    Candidate sets are bitsets over toral indices, visited in ascending
    index order.  Returns (rows, generators).
    """
    f, n = g.field, g.dim
    everyone = (1 << len(torals)) - 1
    piv = [(t & -t).bit_length() - 1 for t in torals]
    has = [0] * n      # has[q]: torals with coordinate q set
    pivots = [0] * n   # pivots[q]: torals with pivot q
    for j, t in enumerate(torals):
        _xor_into(has, t, 1 << j)
        pivots[piv[j]] |= 1 << j
    above = [0] * n    # above[p]: torals with pivot greater than p
    for p in range(n - 2, -1, -1):
        above[p] = above[p + 1] | pivots[p + 1]
    table = g.table
    adj = {}

    def commuting(i):
        """The torals that commute with torals[i], as a bitset."""
        s = adj.get(i)
        if s is None:
            cols = [0] * n  # cols[q] = [torals[i], e_q]
            t = torals[i]
            while t:
                low = t & -t
                cols = [c ^ x for c, x in zip(cols, table[low.bit_length() - 1])]
                t ^= low
            coords = [0] * n  # coordinate r of [torals[i], torals[j]], every j at once
            for q, col in enumerate(cols):
                _xor_into(coords, col, has[q])
            nonzero = 0
            for c in coords:
                nonzero |= c
            s = adj[i] = everyone & ~nonzero
        return s

    # Generators are added in strictly increasing pivot order, so they stay
    # independent and only the best span needs reducing.
    best: tuple = ()

    def visit(gens, cand):
        nonlocal best
        if len(gens) > len(best):
            best = gens
        if not cand:
            return
        pivset = [q for q in range(n) if cand & pivots[q]]
        if len(gens) + len(pivset) <= len(best):
            return
        # growth bound of each child: its own row plus the pivots above it
        bound = {q: len(gens) + len(pivset) - i for i, q in enumerate(pivset)}
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            idx = low.bit_length() - 1
            p = piv[idx]
            if bound[p] > len(best):
                sub = cand & above[p] & commuting(idx)
                if sub or len(gens) >= len(best):  # a leaf matters only as a new best
                    visit(gens + (torals[idx],), sub)

    visit((), everyone)
    return tuple(rref_rows(f, list(best))[0]), best


def _max_toral_span_generic(g: LieAlgebra, tm: TwoMap, torals):
    """Memoized search for k > 1, where canonical rows need not be toral."""
    f, n = g.field, g.dim
    seen = set()
    best = ((), ())

    def visit(rows, gens, cands):
        nonlocal best
        key = tuple(rows)
        if key in seen:
            return
        seen.add(key)
        if len(rows) > len(best[0]):
            best = (tuple(rows), tuple(gens))
        for v in cands:
            if reduce_vector(f, rows, v) == 0:
                continue
            new_rows, _ = rref_rows(f, rows + [v])
            new_cands = [w for w in cands if g.bracket(v, w) == 0]
            visit(new_rows, gens + [v], new_cands)

    visit([], [], list(torals))
    return best


def maximal_torus(g: LieAlgebra, tm: TwoMap, mode: str = "exhaustive") -> Torus:
    """A maximal torus: true maximum in exhaustive mode, greedy otherwise.

    Greedy extends by the lexicographically smallest toral element of the
    centralizer of the current torus until none exists; over GF(2) the
    result is maximal (not necessarily maximum).
    """
    f, n = g.field, g.dim
    if mode == "exhaustive":
        torals = toral_elements(g, tm)
        if not torals:
            return Torus(Subspace.zero(f, n), ())
        if f.k == 1:
            rows, gens = _max_toral_span_gf2(g, torals)
        else:
            rows, gens = _max_toral_span_generic(g, tm, torals)
        return Torus(Subspace(f, n, rows), tuple(gens))
    if mode != "greedy":
        raise ValueError(f"unknown search mode {mode!r}")

    echelon: dict = {}
    gens: list = []
    current = Subspace.zero(f, n)
    while True:
        z = centralizer(g, current)
        if f.k * z.dim > TORAL_ENUM_BITS:
            raise BudgetExceededError("greedy step exceeds the enumeration budget")
        # ambient-lexicographic candidate order keeps runs deterministic
        candidates = sorted(z.vectors()) if f.k * z.dim <= 20 else z.vectors()
        for v in candidates:
            if v and square(g, tm, v) == v and _reduce(f, echelon, v):
                break
        else:
            break
        gens.append(v)
        current = Subspace(f, n, rref_rows(f, echelon.values())[0])
    return Torus(current, tuple(gens))


def toral_rank(g: LieAlgebra, tm: TwoMap, mode: str = "exhaustive") -> RankResult:
    """Relative toral rank with a witness torus.

    Exhaustive mode returns the maximum torus dimension over the current
    coefficient field; greedy mode returns a lower bound flagged as such.
    """
    t = maximal_torus(g, tm, mode)
    return RankResult(t.dim, t, mode)
