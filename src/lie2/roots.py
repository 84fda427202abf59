"""Root space decomposition relative to a torus, and its rank-3 taxonomy.

Roots are computed only against bases of toral elements, where every
eigenvalue lies in the prime field: each ad(t_i) is idempotent, hence the
ambient space splits exactly into the simultaneous {0,1}-eigenspaces.  A
root is therefore a {0,1}-vector of length r and root addition is xor.

For r = 3 the possible nonempty root sets containing three independent
roots fall, up to an invertible change of the dual basis, into eight
configurations Delta0..Delta7 (Delta0 has all seven nonzero functionals,
Delta1 only the three basis roots).  :func:`classify_delta` identifies the
configuration by exhaustive orbit search over the 168 elements of
GL(3, GF(2)); candidate configurations are tried in ascending index and
matrices in lexicographic order, so the result is deterministic.  Note the
five-root and six-root configurations each form a single orbit, so the
classifier resolves those overlaps to the lower index (Delta4, Delta6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    LieAlgebra,
    acts_nilpotently,
    bracket_span,
    centralizer,
    derived_subalgebra,
)
from .errors import NonToralBasisError, PreconditionError, SplitFailureError
from .field import gf
from .linalg import Subspace, combine, kernel_of_map, rref_rows, solve, unit, vget
from .restricted import TwoMap, jcs_decompose, span_of_squares
from .tori import Torus


# ---------------------------------------------------------------------------
# root functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootFunctional:
    """A {0,1}-valued functional on a toral basis."""

    values: tuple

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("root values must lie in the prime field")

    @classmethod
    def from_int(cls, bits: int, r: int) -> "RootFunctional":
        return cls(tuple((bits >> i) & 1 for i in range(r)))

    def as_int(self) -> int:
        return sum(v << i for i, v in enumerate(self.values))

    def __add__(self, other: "RootFunctional") -> "RootFunctional":
        return RootFunctional(tuple(a ^ b for a, b in zip(self.values, other.values)))

    def is_zero(self) -> bool:
        return not any(self.values)

    def __repr__(self):
        return "(" + ",".join(map(str, self.values)) + ")"


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

class RootDecomposition:
    """The grading g = t + n + sum of root spaces, relative to a torus."""

    def __init__(self, torus: Torus, cartan: Subspace, nil_part: Subspace, roots_):
        self.torus = torus
        self.cartan = cartan
        self.nil_part = nil_part
        self.roots = dict(roots_)  # RootFunctional -> Subspace, nonzero spaces only

    @property
    def rank(self) -> int:
        return self.torus.dim

    def root_list(self):
        """Roots in ascending bit order; the iteration order everywhere."""
        return sorted(self.roots, key=RootFunctional.as_int)

    def space(self, lam: RootFunctional) -> Subspace:
        """g_lambda, with the zero functional mapped to the Cartan subalgebra."""
        if lam.is_zero():
            return self.cartan
        if lam in self.roots:
            return self.roots[lam]
        return Subspace.zero(self.cartan.field, self.cartan.ambient)

    def __repr__(self):
        dims = {repr(l): s.dim for l, s in sorted(self.roots.items(), key=lambda kv: kv[0].as_int())}
        return (
            f"RootDecomposition(rank {self.rank}, dim h={self.cartan.dim} "
            f"(n={self.nil_part.dim}), roots {dims})"
        )


def cartan_subalgebra(g: LieAlgebra, tm: TwoMap, t: Torus) -> Subspace:
    """Centralizer of the torus (a Cartan subalgebra when t is maximal)."""
    return centralizer(g, t.subspace)


def split_cartan(g: LieAlgebra, tm: TwoMap, h: Subspace, t: Torus):
    """Split h into the torus and its 2-nilpotent complement.

    If h = t + n with [t, n] = 0 and n 2-nilpotent, then x = a + b (a in t,
    b in n) is the Jordan-Chevalley decomposition of x, so n is spanned by
    the 2-nilpotent parts of h's basis.  That span is then certified: the
    chain n, S(n), S(S(n)), ... with S(V) = span{v^[2] : v in V} must shrink
    strictly to 0, which makes every element of n 2-nilpotent, because
    x in V puts x^[2] in S(V).  With t a torus, a complement of t in h
    commuting with t is then exactly the set of 2-nilpotent elements of h,
    by uniqueness of the decomposition.  Any failure raises
    SplitFailureError because it falsifies the hypotheses (h not a Cartan
    subalgebra of a restricted algebra, or t not maximal).
    """
    if not h.contains_space(t.subspace):
        raise PreconditionError("torus must sit inside the subspace being split")
    try:
        nil_parts = [jcs_decompose(g, tm, x)[1] for x in h.rows]
    except PreconditionError as exc:
        raise SplitFailureError(str(exc)) from exc
    n_sub = g.subspace(nil_parts)
    level = n_sub
    while level.dim:
        below = span_of_squares(g, tm, level)
        if below.dim >= level.dim or not level.contains_space(below):
            raise SplitFailureError("2-nilpotent parts of h do not span a 2-nilpotent subspace")
        level = below
    if t.subspace.intersect(n_sub).dim != 0 or t.subspace.sum(n_sub) != h:
        raise SplitFailureError("2-nilpotent part does not complement the torus in h")
    if bracket_span(g, t.subspace, n_sub).dim != 0:
        raise SplitFailureError("torus does not commute with the 2-nilpotent part")
    return t.subspace, n_sub


def root_decomposition(g: LieAlgebra, tm: TwoMap, t: Torus) -> RootDecomposition:
    """Simultaneous eigenspace decomposition for a toral basis.

    Completeness (the dimensions summing to dim g) holds exactly when the
    basis consists of commuting toral elements; a deficit raises
    NonToralBasisError.
    """
    f, n = g.field, g.dim
    basis = list(t.toral_basis)
    r = len(basis)
    if len(rref_rows(f, basis)[0]) != t.subspace.dim:
        raise NonToralBasisError("toral basis does not span the torus")

    eigen = []
    for ti in basis:
        cols0 = [g.bracket(ti, unit(f, j)) for j in range(n)]
        e0 = kernel_of_map(f, n, cols0)
        e1 = kernel_of_map(f, n, [c ^ unit(f, j) for j, c in enumerate(cols0)])
        eigen.append((e0, e1))

    # joint[bits]: the joint eigenspace on which t_i acts by bit i of bits,
    # built level by level from the joint eigenspaces of the first i torals
    joint = [Subspace.full(f, n)]
    for i, pair in enumerate(eigen):
        joint = list(pair) if i == 0 else [s.intersect(e) for e in pair for s in joint]

    cartan = joint[0]
    roots_ = {}
    total = cartan.dim
    for bits in range(1, 1 << r):
        space = joint[bits]
        if space.dim:
            roots_[RootFunctional.from_int(bits, r)] = space
            total += space.dim
    if total != n:
        raise NonToralBasisError(
            f"eigenspace dimensions sum to {total} != {n}; basis is not toral"
        )
    t_sub, n_sub = split_cartan(g, tm, cartan, t)
    return RootDecomposition(t, cartan, n_sub, roots_)


# ---------------------------------------------------------------------------
# grading and triangulability
# ---------------------------------------------------------------------------

class GradingReport:
    def __init__(self, violations):
        self.violations = violations  # [(lam, mu)] with [g_lam, g_mu] not in g_{lam+mu}

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return "GradingReport(ok)" if self.ok else f"GradingReport({self.violations})"


def grading_check(g: LieAlgebra, d: RootDecomposition) -> GradingReport:
    """Verify [g_lam, g_mu] lies in g_{lam+mu} for all pairs, 0 included."""
    zero = RootFunctional((0,) * d.rank)
    labels = [zero] + d.root_list()
    violations = []
    for i, lam in enumerate(labels):
        for mu in labels[i:]:
            got = bracket_span(g, d.space(lam), d.space(mu))
            if not d.space(lam + mu).contains_space(got):
                violations.append((lam, mu))
    return GradingReport(violations)


def is_triangulable(g: LieAlgebra, d: RootDecomposition) -> bool:
    """[h, h] acts nilpotently on g."""
    return acts_nilpotently(g, derived_subalgebra(g, d.cartan))


def is_standard(g: LieAlgebra, d: RootDecomposition) -> bool:
    """The 2-nilpotent part is an ideal of the Cartan subalgebra."""
    return d.nil_part.contains_space(bracket_span(g, d.cartan, d.nil_part))


# ---------------------------------------------------------------------------
# functional extension and squares of root spaces
# ---------------------------------------------------------------------------

class ExtendedRoot:
    """A root extended to a functional on the Cartan subalgebra.

    Agrees with the root on the toral basis and vanishes on the nilpotent
    part.
    """

    def __init__(self, g: LieAlgebra, d: RootDecomposition, root: RootFunctional):
        self.root = root
        self._field = g.field
        self._ambient = g.dim
        self._h_basis = list(d.torus.toral_basis) + list(d.nil_part.rows)
        self._t_count = len(d.torus.toral_basis)

    def value(self, x: int) -> int:
        """The functional at x, which must lie in the Cartan subalgebra."""
        f = self._field
        c = solve(f, self._h_basis, x)
        if c is None:
            raise PreconditionError("vector outside the Cartan subalgebra")
        acc = 0
        for i in range(self._t_count):
            if self.root.values[i]:
                acc ^= vget(f, c, i)
        return acc

    def kernel(self) -> Subspace:
        """{x in h : value(x) = 0} as a subspace of the ambient space."""
        f = self._field
        images = [
            (self.root.values[i] if i < self._t_count else 0)
            for i in range(len(self._h_basis))
        ]
        ker_coords = kernel_of_map(f, len(self._h_basis), images)
        rows = [combine(f, self._h_basis, cr) for cr in ker_coords.rows]
        return Subspace.from_vectors(f, self._ambient, rows)


def extended_root(g: LieAlgebra, d: RootDecomposition, xi: RootFunctional) -> ExtendedRoot:
    return ExtendedRoot(g, d, xi)


def square_span(g: LieAlgebra, tm: TwoMap, d: RootDecomposition, xi: RootFunctional) -> Subspace:
    """Span of all squares of g_xi elements.

    By the extension rule this equals the span of the basis squares plus
    [g_xi, g_xi].
    """
    return span_of_squares(g, tm, d.space(xi))


# ---------------------------------------------------------------------------
# rank-3 configuration taxonomy
# ---------------------------------------------------------------------------

# roots as 3-bit ints, bit i = value on t_{i+1}
DELTA_SETS = {
    0: frozenset({1, 2, 3, 4, 5, 6, 7}),
    1: frozenset({1, 2, 4}),
    2: frozenset({1, 2, 4, 3}),
    3: frozenset({1, 2, 4, 7}),
    4: frozenset({1, 2, 4, 3, 5}),
    5: frozenset({1, 2, 4, 3, 7}),
    6: frozenset({1, 2, 4, 3, 5, 6}),
    7: frozenset({1, 2, 4, 3, 5, 7}),
}

_CANDIDATES_BY_CARD = {3: (1,), 4: (2, 3), 5: (4, 5), 6: (6, 7), 7: (0,)}


@lru_cache(maxsize=1)
def gl3_matrices():
    """All invertible 3x3 matrices over GF(2), lexicographic by rows.

    A matrix is a tuple of three 3-bit row ints; the identity (1, 2, 4)
    happens to be the lexicographically first element.
    """
    out = []
    for r0 in range(1, 8):
        for r1 in range(1, 8):
            if r1 == r0:
                continue
            for r2 in range(1, 8):
                if r2 in (r0, r1, r0 ^ r1):
                    continue
                out.append((r0, r1, r2))
    out.sort()
    return tuple(out)


def apply_gl3(mat, bits: int) -> int:
    """Image of a 3-bit root vector under a GL(3, GF(2)) matrix."""
    out = 0
    for i, row in enumerate(mat):
        out |= ((row & bits).bit_count() & 1) << i
    return out


@dataclass(frozen=True)
class DeltaClass:
    """Configuration label plus the dual-basis change realizing it."""

    label: str           # "Delta0".."Delta7" or "NonStandardBasis"
    index: int | None    # 0..7, None for NonStandardBasis
    basis_change: tuple | None  # GL(3, GF(2)) matrix A with A(observed) = canonical

    def __repr__(self):
        return f"DeltaClass({self.label})"


def classify_delta(d: RootDecomposition) -> DeltaClass:
    """Match the observed root set to a canonical configuration.

    Requires rank 3.  Degenerate sets (fewer than three independent roots)
    are labelled NonStandardBasis rather than matched.
    """
    if d.rank != 3:
        raise PreconditionError("configuration taxonomy requires a rank-3 torus")
    observed = frozenset(lam.as_int() for lam in d.roots)
    card = len(observed)
    if card not in _CANDIDATES_BY_CARD:
        return DeltaClass("NonStandardBasis", None, None)
    for idx in _CANDIDATES_BY_CARD[card]:
        target = DELTA_SETS[idx]
        for mat in gl3_matrices():
            if frozenset(apply_gl3(mat, b) for b in observed) == target:
                return DeltaClass(f"Delta{idx}", idx, mat)
    return DeltaClass("NonStandardBasis", None, None)


def canonical_toral_basis(d: RootDecomposition, cls: DeltaClass):
    """Toral basis (s_1, s_2, s_3) in which the root set reads canonically.

    Row j of the basis change selects which original toral basis vectors
    are summed into s_j; each s_j is again toral because the torus is
    abelian and spanned by torals over the prime field.
    """
    if cls.basis_change is None:
        raise PreconditionError("no basis change available for this class")
    return [combine(gf(1), d.torus.toral_basis, row) for row in cls.basis_change]
