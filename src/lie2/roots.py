"""Root space decomposition relative to a torus, and its rank-3 taxonomy.

Roots are computed only against bases of toral elements, where every
eigenvalue lies in the prime field: each ad(t_i) is an idempotent P, so
every P-invariant space V splits as (1+P)V + PV, its 0- and 1-eigenspaces.
:func:`root_decomposition` applies that split toral by toral to each joint
eigenspace found so far; the parts' dimensions add up to dim g exactly
when the basis is toral and commuting.  A root is therefore a {0,1}-vector
of length r, held as an r-bit int whose bit i is its value on t_(i+1);
root addition is xor, and :func:`format_root` prints a root as "(1,0,1)".

A torus slice is the part of the torus where some roots vanish:
:func:`vanishing_slice` gives it for any list of roots.

For r = 3 the root sets containing three independent roots fall, up to an
invertible change of the dual basis, into the paper's eight configurations
Delta0..Delta7 (Delta0 has all seven nonzero functionals, Delta1 only the
three basis roots).  The relabelling is one table, :func:`relabellings`:
for each of the 168 elements of GL(3, GF(2)), the observed root that it
sends to each canonical root.  :func:`classify_delta` reads it, trying
candidate configurations in ascending index and matrices in lexicographic
order, so the result is deterministic; the screen reads it to name each of
its torus slices by the canonical roots that vanish there.  The five-root
sets form a single orbit, and so do the six-root sets, so Delta5 and
Delta7 are never returned: the classifier gives six labels, Delta0..Delta4
and Delta6, or NonStandardBasis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from types import MappingProxyType

from .algebra import (
    LieAlgebra,
    acts_nilpotently,
    bracket_span,
    derived_subalgebra,
    verify_lie,
)
from .errors import NonToralBasisError, PreconditionError, SplitFailureError
from .linalg import Subspace, kernel_of_map, rref_rows, vector
from .record import Record
from .restricted import TwoMap, jcs_decompose, span_of_squares, verify_two_map
from .tori import Torus


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def format_root(bits: int, r: int) -> str:
    """A root as its values on t_1..t_r, e.g. "(1,0,1)"."""
    return "(" + ",".join(str(bits >> i & 1) for i in range(r)) + ")"


class RootDecomposition:
    """The grading g = t + n + sum of root spaces, relative to a torus."""

    def __init__(self, torus: Torus, cartan: Subspace, nil_part: Subspace, roots_):
        self.torus = torus
        self.cartan = cartan
        self.nil_part = nil_part
        self.roots = dict(roots_)  # root bits -> Subspace, nonzero spaces only

    @property
    def rank(self) -> int:
        return self.torus.dim

    def root_list(self):
        """Roots in ascending bit order; the iteration order everywhere."""
        return sorted(self.roots)

    def space(self, lam: int) -> Subspace:
        """g_lambda, with the zero root mapped to the Cartan subalgebra."""
        if not lam:
            return self.cartan
        if lam in self.roots:
            return self.roots[lam]
        return Subspace.zero(self.cartan.field, self.cartan.ambient)

    def __repr__(self):
        dims = {format_root(lam, self.rank): self.roots[lam].dim for lam in self.root_list()}
        return (
            f"RootDecomposition(rank {self.rank}, dim h={self.cartan.dim} "
            f"(n={self.nil_part.dim}), roots {dims})"
        )


def split_cartan(g: LieAlgebra, tm: TwoMap, h: Subspace, t: Torus):
    """The 2-nilpotent complement n of the torus t in h, as a subspace.

    If h = t + n with [t, n] = 0 and n 2-nilpotent, then x = a + b (a in t,
    b in n) is the Jordan-Chevalley decomposition of x, so n is spanned by
    the 2-nilpotent parts of h's basis.  That span is then certified: the
    chain n, S(n), S(S(n)), ... with S(V) = span{v^[2] : v in V} must shrink
    strictly to 0, which makes every element of n 2-nilpotent, because
    x in V puts x^[2] in S(V).  With t a torus, a complement of t in h
    commuting with t is then exactly the set of 2-nilpotent elements of h,
    by uniqueness of the decomposition.  Any failure raises
    SplitFailureError because it falsifies the hypotheses (h not a Cartan
    subalgebra of a restricted algebra, or t not maximal).  A complement
    failure means that h holds a semisimple element outside t: with t
    maximal over the field, as :func:`lie2.tori.maximal_torus` gives it,
    that element is toral only over a larger field, where the torus grows.
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
    if t.subspace.dim + n_sub.dim != h.dim or t.subspace.sum(n_sub) != h:
        raise SplitFailureError(
            "2-nilpotent part does not complement the torus in h: h holds a semisimple "
            f"element outside the torus, so the torus is maximal over {g.field} but not "
            "over a larger field"
        )
    if bracket_span(g, t.subspace, n_sub).dim != 0:
        raise SplitFailureError("torus does not commute with the 2-nilpotent part")
    return n_sub


def root_decomposition(g: LieAlgebra, tm: TwoMap, t: Torus) -> RootDecomposition:
    """Simultaneous eigenspace decomposition for a toral basis.

    Each toral t_i acts by an idempotent P = ad t_i, so g = ker P + im P
    with ker P = (1+P)g.  Starting from {0: g}, every joint eigenspace V
    found so far is split by t_i into (1+P)V, which keeps its label, and
    PV, which gains bit i; zero parts are dropped.  Each part is the span of
    |V| brackets, so the whole split takes r * dim g brackets.

    Completeness (the dimensions summing to dim g) stays an exact test.
    For any P, (1+P)V + PV contains V, since v = (1+P)v + Pv, so the total
    never falls below dim g.  It equals dim V exactly when V is P-invariant
    and P is idempotent on V, as rank P + rank(1+P) = dim V holds only for
    idempotents.  A basis that is not toral, or does not commute, therefore
    overshoots at some toral and raises NonToralBasisError there; since
    the total never shrinks, checking after each toral gives the verdict
    of checking at the end.

    Both refusals, NonToralBasisError and SplitFailureError, presume a
    restricted algebra.  On their path only, the Lie and 2-map axioms are
    checked, and an input that fails them is refused as PreconditionError
    naming its first violation.
    """
    try:
        return _root_decomposition(g, tm, t)
    except (NonToralBasisError, SplitFailureError) as exc:
        violation = _first_violation(g, tm)
        if violation is None:
            raise
        raise PreconditionError(f"input is not a verified restricted algebra: {violation}") from exc


def _first_violation(g: LieAlgebra, tm: TwoMap):
    """The first failure of verify_lie, else of verify_two_map, as text, or None."""
    lie = verify_lie(g)
    if not lie.ok:
        return "the Jacobi identity fails on e{}, e{}, e{}".format(*lie.jacobi_violations[0])
    two = verify_two_map(g, tm)
    if not two.ok:
        x, j = two.adjoint_violations[0]
        i = (x.bit_length() - 1) // g.field.k  # x is the basis vector e_i
        return f"the 2-map fails ad(e{i}^[2]) = ad(e{i})^2 on e{j}"
    return None


def _root_decomposition(g: LieAlgebra, tm: TwoMap, t: Torus) -> RootDecomposition:
    f, n = g.field, g.dim
    basis = list(t.toral_basis)
    if len(rref_rows(f, basis)[0]) != t.subspace.dim:
        raise NonToralBasisError("toral basis does not span the torus")
    spaces = {0: g.full_space()}  # root bits -> nonzero joint eigenspace
    for i, ti in enumerate(basis):
        split = {}
        for bits, space in spaces.items():
            images = [g.bracket(ti, v) for v in space.rows]
            fixed = [v ^ w for v, w in zip(space.rows, images)]
            for label, part in ((bits, fixed), (bits | 1 << i, images)):
                sub = g.subspace(part)
                if sub.dim:
                    split[label] = sub
        spaces = split
        total = sum(sp.dim for sp in spaces.values())
        if total != n:
            raise NonToralBasisError(
                f"eigenspace dimensions sum to {total} != {n}; basis is not toral"
            )
    cartan = spaces.pop(0)
    return RootDecomposition(t, cartan, split_cartan(g, tm, cartan, t), spaces)


# ---------------------------------------------------------------------------
# grading and triangulability
# ---------------------------------------------------------------------------

class GradingReport:
    def __init__(self, violations, rank):
        self.violations = violations  # [(lam, mu)] with [g_lam, g_mu] not in g_{lam+mu}
        self.rank = rank

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "GradingReport(ok)"
        pairs = ", ".join(
            f"({format_root(lam, self.rank)}, {format_root(mu, self.rank)})"
            for lam, mu in self.violations
        )
        return f"GradingReport([{pairs}])"


def grading_check(g: LieAlgebra, d: RootDecomposition) -> GradingReport:
    """Verify [g_lam, g_mu] lies in g_{lam+mu} for all pairs, 0 included."""
    labels = [0] + d.root_list()
    violations = []
    for i, lam in enumerate(labels):
        for mu in labels[i:]:
            got = bracket_span(g, d.space(lam), d.space(mu))
            if not d.space(lam ^ mu).contains_space(got):
                violations.append((lam, mu))
    return GradingReport(violations, d.rank)


def is_triangulable(g: LieAlgebra, d: RootDecomposition) -> bool:
    """[h, h] acts nilpotently on g."""
    return acts_nilpotently(g, derived_subalgebra(g, d.cartan))


def is_standard(g: LieAlgebra, d: RootDecomposition) -> bool:
    """The 2-nilpotent part is an ideal of the Cartan subalgebra."""
    return d.nil_part.contains_space(bracket_span(g, d.cartan, d.nil_part))


# ---------------------------------------------------------------------------
# torus slices and squares of root spaces
# ---------------------------------------------------------------------------

def vanishing_slice(g: LieAlgebra, d: RootDecomposition, roots) -> Subspace:
    """The torus slice {t in the torus : lam(t) = 0 for every lam in roots}.

    A root's value on the toral basis vector t_(j+1) is its bit j, so the
    slice is the kernel of the map sending t_(j+1) to those values, one
    coordinate per root, which comes back as elements of the torus.  A root
    extended to h by zero on n therefore vanishes exactly on the slice
    plus n, which is how every confinement "lies in a torus slice plus n"
    is tested.
    """
    f = g.field
    images = [vector(f, [lam >> j & 1 for lam in roots]) for j in range(d.rank)]
    return g.subspace(kernel_of_map(f, d.torus.toral_basis, images))


def square_span(g: LieAlgebra, tm: TwoMap, d: RootDecomposition, xi: int) -> Subspace:
    """Span of all squares of g_xi elements.

    By the extension rule this equals the span of the basis squares plus
    [g_xi, g_xi].
    """
    return span_of_squares(g, tm, d.space(xi))


# ---------------------------------------------------------------------------
# rank-3 configuration taxonomy
# ---------------------------------------------------------------------------

# roots as 3-bit ints, bit i = value on t_{i+1}; the paper's eight configurations
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

# the labels tried per root count; Delta5 and Delta7 share the orbits of
# Delta4 and Delta6, which are tried first, so they are never returned
_CANDIDATES_BY_CARD = {3: (1,), 4: (2, 3), 5: (4,), 6: (6,), 7: (0,)}


def apply_gl3(mat, bits: int) -> int:
    """Image of a 3-bit root vector under a GL(3, GF(2)) matrix."""
    out = 0
    for i, row in enumerate(mat):
        out |= ((row & bits).bit_count() & 1) << i
    return out


@lru_cache(maxsize=1)
def relabellings():
    """The preimage table of every GL(3, GF(2)) matrix, lexicographic by rows.

    A matrix A is a tuple of three 3-bit row ints, the identity (1, 2, 4)
    first.  Row i names the toral s_(i+1), the sum of the t_(j+1) over its
    set bits j, and A sends a root to its values on s_1, s_2, s_3: the
    canonical root.  The read-only table maps A to ``pre``, where
    ``pre[mu]`` is the observed root that A sends to canonical mu
    (``pre[0] = 0``), so the canonical roots ``killed`` vanish on the
    torus slice ``vanishing_slice(g, d, [pre[mu] for mu in killed])``.
    """
    table = {}
    for mat in product(range(1, 8), repeat=3):
        pre = [0] * 8
        for lam in range(1, 8):
            pre[apply_gl3(mat, lam)] = lam
        if 0 not in pre[1:]:  # onto the seven nonzero roots: A is invertible
            table[mat] = tuple(pre)
    return MappingProxyType(table)


class DeltaClass(Record):
    """Configuration label plus the dual-basis change realizing it."""

    __slots__ = (
        "label",         # "Delta0".."Delta4", "Delta6" or "NonStandardBasis"
        "index",         # key of DELTA_SETS, None for NonStandardBasis
        "basis_change",  # GL(3, GF(2)) matrix A with A(observed) = canonical, or None
    )

    def __repr__(self):
        return f"DeltaClass({self.label})"


def classify_delta(d: RootDecomposition) -> DeltaClass:
    """Match the observed root set to a canonical configuration.

    Requires rank 3.  Degenerate sets (fewer than three independent roots)
    are labelled NonStandardBasis rather than matched.
    """
    if d.rank != 3:
        raise PreconditionError("configuration taxonomy requires a rank-3 torus")
    observed = frozenset(d.roots)
    for idx in _CANDIDATES_BY_CARD.get(len(observed), ()):
        for mat, pre in relabellings().items():
            # |target| = |observed| and pre is injective, so A(observed) = target
            if all(pre[mu] in observed for mu in DELTA_SETS[idx]):
                return DeltaClass(f"Delta{idx}", idx, mat)
    return DeltaClass("NonStandardBasis", None, None)
