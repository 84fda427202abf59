"""Fixture generators: their output satisfies the axioms, and bad parameters are refused.

The generators build their algebras so that the Lie and squaring axioms hold
by construction and do not re-check them; ``test_every_generator_verifies``
is where those axioms are checked, on the output of every generator.  The
graded families are also compared byte for byte with a reference builder, a
torus-plus-root-vectors builder kept here in its earlier, object-style form,
and the matrix algebras with one that multiplies actual matrices.
"""

from itertools import combinations, product

import pytest

from lie2.algebra import LieAlgebra, verify_lie
from lie2.errors import FixtureError
from lie2.field import gf
from lie2.fileio import dumps
from lie2.fixtures import (
    ROOT_ORDER,
    delta2,
    f6,
    f6n,
    f7,
    fixture,
    gl,
    gltor,
    graded,
    permute_basis,
    psl4,
    rank2sq,
    sl,
    torus,
    u1,
    u2,
    vacuity_family,
    witt,
)
from lie2.linalg import solve, unit
from lie2.restricted import TwoMap, subquotient, verify_two_map

ROOT_SETS = [s for m in range(1, 8) for s in combinations(ROOT_ORDER, m)]


class ReferenceGradedBuilder:
    """Torus plus labelled root vectors; fills in the diagonal action."""

    def __init__(self, dims, nil_dim=0, name=""):
        self.f = gf(1)
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
        for key, pos in self.index.items():
            if key[0] in ("t", "z"):
                continue
            for i in range(3):
                if (key[0] >> i) & 1:
                    self._set(self.index[("t", i)], pos, unit(self.f, pos))

    def _set(self, i, j, value):
        assert i != j
        self.pairs[(min(i, j), max(i, j))] = value

    def e(self, key):
        return unit(self.f, self.index[key])

    def set_bracket(self, key_a, key_b, value):
        self._set(self.index[key_a], self.index[key_b], value)

    def build(self):
        images = [0] * self.dim
        for i in range(3):
            images[self.index[("t", i)]] = self.e(("t", i))
        g = LieAlgebra(self.f, self.dim, self.pairs, self.name)
        return g, TwoMap(images)


def reference_delta2():
    b = ReferenceGradedBuilder({1: 1, 2: 1, 4: 1, 3: 1}, name="delta2")
    b.set_bracket((1, 0), (2, 0), b.e((3, 0)))
    return b.build()


def reference_u2():
    b = ReferenceGradedBuilder({1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}, nil_dim=1, name="u2")
    x1, x2 = (1, 0), (1, 1)
    y1, y2 = (4, 0), (4, 1)
    p = (5, 0)
    z = ("z", 0)
    b.set_bracket(x1, x2, b.e(z))
    b.set_bracket(z, y1, b.e(y2))
    b.set_bracket(x1, y1, b.e(p))
    b.set_bracket(x2, p, b.e(y2))
    return b.build()


@pytest.mark.parametrize("nil_dim", [0, 1, 2])
def test_graded_matches_the_reference_builder(nil_dim):
    for roots in ROOT_SETS:
        dims = {lam: 1 + (lam + nil_dim) % 3 for lam in roots}
        ref = ReferenceGradedBuilder(dims, nil_dim=nil_dim, name="graded").build()
        assert dumps(*graded(dims, nil_dim=nil_dim)) == dumps(*ref), (roots, nil_dim)


def test_extra_brackets_match_the_reference_builder():
    assert dumps(*delta2()) == dumps(*reference_delta2())
    assert dumps(*u2()) == dumps(*reference_u2())


U2_PERMS = [
    list(reversed(range(15))),
    list(range(3, 15)) + [0, 1, 2],
    [0, 2, 1] + list(range(14, 2, -1)),
    list(range(1, 15)) + [0],
    [14] + list(range(14)),
]


def test_vacuity_family_matches_the_reference_builder():
    family = vacuity_family()
    assert len(family) == 140
    for label, build in family:
        g, tm = build()
        if label.startswith("pattern"):
            dims = tuple(int(c) for c in label[len("pattern"):])
            ref = ReferenceGradedBuilder(
                {lam: dims[lam - 1] for lam in ROOT_ORDER}, name="delta0_" + "".join(map(str, dims))
            ).build()
            assert dumps(g, tm) == dumps(*ref), label
        elif label == "u2":
            assert dumps(g, tm) == dumps(*reference_u2())
        else:
            t = int(label[len("u2_perm"):])
            ref = permute_basis(*reference_u2(), U2_PERMS[t], name=label)
            assert dumps(g, tm) == dumps(*ref), label


def reference_matrix_algebra(mats, n, name):
    """Structure constants of a bracket-closed space of n x n GF(2) matrices
    packed row-major into ints, with matrix squaring as the 2-map."""
    def mul(a, b):
        out = 0
        for i, q in product(range(n), repeat=2):
            if (a >> (i * n + q)) & 1:  # a_iq times row q of b lands in row i
                out ^= ((b >> (q * n)) & ((1 << n) - 1)) << (i * n)
        return out

    f = gf(1)
    pairs = {(i, j): solve(f, mats, mul(a, b) ^ mul(b, a))
             for (i, a), (j, b) in combinations(enumerate(mats), 2)}
    return LieAlgebra(f, len(mats), pairs, name), TwoMap([solve(f, mats, mul(m, m)) for m in mats])


@pytest.mark.parametrize("n", range(1, 6))
def test_matrix_algebras_match_matrix_products(n):
    # gl(n) is built in closed form and sl(n) as its subalgebra, neither from matrices
    units = [1 << (p * n + q) for p in range(n) for q in range(n)]
    assert dumps(*gl(n)) == dumps(*reference_matrix_algebra(units, n, f"gl{n}"))
    if n >= 2:
        trace_zero = [units[p * n + q] for p in range(n) for q in range(n) if p != q]
        trace_zero += [units[p * n + p] ^ units[(p + 1) * n + p + 1] for p in range(n - 1)]
        assert dumps(*sl(n)) == dumps(*reference_matrix_algebra(trace_zero, n, f"sl{n}"))


def every_generator():
    """(label, build) for every fixture generator this module checks."""
    out = [(f"torus{r}@k{k}", lambda r=r, k=k: torus(r, k)) for r in range(1, 5) for k in range(1, 4)]
    out += [(b.__name__, b) for b in (f6, f6n, f7, delta2, u1, u2, rank2sq, gltor)]
    out += [(f"gl{n}", lambda n=n: gl(n)) for n in range(1, 6)]
    out += [(f"sl{n}", lambda n=n: sl(n)) for n in range(2, 6)] + [("psl4", psl4)]
    out += [(f"witt{m}", lambda m=m: witt(m)) for m in range(1, 5)]
    out += [(f"graded{roots}/{nil}", lambda roots=roots, nil=nil: graded(dict.fromkeys(roots, 1), nil))
            for roots in ROOT_SETS for nil in (0, 1)]
    return out + vacuity_family()


def test_every_generator_verifies():
    generators = every_generator()
    assert len(generators) == 428
    failures = []
    for label, build in generators:
        g, tm = build()
        lie, two = verify_lie(g), verify_two_map(g, tm)
        if not (lie.ok and two.ok):
            failures.append((label, lie, two))
    assert failures == []


@pytest.mark.parametrize("build", [
    lambda: graded({9: 1}),
    lambda: graded({0: 1}),
    lambda: graded({1: -1}),
    lambda: graded({1: 1}, nil_dim=-2),
    lambda: torus(-1),
    lambda: fixture("torus", r=-1),
    lambda: torus(2, k=0),
    lambda: torus(2, k=17),
    lambda: graded({1: 1, 2: 1}, extra=[((1, 5), (2, 0), ("t", 0))]),
    lambda: graded({1: 1, 2: 1}, extra=[((1, 0), (2, 0), ("z", 0))]),
    lambda: graded({1: 1, 2: 1}, extra=[((1, 0), (1, 0), ("t", 0))]),
    lambda: permute_basis(*f6(), [0, 0, 1, 2, 3, 4]),
    lambda: subquotient(*gl(2), [unit(gf(1), 1), unit(gf(1), 2)]),  # [E12, E21] = E11 + E22
], ids=["label9", "label0", "negative_dim", "negative_nil_dim", "torus_r", "fixture_torus_r",
        "torus_k0", "torus_k17", "extra_unknown_key", "extra_unknown_image",
        "extra_self_bracket", "permute_not_a_permutation", "subquotient_leaves_span"])
def test_out_of_range_parameters_are_refused(build):
    with pytest.raises(FixtureError):
        build()
