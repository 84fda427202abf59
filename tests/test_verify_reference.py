"""The verify reports against naive references, on one-bit corruptions.

:meth:`lie2.algebra.LieAlgebra.verify` and
:func:`lie2.restricted.verify_two_map` read every bracket with a basis
vector from :meth:`~lie2.algebra.LieAlgebra.ad`.  The references below
bracket one basis vector at a time, per Jacobi triple and per adjoint column.
Each case flips one bit of a bracket or of a basis square of f6, u2 or
sl(3), over GF(2) and GF(4), and the two reports must list the same
violations in the same order.
"""

import random

import pytest

from lie2.algebra import LieAlgebra, verify_lie
from lie2.fixtures import f6, sl, u2
from lie2.linalg import unit
from lie2.restricted import TwoMap, extend_scalars, square, verify_two_map

FLIPS_PER_ALGEBRA = 400  # seeded sample; all of them for f6 and for sl(3) over GF(2)


def reference_jacobi(g):
    f, n, table = g.field, g.dim, g.table
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                s = (g.bracket(table[i][j], unit(f, l))
                     ^ g.bracket(table[j][l], unit(f, i))
                     ^ g.bracket(table[l][i], unit(f, j)))
                if s:
                    out.append((i, j, l))
    return out


def reference_adjoint(g, tm):
    f = g.field
    out = []
    for i in range(g.dim):
        x = unit(f, i)
        sq = square(g, tm, x)
        for j in range(g.dim):
            ej = unit(f, j)
            if g.bracket(sq, ej) != g.bracket(x, g.bracket(x, ej)):
                out.append((x, j))
                break
    return out


def one_bit_flips(g, tm, rng):
    """A seeded sample of (algebra, 2-map) pairs, each one bit away from (g, tm)."""
    n, kn = g.dim, g.dim * g.field.k
    pairs = {(i, j): g.table[i][j] for i in range(n) for j in range(i + 1, n)}
    sites = [("bracket", p, b) for p in pairs for b in range(kn)]
    sites += [("square", i, b) for i in range(n) for b in range(kn)]
    for kind, where, b in rng.sample(sites, min(FLIPS_PER_ALGEBRA, len(sites))):
        if kind == "bracket":
            flipped = dict(pairs)
            flipped[where] ^= 1 << b
            yield LieAlgebra(g.field, n, flipped), tm
        else:
            images = list(tm.images)
            images[where] ^= 1 << b
            yield g, TwoMap(images)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("build", [f6, u2, lambda: sl(3)], ids=["f6", "u2", "sl3"])
def test_verify_reports_match_the_references_on_one_bit_flips(build, k):
    g, tm = extend_scalars(*build(), k)
    rng = random.Random(f"flips/{g.name}/{k}")
    broken = 0
    for h, hm in one_bit_flips(g, tm, rng):
        lie, two = verify_lie(h), verify_two_map(h, hm)
        assert lie.jacobi_violations == reference_jacobi(h)
        assert two.adjoint_violations == reference_adjoint(h, hm)
        broken += not (lie.ok and two.ok)
    assert broken > 0  # the sample exercises non-empty reports
