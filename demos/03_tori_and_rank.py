"""Toral elements, maximal tori, and why rank is field-relative.

The second half builds an abelian algebra whose squaring map is the
invertible matrix [[0,1],[1,1]] of order 3: it fixes nothing over GF(2)
or GF(4), so no toral element exists there, yet its fixed vectors appear
over GF(8) and the measured rank jumps from 0 to 2.
"""

from lie2 import (
    LieAlgebra,
    TwoMap,
    extend_scalars,
    fixture,
    gf,
    maximal_torus,
    toral_elements,
)
from lie2.linalg import coeffs, unit

print("== toral elements of gl(2, GF(2)) ==============================")
g, tm = fixture("gl", n=2)
torals = toral_elements(g, tm)
print(f"{len(torals)} nonzero idempotents, e.g.:")
for v in torals[:4]:
    print("  ", coeffs(g.field, 4, v))
t = maximal_torus(g, tm)
print(f"maximum torus dimension: {t.dim} (the diagonal matrices)")

print()
print("== maximal torus of f7 =========================================")
g, tm = fixture("f7")
t = maximal_torus(g, tm)
print(f"toral rank {t.dim}: no span of commuting torals is larger")
for b in t.toral_basis:
    print("  toral basis element", coeffs(g.field, g.dim, b))

print()
print("== field-relative rank =========================================")
f2 = gf(1)
twisted = LieAlgebra(f2, 2, {}, "twisted")
tmt = TwoMap([unit(f2, 1), unit(f2, 0) ^ unit(f2, 1)])  # e1 -> e2 -> e1+e2
for k in (1, 2, 3):
    gk, tmk = extend_scalars(twisted, tmt, k)
    print(f"over GF(2^{k}): toral rank {maximal_torus(gk, tmk).dim}")
print("the squaring map is invertible throughout; only GF(8) contains its fixed vectors")
