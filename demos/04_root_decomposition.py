"""Root space decompositions and the rank-3 configuration taxonomy.

Every fixture decomposes exactly: the Cartan subalgebra (torus plus
2-nilpotent part) and the simultaneous eigenspaces account for every
dimension, the grading closes, and for rank 3 the root set lands on one
of the eight canonical configurations after a dual basis change.
"""

from lie2 import classify_delta, fixture, grading_check, is_standard, is_triangulable, maximal_torus, root_decomposition
from lie2.fixtures import graded

for name, build in [
    ("f6", lambda: fixture("f6")),
    ("f6n", lambda: fixture("f6n")),
    ("delta2", lambda: fixture("delta2")),
    ("u2", lambda: fixture("u2")),
    ("f7", lambda: fixture("f7")),
    ("fiveroots", lambda: graded({1: 1, 2: 1, 3: 1, 4: 1, 6: 1}, name="fiveroots")),
]:
    g, tm = build()
    t = maximal_torus(g, tm)
    d = root_decomposition(g, tm, t)
    dims = {repr(lam): d.roots[lam].dim for lam in d.root_list()}
    label = classify_delta(d).label if d.rank == 3 else "n/a"
    print(f"{g.name}: dim {g.dim} = cartan {d.cartan.dim} (nil {d.nil_part.dim}) "
          f"+ roots {sum(sp.dim for sp in d.roots.values())}")
    print(f"    root dims {dims}")
    print(f"    grading {'ok' if grading_check(g, d).ok else 'BROKEN'}, "
          f"triangulable {is_triangulable(g, d)}, standard {is_standard(g, d)}, "
          f"configuration {label}")
    print()
