"""Benchmark inputs: canonical ``.l2a`` text for every workload, made from a seed.

Nothing here imports lie2.  The algebras are rebuilt from their definitions
(the graded rank-3 families, u2, gl(n), sl(n), witt(m), rank2sq, gltor), so an
edit to ``lie2.fixtures`` cannot change a workload; ``digest`` fingerprints a
workload's inputs and expected answers so that any change to them shows in
every result.

Every algebra is over GF(2) with vectors packed into ints (bit i is the
coefficient of b_i).  ``dumps`` writes the same canonical text as
``lie2.fileio.dumps`` and can widen the coefficients to GF(2^k).  Every
workload applies a seeded basis permutation to its inputs; the verdicts it
checks are basis-independent, so each answer is known from how the input was
built.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations

ROOT_ORDER = (1, 2, 3, 4, 5, 6, 7)  # 3-bit root labels, bit i = value on t_{i+1}

# The eight rank-3 root configurations, as sets of 3-bit root labels.
DELTA_SETS = {
    0: (1, 2, 3, 4, 5, 6, 7),
    1: (1, 2, 4),
    2: (1, 2, 4, 3),
    3: (1, 2, 4, 7),
    4: (1, 2, 4, 3, 5),
    5: (1, 2, 4, 3, 7),
    6: (1, 2, 4, 3, 5, 6),
    7: (1, 2, 4, 3, 5, 7),
}
# Five roots form one GL(3, 2) orbit, and so do six roots; the classifier
# names each orbit by its lower index.
DELTA_LABEL = {1: "Delta1", 2: "Delta2", 3: "Delta3", 4: "Delta4",
               5: "Delta4", 6: "Delta6", 7: "Delta6"}
CONSTRUCTIONS = ("AlphaGtBeta", "BetaGtXi", "AlphaBetaGtAlphaGamma", "BetaGammaGtABG",
                 "AlphaGammaGtEq", "GammaGtXi", "ABGGtAlphaGamma", "AlphaGammaGtBetaGamma")


@dataclass(frozen=True)
class Algebra:
    """Structure constants of a restricted Lie algebra over GF(2)."""

    name: str
    dim: int
    pairs: dict   # (i, j) with i < j -> [b_i, b_j]
    images: tuple  # images[i] = b_i^[2]


@dataclass(frozen=True)
class Op:
    """One ``lie2`` call: arguments (None marks the input file), input text, known answer."""

    name: str
    args: tuple
    text: str
    expect: dict

    def argv(self, path: str) -> list:
        return [path if a is None else a for a in self.args]


# ---------------------------------------------------------------------------
# algebra families
# ---------------------------------------------------------------------------

def graded(dims, nil_dim=0, name="graded", extra=()):
    """Torus t_0..t_2 acting diagonally on root vectors; basis order as in lie2.

    ``dims`` maps root labels to root-space dimensions; ``extra`` lists
    brackets ``(key_a, key_b, key_c)`` meaning [x_a, x_b] = x_c, with keys
    ``("t", i)``, ``("z", j)`` or ``(root, j)``.
    """
    index = {}
    for i in range(3):
        index[("t", i)] = len(index)
    for j in range(nil_dim):
        index[("z", j)] = len(index)
    for lam in ROOT_ORDER:
        for j in range(dims.get(lam, 0)):
            index[(lam, j)] = len(index)
    pairs = {}
    for key, pos in index.items():
        if key[0] in ("t", "z"):
            continue
        for i in range(3):
            if (key[0] >> i) & 1:
                pairs[(index[("t", i)], pos)] = 1 << pos
    for a, b, c in extra:
        i, j = index[a], index[b]
        pairs[(min(i, j), max(i, j))] = 1 << index[c]
    images = [0] * len(index)
    for i in range(3):
        images[i] = 1 << i
    return Algebra(name, len(index), pairs, tuple(images))


def delta0(dims, name=None):
    return graded({lam: dims[lam - 1] for lam in ROOT_ORDER},
                  name=name or "delta0_" + "".join(map(str, dims)))


def f6():
    return graded({1: 1, 2: 1, 4: 1}, name="f6")


def f6n():
    return graded({1: 1, 2: 1, 4: 1}, nil_dim=1, name="f6n")


def f7():
    return graded({lam: 1 for lam in ROOT_ORDER}, name="f7")


def delta2():
    return graded({1: 1, 2: 1, 4: 1, 3: 1}, name="delta2", extra=[((1, 0), (2, 0), (3, 0))])


def u1():
    return delta0((2, 1, 1, 1, 1, 1, 1), name="u1")


def u2():
    x1, x2, y1, y2, p, z = (1, 0), (1, 1), (4, 0), (4, 1), (5, 0), ("z", 0)
    return graded({1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}, nil_dim=1, name="u2",
                  extra=[(x1, x2, z), (z, y1, y2), (x1, y1, p), (x2, p, y2)])


def rank2sq():
    t1, t2, x, y, w = (1 << i for i in range(5))
    pairs = {(0, 2): x, (1, 3): y, (0, 4): w, (1, 4): w, (2, 3): w, (2, 4): y, (3, 4): x}
    return Algebra("rank2sq", 5, pairs, (t1, t2, t2, t1, t1 ^ t2))


def gltor():
    e11, e12, e21, e22, t3, u = (1 << i for i in range(6))
    pairs = {(0, 1): e12, (0, 2): e21, (1, 2): e11 ^ e22, (1, 3): e12, (2, 3): e21, (4, 5): u}
    return Algebra("gltor", 6, pairs, (e11, 0, 0, e22, t3, 0))


def witt(m):
    """Derivations x^a d/dx of GF(2)[x]/(x^(2^m))."""
    dim = 1 << m
    pairs = {(a, b): 1 << (a + b - 1) for a, b in combinations(range(dim), 2)
             if (a + b) % 2 == 1 and a + b - 1 < dim}
    images = tuple(1 << (2 * a - 1) if a % 2 == 1 and 2 * a - 1 < dim else 0
                   for a in range(dim))
    return Algebra(f"witt{m}", dim, pairs, images)


def _mat_mul(a, b, n):
    """Product of n x n GF(2) matrices packed row-major (bit p*n+q is entry p, q)."""
    row_mask = (1 << n) - 1
    out = 0
    for i in range(n):
        acc = 0
        for q in range(n):
            if (a >> (i * n + q)) & 1:
                acc ^= (b >> (q * n)) & row_mask
        out |= acc << (i * n)
    return out


def _matrix_algebra(mats, n, coords, name):
    pairs = {}
    for i, j in combinations(range(len(mats)), 2):
        comm = coords(_mat_mul(mats[i], mats[j], n) ^ _mat_mul(mats[j], mats[i], n))
        if comm:
            pairs[(i, j)] = comm
    images = tuple(coords(_mat_mul(m, m, n)) for m in mats)
    return Algebra(name, len(mats), pairs, images)


def gl(n):
    """gl(n, GF(2)) on the elementary matrices E_pq, row-major."""
    mats = [1 << (p * n + q) for p in range(n) for q in range(n)]
    return _matrix_algebra(mats, n, lambda m: m, f"gl{n}")


def sl(n):
    """Trace-zero matrices: E_pq for p != q, then h_p = E_pp + E_(p+1)(p+1)."""
    off = [(p, q) for p in range(n) for q in range(n) if p != q]
    mats = [1 << (p * n + q) for p, q in off]
    mats += [(1 << (p * n + p)) ^ (1 << ((p + 1) * n + p + 1)) for p in range(n - 1)]

    def coords(m):
        v = 0
        for idx, (p, q) in enumerate(off):
            v |= ((m >> (p * n + q)) & 1) << idx
        c = 0  # h_p carries d_0 + ... + d_p
        for p in range(n - 1):
            c ^= (m >> (p * n + p)) & 1
            v |= c << (len(off) + p)
        if c != (m >> ((n - 1) * n + n - 1)) & 1:
            raise ValueError("matrix is not trace-zero")
        return v

    return _matrix_algebra(mats, n, coords, f"sl{n}")


# ---------------------------------------------------------------------------
# transformations and text
# ---------------------------------------------------------------------------

def permuted(alg: Algebra, perm, name: str) -> Algebra:
    """The same algebra in the basis b'_i = b_perm[i] (as lie2.fixtures.permute_basis)."""
    n = alg.dim
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i

    def relabel(v):
        out = 0
        while v:
            low = v & -v
            out |= 1 << inv[low.bit_length() - 1]
            v ^= low
        return out

    pairs = {}
    for (a, b), v in alg.pairs.items():
        i, j = inv[a], inv[b]
        pairs[(min(i, j), max(i, j))] = relabel(v)
    images = tuple(relabel(alg.images[perm[i]]) for i in range(n))
    return Algebra(name, n, pairs, images)


def with_zero_image(alg: Algebra, i: int, name: str) -> Algebra:
    """Corruption: the 2-map image of basis vector i set to zero."""
    images = list(alg.images)
    images[i] = 0
    return Algebra(name, alg.dim, alg.pairs, tuple(images))


def toral_basis_indices(alg: Algebra):
    """Basis vectors b_i with b_i^[2] = b_i that are not central."""
    moved = {i for pair, v in alg.pairs.items() if v for i in pair}
    return [i for i in range(alg.dim) if alg.images[i] == 1 << i and i in moved]


def dumps(alg: Algebra, k: int = 1) -> str:
    """Canonical ``.l2a`` text, coefficients written over GF(2^k)."""
    one, zero = "1" + "0" * (k - 1), "0" * k

    def vec(v):
        return ",".join(one if (v >> i) & 1 else zero for i in range(alg.dim))

    lines = ["lie2algebra 1", f"name {alg.name}", f"dim {alg.dim}", f"field_degree {k}"]
    lines += [f"bracket {i} {j} {vec(v)}" for (i, j), v in sorted(alg.pairs.items()) if v]
    lines += [f"twomap {i} {vec(v)}" for i, v in enumerate(alg.images)]
    return "\n".join(lines) + "\n"


def coords_text(dim: int, ones) -> str:
    """A GF(2^k) vector with coefficient 1 at ``ones``, as ``lie2`` prints it."""
    return "(" + ",".join("1" if i in ones else "0" for i in range(dim)) + ")"


def _shuffle(rng, alg, name):
    perm = list(range(alg.dim))
    rng.shuffle(perm)
    return permuted(alg, perm, name)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Missing-root configurations (index -> root-space dimensions, dim 10-13):
# small, so the roots and screening stages show next to the enumeration.
SCREEN_DELTA_DIMS = {1: (3, 3, 1), 2: (2, 2, 2, 2), 3: (3, 2, 2, 1), 4: (2, 2, 2, 2, 1),
                     5: (3, 2, 2, 1, 1), 6: (2, 2, 2, 2, 1, 1), 7: (3, 2, 2, 1, 1, 1)}
# Seven-root patterns with unequal dimensions, dim 11-16 then the
# enumeration-bound 18 and 19 (2^18 and 2^19 candidates).  With u2 they fire
# seven of the eight rank-3 constructions.
SCREEN_SEVEN_PATTERNS = ((1, 1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 2, 2, 2),
                         (1, 1, 1, 2, 2, 2, 2), (1, 1, 2, 2, 2, 2, 2), (1, 2, 2, 2, 2, 2, 2),
                         (2, 2, 2, 2, 2, 2, 3), (2, 2, 2, 2, 2, 3, 3))


def screen_ops(seed):
    """Rank-3 algebras of dim 10-19 with known screen verdicts."""
    rng = random.Random(f"screen/{seed}")
    algs = []  # (algebra, expectation)
    for idx, dims in SCREEN_DELTA_DIMS.items():
        alg = graded(dict(zip(DELTA_SETS[idx], dims)), name=f"delta{idx}_" + "".join(map(str, dims)))
        algs.append((alg, {"kind": "missing", "label": DELTA_LABEL[idx]}))
    for dims in SCREEN_SEVEN_PATTERNS:
        algs.append((delta0(dims), {"kind": "construction"}))
    # two more permutations of the dim-14 pattern: the median latency falls
    # among these three
    algs += [(delta0(SCREEN_SEVEN_PATTERNS[3]), {"kind": "construction"})] * 2
    algs += [(u2(), {"kind": "construction"})] * 3
    algs.append((delta0((1,) * 7), {"kind": "one_dim"}))
    # three permutations of the one PassesNecessaryConditions input: its
    # 2^17-candidate enumeration is the class the latency tail measures
    algs += [(delta0((2,) * 7), {"kind": "passes"})] * 3
    ops = []
    for t, (alg, expect) in enumerate(algs):
        name = f"s{t:02d}_{alg.name}"
        ops.append(Op(name, ("screen", None), dumps(permuted(alg, _torus_first(rng, alg.dim), name)),
                      dict(expect, dim=alg.dim)))
    name = f"s{len(ops):02d}_u2_torus_last"
    perm = _torus_first(rng, 15)
    ops.append(Op(name, ("screen", None), dumps(permuted(u2(), perm[3:] + perm[:3], name)),
                  {"kind": "construction", "dim": 15}))
    return ops


def _torus_first(rng, dim):
    """A seeded permutation that keeps the torus t_0, t_1, t_2 first, in order.

    The orderly torus search prunes by the pivots of toral elements; with the
    torus first every toral pivot is among the first three coordinates.  A
    uniform permutation scatters the pivots, and the search cost of one
    algebra then varies up to 15x with the permutation (the (2,...,2)
    pattern: 0.22 s to 3.4 s), which no run could measure steadily.  One u2
    slot places the torus last instead: a fixed scattered case, 7x slower.
    The torus keeps its order, so root labels keep theirs: the GL(3, 2)
    searches of the classifier and the construction dispatch stop at a
    matrix that depends on the labels, and the dispatch cost with them.
    """
    rest = list(range(3, dim))
    rng.shuffle(rest)
    return [0, 1, 2] + rest


ORACLE_SL3 = 8
ORACLE_SL4 = 5
# sl(4): its only proper nonzero ideal is the centre, spanned by the identity
# h_0 + h_2 (basis indices 12 and 14).  The oracle spins generators in
# increasing integer order, so the identity is the first counterexample and
# the closure count is its encoding: placing h_0, h_2 at positions 8 and 6
# gives 2^8 + 2^6 = 320 closures.
SL4_IDENTITY = (12, 14)
SL4_IDENTITY_AT = (8, 6)


def oracle_ops(seed):
    rng = random.Random(f"oracle/{seed}")
    ops = []
    base = sl(3)
    for t in range(ORACLE_SL3):
        name = f"o{t:02d}_sl3"
        ops.append(Op(name, ("simple", None), dumps(_shuffle(rng, base, name)),
                      {"kind": "simple", "closures": 255}))
    base = sl(4)
    for t in range(ORACLE_SL4):
        name = f"o{ORACLE_SL3 + t:02d}_sl4"
        at = list(SL4_IDENTITY_AT)
        rng.shuffle(at)
        rest = [i for i in range(base.dim) if i not in SL4_IDENTITY]
        rng.shuffle(rest)
        perm = [None] * base.dim
        for pos, old in zip(at, SL4_IDENTITY):
            perm[pos] = old
        fill = iter(rest)
        perm = [p if p is not None else next(fill) for p in perm]
        ops.append(Op(name, ("simple", None), dumps(permuted(base, perm, name)),
                      {"kind": "not_simple",
                       "counterexample": coords_text(base.dim, set(SL4_IDENTITY_AT))}))
    return ops


# (family, field degree): GF(2) dims 6..16, plus GF(4) copies.  At k*dim <= 12
# (dims 6-11 over GF(2)) verify_two_map adds its enumeration passes; above
# that only the basis checks run.
VERIFY_ALGEBRAS = (
    (f6, 1), (gltor, 1), (delta2, 1), (f6n, 1), (lambda: sl(3), 1), (lambda: gl(3), 1),
    (f7, 1), (u1, 1), (lambda: delta0((2, 2, 2, 1, 1, 1, 1)), 1), (u2, 1),
    (lambda: sl(4), 1), (lambda: gl(4), 1), (lambda: witt(4), 1),
    (delta2, 2), (f6n, 2), (lambda: sl(3), 2), (lambda: witt(3), 2),
)


def verify_ops(seed):
    rng = random.Random(f"verify/{seed}")
    ops = []
    for build, k in VERIFY_ALGEBRAS:
        alg = build()
        for corrupt in (False, True):
            name = f"v{len(ops):02d}_{alg.name}_k{k}" + ("_bad" if corrupt else "")
            shuffled = _shuffle(rng, alg, name)
            expect = {"kind": "verify", "dim": alg.dim, "k": k, "bad": None}
            if corrupt:
                bad = rng.choice(toral_basis_indices(shuffled))
                shuffled = with_zero_image(shuffled, bad, name)
                expect["bad"] = bad
            ops.append(Op(name, ("verify", None, "--report", "json"), dumps(shuffled, k), expect))
    return ops


# sl(3) (rank 2, about 12 s) is left out: one such operation fills a run, so
# each run would hold one sample of it and the run's latencies would be single
# samples instead of medians over rounds.  f6 comes in four permutations, so
# the median latency falls on the generic k > 1 search, not on a 5-15 ms input.
RANK_ALGEBRAS = (
    (lambda: gl(2), 2, 1), (lambda: witt(2), 1, 1), (rank2sq, 2, 1),
    (lambda: witt(3), 1, 1), (f6, 3, 4), (gltor, 3, 1),
)


def rank_ops(seed):
    rng = random.Random(f"rank/{seed}")
    ops = []
    for build, rank, copies in RANK_ALGEBRAS:
        alg = build()
        for _ in range(copies):
            name = f"r{len(ops):02d}_{alg.name}"
            ops.append(Op(name, ("rank", None, "--max-field-degree", "2"),
                          dumps(_shuffle(rng, alg, name)), {"kind": "rank", "rank": rank}))
    return ops


def warmup_text() -> str:
    """The warm-up input, gl(2): every subcommand answers it in a few milliseconds."""
    return dumps(gl(2))


BUILDERS = {"screen": screen_ops, "oracle": oracle_ops, "verify": verify_ops, "rank": rank_ops}


def digest(ops) -> str:
    """SHA-256 over every op's arguments, input text and expected answer."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.name, list(op.args), op.text, op.expect],
                            sort_keys=True).encode())
    return h.hexdigest()
