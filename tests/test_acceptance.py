"""Acceptance suite: ten criteria, one test and one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each test pins its tolerance (exact equality everywhere; this is
exact arithmetic) and its runtime budget where one is stated.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lie2.algebra import center, ideal_closure, is_ideal, verify_lie
from lie2.field import gf
from lie2.fixtures import (
    delta0,
    delta2,
    f6,
    f6n,
    f7,
    gl,
    torus,
    u1,
    u2,
    vacuity_family,
    witt,
)
from lie2.restricted import jcs_decompose, is_semisimple, is_two_nilpotent, two_envelope, verify_two_map
from lie2.roots import (
    classify_delta,
    grading_check,
    root_decomposition,
)
from lie2.screening import (
    VERDICT_WITNESS,
    is_simple,
    missing_roots_obstruction,
    n_subspace,
    one_dim_rootspace_ideal,
    simplicity_screen,
)
from lie2.tori import maximal_torus

F2 = gf(1)

SHIPPED = [
    ("torus1", lambda: torus(1)),
    ("torus2", lambda: torus(2)),
    ("torus3", lambda: torus(3)),
    ("torus4", lambda: torus(4)),
    ("f6", f6),
    ("f7", f7),
    ("f6n", f6n),
    ("u1", u1),
    ("u2", u2),
    ("gl2", lambda: gl(2)),
    ("gl3", lambda: gl(3)),
    ("witt1", lambda: witt(1)),
    ("witt2", lambda: witt(2)),
]


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def decompose(build):
    g, tm = build()
    t = maximal_torus(g, tm)
    return g, tm, root_decomposition(g, tm, t)


def test_criterion_1_axiom_suite():
    start = time.monotonic()
    for name, build in SHIPPED:
        g, tm = build()
        assert verify_lie(g).ok, name
        assert verify_two_map(g, tm).ok, name
    elapsed = time.monotonic() - start
    _verdict(1, elapsed < 5.0,
             f"axiom suite clean on {len(SHIPPED)} fixtures in {elapsed:.2f}s (< 5s)")


def test_criterion_2_decomposition_completeness():
    worst = 0.0
    for name, build in SHIPPED:
        g, tm = build()
        t = maximal_torus(g, tm)
        start = time.monotonic()
        d = root_decomposition(g, tm, t)
        total = d.cartan.dim + sum(sp.dim for sp in d.roots.values())
        assert total == g.dim, name
        assert grading_check(g, d).ok, name
        worst = max(worst, time.monotonic() - start)
    _verdict(2, worst < 1.0,
             f"completeness and grading exact on all fixtures, worst {worst:.3f}s (< 1s each)")


def test_criterion_3_toral_action_idempotent():
    checked = 0
    for name, build in SHIPPED:
        g, tm, d = decompose(build)
        for ti in d.torus.toral_basis:
            m = g.ad_matrix(ti)
            assert m.matmul(m) == m, name
            checked += 1
    _verdict(3, True, f"ad(t)^2 = ad(t) exactly for all {checked} toral basis elements")


def test_criterion_4_dimension_bound():
    centerless = []
    for name, build in SHIPPED:
        g, tm = build()
        if center(g).dim:
            continue
        rank = maximal_torus(g, tm).dim
        assert g.dim >= 2 * rank, name
        centerless.append(name)
    g, tm = f6()
    assert g.dim == 2 * maximal_torus(g, tm).dim
    _verdict(4, True,
             f"dim >= 2*rank on centerless fixtures {centerless}, equality attained by f6")


def test_criterion_5_ideal_soundness_and_oracle():
    start = time.monotonic()
    reports = []
    for name, build in SHIPPED:
        g, tm = build()
        res = simplicity_screen(g, tm)
        if res.ideal is not None:
            reports.append((name, g, tm, res.ideal))
    # independent recomputation for every produced report
    for name, g, tm, rep in reports:
        assert is_ideal(g, rep.subspace), name
        assert ideal_closure(g, rep.subspace) == rep.subspace, name
        assert 0 < rep.subspace.dim < g.dim, name
        assert rep.verified_ideal and rep.proper and rep.nonzero, name
    disagreements = []
    closures = 0
    for name, g, tm, rep in reports:
        if g.dim <= 12:
            verdict = is_simple(g)
            closures += verdict.closures_run
            if verdict.simple:
                disagreements.append(name)
    elapsed = time.monotonic() - start
    ok = not disagreements and closures < 2 ** 12 and elapsed < 30.0
    _verdict(5, ok,
             f"{len(reports)} witness ideals re-verified; oracle confirms non-simplicity "
             f"({closures} closures, {elapsed:.2f}s, disagreements={disagreements})")


def test_criterion_6_obstruction_containments():
    results = []
    for build in (f6, delta2):  # Delta1- and Delta2-realizing fixtures
        g, tm, d = decompose(lambda b=build: b())
        cls = classify_delta(d)
        obs = missing_roots_obstruction(g, d)
        assert obs.contained, g.name
        assert obs.slice_dim <= 2 < d.rank, g.name
        results.append((g.name, cls.label, obs.projection_dim, obs.slice_dim))
    _verdict(6, True, f"torus projections contained in tabulated slices: {results}")


def test_criterion_7_vacuity_family():
    start = time.monotonic()
    family = vacuity_family()
    assert len(family) >= 140
    simple_hits, unwitnessed = [], []
    for label, build in family:
        g, tm = build()
        res = simplicity_screen(g, tm)
        witnessed = (
            res.verdict == VERDICT_WITNESS
            and res.ideal is not None
            and res.ideal.verified_ideal and res.ideal.proper and res.ideal.nonzero
        )
        if not witnessed:
            unwitnessed.append(label)
        if is_simple(g).simple:
            simple_hits.append(label)
    elapsed = time.monotonic() - start
    ok = not simple_hits and not unwitnessed and elapsed < 600.0
    _verdict(7, ok,
             f"{len(family)} instances: 0 simple, all witnessed, {elapsed:.1f}s (< 600s)")


def test_criterion_8_n_subspace_identity():
    rng = random.Random(8)
    pool = [decompose(b) for b in (f7, u1, u2, lambda: delta0((1, 2, 1, 2, 1, 1, 2)))]
    checked = 0
    while checked < 100:
        g, tm, d = pool[rng.randrange(len(pool))]
        roots = d.root_list()
        sigma = roots[rng.randrange(len(roots))]
        delta = roots[rng.randrange(len(roots))]
        if sigma == delta:
            continue
        assert n_subspace(g, d, sigma, delta) == n_subspace(g, d, sigma, sigma ^ delta)
        checked += 1
    _verdict(8, True, "N(sigma,delta) = N(sigma,sigma+delta) on 100 randomized triples, exact")


def test_criterion_9_jcs_exhaustive():
    start = time.monotonic()
    for build in (f6, lambda: gl(2)):
        g, tm = build()
        for x in range(1 << g.dim):
            xs, xn = jcs_decompose(g, tm, x)
            assert xs ^ xn == x
            assert g.bracket(xs, xn) == 0
            assert is_semisimple(g, tm, xs) and is_two_nilpotent(g, tm, xn)
            # brute-force oracle over the envelope: the split is unique
            env = two_envelope(g, tm, x)
            hits = [
                (s, x ^ s)
                for s in env.vectors()
                if g.bracket(s, x ^ s) == 0
                and is_semisimple(g, tm, s)
                and is_two_nilpotent(g, tm, x ^ s)
            ]
            assert hits == [(xs, xn)]
    elapsed = time.monotonic() - start
    _verdict(9, elapsed < 1.0,
             f"split matches envelope oracle on all 80 vectors of f6 and gl2, {elapsed:.2f}s (< 1s)")


# the stdout of `lie2 paper-suite`, which a change may not alter
GOLDEN_PAPER_SUITE = Path(__file__).parent / "data" / "paper_suite.txt"


@pytest.mark.slow
def test_criterion_10_paper_suite_determinism():
    cmd = [sys.executable, "-m", "lie2.cli", "paper-suite"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    golden = GOLDEN_PAPER_SUITE.read_bytes()
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout == golden
        and first.stderr == second.stderr
    )
    _verdict(10, ok,
             f"paper-suite byte-identical across runs and to {GOLDEN_PAPER_SUITE.name} "
             f"({len(first.stdout)} bytes, exit 0)")
