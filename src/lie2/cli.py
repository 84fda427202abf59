"""Command-line surface.

Subcommands::

    lie2 verify <file> [--report json|text]
    lie2 decompose <file> [--field-degree K]
    lie2 rank <file> [--max-field-degree K]
    lie2 screen <file>
    lie2 simple <file> [--budget N]
    lie2 paper-suite [--fixtures DIR]

Exit codes, for every subcommand:

    ====  ==============================================================
    0     success; ``verify``: both axiom suites are clean; ``screen``:
          PassesNecessaryConditions; ``paper-suite``: every check passes
    1     ``verify``: an axiom fails; ``paper-suite``: a check fails
    2     refused input: a malformed, unreadable or non-ASCII file, or a
          refused budget (``rank`` reports a refused field degree and goes
          on, exiting 2 only when every degree is refused)
    3     a proved containment failed (ContradictionError): a defect in
          the program, or an input corrupted after verification
    10    ``screen``: NotSimpleWitness
    20    ``screen``: OutOfScope
    141   stdout was closed before the output was written (a reader such
          as ``head`` exited early); 128 + SIGPIPE, as a shell reports it
    ====  ==============================================================

``decompose --field-degree`` accepts 0 (keep the file's field) or 1..16,
``rank --max-field-degree`` 1..16 and ``simple --budget`` any N >= 1; a
number outside its range is a usage error, exit 2, as argparse reports it.
``simple --budget N`` runs the oracle on inputs with k*n <= floor(log2 N),
which need fewer than N generator closures, and refuses larger ones.

Errors go to stderr as ``error: ...``.  All output is deterministic given
the flags and ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path

from . import fileio, fixtures
from .algebra import center, verify_lie
from .errors import BudgetExceededError, ContradictionError, Lie2Error
from .field import IRREDUCIBLE_POLY
from .linalg import coeffs
from .restricted import extend_scalars, verify_two_map
from .roots import (
    classify_delta,
    format_root,
    grading_check,
    is_standard,
    is_triangulable,
    root_decomposition,
)
from .screening import (
    VERDICT_OUT_OF_SCOPE,
    VERDICT_PASSES,
    VERDICT_WITNESS,
    check_dim_bound,
    construct_ideal_rank3,
    dimension_transfer,
    is_simple,
    missing_roots_obstruction,
    n_subspace,
    one_dim_rootspace_ideal,
    self_bracket_bound,
    simplicity_screen,
)
from .tori import maximal_torus

SCREEN_EXIT = {VERDICT_PASSES: 0, VERDICT_WITNESS: 10, VERDICT_OUT_OF_SCOPE: 20}
BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE


def _fmt_vec(g, v):
    return "(" + ",".join(map(str, coeffs(g.field, g.dim, v))) + ")"


def cmd_verify(args) -> int:
    g, tm = fileio.load(args.file)
    lie = verify_lie(g)
    two = verify_two_map(g, tm)
    ok = lie.ok and two.ok
    if args.report == "json":
        print(json.dumps({
            "name": g.name,
            "dim": g.dim,
            "field_degree": g.field.k,
            "lie_ok": lie.ok,
            "two_map_ok": two.ok,
            "alternating_violations": lie.alternating_violations,
            "symmetry_violations": lie.symmetry_violations,
            "jacobi_violations": lie.jacobi_violations,
            "adjoint_violations": [[_fmt_vec(g, v), j] for v, j in two.adjoint_violations],
        }, sort_keys=True))
    else:
        print(f"algebra {g.name}: dim {g.dim} over {g.field}")
        print(f"lie axioms: {'ok' if lie.ok else lie}")
        print(f"2-map axioms: {'ok' if two.ok else two}")
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    g, tm = fileio.load(args.file)
    if args.field_degree and args.field_degree != g.field.k:
        g, tm = extend_scalars(g, tm, args.field_degree)
    t = maximal_torus(g, tm)
    d = root_decomposition(g, tm, t)
    print(f"algebra {g.name}: dim {g.dim} over {g.field}")
    print(f"torus dim {t.dim}, cartan dim {d.cartan.dim}, nil dim {d.nil_part.dim}")
    print(f"roots ({len(d.roots)}):")
    for lam in d.root_list():
        print(f"  {format_root(lam, d.rank)} dim {d.roots[lam].dim}")
    if d.rank == 3:
        print(f"configuration: {classify_delta(d).label}")
    else:
        print(f"configuration: n/a (rank {d.rank})")
    grading = grading_check(g, d)
    print(f"grading: {'ok' if grading.ok else grading}")
    print(f"triangulable: {'yes' if is_triangulable(g, d) else 'no'}")
    print(f"standard: {'yes' if is_standard(g, d) else 'no'}")
    return 0


def cmd_rank(args) -> int:
    g, tm = fileio.load(args.file)
    degrees = [g.field.k]
    if g.field.k == 1 and args.max_field_degree > 1:
        degrees = list(range(1, args.max_field_degree + 1))
    ranks = {}  # computed degrees only; a refused degree is reported and skipped
    for k in degrees:
        gk, tmk = extend_scalars(g, tm, k) if k != g.field.k else (g, tm)
        try:
            ranks[k] = maximal_torus(gk, tmk).dim
        except BudgetExceededError as exc:
            print(f"field degree {k}: refused ({exc})")
            continue
        print(f"field degree {k}: toral rank {ranks[k]}")
    if not ranks:
        return 2
    for k in ranks:
        if 2 * k in ranks and ranks[k] == ranks[2 * k]:
            print(f"stabilization: rank equal at degrees {k} and {2 * k}")
            break
    else:
        if len(ranks) > 1:
            print("stabilization: not observed within the requested degrees")
    return 0


def cmd_screen(args) -> int:
    g, tm = fileio.load(args.file)
    res = simplicity_screen(g, tm)
    print(f"algebra {g.name}: {res.verdict}")
    if res.reason:
        print(f"reason: {res.reason}")
    if res.ideal is not None:
        rep = res.ideal
        print(
            f"witness ideal: construction {rep.lemma}, dim {rep.subspace.dim} of {g.dim}, "
            f"verified={rep.verified_ideal} proper={rep.proper} nonzero={rep.nonzero}"
        )
    if res.unequal_pair:
        a, b = (format_root(lam, 3) for lam in res.unequal_pair)  # set on rank 3 only
        print(f"unequal root-space dimensions at {a} and {b}")
    return SCREEN_EXIT[res.verdict]


def cmd_simple(args) -> int:
    g, tm = fileio.load(args.file)
    verdict = is_simple(g, tm, budget_bits=args.budget.bit_length() - 1)
    if verdict.simple:
        print(f"algebra {g.name}: simple ({verdict.closures_run} generator closures)")
    else:
        detail = f"counterexample generator {_fmt_vec(g, verdict.counterexample)}" \
            if verdict.counterexample is not None else verdict.reason
        print(f"algebra {g.name}: not simple ({detail})")
    return 0


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------

def _suite_corpus():
    return [
        ("torus1", lambda: fixtures.torus(1)),
        ("torus2", lambda: fixtures.torus(2)),
        ("torus3", lambda: fixtures.torus(3)),
        ("torus4", lambda: fixtures.torus(4)),
        ("f6", fixtures.f6),
        ("f6n", fixtures.f6n),
        ("f7", fixtures.f7),
        ("delta2", fixtures.delta2),
        ("u1", fixtures.u1),
        ("u2", fixtures.u2),
        ("gl2", lambda: fixtures.gl(2)),
        ("gl3", lambda: fixtures.gl(3)),
        ("witt1", lambda: fixtures.witt(1)),
        ("witt2", lambda: fixtures.witt(2)),
        ("rank2sq", fixtures.rank2sq),
        ("gltor", fixtures.gltor),
    ]


class _Suite:
    def __init__(self):
        self.lines = []
        self.failures = 0

    def check(self, fixture_name, check_name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failures += 1
        self.lines.append(f"{status} {fixture_name} {check_name} {detail}".rstrip())

    def emit(self):
        for line in self.lines:
            print(line)
        print(f"SUMMARY checks={len(self.lines)} failures={self.failures}")
        return 0 if self.failures == 0 else 1


def _suite_fixture_checks(suite, name, g, tm):
    lie = verify_lie(g)
    two = verify_two_map(g, tm)
    suite.check(name, "axioms", lie.ok and two.ok, f"lie={lie.ok} twomap={two.ok}")

    t = maximal_torus(g, tm)
    d = root_decomposition(g, tm, t)
    total = d.cartan.dim + sum(sp.dim for sp in d.roots.values())
    grading = grading_check(g, d)
    suite.check(
        name, "decomposition",
        total == g.dim and grading.ok,
        f"h={d.cartan.dim} roots={total - d.cartan.dim} dim={g.dim} grading={grading.ok}",
    )

    idempotent = all(
        (m := g.ad_matrix(ti)).matmul(m) == m for ti in t.toral_basis
    )
    suite.check(name, "toral-idempotent", idempotent, f"{t.dim} basis elements")

    centerless = center(g).dim == 0
    if centerless:
        bound = check_dim_bound(g, tm, d)
        suite.check(name, "dim-bound", bound.ok,
                    f"{bound.dim} >= 2*{bound.rank}, {bound.independent_roots} independent roots")

    roots = d.root_list()
    for xi in roots:
        for eta in roots:
            if xi == eta:
                continue
            res = dimension_transfer(g, tm, d, xi, eta)
            suite.check(
                name, f"dimension-transfer:{format_root(xi, d.rank)}->{format_root(eta, d.rank)}",
                True,
                res.status if res.status == "HypothesisNotMet"
                else f"dims {res.dim_eta}={res.dim_xi_eta}",
            )

    if d.rank == 3:
        cls = classify_delta(d)
        if cls.index is not None and cls.index != 0 and is_triangulable(g, d):
            obs = missing_roots_obstruction(g, tm, d)
            suite.check(name, "obstruction", obs.ok,
                        f"{obs.configuration} proj {obs.projection_dim} <= slice {obs.slice_dim}")
        if cls.index is not None and is_triangulable(g, d):
            for xi in roots:
                rep = self_bracket_bound(g, tm, d, xi)
                suite.check(name, f"self-bracket-bound:{format_root(xi, d.rank)}", rep.confined,
                            f"slice dim {rep.slice_dim}")
        if centerless and cls.index == 0:
            rep = construct_ideal_rank3(g, tm, d)
            if rep.lemma is None:
                dims_equal = len({sp.dim for sp in d.roots.values()}) == 1
                suite.check(name, "rank3-construction", dims_equal, "equal dimensions, none fires")
            else:
                suite.check(
                    name, "rank3-construction",
                    rep.verified_ideal and rep.proper and rep.nonzero,
                    f"{rep.lemma} dim {rep.subspace.dim}",
                )
        if centerless and all(sp.dim == 1 for sp in d.roots.values()) and d.roots:
            rep = one_dim_rootspace_ideal(g, tm, d)
            suite.check(name, "one-dim-ideal",
                        rep.verified_ideal and rep.proper and rep.nonzero,
                        f"dim {rep.subspace.dim}")


def _suite_nsubspace_identity(suite, rng):
    """Seeded random triples: n_subspace(s, d) == n_subspace(s, s + d)."""
    pool = [fixtures.f7(), fixtures.u1(), fixtures.u2(), fixtures.delta0((1, 2, 1, 2, 1, 1, 2))]
    decomps = []
    for g, tm in pool:
        t = maximal_torus(g, tm)
        decomps.append((g, tm, root_decomposition(g, tm, t)))
    ok = True
    trials = 40
    for _ in range(trials):
        g, tm, d = decomps[rng.randrange(len(decomps))]
        roots = d.root_list()
        sigma = roots[rng.randrange(len(roots))]
        delta = roots[rng.randrange(len(roots))]
        if sigma == delta:
            continue
        if n_subspace(g, tm, d, sigma, delta) != n_subspace(g, tm, d, sigma, sigma ^ delta):
            ok = False
            break
    suite.check("corpus", "n-subspace-identity", ok, f"{trials} seeded triples")


def _suite_vacuity(suite):
    simple_hits = []
    witnessed = 0
    family = fixtures.vacuity_family()
    for label, build in family:
        g, tm = build()
        t = maximal_torus(g, tm)
        d = root_decomposition(g, tm, t)
        rep = construct_ideal_rank3(g, tm, d)
        if rep.lemma is None:
            rep = one_dim_rootspace_ideal(g, tm, d)
        ok = rep.verified_ideal and rep.proper and rep.nonzero
        verdict = is_simple(g, tm)
        if verdict.simple:
            simple_hits.append(label)
        if ok:
            witnessed += 1
        if not ok or verdict.simple:
            suite.check("vacuity", label, False, "missing witness or simple")
    suite.check(
        "vacuity", "family",
        witnessed == len(family) and not simple_hits,
        f"{len(family)} instances, {witnessed} witnessed, {len(simple_hits)} simple",
    )


def cmd_paper_suite(args) -> int:
    suite = _Suite()
    rng = random.Random(args.seed)
    for name, build in _suite_corpus():
        try:
            g, tm = build()
            _suite_fixture_checks(suite, name, g, tm)
        except Lie2Error as exc:
            suite.check(name, "fixture", False, str(exc))
    if args.fixtures:
        for path in sorted(Path(args.fixtures).glob("*.l2a")):
            try:
                g, tm = fileio.load(path)
                _suite_fixture_checks(suite, g.name or path.stem, g, tm)
            except Lie2Error as exc:
                suite.check(path.stem, "fixture", False, str(exc))
    _suite_nsubspace_identity(suite, rng)
    _suite_vacuity(suite)
    return suite.emit()


# ---------------------------------------------------------------------------

def _int_in(lo, hi=None):
    """An argparse type: an integer in lo..hi, with no upper end when hi is None."""
    def integer(text):
        value = int(text)
        if value < lo or hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"{value} is not in {lo}..{'' if hi is None else hi}")
        return value
    return integer


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="lie2",
        description="exact workbench for restricted Lie algebras over GF(2^k)",
    )
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for any sampled (non-exhaustive) checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the Lie and 2-map axioms")
    p.add_argument("file")
    p.add_argument("--report", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="root space decomposition and configuration")
    p.add_argument("file")
    p.add_argument("--field-degree", type=_int_in(0, max(IRREDUCIBLE_POLY)), default=0,
                   help="extend scalars to GF(2^K), 1..16, before decomposing; 0 keeps "
                        "the file's field")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rank", help="relative toral rank per field degree")
    p.add_argument("file")
    p.add_argument("--max-field-degree", type=_int_in(1, max(IRREDUCIBLE_POLY)), default=2,
                   help="try every degree 1..K, K in 1..16, for a GF(2) file")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("screen", help="necessary-condition simplicity screen")
    p.add_argument("file")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("simple", help="brute-force simplicity oracle")
    p.add_argument("file")
    p.add_argument("--budget", type=_int_in(1), default=1 << 20, metavar="N",
                   help="generator closures allowed, at least 1: an input runs when "
                        "k*n <= floor(log2 N)")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("paper-suite", help="run the built-in check suite over the corpus")
    p.add_argument("--fixtures", default=None, help="directory of extra .l2a files")
    p.set_defaults(func=cmd_paper_suite)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that what is still
        # buffered goes nowhere when the interpreter flushes it on exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_EXIT
    except ContradictionError as exc:
        print(f"error: contradiction: {exc}", file=sys.stderr)
        return 3
    except Lie2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
