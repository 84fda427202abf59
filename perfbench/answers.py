"""Known-answer checks: each op's exit code and stdout against what its input implies."""

from __future__ import annotations

import json
import re

from inputs import CONSTRUCTIONS, coords_text

_WITNESS = re.compile(
    r"witness ideal: construction (\w+), dim (\d+) of (\d+), "
    r"verified=(\w+) proper=(\w+) nonzero=(\w+)$"
)


def check(op, rc, out: str):
    """None if ``rc`` and ``out`` are the answer ``op.expect`` calls for, else why not."""
    kind = op.expect["kind"]
    lines = out.splitlines()
    want_rc = {"passes": 0, "simple": 0, "not_simple": 0, "rank": 0}.get(kind, 10)
    if kind == "verify":
        want_rc = 0 if op.expect["bad"] is None else 1
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if kind == "verify":
        return _check_verify(op, out)
    if kind == "rank":
        r = op.expect["rank"]
        want = [f"field degree 1: toral rank {r}", f"field degree 2: toral rank {r}",
                "stabilization: rank equal at degrees 1 and 2"]
        return None if lines == want else f"rank output {lines!r}, expected {want!r}"
    if kind == "simple":
        want = [f"algebra {op.name}: simple ({op.expect['closures']} generator closures)"]
        return None if lines == want else f"oracle output {lines!r}, expected {want!r}"
    if kind == "not_simple":
        want = [f"algebra {op.name}: not simple "
                f"(counterexample generator {op.expect['counterexample']})"]
        return None if lines == want else f"oracle output {lines!r}, expected {want!r}"
    return _check_screen(op, lines)


def _check_screen(op, lines):
    kind, n = op.expect["kind"], op.expect["dim"]
    if kind == "passes":
        want = [f"algebra {op.name}: PassesNecessaryConditions",
                f"reason: all seven root spaces of dimension 2, dim(g) = {n}"]
        return None if lines == want else f"screen output {lines!r}, expected {want!r}"
    if len(lines) < 3 or lines[0] != f"algebra {op.name}: NotSimpleWitness":
        return f"screen output {lines!r}, expected a NotSimpleWitness verdict"
    m = _WITNESS.match(lines[2])
    if m is None or m.group(4, 5, 6) != ("True", "True", "True") or int(m.group(3)) != n:
        return f"witness line {lines[2]!r} is not a verified proper nonzero ideal of dim {n}"
    lemma, ideal_dim = m.group(1), int(m.group(2))
    if kind == "missing":
        want = (f"reason: configuration {op.expect['label']}", "MissingRoots", n - 3, 3)
    elif kind == "one_dim":
        want = ("reason: all root spaces one-dimensional", "Dim1", n - 3, 3)
    else:
        if lemma not in CONSTRUCTIONS or not 0 < ideal_dim < n:
            return f"witness line {lines[2]!r} names no rank-3 construction"
        want = (f"reason: construction {lemma}", lemma, ideal_dim, 4)
        if len(lines) != 4 or not lines[3].startswith("unequal root-space dimensions at "):
            return f"screen output {lines!r} does not name an unequal pair"
    got = (lines[1], lemma, ideal_dim, len(lines))
    return None if got == want else f"screen answer {got!r}, expected {want!r}"


def _check_verify(op, out):
    try:
        rep = json.loads(out)
    except ValueError:
        return f"verify output is not JSON: {out[:200]!r}"
    e, bad = op.expect, op.expect["bad"]
    head = (rep.get("name"), rep.get("dim"), rep.get("field_degree"), rep.get("lie_ok"),
            rep.get("two_map_ok"))
    if head != (op.name, e["dim"], e["k"], True, bad is None):
        return f"verify report {head!r} disagrees with the input"
    if rep["alternating_violations"] or rep["symmetry_violations"] or rep["jacobi_violations"]:
        return "verify reports Lie-axiom violations on a valid bracket"
    violations = [vec for vec, _witness in rep["adjoint_violations"]]
    if bad is None:
        return None if not violations else f"clean file has adjoint violations {violations[:3]}"
    # zeroing b_bad^[2] breaks the adjoint axiom exactly on vectors involving b_bad;
    # the basis vectors are checked first, so the first violation is b_bad itself
    named = coords_text(e["dim"], {bad})
    if not violations or violations[0] != named:
        return f"first adjoint violation {violations[:1]}, expected {named}"
    if any(vec.strip("()").split(",")[bad] == "0" for vec in violations):
        return f"adjoint violations {violations} include a vector without b_{bad}"
    return None
