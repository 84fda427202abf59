"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import answers  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import lie2.cli  # noqa: E402
from lie2 import fileio, fixtures  # noqa: E402
from lie2.restricted import extend_scalars  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.BUILDERS))
def test_digest_repeats_for_a_seed_and_changes_with_it(workload):
    build = inputs.BUILDERS[workload]
    assert inputs.digest(build(7)) == inputs.digest(build(7))
    assert inputs.digest(build(7)) != inputs.digest(build(8))


FAMILIES = [
    (inputs.f6, fixtures.f6), (inputs.f6n, fixtures.f6n), (inputs.f7, fixtures.f7),
    (inputs.delta2, fixtures.delta2), (inputs.u1, fixtures.u1), (inputs.u2, fixtures.u2),
    (inputs.rank2sq, fixtures.rank2sq), (inputs.gltor, fixtures.gltor),
    (lambda: inputs.delta0((3, 1, 2, 1, 1, 3, 2)), lambda: fixtures.delta0((3, 1, 2, 1, 1, 3, 2))),
    (lambda: inputs.gl(3), lambda: fixtures.gl(3)), (lambda: inputs.sl(4), lambda: fixtures.sl(4)),
    (lambda: inputs.witt(3), lambda: fixtures.witt(3)),
]


@pytest.mark.parametrize("mine, ref", FAMILIES)
def test_generator_writes_the_fixture_text(mine, ref):
    g, tm = ref()
    assert inputs.dumps(mine()) == fileio.dumps(g, tm)
    assert inputs.dumps(mine(), 2) == fileio.dumps(*extend_scalars(g, tm, 2))


def test_permutation_matches_permute_basis():
    perm = [4, 0, 14, 2, 13, 1, 3, 12, 5, 11, 6, 10, 7, 9, 8]
    g, tm = fixtures.permute_basis(*fixtures.u2(), perm, name="p")
    assert inputs.dumps(inputs.permuted(inputs.u2(), perm, "p")) == fileio.dumps(g, tm)


def _family_representatives():
    """The smallest op of each (workload, answer kind, field degree)."""
    best = {}
    for workload, build in sorted(inputs.BUILDERS.items()):
        for op in build(1):
            key = (workload, op.expect["kind"], op.expect.get("k"), op.expect.get("bad") is None)
            if key not in best or len(op.text) < len(best[key].text):
                best[key] = op
    return [best[k] for k in sorted(best, key=str)]


REPRESENTATIVES = _family_representatives()


def _run(op, tmp_path):
    path = tmp_path / f"{op.name}.l2a"
    path.write_text(op.text)
    return run.run_op(lie2.cli, op, str(path))


# One wrong answer per kind of output; the first substitution that changes it applies.
WRONG = [
    ("NotSimpleWitness", "PassesNecessaryConditions"),
    ("PassesNecessaryConditions", "NotSimpleWitness"),
    ('"two_map_ok": true', '"two_map_ok": false'),
    ('"two_map_ok": false', '"two_map_ok": true'),
    ("(255 generator closures)", "(254 generator closures)"),
    ("counterexample generator (", "counterexample generator (1,"),
    ("toral rank ", "toral rank 1"),
]


@pytest.mark.parametrize("op", REPRESENTATIVES, ids=lambda op: op.name)
def test_op_passes_its_known_answer_and_wrong_answers_fail(op, tmp_path):
    path = tmp_path / f"{op.name}.l2a"
    path.write_text(op.text)
    rc, out, _err = run.call(lie2.cli, op.argv(str(path)))
    assert answers.check(op, rc, out) is None
    wrong = next(out.replace(a, b) for a, b in WRONG if a in out)
    assert answers.check(op, rc, wrong) is not None
    assert answers.check(op, rc + 1, out) is not None
    assert answers.check(op, rc, "") is not None


def _bindings():
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "lie2" or name.startswith("lie2."):
            for attr, obj in vars(mod).items():
                seen[(name, attr)] = obj
                if inspect.isclass(obj):
                    for member, val in vars(obj).items():
                        seen[(name, attr, member)] = val
    return seen


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    original_rref = lie2.linalg.rref_rows
    tr = tracer.Tracer()
    tr.install()
    try:
        assert lie2.tori.rref_rows is not original_rref
        assert lie2.tori.rref_rows is lie2.linalg.rref_rows is lie2.algebra.rref_rows
        assert lie2.algebra.LieAlgebra.bracket is not before[("lie2.algebra", "LieAlgebra",
                                                              "bracket")]
        for op in REPRESENTATIVES:
            if op.name.startswith(("s", "v")):
                assert _run(op, tmp_path)[1] is None
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    m = tr.metrics()
    assert m["algebra.bracket_calls"][0] > 0 and m["tori.candidates"][0] > 0
    assert m["restricted.square_calls"][0] > 0 and m["field.mul_calls"][0] > 0
    assert tr.per_call > 0
    assert sum(tr.layer_self().values()) == pytest.approx(tr.net_total())


def test_net_times_drop_the_wrapper_cost():
    root = tracer.Span("bench", "bench")
    outer = root.children["a"] = tracer.Span("a", "algebra")
    inner = outer.children["b"] = tracer.Span("b", "field")
    outer.count, outer.incl = 2, 100.0
    inner.count, inner.incl = 10, 40.0
    # each wrapped call costs 1.0, of which 0.25 inside its own interval
    assert root.correct(1.0, 0.25) == 12
    assert inner.net == 40.0 - 10 * 0.25
    assert outer.net == 100.0 - 2 * 0.25 - 10 * 1.0
    assert outer.net_self == 60.0 - 2 * 0.25 - 10 * 0.75


def test_tail_is_nearest_rank():
    xs = [float(i) for i in range(100, 0, -1)]
    assert run.tail(xs, 80.0) == (80.0, 20)
    assert run.tail(xs, 79.5) == (80.0, 20)
    assert run.tail(xs, 100.0) == (100.0, 0)
