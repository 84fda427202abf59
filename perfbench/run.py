"""lie2 benchmark: four ``lie2`` CLI workloads with known-answer checks.

Usage, from the root of a lie2 checkout::

    python3 perfbench/run.py --workload screen --seed 1 --seconds 25 --trace 0

Each operation is one ``lie2`` subcommand run in-process through
``lie2.cli.main(argv)`` on an ``.l2a`` file written at set-up.  Load is a
closed loop: one client in one thread issues operations back to back.  A run
is a whole number of rounds, each round every input of the workload once in
a seeded order, so every run measures the same mix of operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs rounds
untraced and traced by ``tracer.py`` in turn, and prints the per-layer
metrics together with the tracing overhead.  The last line of
stdout is the result as JSON; the line before it gives details (input
digest, tail percentile, sample counts, failed fraction, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import answers
import inputs
from tracer import COMPUTED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Latency tail percentile per workload, taken over the inputs' median
# latencies (a round run at each input's median).  A percentile of all samples
# picked per run from the sample count would move between the round's cost
# classes as the number of rounds changes.  Each lands in the middle of a group
# of inputs of like cost and leaves at least 10 samples beyond it from 5 rounds
# on, except on rank (see README.md).
TAIL_PERCENTILE = {"screen": 82.0, "oracle": 80.0, "verify": 85.0, "rank": 85.0}
SETUP_RUNS = 11  # fresh interpreters per set-up measurement (after one discarded)

SETUP_CHILD = r"""
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lie2.cli
with contextlib.redirect_stdout(io.StringIO()):
    lie2.cli.main(sys.argv[2:])
print(time.perf_counter() - t0)
"""


def call(cli, argv):
    """``lie2 argv`` in-process: returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_op(cli, op, path):
    """One operation: returns (seconds, failure message or None)."""
    t0 = time.perf_counter()
    try:
        rc, out, err = call(cli, op.argv(path))
    except Exception:  # an exception is a failed operation, not the end of the run
        return time.perf_counter() - t0, f"{op.name}: raised\n{traceback.format_exc()}"
    elapsed = time.perf_counter() - t0
    problem = answers.check(op, rc, out)
    if problem is not None:
        problem = f"{op.name}: {problem}; stderr {err[-300:]!r}"
    return elapsed, problem


def run_rounds(cli, ops, paths, rng, seconds=None, rounds=None, between=None):
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds``).

    ``between``, if given, is called after every operation, outside its timing.
    Returns (latencies per op, failures, wall time of each round).
    """
    latencies, failures, round_walls = [[] for _ in ops], [], []
    t0 = time.perf_counter()
    while (len(round_walls) < rounds if rounds is not None
           else time.perf_counter() - t0 < seconds):
        order = list(range(len(ops)))
        rng.shuffle(order)
        r0 = time.perf_counter()
        for i in order:
            dt, problem = run_op(cli, ops[i], paths[i])
            latencies[i].append(dt)
            if problem is not None:
                failures.append(problem)
            if between is not None:
                between()
        round_walls.append(time.perf_counter() - r0)
    return latencies, failures, round_walls


class SetupClock:
    """Set-up time: ``import lie2.cli`` plus one warm-up call, in a fresh interpreter.

    The machine's speed moves between states up to 1.8x apart, each lasting
    from under a second to longer than a run, so samples taken back to back
    tend to land in one state.  ``tick``
    takes one sample every ``interval`` seconds while the rounds run (outside
    any operation's timing), spreading the samples over the run; ``median``
    tops them up to ``SETUP_RUNS``.
    """

    def __init__(self, warm_argv, interval):
        self.cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), *warm_argv]
        self.interval = interval
        self.sample()  # writes the bytecode caches; discarded
        self.times = []

    def sample(self):
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        self.last = time.perf_counter()
        return float(done.stdout.strip().splitlines()[-1])

    def tick(self):
        if len(self.times) < SETUP_RUNS and time.perf_counter() - self.last >= self.interval:
            self.times.append(self.sample())

    def median(self):
        while len(self.times) < SETUP_RUNS:
            self.times.append(self.sample())
        return statistics.median(self.times)


def tail(medians, percentile):
    """Nearest-rank percentile of the per-input medians; returns (value, inputs beyond it)."""
    xs = sorted(medians)
    rank = max(1, math.ceil(percentile / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def traced_rounds(cli, ops, paths, rng, seconds, tr):
    """Pairs of rounds, one untraced and one traced, until ``seconds`` have passed.

    Alternating lets the machine's speed changes reach both sides alike.
    Returns (untraced latencies, traced latencies, failures, pairs).
    """
    plain, traced, failures, pairs = [], [], [], 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        lat, bad, _ = run_rounds(cli, ops, paths, rng, rounds=1)
        plain += [x for xs in lat for x in xs]
        failures += bad
        tr.install()
        try:
            lat, bad, _ = run_rounds(cli, ops, paths, rng, rounds=1, between=tr.tick)
        finally:
            tr.restore()
        traced += [x for xs in lat for x in xs]
        failures += bad
        pairs += 1
    return plain, traced, failures, pairs


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lie2" / "cli.py").is_file():
        print(f"perfbench: no lie2 sources at {SRC}; run from the root of a lie2 checkout",
              file=sys.stderr)
        return 2
    ops = inputs.BUILDERS[args.workload](args.seed)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, workdir):
    paths = []
    for op in ops:
        path = workdir / f"{op.name}.l2a"
        path.write_text(op.text, encoding="ascii")
        paths.append(str(path))
    warm = workdir / "warmup.l2a"
    warm.write_text(inputs.warmup_text(), encoding="ascii")
    warm_argv = ops[0].argv(str(warm))

    sys.path.insert(0, str(SRC))
    import lie2.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "lie2").resolve():
        print(f"perfbench: imported lie2 from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    call(cli, warm_argv)

    rng = random.Random(f"order/{args.workload}/{args.seed}")
    detail = {"workload": args.workload, "seed": args.seed, "inputs_sha256": inputs.digest(ops),
              "ops_per_round": len(ops)}
    if args.trace:
        tr = Tracer()
        plain, traced, failures, pairs = traced_rounds(cli, ops, paths, rng, args.seconds, tr)
        attempted = len(plain) + len(traced)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tr.metrics().items()}
        metrics["trace.overhead"] = {"value": sum(traced) / sum(plain), "unit": "ratio"}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tr.to_json()))
        # untraced_s and traced_s sum the operations' latencies, so calibrations
        # between operations are left out; traced_net_s is lie2 time net of the
        # wrappers, comparable with untraced_s
        detail.update(rounds=pairs, untraced_s=sum(plain), traced_s=sum(traced),
                      traced_net_s=tr.net_total(), wrapped_calls=tr.wrapped_calls(),
                      wrapper_per_call_us=1e6 * tr.per_call, wrapper_inside_us=1e6 * tr.inside,
                      trace_file=str(trace_file), computed=list(COMPUTED))
    else:
        setup = SetupClock(warm_argv, interval=args.seconds / SETUP_RUNS)
        per_op, failures, walls = run_rounds(cli, ops, paths, rng, seconds=args.seconds,
                                             between=setup.tick)
        setup_s = setup.median()
        lat = [x for xs in per_op for x in xs]
        attempted = len(lat)
        # Each input's median over the rounds filters out the seconds-long
        # slowdowns of a shared machine; the timing metrics read the round
        # run at those medians.
        medians = [statistics.median(xs) for xs in per_op]
        pct = TAIL_PERCENTILE[args.workload]
        tail_s, beyond = tail(medians, pct)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(ops) / sum(medians), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median_low(medians), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        detail.update(rounds=len(walls), samples=attempted, round_walls_s=walls,
                      setup_runs_s=setup.times,
                      tail_percentile=pct, samples_beyond_tail=beyond * len(walls),
                      input_median_ms={op.name: 1000 * m for op, m in zip(ops, medians)})
    detail["failed_frac"] = {"value": len(failures) / attempted, "unit": "ratio"}
    detail["failures"] = failures[:5]
    for problem in failures[:5]:
        print(problem, file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
