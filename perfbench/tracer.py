"""Outside-in layer trace of lie2.

``Tracer.install`` wraps the public functions and methods of each layer
module from the benchmark's side, without editing lie2.  Modules import each
other with ``from .x import y``, so a function is bound in several module
namespaces; every binding is replaced, and class attributes (``LieAlgebra.
bracket``, ``GF2k.mul``) are wrapped on the class.  ``restore`` puts every
original object back.

Each wrapped call is a span whose parent is the innermost enclosing wrapped
call.  Spans are kept in memory aggregated by call path (count and inclusive
time per path), which bounds memory when hot functions run millions of
times; a layer's self time is its spans' time minus the time of their child
spans.

A wrapper's own work (the call, the span lookup, the stack, the clock) is
time the program does not spend untraced, and most of it falls outside the
callee's timed interval, in its caller's self time: on millions of calls that
would swamp the caller's layer.  The tracer therefore times the wrapper on an
empty function at ``install``, at ``restore`` and, through ``tick``, every
``CALIBRATE_EVERY`` seconds in between, since the machine's speed moves during
a run; every time the metrics report is net of that cost (``Span.correct``),
and the trace file keeps the raw times beside the net.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("cli", "fileio", "field", "linalg", "algebra", "restricted", "tori", "roots",
          "screening")

# Constant-time packed-vector helpers and trivial accessors: wrapping them
# would time the wrapper, not lie2.  Their cost stays with their caller.
UNWRAPPED = {
    "linalg.vget", "linalg.vector", "linalg.coeffs", "linalg.unit", "linalg.pivot_index",
    "linalg.all_vectors", "field.GF2k.add", "field.GF2k.elements", "field.poly_is_irreducible",
}

CALIBRATE_EVERY = 0.5  # seconds between wrapper calibrations while traced

ELIMINATION = ("linalg.rref_rows", "linalg.reduce_vector", "linalg.kernel_of_map",
               "linalg.solve", "linalg.Subspace.intersect")


class Span:
    """All calls of one function along one call path."""

    __slots__ = ("key", "layer", "count", "incl", "net", "children")

    def __init__(self, key, layer):
        self.key = key
        self.layer = layer
        self.count = 0
        self.incl = 0.0
        self.net = 0.0
        self.children = {}

    def correct(self, per_call, inside):
        """Set ``net`` here and below: inclusive time less the wrappers' cost in it.

        Each wrapped call adds ``per_call`` seconds, of which ``inside`` fall in
        its own timed interval.  A span's interval holds ``inside`` for each of
        its calls and the whole ``per_call`` for every wrapped call beneath it.
        Returns the number of wrapped calls beneath this span.
        """
        below = 0
        for c in self.children.values():
            below += c.count + c.correct(per_call, inside)
        self.net = self.incl - inside * self.count - per_call * below
        return below

    @property
    def self_time(self):
        return self.incl - sum(c.incl for c in self.children.values())

    @property
    def net_self(self):
        return self.net - sum(c.net for c in self.children.values())

    def to_json(self):
        return {"name": self.key, "layer": self.layer, "calls": self.count,
                "incl_s": self.incl, "self_s": self.self_time,
                "net_incl_s": self.net, "net_self_s": self.net_self,
                "children": [c.to_json() for c in self.children.values()]}


def _toral_elements_hook(counts, args, result):
    g = args[0]
    counts["tori.candidates"] += (1 << (g.field.k * g.dim)) - 1
    counts["tori.torals_found"] += len(result)


def _split_cartan_hook(counts, args, result):
    g, h = args[0], args[2]
    counts["roots.split_candidates"] += 1 << (g.field.k * h.dim)


def _is_simple_hook(counts, args, result):
    counts["screening.oracle_closures"] += result.closures_run


def _loads_hook(counts, args, result):
    counts["fileio.bytes_parsed"] += len(args[0])


# Counts read from a call's arguments and result.  Candidate counts are
# computed from the sizes lie2 enumerates, not counted inside lie2.
HOOKS = {
    "tori.toral_elements": _toral_elements_hook,
    "roots.split_cartan": _split_cartan_hook,
    "screening.is_simple": _is_simple_hook,
    "fileio.loads": _loads_hook,
}
COMPUTED = ("tori.candidates", "tori.toral_yield", "roots.split_candidates",
            "screening.ms_per_closure")


class Tracer:
    def __init__(self):
        self.root = Span("bench", "bench")
        self.stack = [self.root]
        self.counts = {name: 0 for name in ("tori.candidates", "tori.torals_found",
                                            "roots.split_candidates",
                                            "screening.oracle_closures",
                                            "fileio.bytes_parsed")}
        self._patches = []
        self._calibration = []  # (per_call, inside) per calibration
        self._calibrated_at = 0.0
        self.per_call = self.inside = 0.0

    def _wrap(self, fn, key, layer):
        stack, clock, counts, hook = self.stack, time.perf_counter, self.counts, HOOKS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = parent.children.get(key)
            if span is None:
                span = parent.children[key] = Span(key, layer)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.incl += clock() - t0
                span.count += 1
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def calibrate(self, calls=20000):
        """Time the wrapper on an empty function: sets ``per_call`` and ``inside``.

        ``per_call`` is what one wrapped call adds to the run (wrapped minus
        bare calls); ``inside`` is the part the span itself records (its
        inclusive time minus the bare calls).  Medians over every calibration
        so far.
        """
        def empty(x):
            return x

        probe = Tracer()
        wrapped = probe._wrap(empty, "probe", "probe")
        clock = time.perf_counter
        t0 = clock()
        for i in range(calls):
            empty(i)
        bare = clock() - t0
        t0 = clock()
        for i in range(calls):
            wrapped(i)
        traced = clock() - t0
        self._calibration.append(((traced - bare) / calls,
                                  (probe.root.children["probe"].incl - bare) / calls))
        self._calibrated_at = clock()
        self.per_call = statistics.median(c[0] for c in self._calibration)
        self.inside = statistics.median(c[1] for c in self._calibration)

    def tick(self):
        """Between two operations: calibrate if ``CALIBRATE_EVERY`` has passed."""
        if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY:
            self.calibrate()

    def install(self):
        """Wrap every layer's public functions in every lie2 namespace that binds them."""
        self.calibrate()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"lie2.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _wrappable(obj) and f"{layer}.{name}" not in UNWRAPPED:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        key = f"{layer}.{name}.{attr}"
                        if not attr.startswith("_") and _wrappable(member) and key not in UNWRAPPED:
                            self._patches.append((obj, attr, member))
                            setattr(obj, attr, self._wrap(member, key, layer))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lie2" and not mod_name.startswith("lie2."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.calibrate()

    # -- reading the spans ---------------------------------------------------

    def wrapped_calls(self):
        """All wrapped calls; also brings every span's ``net`` up to date."""
        return self.root.correct(self.per_call, self.inside)

    def net_total(self):
        """Time in lie2 net of the wrappers: what the traced work costs untraced."""
        self.wrapped_calls()
        return sum(c.net for c in self.root.children.values())

    def _walk(self, span=None, path=()):
        span = span or self.root
        for child in span.children.values():
            yield child, path
            yield from self._walk(child, path + (child.key,))

    def calls(self, key):
        return sum(s.count for s, _ in self._walk() if s.key == key)

    def outer_time(self, keys, under=None):
        """Net inclusive time of calls to ``keys`` not nested in another such call.

        With ``under``, only calls nested in a call to ``under`` count.
        """
        keys = set(keys)
        return sum(s.net for s, path in self._walk()
                   if s.key in keys and keys.isdisjoint(path)
                   and (under is None or under in path))

    def layer_self(self):
        """Net self time per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for s, _ in self._walk():
            out[s.layer] += s.net_self
        return out

    def metrics(self):
        """Per-layer metrics: name -> (value, unit); times are net of the wrappers."""
        self.wrapped_calls()
        c = self.counts
        oracle_s = self.outer_time(["screening.is_simple"])
        m = {
            "tori.enum_s": (self.outer_time(["tori.toral_elements"]), "s"),
            "tori.candidates": (c["tori.candidates"], "count"),
            "tori.torals_found": (c["tori.torals_found"], "count"),
            "tori.toral_yield": (c["tori.torals_found"] / c["tori.candidates"]
                                 if c["tori.candidates"] else 0.0, "ratio"),
            "tori.search_s": (self.outer_time(["tori.maximal_torus"])
                              - self.outer_time(["tori.toral_elements"],
                                                under="tori.maximal_torus"), "s"),
            "tori.search_calls": (self.calls("tori.maximal_torus"), "count"),
            "field.mul_calls": (self.calls("field.GF2k.mul"), "count"),
            "field.mul_s": (self.outer_time(["field.GF2k.mul"]), "s"),
            "field.inv_calls": (self.calls("field.GF2k.inv"), "count"),
            "linalg.elim_calls": (sum(self.calls(k) for k in ELIMINATION), "count"),
            "linalg.elim_s": (self.outer_time(ELIMINATION), "s"),
            "algebra.bracket_calls": (self.calls("algebra.LieAlgebra.bracket"), "count"),
            "algebra.bracket_s": (self.outer_time(["algebra.LieAlgebra.bracket"]), "s"),
            "algebra.closure_calls": (self.calls("algebra.ideal_closure"), "count"),
            "algebra.closure_s": (self.outer_time(["algebra.ideal_closure"]), "s"),
            "algebra.jacobi_s": (self.outer_time(["algebra.LieAlgebra.verify"]), "s"),
            "restricted.square_calls": (self.calls("restricted.square"), "count"),
            "restricted.square_s": (self.outer_time(["restricted.square"]), "s"),
            "restricted.verify_two_map_s": (self.outer_time(["restricted.verify_two_map"]), "s"),
            "roots.decompose_s": (self.outer_time(["roots.root_decomposition"]), "s"),
            "roots.split_candidates": (c["roots.split_candidates"], "count"),
            "roots.classify_s": (self.outer_time(["roots.classify_delta"]), "s"),
            "roots.gl3_applications": (self.calls("roots.apply_gl3"), "count"),
            "screening.dispatch_s": (self.outer_time(["screening.construct_ideal_rank3"]), "s"),
            "screening.ideal_checks": (self.calls("algebra.is_ideal"), "count"),
            "screening.oracle_closures": (c["screening.oracle_closures"], "count"),
            "screening.ms_per_closure": (1000 * oracle_s / c["screening.oracle_closures"]
                                         if c["screening.oracle_closures"] else 0.0, "ms"),
            "fileio.load_s": (self.outer_time(["fileio.load"]), "s"),
            "fileio.bytes_parsed": (c["fileio.bytes_parsed"], "bytes"),
        }
        for layer, t in self.layer_self().items():
            m[f"{layer}.self_s"] = (t, "s")
        return m

    def to_json(self):
        calls = self.wrapped_calls()
        return {"wrapper_per_call_s": self.per_call, "wrapper_inside_s": self.inside,
                "wrapped_calls": calls, "spans": self.root.to_json()}


def _wrappable(obj):
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
