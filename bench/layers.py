"""Per-layer tracing from outside the program.

The package modules import each other with ``from .x import y``, so a
function is looked up in the namespace of its caller.  Each wrapper is
therefore installed in the namespace where the caller finds the name; the
span it records carries that namespace in its name (``strata.stabilizer``
is ``orbits.stabilizer`` as called by ``strata``) and the defining module as
its layer.  Spans (name, layer, start, end, parent) stay in memory until the
traced child ends.
"""

import inspect
import itertools
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cmtypes", "orbits", "strata", "lattice", "covers")

# (namespace, attribute): every layer boundary the benchmark crosses.
WRAPPED = (
    ("cli", "orbit_classes"),
    ("cli", "burnside_count"),
    ("cli", "classification_row"),
    ("cli", "find_polarization"),
    ("cli", "period_matrix"),
    ("cli", "cw_spectrum"),
    ("cli", "stabilizer"),
    ("cli", "render"),
    ("orbits", "enumerate_cm_types"),
    ("orbits", "stabilizer"),
    ("strata", "stabilizer"),
    ("strata", "canonical_form"),
    ("covers", "classification_row"),
    ("lattice", "pfaffian"),
    ("lattice", "symplectic_basis"),
    ("lattice", "automorphism_check"),
)

# Per-layer metrics that are exact counts: they must repeat exactly for the
# same inputs.
EXACT = (
    "cmtypes.types", "orbits.classes", "orbits.stabilizer_calls",
    "strata.stabilizer_calls", "strata.canonical_form_calls",
    "lattice.pfaffian_calls", "lattice.candidates_scanned",
    "lattice.polarization_yield", "lattice.max_abs_U",
    "lattice.failed.fixes_tau", "lattice.failed.spectrum",
    "lattice.riemann_violations", "cli.output_bytes", "trace.spans",
)


class Tracer:
    """Records one span per wrapped call, plus counters fed by observers."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.worst = defaultdict(float)
        self.errors = None

    def call(self, name, layer, fn, args, kwargs, observe=None):
        index = len(self.spans)
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(index)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[3] = time.perf_counter()
            self.stack.pop()
            if observe:
                observe(self, None, exc, args, kwargs)
            raise
        span[3] = time.perf_counter()
        self.stack.pop()
        if observe:
            observe(self, result, None, args, kwargs)
        return result

    def root(self, name, fn, *args):
        """Span around one benchmark call; its self time is unattributed."""
        return self.call(name, "", fn, args, {})

    def install(self, package):
        self.errors = sys.modules[f"{package}.errors"]
        for namespace, attr in WRAPPED:
            module = sys.modules[f"{package}.{namespace}"]
            fn = getattr(module, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            if attr == "find_polarization":
                observe = _polarization_observer(inspect.signature(fn))
            else:
                observe = OBSERVERS.get(attr)
            setattr(module, attr, self._wrapper(f"{namespace}.{attr}", layer, fn, observe))

    def _wrapper(self, name, layer, fn, observe):
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, observe)
        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        """Busy and self time per layer, plus the named per-layer metrics."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        dur = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        layer_busy = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            d = end - start
            s = d - child_time[i]
            dur[name] += d
            self_time[name] += s
            calls[name] += 1
            layer_self[layer] += s
            outer = parent
            while outer >= 0 and self.spans[outer][1] != layer:
                outer = self.spans[outer][4]
            if outer < 0:
                layer_busy[layer] += d

        c = self.counts
        scanned = c["candidates_scanned"]
        out = {
            "cmtypes.enumerate_s": dur["orbits.enumerate_cm_types"],
            "cmtypes.types": c["types"],
            "orbits.sweep_self_s": self_time["cli.orbit_classes"],
            "orbits.classes": c["classes"],
            "orbits.burnside_s": dur["cli.burnside_count"],
            "orbits.stabilizer_calls": calls["orbits.stabilizer"] + calls["cli.stabilizer"],
            "orbits.stabilizer_s": dur["orbits.stabilizer"] + dur["cli.stabilizer"],
            "strata.verdict_s": dur["cli.classification_row"] + dur["covers.classification_row"],
            "strata.stabilizer_calls": calls["strata.stabilizer"],
            "strata.canonical_form_calls": calls["strata.canonical_form"],
            "lattice.polarization_s": dur["cli.find_polarization"],
            "lattice.pfaffian_calls": calls["lattice.pfaffian"],
            "lattice.candidates_scanned": scanned,
            "lattice.polarization_yield": c["forms_found"] / scanned if scanned else 0.0,
            "lattice.symplectic_s": dur["lattice.symplectic_basis"],
            "lattice.period_self_s": self_time["cli.period_matrix"],
            "lattice.checks_s": dur["lattice.automorphism_check"],
            "lattice.max_abs_U": self.worst["max_abs_U"],
            "lattice.worst_fixes_tau_error": self.worst["fixes_tau_error"],
            "lattice.worst_spectrum_error": self.worst["spectrum_error"],
            "lattice.failed.fixes_tau": c["failed_fixes_tau"],
            "lattice.failed.spectrum": c["failed_spectrum"],
            "lattice.riemann_violations": c["riemann_violations"],
            "covers.spectrum_s": dur["cli.cw_spectrum"],
            "cli.render_s": dur["cli.render"],
            "cli.output_bytes": c["output_bytes"],
            "trace.unattributed_s": layer_self[""],
            "trace.spans": n,
        }
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = layer_busy[layer]
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def span_records(self) -> list:
        return [[name, start, end, parent] for name, _, start, end, parent in self.spans]


def _finite(x: float) -> float:
    return x if math.isfinite(x) else sys.float_info.max


def _count_len(key):
    def observe(tracer, result, exc, args, kwargs):
        if exc is None:
            tracer.counts[key] += len(result)
    return observe


def _polarization_observer(signature):
    """Candidates scanned: 1 + the lexicographic rank of the returned c in the
    box [-bound, bound]**g, or the whole box when it is exhausted."""
    def observe(tracer, result, exc, args, kwargs):
        bound_args = signature.bind(*args, **kwargs)
        bound_args.apply_defaults()
        bound = bound_args.arguments["bound"]
        g = bound_args.arguments["ctx"].g
        width = 2 * bound + 1
        if exc is not None:
            if isinstance(exc, tracer.errors.PolarizationNotFound):
                tracer.counts["candidates_scanned"] += width ** g
            return
        rank = 0
        for coefficient in result.c:
            rank = rank * width + coefficient + bound
        tracer.counts["candidates_scanned"] += rank + 1
        tracer.counts["forms_found"] += 1
    return observe


def _period_observer(tracer, result, exc, args, kwargs):
    if exc is not None:
        if isinstance(exc, tracer.errors.RiemannRelationsViolated):
            tracer.counts["riemann_violations"] += 1
        return
    biggest = max(abs(x) for x in itertools.chain.from_iterable(result.U))
    tracer.worst["max_abs_U"] = max(tracer.worst["max_abs_U"], biggest)


def _checks_observer(tracer, report, exc, args, kwargs):
    if exc is not None:
        return
    tracer.counts["failed_fixes_tau"] += not report.fixes_tau
    tracer.counts["failed_spectrum"] += not report.spectrum
    for key in ("fixes_tau_error", "spectrum_error"):
        tracer.worst[key] = max(tracer.worst[key], _finite(getattr(report, key)))


def _render_observer(tracer, text, exc, args, kwargs):
    if exc is None:
        tracer.counts["output_bytes"] += len(text.encode())


OBSERVERS = {
    "enumerate_cm_types": _count_len("types"),
    "orbit_classes": _count_len("classes"),
    "period_matrix": _period_observer,
    "automorphism_check": _checks_observer,
    "render": _render_observer,
}
