"""Out-of-tree tracing of dgsim: spans and counters around module functions.

``Tracer.install`` replaces every public function of the dgsim modules
(plus a few named private functions, methods and properties) with a
wrapper, in every module namespace that binds it, since modules import
each other's names directly (``from .antisym import pfaffian``).
Functions that run once per gate, shot prefix or dense basis element only
bump a counter: a span there would cost more than the work it measures.
Spans are kept in memory as tuples and handed out at the end.

A span's self time is its duration minus the durations of the spans it
directly encloses; a layer's self time is the sum over its spans.  Each
layer is a dgsim module, except that input-state construction (the
``Circuit.input_state`` method and the product-state helpers, which live
in ``simulator.py``) is booked to ``state``.

Time in a function the tracer does not wrap is booked to its caller's
layer, which the span sums cannot reveal.  So while installed the tracer
also samples the running code on a wall-clock timer: each sample weighs
the time since the one before, and compares the layer the trace books it
to with the module of the innermost dgsim frame.  Their agreement is the
trace's coverage.  A counted function's time is booked to its caller's
layer, so it is covered only where the two share a module.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import os
import signal
import time

LAYERS = ("cli", "serialization", "unitary", "state", "simulator", "antisym", "embedding", "oracle")

# Once per gate, shot prefix, plane rotation or dense basis element.
HOT = {
    "serialization.parse_gate",
    "serialization.gate_doc",
    "unitary.gate_update",
    "unitary.gate_rotation",
    "unitary.Gate.__post_init__",
    "unitary.Gate.validate",
    "simulator.MeasurementOp.__post_init__",
    "simulator._expectation_from_M",
    "antisym.PlaneRotation.__post_init__",
    "antisym.plane_rotation_matrix",
    "oracle.majorana",
    "oracle.monomial_string",
    "oracle.pauli_tensor",
    "oracle.from_pauli_tensor",
    "oracle.MomentTable.__getitem__",
}

PRIVATE = {"simulator._expectation_from_M", "embedding._kernel_vector"}

METHODS = {
    "simulator.Circuit": ("input_state",),
    "simulator.MeasurementOp": ("__post_init__",),
    "unitary.Gate": ("__post_init__", "validate"),
    "unitary.GateSequence": ("__post_init__",),
    "unitary.DGUnitary": ("rotation", "generator", "dense"),
    "state.DGaussState": ("__post_init__", "canonical_lambdas", "M_ext"),
    "antisym.PlaneRotation": ("__post_init__",),
    "oracle.MomentTable": ("__getitem__", "items"),
}

INPUT_STATE = {
    "simulator.Circuit.input_state",
    "simulator.prepare_product",
    "simulator.product_circuit",
    "simulator.product_covariance",
    "simulator.product_is_gaussian",
    "state.from_diagonal",
}

LAYER_OF = {name: "state" for name in INPUT_STATE}

# Size attributes recorded with a span, read from its arguments.
ATTRS = {
    "simulator.run": lambda c: (c.n, len(c.gates)),
    "embedding.embed_covariance": lambda s: (s.n,),
}

# Wall-clock period of the coverage sampler.
SAMPLE_S = 0.005

# Span record layout.
SID, PARENT, REQUEST, NAME, LAYER, T0, T1, SELF, ERROR, ATTR = range(10)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.errors: collections.Counter = collections.Counter()
        self.request = -1
        self._stack: list[list] = []
        self._next = 0
        self._last_exc = None
        self._restore: list[tuple] = []
        self.coverage = {"sampled_s": 0.0, "covered_s": 0.0, "counted_s": 0.0,
                         "misbooked_s": collections.Counter()}
        self._code_info: dict = {}
        self._spanned: set = set()
        self._pkg_dir = None
        self._last_tick = 0.0
        self._old_handler = None

    def _error(self, exc, layer) -> bool:
        if exc is self._last_exc:
            return False
        self._last_exc = exc
        self.errors[layer] += 1
        return True

    def counter(self, fn, name, layer):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(exc, layer)
                raise

        return wrapper

    def span(self, fn, name, layer):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        attrs = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            entry = [sid, 0.0, layer]
            stack.append(entry)
            err = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = self._error(exc, layer)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.request, name, layer, t0, t1, dur - entry[1], err,
                              attrs(*args, **kwargs) if attrs else None))

        return wrapper

    def _module_and_name(self, code):
        """(module, traced name) of a dgsim code object; None for other code."""
        try:
            return self._code_info[code]
        except KeyError:
            info = None
            if os.path.dirname(code.co_filename) == self._pkg_dir:
                mod = os.path.basename(code.co_filename)[:-3]
                info = (mod, f"{mod}.{code.co_qualname}")
            self._code_info[code] = info
            return info

    def _code_layer(self, frame):
        """(layer, counted, innermost function) of the dgsim code running in ``frame``.

        The innermost dgsim frame gives the module.  The nearest enclosing
        traced function within that module gives the layer (input-state
        construction is booked to ``state``) or shows that the code is
        counted rather than timed.  Other code is skipped over, so the
        tracer's wrappers and numpy do not count.
        """
        module = innermost = None
        while frame is not None:
            info = self._module_and_name(frame.f_code)
            if info is not None:
                mod, name = info
                if module is None:
                    module, innermost = info
                elif mod != module:
                    break
                if name in HOT:
                    return mod, True, innermost
                if name in self._spanned:
                    return LAYER_OF.get(name, mod), False, innermost
            frame = frame.f_back
        return module, False, innermost

    def _sample(self, signum, frame):
        now = time.perf_counter()
        dt, self._last_tick = now - self._last_tick, now
        if not self._stack:  # outside cli.main: the benchmark's own loop
            return
        booked = self._stack[-1][2]
        code, counted, function = self._code_layer(frame)
        cov = self.coverage
        cov["sampled_s"] += dt
        if counted:
            cov["counted_s"] += dt
        if code == booked:
            cov["covered_s"] += dt
        else:
            cov["misbooked_s"][f"{function or 'tracer'} as {booked}"] += dt

    def _wrap(self, fn, name, layer):
        layer = LAYER_OF.get(name, layer)
        if name not in HOT:
            self._spanned.add(name)
        make = self.counter if name in HOT else self.span
        return functools.update_wrapper(make(fn, name, layer), fn)

    def install(self):
        """Wrap the dgsim modules in place; ``uninstall`` undoes it."""
        mods = {layer: importlib.import_module(f"dgsim.{layer}") for layer in LAYERS}
        self._pkg_dir = os.path.dirname(mods["cli"].__file__)
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or name in PRIVATE):
                    wrapped[obj] = self._wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    for meth in METHODS.get(name, ()):
                        orig = vars(obj)[meth]
                        self._restore.append((obj, meth, orig))
                        if isinstance(orig, property):
                            setattr(obj, meth, property(self._wrap(orig.fget, f"{name}.{meth}", layer)))
                        else:
                            setattr(obj, meth, self._wrap(orig, f"{name}.{meth}", layer))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._last_tick = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Summaries

def _slope(xs, ys):
    """Least-squares slope of log y against log x; 0 with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({p[0] for p in pts}) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def layer_metrics(spans, counts, errors, coverage, passes: int,
                  gates_parsed: int, shot_lines: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes, per pass.

    ``coverage`` is the tracer's sampled coverage record.
    ``gates_parsed`` and ``shot_lines`` are per-pass totals taken from the
    input documents.
    """
    self_by_name: dict[str, float] = collections.defaultdict(float)
    incl_by_name: dict[str, float] = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    layer_of_sid = {s[SID]: s[LAYER] for s in spans}
    oracle_entries = 0
    for s in spans:
        self_by_name[s[NAME]] += s[SELF]
        incl_by_name[s[NAME]] += s[T1] - s[T0]
        calls[s[NAME]] += 1
        self_by_layer[s[LAYER]] += s[SELF]
        if s[LAYER] == "oracle" and layer_of_sid.get(s[PARENT]) != "oracle":
            oracle_entries += 1

    def self_of(*names):
        return sum(self_by_name[n] for n in names) / passes

    runs = [s for s in spans if s[NAME] == "simulator.run"]
    gate_axes = sum(g * (2 * n + 1) for n, g in (s[ATTR] for s in runs))
    gates_applied = sum(g for _, g in (s[ATTR] for s in runs))
    carrier_bytes = sum(8 * (2 * n + 1) ** 2 for n, _ in (s[ATTR] for s in runs))
    fit_runs = [s for s in runs if s[ATTR][1] > 0]
    embeds = [s for s in spans if s[NAME] == "embedding.embed_covariance"]
    total_self = sum(self_by_layer.values())
    parse_names = [n for n in self_by_name
                   if n.startswith("serialization.") and n not in ("serialization.loads", "serialization.dumps")]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / passes
        out[f"{layer}.share"] = self_by_layer[layer] / total_self if total_self else 0.0
        out[f"{layer}.errors"] = errors.get(layer, 0) / passes
    run_s = self_of("simulator.run")
    sampled = coverage["sampled_s"]
    out.update({
        "serialization.loads_s": self_of("serialization.loads"),
        "serialization.parse_s": self_of(*parse_names),
        "serialization.dumps_s": self_of("serialization.dumps"),
        "unitary.compile_s": self_of("unitary.compile", "unitary.compile_rotation"),
        "unitary.sequence_rotation_s": self_of("unitary.sequence_rotation"),
        "unitary.parse_us_per_gate": 1e6 * incl_by_name["serialization.parse_circuit"] / passes
        / gates_parsed if gates_parsed else 0.0,
        "state.input_s": self_of(*INPUT_STATE),
        "state.validate_s": self_of("state.validate", "state.DGaussState.__post_init__"),
        "simulator.run_s": run_s,
        "simulator.gates_applied": gates_applied / passes,
        "simulator.run_ns_per_gate_axis": 1e9 * run_s * passes / gate_axes if gate_axes else 0.0,
        "simulator.expectation_s": self_of("simulator.expectation"),
        "simulator.sample_s": self_of("simulator.sample"),
        "simulator.sample_us_per_shot_line": 1e6 * self_of("simulator.sample") / shot_lines
        if shot_lines else 0.0,
        "simulator.determinants": counts.get("simulator._expectation_from_M", 0) / passes,
        "simulator.carrier_mb_computed": carrier_bytes / 1e6 / passes,
        "simulator.run_gate_cost_exp": _slope([s[ATTR][0] for s in fit_runs],
                                              [s[SELF] / s[ATTR][1] for s in fit_runs]),
        "antisym.pfaffian_calls": calls["antisym.pfaffian"] / passes,
        "antisym.pfaffian_s": self_of("antisym.pfaffian"),
        "antisym.plane_decompose_s": self_of("antisym.plane_decompose"),
        "antisym.block_diagonalize_s": self_of("antisym.block_diagonalize"),
        "antisym.check_antisymmetric_s": self_of("antisym.check_antisymmetric"),
        "embedding.embed_s": self_of("embedding.embed_covariance", "embedding.embed_state",
                                     "embedding.embed_unitary", "embedding._kernel_vector"),
        "embedding.gaussianity_test_s": self_of(
            "embedding.displaced_state_test", "embedding.displaced_unitary_test",
            "embedding.gaussian_state_test", "embedding.gaussian_mixed_test",
            "embedding.gaussian_unitary_test", "embedding.embed_dense"),
        "embedding.embed_cost_exp": _slope([s[ATTR][0] for s in embeds],
                                           [s[T1] - s[T0] for s in embeds]),
        "oracle.dense_s": self_by_layer["oracle"] / passes,
        "oracle.calls": oracle_entries / passes,
        "trace.coverage_frac": coverage["covered_s"] / sampled if sampled else 0.0,
        "trace.counted_frac": coverage["counted_s"] / sampled if sampled else 0.0,
    })
    return out
