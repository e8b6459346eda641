"""Span tracer for cocontact, installed from outside the package.

`Tracer.install()` replaces the functions and methods named in `SPANS` with
wrappers that record one span per call: name, start and end (perf_counter),
the calling span, the thread, and that thread's CPU time at both ends
(thread_time).  `COUNTED` names get a count-only wrapper, because they are
called too often for a span each.  `uninstall()` puts the originals back.

A function imported by name into several modules (``constraint_values`` lives
in pontryagin, dynamics, checks and the package namespace) is replaced in
every module that binds it, or calls through the other bindings would escape
the trace.

Self time of a span is its duration minus the durations of its child spans in
the same thread.  `busy` is self CPU time; `wait` is self wall time minus self
CPU time, which in the sweep's worker threads is mostly waiting for the GIL.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path) -> span name.  A name ending in "." gets the
# truncation order of the call appended.
SPANS = {
    ("cocontact.cli", "main"): "cli.main",
    ("cocontact.dsl", "parse"): "dsl.parse",
    ("cocontact.systems", "duffing"): "systems.preset",
    ("cocontact.systems", "variable_mass_drag"): "systems.preset",
    ("cocontact.systems", "charged_particle"): "systems.preset",
    ("cocontact.systems", "preset_by_name"): "systems.preset",
    ("cocontact.mechanics", "LagrangianSystem.taylor_on"): "mechanics.taylor_on.",
    ("cocontact.mechanics", "herglotz_residual"): "mechanics.herglotz_residual",
    ("cocontact.pontryagin", "run_constraint_algorithm"): "pontryagin.run_constraint_algorithm",
    ("cocontact.pontryagin", "assemble_Z"): "pontryagin.assemble_Z",
    ("cocontact.pontryagin", "constraint_values"): "pontryagin.constraint_values",
    ("cocontact.pontryagin", "project_onto"): "pontryagin.project_onto",
    ("numpy.linalg", "svd"): "numpy.linalg.svd",
    ("numpy.linalg", "lstsq"): "numpy.linalg.lstsq",
    ("numpy.linalg", "solve"): "numpy.linalg.solve",
    ("cocontact.dynamics", "integrate"): "dynamics.integrate",
    ("cocontact.dynamics", "UnifiedField.eval"): "dynamics.field_eval",
    ("cocontact.dynamics", "LagrangianField.eval"): "dynamics.field_eval",
    ("cocontact.dynamics", "HamiltonianField.eval"): "dynamics.field_eval",
    ("cocontact.dynamics", "UnifiedField.drift"): "dynamics.drift",
    ("cocontact.dynamics", "LagrangianField.drift"): "dynamics.drift",
    ("cocontact.dynamics", "HamiltonianField.drift"): "dynamics.drift",
    ("cocontact.dynamics", "legendre_invert"): "dynamics.legendre_invert",
    ("cocontact.dynamics", "residual_channels"): "dynamics.residual_channels",
    ("cocontact.dynamics", "trajectory_to_csv"): "dynamics.trajectory_to_csv",
    ("cocontact.dynamics", "trajectory_to_json"): "dynamics.trajectory_to_json",
    ("cocontact.checks", "check_ad_vs_fd"): "checks.check_ad_vs_fd",
    ("cocontact.checks", "check_ladder"): "checks.check_ladder",
}

COUNTED = {
    ("cocontact.jets", "Taylor.__mul__"): "jets.taylor_mul",
    ("cocontact.jets", "Taylor.__rmul__"): "jets.taylor_mul",
}

# Work sizes read off a call's arguments or result, summed per span name.
SIZES = {
    "dynamics.integrate": ("steps", lambda args, result: len(result) - 1),
    "dynamics.residual_channels": ("samples", lambda args, result: len(args[1])),
    "dynamics.trajectory_to_csv": ("rows", lambda args, result: len(args[0])),
}


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "cpu_start", "cpu_end",
                 "child_wall", "child_cpu")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.child_wall = 0.0
        self.child_cpu = 0.0


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0  # self CPU time
    wait_s: float = 0.0  # self wall time minus self CPU time
    wall_s: float = 0.0  # inclusive wall time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self._counters: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, local = self.spans, self._local
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident
        ordered = name.endswith(".")
        size = SIZES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            label = name + f"o{args[3] if len(args) > 3 else kwargs['order']}" if ordered else name
            span = Span(label, ident(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.cpu_start = cpu()
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                span.cpu_end = cpu()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_wall += span.end - span.start
                    span.parent.child_cpu += span.cpu_end - span.cpu_start
            if size is not None:
                # += on a dict entry is not atomic across threads
                with tracer._lock:
                    tracer.sizes[name + "." + size[0]] += size[1](args, result)
            if name == "systems.preset":
                result = tracer._count_sampler(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        # next() on itertools.count is atomic, so threads lose no counts
        counter = self._counters.setdefault(name, itertools.count())

        def wrapper(*args):
            next(counter)
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, key, value):
        """Bind owner.key (a class or module attribute, or a dict item)."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        """Wrap every name in SPANS and COUNTED, in every module binding it."""
        wrappers = {}  # id(original) -> wrapper; the wrapper keeps the original alive
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for (modname, path), name in table.items():
                owner = sys.modules.get(modname)
                if owner is None:  # cocontact.cli, when the workload does not import it
                    continue
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                if id(original) not in wrappers:  # Taylor.__rmul__ is __mul__
                    wrappers[id(original)] = make(name, original)
                self._patch(owner, attr, wrappers[id(original)])
        # every other binding of a wrapped function: names imported into other
        # modules, and the preset factory registry
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "cocontact" or n.startswith("cocontact.")]
        namespaces.append(sys.modules["cocontact.systems"]._FACTORIES)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._patch(ns, key, wrappers[id(value)])

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def _count_sampler(self, preset):
        """Give a freshly built preset a sample_feasible that counts calls."""
        if hasattr(preset.sample_feasible, "__wrapped__"):
            return preset  # preset_by_name returning a factory's result
        wrapped = self._count_wrapper("systems.sample_feasible", preset.sample_feasible)
        return dataclasses.replace(preset, sample_feasible=wrapped)

    def counts(self) -> dict[str, int]:
        """Calls per count-only name.  Read once, after uninstall()."""
        # next() returns how many times the counter was advanced before
        return {name: next(counter) for name, counter in self._counters.items()}

    def layers(self) -> dict[str, LayerStats]:
        out: dict[str, LayerStats] = defaultdict(LayerStats)
        for s in self.spans:
            st = out[s.name]
            st.calls += 1
            wall = s.end - s.start
            cpu = s.cpu_end - s.cpu_start
            self_wall = wall - s.child_wall
            self_cpu = cpu - s.child_cpu
            st.busy_s += self_cpu
            st.wait_s += max(self_wall - self_cpu, 0.0)
            st.wall_s += wall
        return dict(out)

