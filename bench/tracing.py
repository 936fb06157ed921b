"""Run-time tracing of polekit's public functions, from the benchmark side.

``Tracer.install`` wraps every public function of the layer modules (the
names in each module's ``__all__``) and the constructors of their public
classes, at every binding any polekit module holds: ``polekit.graphs``
calls ``series_mul`` through its own name, so that binding is wrapped too,
and so is scipy's ``quad``, which ``graphs`` integrates with (counted as
graphs work).  ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent) in flat arrays.  After
every operation ``fold`` turns the spans into per-name totals: calls, self
time (span time minus the time its child spans cover) and, for the groups
in ``GROUPS``, the time of the outermost spans of the group.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import scipy.integrate

LAYERS = ("laurent", "graphs", "renorm", "curved", "hadamard", "functional", "cli")

#: inclusive timers: total time of the spans of a group that have no
#: ancestor in the same group
GROUPS = {
    "graphs.fish_s": {"graphs.fish"},
    "graphs.setting_sun_s": {"graphs.setting_sun"},
    "renorm.rg_flow_s": {"renorm.rg_flow"},
    "renorm.amplitude_T_s": {"renorm.amplitude_T"},
    "renorm.pole_report_s": {"renorm.pole_cancellation_report"},
    "renorm.propagator_s": {"renorm.propagator_inverse"},
    "functional.construct_s": {
        "functional.SpectrumGrid",
        "functional.VHState",
        "functional.VHState.normalize",
        "functional.VHOperator",
        "functional.GradedSector",
        "functional.GradedState",
        "functional.GradedObservable",
    },
    "functional.sweep_s": {
        "functional.pairing",
        "functional.diagonal_term",
        "functional.off_diagonal_term",
        "functional.evolve_pairing",
    },
    "cli.load_config_s": {"cli.load_config"},
    "cli.run_s": {"cli.run"},
}

#: spans whose result length is summed (trajectory points returned)
RESULT_LENGTHS = {"renorm.rg_flow": "renorm.trajectory_points"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.counters = dict.fromkeys(RESULT_LENGTHS.values(), 0)

    # ------------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        counter = RESULT_LENGTHS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += len(result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own (an operation)."""
        return self.wrap(fn, name)(*args, **kwargs)

    # ------------------------------------------------------------ installing

    def install(self, package) -> None:
        """Wrap the public surface of every layer module of ``package``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        layer_modules = [importlib.import_module(f"{package.__name__}.{layer}")
                         for layer in LAYERS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrapped: dict[int, object] = {}
        for layer, module in zip(LAYERS, layer_modules):
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, f"{layer}.{attr}")
                elif callable(obj):  # plain or cached functions
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        # quad is wrapped where scipy defines it too, so a binding made by a
        # later import inside a function is counted as well
        quad = scipy.integrate.quad
        wrapped[id(quad)] = self.wrap(quad, "graphs.quad")
        self._restore.append((scipy.integrate, "quad", quad))
        scipy.integrate.quad = wrapped[id(quad)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value) and not attr.startswith("__"):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def _wrap_class(self, cls, name: str) -> None:
        targets = [("__init__", name)]
        if "normalize" in vars(cls):
            targets.append(("normalize", f"{name}.normalize"))
        for attr, span_name in targets:
            if attr in vars(cls):
                original = vars(cls)[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --------------------------------------------------------------- folding

    def fold(self) -> None:
        """Fold the recorded spans into the totals and clear them."""
        if len(self._stack) != 1:
            raise RuntimeError("fold inside an open span")
        names = [self.names[i] for i in self.span_name]
        parents = self.span_parent
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(names)
        for i in range(len(names) - 1, -1, -1):
            if parents[i] >= 0:
                child[parents[i]] += duration[i]
        group_bits = {name: sum(1 << g for g, members in enumerate(GROUPS.values())
                                if name in members) for name in set(names)}
        group_keys = list(GROUPS)
        inside = [0] * len(names)
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration[i] - child[i]
            above = inside[parents[i]] if parents[i] >= 0 else 0
            bits = group_bits[name]
            inside[i] = above | bits
            fresh = bits & ~above
            g = 0
            while fresh:
                if fresh & 1:
                    self.group_s[group_keys[g]] += duration[i]
                fresh >>= 1
                g += 1
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]

    def merge(self, other: dict) -> None:
        """Add totals exported by ``export`` (a traced child process)."""
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in other["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for key, s in other["group_s"].items():
            self.group_s[key] += s
        for key, n in other["counters"].items():
            self.counters[key] += n

    def export(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "group_s": self.group_s, "counters": self.counters}

    # --------------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(
                (s for n, s in self.self_s.items() if n.startswith(prefix)), 0.0)
            out[f"{layer}.calls"] = sum(
                c for n, c in self.calls.items() if n.startswith(prefix))
        out.update(self.group_s)
        out.update(self.counters)
        out["laurent.gamma_laurent_calls"] = self.calls.get("laurent.gamma_laurent", 0)
        out["laurent.series_mul_calls"] = self.calls.get("laurent.series_mul", 0)
        out["graphs.quad_calls"] = self.calls.get("graphs.quad", 0)
        out["renorm.beta_functions_calls"] = self.calls.get("renorm.beta_functions", 0)
        points = self.counters["renorm.trajectory_points"]
        out["renorm.beta_calls_per_point"] = (
            out["renorm.beta_functions_calls"] / points if points else 0.0)
        out["functional.off_diagonal_calls"] = self.calls.get("functional.off_diagonal_term", 0)
        return out
