"""In-process tracing of the resrelax layers, from outside the package.

``Tracer.install`` replaces every public function of each layer module
(in its defining module and in every module that imported it by name),
the ``evaluate`` method of each kernel class and the ``ShiftWorkspace``
constructor by a wrapper that records a span: name, start, end, parent
span, thread and run id.  Spans are kept in memory and written out when
the run ends.  ``layer_metrics`` turns the spans of one run into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

import numpy as np

LAYERS = ("cli", "config", "system", "kernels", "quadrature", "rates",
          "shifts", "dynamics")

# where each per-layer metric should show: end-to-end metric and workload
_KERNEL = "wall_s: shift-thermal3, sweep-thermal; not shift-vacuum, atom-session"
_BATCH = "wall_s: shift-vacuum (most), shift-thermal3; not sweep-thermal"
_SCALAR = "wall_s: sweep-thermal; direct-route share of both shift workloads"
_PV = "wall_s: shift workloads, atom-session (kk-check)"
_RATES = "wall_s: shift-thermal3, shift-vacuum, sweep-thermal"
_SHIFTS = "wall_s: shift-thermal3, shift-vacuum"
_FRONT = "setup_s: all workloads; wall_s: atom-session"
_DYN = "wall_s: atom-session, shift-thermal3"

# name, unit, better, what it should move
PER_LAYER = (
    ("kernels.evaluate_calls", "count", "lower", _KERNEL),
    ("kernels.evaluate_points", "count", "lower", _KERNEL),
    ("kernels.evaluate_self_s", "s", "lower", _KERNEL),
    ("kernels.evaluate_points_per_s", "1/s", "higher", _KERNEL),
    ("kernels.trigamma_points", "count", "lower", _KERNEL),
    ("kernels.trigamma_s", "s", "lower", _KERNEL),
    ("kernels.trigamma_points_per_s", "1/s", "higher", _KERNEL),
    ("quadrature.batch_calls", "count", "lower", _BATCH),
    ("quadrature.batch_freqs", "count", "lower", _BATCH),
    ("quadrature.batch_self_s", "s", "lower", _BATCH),
    ("quadrature.batch_points_per_freq", "ratio", "lower", _BATCH),
    ("quadrature.halfline_calls", "count", "lower", _SCALAR),
    ("quadrature.halfline_self_s", "s", "lower", _SCALAR),
    ("quadrature.adaptive_calls", "count", "lower", _SCALAR),
    ("quadrature.adaptive_splits", "count", "lower", _SCALAR),
    ("quadrature.adaptive_self_s", "s", "lower", _SCALAR),
    ("quadrature.extrapolate_calls", "count", "lower", _SCALAR),
    ("quadrature.pv_calls", "count", "lower", _PV),
    ("quadrature.pv_self_s", "s", "lower", _PV),
    ("rates.gamma_calls", "count", "lower", _RATES),
    ("rates.gamma_self_s", "s", "lower", _RATES),
    ("rates.gamma_batch_calls", "count", "lower", _RATES),
    ("rates.gamma_batch_freqs", "count", "lower", _RATES),
    ("rates.gamma_batch_self_s", "s", "lower", _RATES),
    ("shifts.workspace_builds", "count", "lower", _SHIFTS),
    ("shifts.workspace_useful_ratio", "ratio", "higher", _SHIFTS),
    ("shifts.workspace_s", "s", "lower", _SHIFTS),
    ("shifts.workspace_self_s", "s", "lower", _SHIFTS),
    ("shifts.direct_calls", "count", "lower", _SHIFTS),
    ("shifts.direct_s", "s", "lower", _SHIFTS),
    ("shifts.compute_shift_s", "s", "lower", _SHIFTS),
    ("config.parse_s", "s", "lower", _FRONT),
    ("config.kernel_builds", "count", "lower", _FRONT),
    ("cli.command_s", "s", "lower", _FRONT),
    ("cli.output_bytes", "bytes", "lower", _FRONT),
    ("dynamics.evolve_ode_s", "s", "lower", _DYN),
    ("dynamics.samples", "count", "lower", _DYN),
    ("dynamics.fit_s", "s", "lower", _DYN),
    ("system.transition_elements_calls", "count", "lower", _DYN),
    ("system.self_s", "s", "lower", _DYN),
) + tuple(
    ("%s.errors" % layer, "count", "lower", "fail_frac: every workload")
    for layer in LAYERS
) + (
    ("trace.overhead_s", "s", "lower", "none: cost of the tracing itself"),
    ("check.max_rel_err", "ratio", "lower", "max_rel_err: every workload"),
)

# counters that must repeat exactly across two traced runs of one seed
STEADY_COUNTERS = tuple(name for name, unit, _, _ in PER_LAYER
                        if unit in ("count", "bytes"))


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "run", "n",
                 "note", "failed")

    def __init__(self, name, parent, thread, run):
        self.name, self.parent, self.thread, self.run = name, parent, thread, run
        self.start = self.end = 0.0
        self.n = 0
        self.note = None
        self.failed = False


def _size(x):
    return int(np.size(x))


# work counts recorded on a span: f(args, kwargs, result) -> int
_COUNTS = {
    "kernels.trigamma_complex": lambda a, k, r: _size(a[0]),
    "quadrature.batch_halfline_transform": lambda a, k, r: _size(a[1]),
    "quadrature.integrate_adaptive": lambda a, k, r: int(r[2]),
    "rates.gamma_batch": lambda a, k, r: _size(a[1]),
    "dynamics.evolve_ode": lambda a, k, r: len(r),
}


def _evaluate_points(a, k, r):
    return _size(a[1])


def _workspace_key(a, k, r):
    """What a ShiftWorkspace is built from; equal keys mean a rebuild."""
    self, kernel, g, cfg, mechanism, poles = (*a, *k.values())
    return repr((kernel.describe(), g, cfg, mechanism, tuple(poles)))


class Tracer:
    """Span recorder with one span stack per thread (``sweep --jobs``)."""

    def __init__(self):
        self.package = importlib.import_module("resrelax")
        self.modules = {name: importlib.import_module("resrelax." + name)
                        for name in LAYERS}
        self.spans = []
        self.run = 0
        self._local = threading.local()
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, count=None, note=None):
        local, spans, tracer = self._local, self.spans, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident(), tracer.run)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if count is not None:
                span.n = count(args, kwargs, result)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        everywhere = [self.package, *self.modules.values()]
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped = self._wrap(name, obj, count=_COUNTS.get(name))
                for other in everywhere:
                    for alias, value in list(vars(other).items()):
                        if value is obj:
                            self._patch(other, alias, wrapped)
        kernels = self.modules["kernels"]
        for obj in list(vars(kernels).values()):
            if inspect.isclass(obj) and obj.__module__ == kernels.__name__ \
                    and "evaluate" in vars(obj):
                self._patch(obj, "evaluate", self._wrap(
                    "kernels.%s.evaluate" % obj.__name__, vars(obj)["evaluate"],
                    count=_evaluate_points))
        ws = self.modules["shifts"].ShiftWorkspace
        self._patch(ws, "__init__", self._wrap(
            "shifts.ShiftWorkspace", ws.__init__, note=_workspace_key))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "thread": s.thread,
                    "run": s.run, "n": s.n, "failed": s.failed,
                }) + "\n")


def self_times(spans):
    """Span duration minus the time of its child spans.

    Children open and close on their parent's thread, inside its span,
    one after another, so their durations add up without overlap.
    """
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.end - s.start
    return own


def layer_metrics(spans):
    """Per-layer metrics (without trace.* and check.*) of one run's spans."""
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(ss):
        return float(sum(s.end - s.start for s in ss))

    def selfsum(ss):
        return float(sum(own[id(s)] for s in ss))

    evaluate = [s for s in spans
                if s.name.startswith("kernels.") and s.name.endswith(".evaluate")]
    trigamma = named("kernels.trigamma_complex")
    batch = named("quadrature.batch_halfline_transform")
    halfline = named("quadrature.halfline_transform")
    adaptive = named("quadrature.integrate_adaptive")
    pv = named("quadrature.pv_integral")
    gamma = named("rates.gamma_rf", "rates.gamma_sr")
    gbatch = named("rates.gamma_batch")
    ws = named("shifts.ShiftWorkspace")
    direct = named("shifts.shift_direct")
    evolve = named("dynamics.evolve_ode")

    # kernel points sampled under each batch transform
    batch_ids = {id(s) for s in batch}
    batch_points = 0
    for s in evaluate:
        p = s.parent
        while p is not None and id(p) not in batch_ids:
            p = p.parent
        if p is not None:
            batch_points += s.n

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    n_eval = sum(s.n for s in evaluate)
    n_tri = sum(s.n for s in trigamma)
    n_freqs = sum(s.n for s in batch)
    out = {
        "kernels.evaluate_calls": len(evaluate),
        "kernels.evaluate_points": n_eval,
        "kernels.evaluate_self_s": selfsum(evaluate),
        "kernels.evaluate_points_per_s": rate(n_eval, total(evaluate)),
        "kernels.trigamma_points": n_tri,
        "kernels.trigamma_s": total(trigamma),
        "kernels.trigamma_points_per_s": rate(n_tri, total(trigamma)),
        "quadrature.batch_calls": len(batch),
        "quadrature.batch_freqs": n_freqs,
        "quadrature.batch_self_s": selfsum(batch),
        "quadrature.batch_points_per_freq":
            batch_points / n_freqs if n_freqs else 0.0,
        "quadrature.halfline_calls": len(halfline),
        "quadrature.halfline_self_s": selfsum(halfline),
        "quadrature.adaptive_calls": len(adaptive),
        "quadrature.adaptive_splits": sum(s.n for s in adaptive),
        "quadrature.adaptive_self_s": selfsum(adaptive),
        "quadrature.extrapolate_calls":
            len(named("quadrature.extrapolate_regulator")),
        "quadrature.pv_calls": len(pv),
        "quadrature.pv_self_s": selfsum(pv),
        "rates.gamma_calls": len(gamma),
        "rates.gamma_self_s": selfsum(gamma),
        "rates.gamma_batch_calls": len(gbatch),
        "rates.gamma_batch_freqs": sum(s.n for s in gbatch),
        "rates.gamma_batch_self_s": selfsum(gbatch),
        "shifts.workspace_builds": len(ws),
        "shifts.workspace_useful_ratio":
            len({s.note for s in ws}) / len(ws) if ws else 0.0,
        "shifts.workspace_s": total(ws),
        "shifts.workspace_self_s": selfsum(ws),
        "shifts.direct_calls": len(direct),
        "shifts.direct_s": total(direct),
        "shifts.compute_shift_s":
            total(named("shifts.compute_shift")),
        "config.parse_s": total(named("config.parse_config")),
        "config.kernel_builds":
            len(named("kernels.build_kernel")),
        "cli.command_s": total([s for s in spans if s.name.startswith("cli.cmd_")]),
        "dynamics.evolve_ode_s": total(evolve),
        "dynamics.samples": sum(s.n for s in evolve),
        "dynamics.fit_s": total(named("dynamics.fit_decay_rate")),
        "system.transition_elements_calls":
            len(named("system.transition_elements")),
        "system.self_s": selfsum([s for s in spans if s.name.startswith("system.")]),
    }
    for layer in LAYERS:
        out["%s.errors" % layer] = sum(
            1 for s in spans if s.failed and s.name.startswith(layer + "."))
    return out
