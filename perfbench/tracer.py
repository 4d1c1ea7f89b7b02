"""Span tracer that rebinds the library's public names from outside ``src/``.

``Tracer.install()`` replaces every public function of the layer modules
(``norms``, ``measures``, ``classify``, ``stability``, ``diffusion``,
``battery``, ``cli``) wherever a ``logmeasure`` module holds a reference to
it, plus ``ValidatedNorm.evaluate_many`` on the class, with a wrapper that
records one span: name, start, end and parent. ``uninstall()`` puts the
originals back; ``with tracer.installed():`` does both. Because the library
calls its own functions through module globals, internal calls are traced
too; nothing under ``src/`` changes.

Spans stay in memory in flat arrays; they are summarised, and written to
``perfbench/results/*.spans.npz`` by the worker, only at the end.
``validate_norm_spec`` and ``evaluate_many`` recurse through scaled and
piecewise norms; only their outermost call gets a span, so calls, rows and
busy time are counted once per user-level call. A layer's self time is the
duration of its spans minus the time their child spans cover.

Which end-to-end metric each layer should move, and where:

* import times: op_p50_ms and ops_per_s on cli_examples, setup_s on the
  in-process workloads; nothing on their ops;
* cli: op_p50_ms on cli_examples;
* norms (validate, evaluate_many): setup_s everywhere, ops_per_s on
  exact_routes, op_p50_ms on estimated_lp (one row per Nelder-Mead call);
* measures: polyhedral route on exact_routes, estimated route on
  estimated_lp;
* classify: op_tail_ms on exact_routes (the 7-D cube);
* stability: admissibility on exact_routes and op_p50_ms of
  dstable_diffusion; certify and falsify on dstable_diffusion, the
  falsifier mostly its op_tail_ms;
* diffusion: ops_per_s on dstable_diffusion; almost nothing on
  cli_examples, where the RK4 loop is a small share of a process;
* battery: cli_examples only.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("norms", "measures", "classify", "stability", "diffusion", "battery", "cli")
NORM_KINDS = ("lp", "scaled", "polyhedral", "piecewise")
ROUTES = ("closed", "scaled_closed", "polyhedral", "estimated")
CLI_SUBCOMMANDS = ("measure", "classify", "dstable", "diffusion", "battery")
CLASSIFIERS = ("is_absolute", "is_orthant_monotonic", "diag_norm_identity_check")

CERTIFY = "stability.certify_additive_d_stability"
FALSIFY = "stability.falsify_additive_d_stability"
ADMISSIBLE = "stability.is_admissible_measure"

_SPEC_KINDS = {"Lp": "lp", "Scaled": "scaled", "Polyhedral": "polyhedral", "PiecewiseOrthant": "piecewise"}


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


def _route_name(prefix):
    return lambda a, kw: f"measures.{prefix}.{_arg(a, kw, 1, 'norm').route}"


_NAMERS = {
    "measures.matrix_measure": _route_name("measure"),
    "measures.induced_matrix_norm": _route_name("norm"),
    "norms.validate_norm_spec": lambda a, kw: "norms.validate." + _SPEC_KINDS.get(type(a[0]).__name__, "other"),
    "cli.main": lambda a, kw: "cli." + (a[0][0] if a and a[0] else "none"),
}

_OUTERMOST = {"norms.validate_norm_spec"}


def _after_measure(tr, r):
    if r.method == "exact_polyhedral" and r.h_used:
        tr.counts["measures.polyhedral.halvings"] += round(math.log2(1e-3 / r.h_used))
    elif r.method == "estimated":
        tr.samples["measures.estimated.error_bound"].append(r.error_bound)


def _after_norm(tr, r):
    if r.method == "estimated":
        tr.samples["measures.estimated.error_bound"].append(r.error_bound)


def _after_checks(fn):
    key = f"classify.{fn}.checks_run"

    def after(tr, r):
        tr.counts[key] += r.checks_run

    return after


def _after_report(tr, r):
    tr.counts[f"stability.verdict.{r.verdict}"] += 1


def _after_falsify(tr, r):
    tr.counts["stability.falsify.hits"] += r is not None


def _after_simulate(tr, r):
    tr.counts["diffusion.simulate.steps"] += r.times.shape[0] - 1


_AFTER = {
    "measures.matrix_measure": _after_measure,
    "measures.induced_matrix_norm": _after_norm,
    "stability.additive_d_stability_report": _after_report,
    FALSIFY: _after_falsify,
    "diffusion.simulate": _after_simulate,
    **{f"classify.{fn}": _after_checks(fn) for fn in CLASSIFIERS},
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self._plan: list = []

    # -- recording ----------------------------------------------------

    def open(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        k = len(self.start)
        self.name_id.append(i)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, qualname: str):
        namer = _NAMERS.get(qualname)
        after = _AFTER.get(qualname)
        outermost = qualname in _OUTERMOST
        tr = self

        def traced(*a, **kw):
            if outermost:
                if tr._depth[qualname]:
                    return fn(*a, **kw)
                tr._depth[qualname] += 1
            k = tr.open(namer(a, kw) if namer else qualname)
            try:
                r = fn(*a, **kw)
            finally:
                tr.close(k)
                if outermost:
                    tr._depth[qualname] -= 1
            if after is not None:
                after(tr, r)
            return r

        traced.__wrapped__ = fn
        return traced

    def _wrap_evaluate_many(self, fn):
        tr = self

        def evaluate_many(norm, X):
            if tr._depth["evaluate_many"]:
                return fn(norm, X)
            tr._depth["evaluate_many"] += 1
            k = tr.open("norms.evaluate_many." + norm.kind)
            try:
                return fn(norm, X)
            finally:
                tr.close(k)
                tr._depth["evaluate_many"] -= 1
                tr.counts[f"norms.evaluate_many.{norm.kind}.rows"] += np.shape(X)[0]

        return evaluate_many

    # -- rebinding ----------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._plan = self._rebinding_plan()
        for holder, name, _, wrapper in self._plan:
            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original, _ in reversed(self._plan):
            setattr(holder, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _rebinding_plan(self) -> list:
        """(holder, attribute, original, wrapper) for every reference that a
        loaded logmeasure module holds to a public layer function."""
        from logmeasure.norms import ValidatedNorm

        modules = [m for name, m in sys.modules.items() if name == "logmeasure" or name.startswith("logmeasure.")]
        plan = []
        for layer in LAYERS:
            mod = sys.modules.get(f"logmeasure.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for holder in modules:
                    for name, value in vars(holder).items():
                        if value is fn:
                            plan.append((holder, name, fn, wrapper))
        original = ValidatedNorm.evaluate_many
        plan.append((ValidatedNorm, "evaluate_many", original, self._wrap_evaluate_many(original)))
        return plan

    # -- summaries ----------------------------------------------------

    def arrays(self):
        names = np.array(self.names + ["<root>"], dtype=object)
        ids = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3 if len(self.start) else np.zeros(0)
        return names, ids, parent, dur


def span_table(tracers) -> dict:
    """Per span name: calls, busy_ms (sum of durations), self_ms (duration
    minus the time its child spans cover), and parent-name counts."""
    table: dict = defaultdict(lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "parents": Counter()})
    for tr in tracers:
        names, ids, parent, dur = tr.arrays()
        if not len(ids):
            continue
        child = np.zeros(len(ids))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        parent_ids = np.where(has_parent, ids[np.maximum(parent, 0)], len(names) - 1)
        for i, name in enumerate(names[:-1]):
            mask = ids == i
            row = table[name]
            row["calls"] += int(mask.sum())
            row["busy_ms"] += float(dur[mask].sum())
            row["self_ms"] += float(self_ms[mask].sum())
            pid, pcount = np.unique(parent_ids[mask], return_counts=True)
            for p, c in zip(pid, pcount):
                row["parents"][names[p]] += int(c)
    return table


def _sum_counts(tracers) -> Counter:
    total: Counter = Counter()
    for tr in tracers:
        total.update(tr.counts)
    return total


def _per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    u = {f"import.{m}_s": "s" for m in ("logmeasure", "scipy_optimize", "scipy_spatial")}
    for c in CLI_SUBCOMMANDS:
        u[f"cli.{c}.inproc_ms"] = "ms"
        u[f"cli.{c}.stdout_bytes"] = "B"
    for k in NORM_KINDS:
        u[f"norms.validate.{k}.calls"] = "count"
        u[f"norms.validate.{k}.busy_ms"] = "ms"
    for k in NORM_KINDS:
        u[f"norms.evaluate_many.{k}.calls"] = "count"
        u[f"norms.evaluate_many.{k}.rows"] = "count"
        u[f"norms.evaluate_many.{k}.busy_ms"] = "ms"
    for op in ("measure", "norm"):
        for r in ROUTES:
            u[f"measures.{op}.{r}.calls"] = "count"
            u[f"measures.{op}.{r}.busy_ms"] = "ms"
    u["measures.polyhedral.halvings"] = "count"
    u["measures.estimated.error_bound_p50"] = "abs"
    u["measures.spectral_abscissa.calls"] = "count"
    u["measures.spectral_abscissa.busy_ms"] = "ms"
    stats = {
        **{f"classify.{fn}": ("calls", "busy_ms", "checks_run") for fn in CLASSIFIERS},
        "stability.is_admissible_measure": ("calls", "busy_ms", "measure_calls"),
        "stability.certify": ("calls", "busy_ms", "members_tried"),
        "stability.falsify": ("calls", "busy_ms", "abscissa_calls", "hit_ratio"),
        "stability.verdict": ("stable", "unstable", "unknown"),
        "diffusion.simulate": ("calls", "busy_ms", "steps", "us_per_step"),
        "diffusion.sync_verdict": ("calls",),
        "battery.equivalence_table": ("busy_ms",),
    }
    units = {"busy_ms": "ms", "hit_ratio": "ratio", "us_per_step": "us"}
    for prefix, names in stats.items():
        for s in names:
            u[f"{prefix}.{s}"] = units.get(s, "count")
    for layer in LAYERS:
        u[f"{layer}.self_ms"] = "ms"
    u["trace.ops_per_s_untraced"] = "1/s"
    u["trace.ops_per_s_traced"] = "1/s"
    u["trace.overhead_ops_per_s"] = "1/s"
    u["trace.spans"] = "count"
    return u


PER_LAYER_UNITS = _per_layer_units()

# Counters that must repeat exactly when the same ops are traced twice.
REPEATABLE = (
    ".calls", ".rows", ".halvings", ".steps", ".checks_run", ".members_tried",
    ".abscissa_calls", ".measure_calls", "stability.verdict.",
)


def layer_metrics(tracers) -> dict:
    """Every per-layer metric except the import, cli byte and trace ones."""
    table = span_table(tracers)
    counts = _sum_counts(tracers)
    errs = [e for tr in tracers for e in tr.samples["measures.estimated.error_bound"]]

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def busy(name):
        return table[name]["busy_ms"] if name in table else 0.0

    def under(child_prefix, parent):
        return sum(row["parents"][parent] for name, row in table.items() if name.startswith(child_prefix))

    m = {}
    for c in CLI_SUBCOMMANDS:
        m[f"cli.{c}.inproc_ms"] = busy(f"cli.{c}") / calls(f"cli.{c}") if calls(f"cli.{c}") else 0.0
    for k in NORM_KINDS:
        m[f"norms.validate.{k}.calls"] = calls(f"norms.validate.{k}")
        m[f"norms.validate.{k}.busy_ms"] = busy(f"norms.validate.{k}")
        m[f"norms.evaluate_many.{k}.calls"] = calls(f"norms.evaluate_many.{k}")
        m[f"norms.evaluate_many.{k}.rows"] = counts[f"norms.evaluate_many.{k}.rows"]
        m[f"norms.evaluate_many.{k}.busy_ms"] = busy(f"norms.evaluate_many.{k}")
    for op in ("measure", "norm"):
        for r in ROUTES:
            m[f"measures.{op}.{r}.calls"] = calls(f"measures.{op}.{r}")
            m[f"measures.{op}.{r}.busy_ms"] = busy(f"measures.{op}.{r}")
    m["measures.polyhedral.halvings"] = counts["measures.polyhedral.halvings"]
    m["measures.estimated.error_bound_p50"] = statistics.median(errs) if errs else 0.0
    m["measures.spectral_abscissa.calls"] = calls("measures.spectral_abscissa")
    m["measures.spectral_abscissa.busy_ms"] = busy("measures.spectral_abscissa")
    for fn in CLASSIFIERS:
        m[f"classify.{fn}.calls"] = calls(f"classify.{fn}")
        m[f"classify.{fn}.busy_ms"] = busy(f"classify.{fn}")
        m[f"classify.{fn}.checks_run"] = counts[f"classify.{fn}.checks_run"]
    m["stability.is_admissible_measure.calls"] = calls(ADMISSIBLE)
    m["stability.is_admissible_measure.busy_ms"] = busy(ADMISSIBLE)
    m["stability.is_admissible_measure.measure_calls"] = under("measures.measure.", ADMISSIBLE)
    m["stability.certify.calls"] = calls(CERTIFY)
    m["stability.certify.busy_ms"] = busy(CERTIFY)
    m["stability.certify.members_tried"] = under(ADMISSIBLE, CERTIFY)
    m["stability.falsify.calls"] = calls(FALSIFY)
    m["stability.falsify.busy_ms"] = busy(FALSIFY)
    m["stability.falsify.abscissa_calls"] = under("measures.spectral_abscissa", FALSIFY)
    m["stability.falsify.hit_ratio"] = counts["stability.falsify.hits"] / calls(FALSIFY) if calls(FALSIFY) else 0.0
    for v in ("stable", "unstable", "unknown"):
        m[f"stability.verdict.{v}"] = counts[f"stability.verdict.{v}"]
    steps = counts["diffusion.simulate.steps"]
    m["diffusion.simulate.calls"] = calls("diffusion.simulate")
    m["diffusion.simulate.busy_ms"] = busy("diffusion.simulate")
    m["diffusion.simulate.steps"] = steps
    m["diffusion.simulate.us_per_step"] = busy("diffusion.simulate") * 1e3 / steps if steps else 0.0
    m["diffusion.sync_verdict.calls"] = calls("diffusion.sync_verdict")
    m["battery.equivalence_table.busy_ms"] = busy("battery.equivalence_table")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(row["self_ms"] for name, row in table.items() if name.split(".")[0] == layer)
    return m


def repeatable_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if any(tag in k for tag in REPEATABLE)}
