"""Spans recorded from outside the library, and the per-module metrics built from them.

A span is one call the benchmark makes into a public egtan function: name,
start, end, parent span and item id.  The operator and the feasible sets are
only reached from inside ``solvers`` and ``measures``, so the traced run hands
in wrappers (:class:`TracedOperator`, :func:`traced_set`) defined here.  Their
calls are far too many to keep one record each (about 15k per ``eg-suite``
item), so each span keeps a per-name ``[calls, busy seconds]`` tally of the
leaf calls made while it was the innermost open span.

Nothing in ``src/`` is edited or patched: the wrappers are ordinary objects
passed in where the library expects an operator or a set.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from egtan.instances import VIInstance
from egtan.sets import Ball, Box, HalfspaceIntersection, NonnegativeOrthant

OPERATOR_EVAL = "instances.operator_eval"
SET_KINDS = ("box", "orthant", "ball", "halfspaces")
SET_METHODS = ("project", "project_tangent_cone", "linear_min_over_ball")


class Span:
    __slots__ = ("id", "name", "parent", "item", "start", "end", "attrs", "leaf")

    def __init__(self, id, name, parent, item):
        self.id = id
        self.name = name
        self.parent = parent
        self.item = item
        self.start = perf_counter()
        self.end = None
        self.attrs = {}
        self.leaf = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def leaf_calls(self, name: str) -> int:
        return self.leaf.get(name, (0, 0.0))[0]

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "item": self.item,
            "start": self.start, "end": self.end, "attrs": self.attrs,
            "leaf": {k: {"calls": c, "busy_s": b} for k, (c, b) in self.leaf.items()},
        }


class Tracer:
    """Keeps every span in memory; :meth:`write` dumps them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.item = None  # id of the item being run; set by the item loop in run.py
        self._root = Span(-1, "untracked", None, None)  # leaf calls outside any span

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, parent, self.item)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def leaf_call(self, name: str, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            owner = self._stack[-1] if self._stack else self._root
            calls, busy = owner.leaf.get(name, (0, 0.0))
            owner.leaf[name] = (calls + 1, busy + dt)

    def instrument(self, inst: VIInstance) -> VIInstance:
        """The same instance, with operator and set that report every call."""
        return VIInstance(
            operator=TracedOperator(inst.operator, self),
            set=traced_set(inst.set, self),
            dimension=inst.dimension,
        )

    def write(self, fh, label: str) -> None:
        """One JSON line per span, tagged with ``label``."""
        for s in self.spans:
            fh.write(json.dumps({"pass": label, **s.to_json()}) + "\n")


class _NullSpan:
    def __enter__(self):
        self.attrs = {}
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: same calls, no records."""

    def span(self, name: str):
        return _NullSpan()

    def instrument(self, inst: VIInstance) -> VIInstance:
        return inst


NULL = NullTracer()


class TracedOperator:
    """Stands in for :class:`egtan.instances.AffineOperator`; times each evaluation."""

    def __init__(self, op, tracer: Tracer):
        self._op = op
        self._tracer = tracer
        self.M, self.q = op.M, op.q
        self.lipschitz, self.gamma = op.lipschitz, op.gamma
        self.dimension = op.dimension
        self.monotone = op.monotone

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self._tracer.leaf_call(OPERATOR_EVAL, self._op, z)


class _TracedSetMixin:
    """Placed before the concrete set class, so ``super()`` is the real geometry."""

    def project(self, p):
        return self._tracer.leaf_call(self._names[0], super().project, p)

    def project_tangent_cone(self, z, v):
        return self._tracer.leaf_call(self._names[1], super().project_tangent_cone, z, v)

    def linear_min_over_ball(self, center, D, cost):
        return self._tracer.leaf_call(self._names[2], super().linear_min_over_ball, center, D, cost)


_KIND_OF = ((NonnegativeOrthant, "orthant"), (Box, "box"), (Ball, "ball"),
            (HalfspaceIntersection, "halfspaces"))
_TRACED_CLASSES: dict[type, type] = {}


def set_kind(feasible_set) -> str:
    for cls, kind in _KIND_OF:
        if isinstance(feasible_set, cls):
            return kind
    raise TypeError(f"no traced wrapper for {type(feasible_set).__name__}")


def traced_set(feasible_set, tracer: Tracer):
    """A copy of ``feasible_set`` whose class also times the three set operations."""
    kind = set_kind(feasible_set)
    base = type(feasible_set)
    cls = _TRACED_CLASSES.get(base)
    if cls is None:
        cls = type(f"Traced{base.__name__}", (_TracedSetMixin, base), {})
        _TRACED_CLASSES[base] = cls
    out = copy.copy(feasible_set)
    out.__class__ = cls
    out._tracer = tracer
    out._names = tuple(f"sets.{kind}.{m}" for m in SET_METHODS)
    return out


# ---------------------------------------------------------------------------
# Per-module metrics
# ---------------------------------------------------------------------------

# span name -> the fields reported for it
_SPAN_METRICS = {
    "solvers.solve_reference": ("calls", "busy_s"),
    "solvers.eg_run": ("busy_s",),
    "solvers.rate_report_eg": ("self_s",),
    "solvers.pp_run": ("busy_s",),
    "measures.gap": ("calls", "busy_s"),
    "measures.tangent_residual": ("calls", "busy_s"),
    "measures.natural_residual": ("calls", "busy_s"),
    "measures.measure_series": ("calls", "busy_s"),
    "instances.AffineOperator.create": ("calls", "busy_s"),
    "instances.load_instance": ("busy_s",),
    "cli.main": ("busy_s",),
    "cli.write": ("busy_s",),
    "certificates.verification_report": ("calls", "busy_s"),
    "certificates.check_constrained_identity": ("calls", "busy_s"),
    "certificates.build_lhs_from_derivation": ("calls", "busy_s"),
    "exactpoly.SparsePoly.mul": ("calls", "busy_s"),
    "exactpoly.SparsePoly.substitute": ("calls", "busy_s"),
    "exactpoly.SparsePoly.evaluate": ("calls", "busy_s"),
    "counterexamples.reproduce": ("busy_s",),
}
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# counts the workloads store in span attributes under these names, or derived
# from the leaf tallies
COUNT_METRICS = (
    "solvers.solve_reference.iterations",
    "solvers.eg_run.steps",
    "solvers.pp_step.inner_iterations",
    "solvers.rate_report.skipped_checks",
    "instances.operator_eval.calls",
    "cli.output_bytes",
    "exactpoly.monomials",
)
_COUNT_UNITS = {"cli.output_bytes": "bytes"}

OVERHEAD_METRIC = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-module metric name with its unit, in a fixed order."""
    units = {}
    for name, fields in _SPAN_METRICS.items():
        for f in fields:
            units[f"{name}.{f}"] = _UNITS[f]
    for kind in SET_KINDS:
        for m in SET_METHODS:
            units[f"sets.{kind}.{m}.calls"] = "count"
            units[f"sets.{kind}.{m}.busy_s"] = "s"
    for name in COUNT_METRICS:
        units[name] = _COUNT_UNITS.get(name, "count")
    units[OVERHEAD_METRIC] = "s"
    return units


def is_count(name: str) -> bool:
    return metric_units()[name] in ("count", "bytes")


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Sum the spans of one traced pass into the per-module metrics."""
    units = metric_units()
    out = {name: 0 if units[name] in ("count", "bytes") else 0.0 for name in units}
    out.pop(OVERHEAD_METRIC)
    child_time: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    leaves = [tracer._root] + tracer.spans
    for s in tracer.spans:
        if f"{s.name}.calls" in out:
            out[f"{s.name}.calls"] += 1
        if f"{s.name}.busy_s" in out:
            out[f"{s.name}.busy_s"] += s.duration
        if f"{s.name}.self_s" in out:
            leaf_busy = sum(b for _, b in s.leaf.values())
            out[f"{s.name}.self_s"] += s.duration - child_time.get(s.id, 0.0) - leaf_busy
        if s.name == "solvers.solve_reference":
            # each EG iteration evaluates F twice, the converged one once
            out["solvers.solve_reference.iterations"] += (s.leaf_calls(OPERATOR_EVAL) + 1) // 2
        if s.name == "solvers.pp_run":
            # every Picard iteration projects once; nothing else in pp_run does
            out["solvers.pp_step.inner_iterations"] += sum(
                calls for name, (calls, _) in s.leaf.items() if name.endswith(".project")
            )
        for metric, value in s.attrs.items():
            out[metric] += value
    for s in leaves:
        for name, (calls, busy) in s.leaf.items():
            if name == OPERATOR_EVAL:
                out["instances.operator_eval.calls"] += calls
            else:
                out[f"{name}.calls"] += calls
                out[f"{name}.busy_s"] += busy
    return out
