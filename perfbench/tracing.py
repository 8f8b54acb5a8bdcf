"""Per-layer spans and counts, recorded from outside skewlab.

`Tracer.install()` replaces each public layer function with a wrapper in
every skewlab module that looks the name up (so `skewlab.cli.pullback_grid`
and `skewlab.attractor.step` are both caught), and methods on their class.
Layer calls get a span: name, start, end, parent span and job id.
Fine-grained boundaries (`skew.step`, `FiberMap.__call__`,
`GraphFunction.value`, `predecessor`) are only counted, to keep the
overhead down.  Spans stay in memory; `layer_metrics` reduces them.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from dataclasses import dataclass

# (span name, module, class or None, attribute)
SPANNED = (
    ("config.load_system", "skewlab.config", None, "load_system"),
    ("fiber.certify", "skewlab.fiber", None, "certify"),
    ("fiber.isoclinic_point", "skewlab.fiber", None, "isoclinic_point"),
    ("nonauto.iterate_pair", "skewlab.nonauto", None, "iterate_pair"),
    ("nonauto.map_profile", "skewlab.nonauto", None, "map_profile"),
    ("attractor.verify_attractor", "skewlab.attractor", None, "verify_attractor"),
    ("attractor.verify_preinvariance", "skewlab.attractor", None, "verify_preinvariance"),
    ("attractor.match_fraction", "skewlab.attractor", None, "match_fraction"),
    ("attractor.build_preinvariant", "skewlab.attractor", None, "build_preinvariant"),
    ("attractor.pullback_phi", "skewlab.attractor", None, "pullback_phi"),
    ("attractor.pullback_graph_finite", "skewlab.attractor", None, "pullback_graph_finite"),
    ("attractor.pullback_grid", "skewlab.attractor", None, "pullback_grid"),
    ("skew.classify", "skewlab.skew", None, "classify"),
    ("parallel.map_ordered", "skewlab.parallel", None, "map_ordered"),
    ("io.write", "skewlab.nonauto", None, "trace_to_csv"),
    ("io.write", "skewlab.attractor", "GraphFunction", "to_csv"),
)
# (counter name, module, class or None, attribute); all take two arguments.
COUNTED = (
    ("skew.step", "skewlab.skew", None, "step"),
    ("fiber.evals", "skewlab.fiber", "FiberMap", "__call__"),
    ("attractor.graph_value", "skewlab.attractor", "GraphFunction", "value"),
    ("bases.predecessor", "skewlab.bases", "CircleRotation", "predecessor"),
    ("bases.predecessor", "skewlab.bases", "FiniteOrbitBase", "predecessor"),
    ("bases.predecessor", "skewlab.bases", "SymbolicShift", "predecessor"),
)
COUNTER_NAMES = tuple(dict.fromkeys(name for name, *_ in COUNTED))
ROOT_SPAN = "cli.main"


def _pullback_grid_nodes(result) -> int:
    return result.sweeps * len(result.graph.grid)


# Per-call facts read off a layer's return value.
MEASURES = {
    "attractor.pullback_phi": lambda seq: seq.depth_used,
    "attractor.pullback_grid": _pullback_grid_nodes,
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    job: str | None
    name: str
    start: float
    end: float
    counts_start: tuple  # COUNTER_NAMES values when the span opened
    counts_end: tuple
    measure: int | None

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job, "name": self.name,
                "start": self.start, "end": self.end}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self.errors = [0]  # exceptions that left a wrapped call
        self._cells = {name: [0] for name in COUNTER_NAMES}
        self._stack: list[int | None] = [None]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def _snapshot(self) -> tuple:
        return tuple(cell[0] for cell in self._cells.values())

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span."""
        spans, stack, ids, errors = self.spans, self._stack, self._ids, self.errors
        snapshot, clock, measure = self._snapshot, time.perf_counter, MEASURES.get(name)

        def wrapper(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            c0 = snapshot()
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                errors[0] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                info = None
                if measure and result is not None:
                    with contextlib.suppress(AttributeError, TypeError):
                        info = measure(result)
                spans.append(Span(sid, parent, self.job, name, t0, t1, c0, snapshot(), info))

        return wrapper

    def _counted(self, name: str, fn):
        cell, errors = self._cells[name], self.errors

        def wrapper(a, b):
            cell[0] += 1
            try:
                return fn(a, b)
            except Exception:
                errors[0] += 1
                raise

        return wrapper

    def _patch(self, module_name: str, cls_name: str | None, attr: str, make) -> None:
        # A layer the program no longer has is skipped and reads as 0 calls.
        owner = sys.modules.get(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        if owner is None or attr not in vars(owner):
            return
        if cls_name is not None:
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "skewlab" or mod_name.startswith("skewlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def install(self) -> None:
        for name, module, cls, attr in SPANNED:
            self._patch(module, cls, attr, lambda fn, n=name: self.span(n, fn))
        for name, module, cls, attr in COUNTED:
            self._patch(module, cls, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls, self time and derived counts per layer, from one traced pass."""
    spans = tracer.spans
    child_time: dict[int, float] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
            children.setdefault(s.parent, []).append(s)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    measured: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - child_time.get(s.id, 0.0)
        if s.measure is not None:
            measured[s.name] = measured.get(s.name, 0) + s.measure

    profiles = [s for s in spans if s.name == "nonauto.map_profile"]
    analytic = sum(
        not any(c.name == "fiber.certify" for c in children.get(s.id, ())) for s in profiles
    )
    step_index = COUNTER_NAMES.index("skew.step")
    orbit_steps = sum(
        s.counts_end[step_index] - s.counts_start[step_index]
        for s in spans if s.name == "attractor.verify_attractor"
    )
    counts = tracer.counts()
    return {
        "config.load_system.calls": calls.get("config.load_system", 0),
        "config.load_system.self_s": self_s.get("config.load_system", 0.0),
        "io.write_s": self_s.get("io.write", 0.0),
        "fiber.certify.calls": calls.get("fiber.certify", 0),
        "fiber.certify.self_s": self_s.get("fiber.certify", 0.0),
        "fiber.isoclinic_point.calls": calls.get("fiber.isoclinic_point", 0),
        "fiber.isoclinic_point.self_s": self_s.get("fiber.isoclinic_point", 0.0),
        "fiber.evals": counts["fiber.evals"],
        "nonauto.iterate_pair.calls": calls.get("nonauto.iterate_pair", 0),
        "nonauto.iterate_pair.self_s": self_s.get("nonauto.iterate_pair", 0.0),
        "nonauto.map_profile.calls": len(profiles),
        # With no map_profile call, nothing was certified in vain.
        "nonauto.map_profile.analytic_ratio": analytic / len(profiles) if profiles else 1.0,
        "skew.step.calls": counts["skew.step"],
        "attractor.verify_attractor.self_s": self_s.get("attractor.verify_attractor", 0.0),
        "attractor.verify_attractor.orbit_steps": orbit_steps,
        "attractor.graph_value.calls": counts["attractor.graph_value"],
        "attractor.verify_preinvariance.self_s":
            self_s.get("attractor.verify_preinvariance", 0.0),
        "attractor.match_fraction.self_s": self_s.get("attractor.match_fraction", 0.0),
        "attractor.build_preinvariant.self_s": self_s.get("attractor.build_preinvariant", 0.0),
        "attractor.pullback_phi.calls": calls.get("attractor.pullback_phi", 0),
        "attractor.pullback_phi.self_s": self_s.get("attractor.pullback_phi", 0.0),
        "attractor.pullback_phi.depth_sum": measured.get("attractor.pullback_phi", 0),
        "attractor.pullback_graph_finite.self_s":
            self_s.get("attractor.pullback_graph_finite", 0.0),
        "bases.predecessor.calls": counts["bases.predecessor"],
        "attractor.pullback_grid.self_s": self_s.get("attractor.pullback_grid", 0.0),
        "attractor.pullback_grid.node_sweeps": measured.get("attractor.pullback_grid", 0),
        "skew.classify.self_s": self_s.get("skew.classify", 0.0),
        "parallel.map_ordered.calls": calls.get("parallel.map_ordered", 0),
        "errors.raised": tracer.errors[0],
    }
