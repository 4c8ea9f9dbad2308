"""Spans around the package's layer functions, recorded from outside.

A traced pass replaces each probed function at the module attribute its
callers look up (``solvers.cten_breakpoints``, ``feasibility.max_flow``,
...) with a wrapper that records a span: name, start, end, parent, and a
few counts read off the arguments and the result.  Spans stay in memory;
``restore`` puts the original functions back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _one_shot_counts(args, result):
    return {"edges": len(result[0].edges)}


def _canon_counts(args, result):
    return {"nodes": len(result.net.nodes), "edges": len(result.net.edges)}


def _breakpoint_counts(args, result):
    horizon = args[0].horizon
    sizes = [len(a) for a in result.values()]
    return {
        "sum_A": sum(sizes),
        "max_A": max(sizes),
        "nodes": len(sizes),
        "full": sum(1 for n in sizes if n == horizon + 1),
    }


def _graph_counts(args, result):
    return {"vertices": len(result.vertices), "arcs": len(result.arcs)}


def _verdict_counts(args, result):
    return {"infeasible": 0 if result.feasible else 1}


def _witness_counts(args, result):
    return {"witness_skipped": 1 if result[1] is None else 0}


# (module, attribute looked up by the callers, span name, counts reader).
# The public entry points are wrapped where the benchmark and the quickest
# search look them up, so quickest's feasibility probes become child spans.
PROBES = (
    ("netio", "parse_network", "netio.parse_network", None),
    ("solvers", "dttn_feasible", "solvers.dttn_feasible", None),
    ("solvers", "quickest_transshipment", "solvers.quickest_transshipment", _witness_counts),
    ("solvers", "max_flow_over_time", "solvers.max_flow_over_time", _witness_counts),
    ("solvers", "extract_flow", "solvers.extract_flow", None),
    ("solvers", "to_one_shot", "model.to_one_shot", _one_shot_counts),
    ("solvers", "hoppe_tardos_star", "reductions.hoppe_tardos_star", None),
    ("solvers", "canonical_reduction", "reductions.canonical_reduction", _canon_counts),
    ("feasibility", "canonical_reduction", "reductions.canonical_reduction", _canon_counts),
    ("solvers", "cten_breakpoints", "breakpoints.cten_breakpoints", _breakpoint_counts),
    ("feasibility", "cten_breakpoints", "breakpoints.cten_breakpoints", _breakpoint_counts),
    ("solvers", "build_cten", "expansion.build_cten", _graph_counts),
    ("feasibility", "build_cten", "expansion.build_cten", _graph_counts),
    ("solvers", "build_ten", "expansion.build_ten", _graph_counts),
    ("solvers", "max_flow", "maxflow.max_flow", None),
    ("feasibility", "max_flow", "maxflow.max_flow", None),
    ("feasibility", "residual_reachable", "maxflow.residual_reachable", None),
    ("solvers", "feas", "feasibility.feas", _verdict_counts),
    ("feasibility", "capacity_oT", "feasibility.capacity_oT", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self):
        for mod_name, attr, span_name, reader in PROBES:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, span_name, reader))

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, name: str, reader):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=open_[-1] if open_ else None)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if span.parent is not None:
                    spans[span.parent].child_time += span.duration
            if reader is not None:
                span.counts = reader(args, result)
            return result

        return traced

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, max flow split by graph kind."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[self.layer_key(span)] += span.self_time
        return dict(out)

    def layer_key(self, span: Span) -> str:
        if span.name == "maxflow.max_flow":
            witness = self.parent_name(span) == "solvers.extract_flow"
            return "maxflow.max_flow_ten" if witness else "maxflow.max_flow_cten"
        return span.name

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
