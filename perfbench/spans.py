"""In-memory spans around the package's public functions.

``Tracer.hooks()`` temporarily replaces module attributes of the loaded
``oed`` package with wrappers that record one span per call: name,
engine tag, start, end, parent span, the id of the CLI call it belongs
to, and the edge count of the graph an engine was given. The program's
source is not touched; the originals are restored on exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    call: int
    name: str
    start: float
    parent: int
    end: float = 0.0
    tag: str | None = None
    m: int | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


# (module, attribute, span name); the engine table is wrapped entry by entry.
HOOKS = [
    ("oed.cli", "load_graph", "graph.load_graph"),
    ("oed.cli", "strip_isolated", "graph.strip_isolated"),
    ("oed.covers", "strip_isolated", "graph.strip_isolated"),
    ("oed.delta", "connected_components", "graph.connected_components"),
    ("oed.delta", "induced_subgraph", "graph.induced_subgraph"),
    ("oed.delta", "delta_graycode", "delta.component_census"),
    ("oed.cli", "vc_count_reduction", "covers.reduction"),
    ("oed.covers", "reduced_count_no_isolated", "covers.transform"),
    ("oed.cli", "profile_to_json_dict", "cli.serialize"),
    ("oed.cli", "_emit_json", "cli.serialize"),
]

# Spans whose first argument is the graph being enumerated.
_GRAPH_SPANS = {"delta.engine", "delta.component_census"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.call = 0
        self.missing: list[str] = []

    def wrap(self, name: str, fn, tag: str | None = None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        graph_arg = name in _GRAPH_SPANS

        def traced(*args, **kwargs):
            span = Span(self.call, name, clock(), stack[-1] if stack else -1, tag=tag)
            if graph_arg:
                span.m = args[0].m
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def hooks(self, modules: dict):
        """Install every hook on the given ``{module name: module}``; undo on exit.

        A hook whose target no longer exists is skipped and listed in
        ``missing``, so a renamed function shows up as a missing layer
        rather than a crash.
        """
        engines = modules["oed.delta"].ENGINES
        saved = dict(engines)
        undo = []
        try:
            for mod_name, attr, name in HOOKS:
                mod = modules[mod_name]
                if not hasattr(mod, attr):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                undo.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            poly = getattr(modules["oed.delta"], "DeltaPolynomial", None)
            if poly is None:
                self.missing.append("oed.delta.DeltaPolynomial")
            else:
                undo.append((poly, "__mul__", poly.__mul__))
                poly.__mul__ = self.wrap("delta.poly_mul", poly.__mul__)
            for key, fn in saved.items():
                engines[key] = self.wrap("delta.engine", fn, tag=key)
            yield self
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)
            engines.clear()
            engines.update(saved)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
