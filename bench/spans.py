"""In-memory spans around calls into hyperind, and per-layer figures from them.

A traced pass installs thin wrappers over the public functions listed in
TRACED (and over ``Hypergraph.__init__``) in every hyperind module that
binds them, so calls made inside the library are traced as well as the
benchmark's own calls.  The wrappers are removed after the pass, so
untraced passes run the program unmodified.  Each span is (name, start,
end, parent index, op id); spans stay in a list until the run writes
them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# (module, function) -> span name; the span name's prefix is the layer
TRACED = {
    ("core", "parse_hg"): "core.parse_hg",
    ("core", "format_hg"): "core.format_hg",
    ("properties", "property_report"): "properties.report",
    ("properties", "is_linear"): "properties.is_linear",
    ("properties", "is_triangle_free"): "properties.is_triangle_free",
    ("properties", "is_double_linear"): "properties.is_double_linear",
    ("properties", "neighborhood_max_degree"): "properties.neighborhood_max_degree",
    ("bounds", "potential"): "bounds.potential",
    ("bounds", "caro_tuza_total"): "bounds.caro_tuza_total",
    ("bounds", "chishti_bound"): "bounds.chishti_bound",
    ("bounds", "bound_table"): "bounds.bound_table",
    ("algorithms", "greedy_extract"): "algorithms.greedy_extract",
    ("algorithms", "exact_alpha"): "algorithms.exact_alpha",
    ("algorithms", "verify_independent"): "algorithms.verify_independent",
    ("generators", "generate"): "generators.generate",
}

LAYERS = ("core", "properties", "bounds", "algorithms", "generators", "cli")
# modules the package imports; the cli module runs only in child processes
MODULES = ("core", "properties", "bounds", "algorithms", "generators")


class Tracer:
    """Span recorder for the main thread.

    The only threads the library starts are bound_table's quadrature
    workers, and they call no traced function.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op: Optional[str] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "bounds.bound_table":
                workers = kwargs.get("max_workers", args[4] if len(args) > 4 else 1)
                span_name = f"{name}_{1 if workers <= 1 else 2}w"
            with self.span(span_name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self, hi) -> Iterator[None]:
        """Wrap TRACED functions and Hypergraph.__init__ for the duration."""
        modules = [hi] + [getattr(hi, m) for m in MODULES]
        undo: list[tuple[object, str, object]] = []
        for (mod_name, fn_name), span_name in TRACED.items():
            orig = getattr(getattr(hi, mod_name), fn_name)
            wrapped = self.wrap(span_name, orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    undo.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapped)
        init = hi.Hypergraph.__init__
        undo.append((hi.Hypergraph, "__init__", init))
        hi.Hypergraph.__init__ = self.wrap("core.hypergraph_build", init)
        try:
            yield
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count.

        Covers spans from index `first` on; self time is a span's
        duration minus the time its direct children cover.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += end - start
            agg["self"] += end - start - child[i]
            agg["calls"] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def layer_self_seconds(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time per layer, from the layer prefix of each span name."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, agg in summary.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += agg["self"]
    return out
