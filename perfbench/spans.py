"""Spans and counts around the public functions of each isocycles layer.

The wrappers are installed from outside the program, at every name a
caller looks the function up by: a function imported by name, such as
`poly_roots` in `ssgraph` and `hilbert`, is replaced there too.  Spans are
kept in memory as (name, start, end, parent) and written out at the end of
the run.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# layer -> public functions timed as spans; each gets a `<layer>.<name>_s`
# self-time metric.
SPANS = {
    "ff": ["poly_roots"],
    "modpoly": ["instantiate"],
    "ssgraph": ["build_graph", "initial_supersingular_j"],
    "nbwalk": ["build_nb_operator", "closed_nbw_counts", "directed_cycle_counts"],
    "ordercount": ["q_set", "epsilon", "order_side_cycle_count"],
    "quadform": ["class_number", "genus_number", "form_order", "prime_form"],
    "hilbert": ["hilbert_class_poly", "j_evaluate", "locate_rim_vertices"],
}

# CLI subcommand handlers, looked up by the CLI through its handler table.
HANDLERS = ["graph", "count", "orders", "locate"]


def _counts_for(name, args, result, counts):
    """Work counts taken at the span boundary from arguments and result."""
    if name == "ff.poly_roots":
        counts["ff.poly_roots_calls"] += 1
        counts["ff.poly_roots_degree"] += args[0].degree
        counts["ff.roots_found"] += len(result)
    elif name == "modpoly.instantiate":
        counts["modpoly.instantiate_calls"] += 1
    elif name == "ssgraph.build_graph":
        counts["ssgraph.graphs"] += 1
        counts["ssgraph.vertices"] += result.vertex_count
    elif name == "nbwalk.build_nb_operator":
        counts["nbwalk.operator_dim"] += result.dimension
        counts["nbwalk.operator_bytes_computed"] += 8 * result.dimension ** 2
    elif name == "nbwalk.closed_nbw_counts":
        counts["nbwalk.trace_powers"] += len(result)
    elif name == "ordercount.q_set":
        counts["ordercount.q_set_size"] += len(result)
    elif name == "ordercount.epsilon":
        counts["ordercount.epsilon_calls"] += 1
        counts["ordercount.ambiguous_eps"] += result.kind == "ambiguous"
    elif name == "quadform.class_number":
        counts["quadform.class_number_calls"] += 1
        counts["quadform.forms_counted"] += result
    elif name == "hilbert.hilbert_class_poly":
        counts["hilbert.class_polys"] += 1
        counts["hilbert.class_poly_degree"] += result.degree
    elif name == "hilbert.j_evaluate":
        counts["hilbert.j_evaluate_calls"] += 1
    elif name == "hilbert.locate_rim_vertices":
        counts["hilbert.rims_located"] += len(result)


COUNTS = [
    "ff.poly_roots_calls", "ff.poly_roots_degree", "ff.roots_found",
    "modpoly.instantiate_calls", "ssgraph.graphs", "ssgraph.vertices",
    "nbwalk.operator_dim", "nbwalk.operator_bytes_computed", "nbwalk.trace_powers",
    "ordercount.q_set_size", "ordercount.epsilon_calls", "ordercount.ambiguous_eps",
    "quadform.class_number_calls", "quadform.forms_counted",
    "hilbert.class_polys", "hilbert.class_poly_degree", "hilbert.j_evaluate_calls",
    "hilbert.rims_located", "cli.ops",
]


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]
    return names + [f"cli.{h}" for h in HANDLERS]


class Tracer:
    """Records spans and counts while installed; restores the program on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            _counts_for(name, args, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def op(self):
        """Root span of one CLI operation."""
        self.counts["cli.ops"] += 1
        idx = len(self.spans)
        self.spans.append(["cli.main", time.perf_counter(), 0.0, -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def __enter__(self):
        from isocycles import cli
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("isocycles.") and m is not None]
        for layer, fns in SPANS.items():
            home = sys.modules[f"isocycles.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        for command in HANDLERS:
            original = cli._HANDLERS[command]
            self._restore.append((cli._HANDLERS, command, original))
            cli._HANDLERS[command] = self._wrap(f"cli.{command}", original)
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()


def self_times(spans) -> dict[str, float]:
    """Sum over spans of each name of duration minus direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), c in zip(spans, child):
        out[name] += (end - start) - c
    return out
