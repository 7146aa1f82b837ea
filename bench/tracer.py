"""Spans around the noisysearch layer boundaries, for the traced benchmark run.

Each hook wraps one public function (or oracle method) where its caller looks
the name up. graph_search imports weighted_median by name, so wrapping
graph.weighted_median would catch nothing; the hook goes into graph_search's
namespace instead. Spans are kept in memory as flat lists (name, parent,
start, end) and reduced to per-layer metrics after the run:

    <span>.calls    every call
    <span>.busy_s   inclusive time of the outermost calls (a nested call of the
                    same span, such as run_lv_adversarial -> run_lv_distributional,
                    is not counted twice)
    <span>.self_s   time not covered by a wrapped child span

A hook whose target no longer exists is recorded in Tracer.absent and yields
no metrics, so the run still completes and the report marks it absent.
"""

from __future__ import annotations

import functools
import time
from importlib import import_module

# (span name, consumer module of noisysearch, attribute looked up there)
HOOKS = (
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.emit", "harness", "emit"),
    ("mathcore.budget", "harness", "worst_case_budget_graph"),
    ("mathcore.budget", "harness", "worst_case_budget_linear"),
    ("graph.generate_graph", "harness", "generate_graph"),
    ("graph.all_pairs_distances", "harness", "all_pairs_distances"),
    ("graph_search", "graph_search", "run_adversarial"),
    ("graph_search", "graph_search", "run_lv_distributional"),
    ("graph_search", "graph_search", "run_lv_adversarial"),
    ("graph.weighted_median", "graph_search", "weighted_median"),
    ("graph.median_costs", "graph", "median_costs"),
    ("oracle.heavy_filter", "graph_search", "heavy_filter"),
    ("graph.consistent_set", "oracle", "consistent_set"),
    ("weights.bayesian_update", "graph_search", "bayesian_update"),
    ("oracle.graph_answer", "oracle", "GraphOracle.answer"),
    ("linear_search", "linear_search", "run_adversarial"),
    ("linear_search", "linear_search", "run_lv_distributional"),
    ("linear_search", "linear_search", "run_lv_adversarial"),
    ("linear_search.run_epoch", "linear_search", "run_epoch"),
    ("linear_search.central_element", "linear_search", "central_element"),
    ("linear_search.comparison_update", "linear_search", "comparison_update"),
    ("weights.apply_multipliers", "linear_search", "apply_multipliers"),
    ("linear_search.verify_candidates", "linear_search", "verify_candidates"),
    ("oracle.linear_answer", "oracle", "LinearOracle.answer"),
)

# results kept to the end of the run so the bytes they hold can be counted
DISTANCES = "graph.all_pairs_distances"


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.absent: list[str] = []
        self.distances: list[object] = []
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for span, module, attr in HOOKS:
            try:
                owner = import_module(f"noisysearch.{module}")
            except ImportError:
                owner = None
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, last, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, last, self._wrap(span, fn))

    def _wrap(self, span: str, fn):
        if span not in self.span_names:
            self.span_names.append(span)
        nid = self.span_names.index(span)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        keep = self.distances if span == DISTANCES else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to per-layer metrics (see module doc)."""
        k = len(self.span_names)
        calls, outer, busy, own = [0] * k, [0] * k, [0.0] * k, [0.0] * k
        count = len(self._name)
        enclosing = [0] * count  # bitmask of the span names open around each span
        covered = [0.0] * count
        # a parent is always recorded before its children
        for i in range(count):
            nid, parent = self._name[i], self._parent[i]
            duration = self._end[i] - self._start[i]
            if parent >= 0:
                enclosing[i] = enclosing[parent] | (1 << self._name[parent])
                covered[parent] += duration
            calls[nid] += 1
            if not enclosing[i] >> nid & 1:
                outer[nid] += 1
                busy[nid] += duration
        for i in range(count):
            own[self._name[i]] += self._end[i] - self._start[i] - covered[i]

        out: dict[str, float] = {}
        for nid, span in enumerate(self.span_names):
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.busy_s"] = busy[nid]
            out[f"{span}.self_s"] = own[nid]

        ids = {span: nid for nid, span in enumerate(self.span_names)}

        def inside(span: str, around: str) -> int:
            a, b = ids[span], ids[around]
            return sum(
                1 for i in range(count) if self._name[i] == a and enclosing[i] >> b & 1
            )

        def have(*spans: str) -> bool:
            return all(s in ids for s in spans)

        if have("graph.weighted_median", "graph.median_costs"):
            median = calls[ids["graph.weighted_median"]]
            slow = calls[ids["graph.median_costs"]]
            out["graph.median_slow_ratio"] = slow / median if median else 0.0
        if have(DISTANCES):
            out["graph.distance_bytes"] = sum(
                value.nbytes
                for held in self.distances
                for value in vars(held).values()
                if hasattr(value, "nbytes")
            )
        if have("graph_search", "oracle.graph_answer"):
            out["graph_search.trials"] = outer[ids["graph_search"]]
            out["graph_search.queries"] = inside("oracle.graph_answer", "graph_search")
        if have("linear_search.run_epoch", "oracle.linear_answer"):
            out["linear_search.phase_one_queries"] = inside(
                "oracle.linear_answer", "linear_search.run_epoch"
            )
        if have("linear_search.verify_candidates", "oracle.linear_answer"):
            out["linear_search.verify_queries"] = inside(
                "oracle.linear_answer", "linear_search.verify_candidates"
            )
        if have("harness.run_experiment"):
            out["harness.self_s"] = own[ids["harness.run_experiment"]]
        return out
