"""Layer spans recorded from outside the package.

The benchmark never edits `slub`: it swaps wrappers into the module
namespaces where each public function is looked up at call time, runs
the workload, and puts the originals back.  Every wrapped call records
one span (name, start, end, parent) in memory; self times and counts
are derived after the pass, outside the timed region.

A span's name is "<bucket>:<function>", where the bucket is a layer
("ultrabee") or a layer sub-bucket ("coupled.indicator").
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (owner, attribute, bucket).  The owner is a `slub` submodule, or
# "problems.ProblemSpec" for methods.  Each entry patches the name
# where callers look it up, which is not always where it is defined.
PATCHES = (
    ("harness", "convergence_table", "harness"),
    ("harness", "run_scheme", "harness"),
    ("harness", "resolve_grid", "harness"),
    ("harness", "time_ladder", "harness"),
    ("harness", "resolve_regularity", "harness"),
    ("harness", "make_operators", "harness"),
    ("harness", "legendre_transform", "semi_lagrangian"),
    ("harness", "ub_step_values", "ultrabee"),
    ("harness", "init_coupled_state", "coupled.step"),
    ("harness", "coupled_step", "coupled.step"),
    ("harness", "project_to_cells", "coupled.projection"),
    ("coupled", "project_to_cells", "coupled.projection"),
    ("coupled", "project_to_nodes", "coupled.projection"),
    ("coupled", "classify_regularity", "coupled.indicator"),
    ("coupled", "active_cells", "coupled.indicator"),
    ("harness", "total_variation", "diagnostics"),
    ("harness", "stability_witness", "diagnostics.witness"),
    ("harness", "three_point_witness", "diagnostics.witness"),
    ("harness", "tv_monitor", "diagnostics"),
    ("harness", "tvb_allowance", "diagnostics"),
    ("harness", "error_norms", "diagnostics"),
    ("harness", "convergence_orders", "diagnostics"),
    ("harness", "get_problem", "problems"),
    ("harness", "singular_points", "problems"),
    ("problems.ProblemSpec", "exact", "problems.exact"),
    ("problems.ProblemSpec", "exact_antiderivative", "problems.exact"),
    ("harness", "build_grid", "grids"),
    ("harness", "init_point_values", "grids"),
    ("harness", "init_cell_averages", "grids"),
    ("cli", "main", "cli"),
    ("cli", "cmd_run", "cli"),
    ("cli", "cmd_compare", "cli"),
    ("cli", "get_problem", "problems"),
    ("cli", "init_point_values", "grids"),
    ("cli", "project_to_nodes", "coupled.projection"),
    ("cli", "convergence_table", "harness"),
    ("cli", "run_scheme", "harness"),
    ("cli", "resolve_grid", "harness"),
    ("cli", "time_ladder", "harness"),
    ("cli", "resolve_regularity", "harness"),
)

LAYERS = (
    "semi_lagrangian",
    "ultrabee",
    "coupled",
    "diagnostics",
    "problems",
    "grids",
    "harness",
    "cli",
)


def resolve_owner(slub, owner: str):
    """The object that holds a patched attribute, e.g. slub.harness."""
    obj = slub
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(pairs):
    """Set each (object, attribute, value) and restore the originals,
    in reverse order, on exit."""
    saved = []
    try:
        for obj, attr, value in pairs:
            saved.append((obj, attr, obj.__dict__[attr]))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, start, end, parent index or -1)
        self._stack = [-1]
        self.fresh_cells = 0

    def wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def _make_operators(self, fn):
        # node_update / cell_update are closures built per grid: wrap
        # them on the way out so the node and cell kernels get spans
        # whatever the problem kind.
        def make_operators(*args, **kwargs):
            ops = fn(*args, **kwargs)
            return dataclasses.replace(
                ops,
                node_update=self.wrap(ops.node_update, "semi_lagrangian:node_update"),
                cell_update=self.wrap(ops.cell_update, "ultrabee:cell_update"),
            )

        return make_operators

    def _coupled_step(self, fn):
        def coupled_step(*args, **kwargs):
            state = fn(*args, **kwargs)
            self.fresh_cells += state.fresh_cell_count
            return state

        return coupled_step

    def patches(self, slub):
        """(object, attribute, wrapper) triples for `patched`.  A name
        the package no longer has is skipped: nothing calls it."""
        out = []
        for owner, attr, bucket in PATCHES:
            obj = resolve_owner(slub, owner)
            fn = obj.__dict__.get(attr)
            if fn is None:
                continue
            if attr == "make_operators":
                fn = self._make_operators(fn)
            elif attr == "coupled_step":
                fn = self._coupled_step(fn)
            out.append((obj, attr, self.wrap(fn, f"{bucket}:{attr}")))
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as gzip'd CSV: index,name,start,end,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start", "end", "parent"])
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                w.writerow([i, self.names[name_id], repr(start), repr(end), parent])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-bucket self time and counts of one traced pass.

    Returns {"self_s": {bucket: s}, "calls": {layer: n},
    "spans": {bucket: n}, "remainder_s": s}.  A layer's calls are the
    spans entered from another layer (or from the benchmark), so a
    kernel called through a wrapped closure counts once.
    """
    bucket_of = [name.split(":")[0] for name in tracer.names]
    layer_of = [b.split(".")[0] for b in bucket_of]
    self_s: dict = defaultdict(float)
    n_spans: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    spans = tracer.spans
    for (name_id, _, _, parent), s in zip(spans, self_times(spans)):
        self_s[bucket_of[name_id]] += s
        n_spans[bucket_of[name_id]] += 1
        if parent < 0 or layer_of[spans[parent][0]] != layer_of[name_id]:
            calls[layer_of[name_id]] += 1
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "spans": dict(n_spans),
        "remainder_s": wall_s - roots,
    }
