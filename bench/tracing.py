"""Spans around vinr's public functions, recorded from outside the package.

`Tracer.span` records one interval (name, start, end, parent) in memory.
`install_layer_spans` swaps a traced wrapper into each vinr module attribute
that callers look a layer up by (for example `vinr.training.grad_of_loss`,
which `fit_nested` calls through its module globals), and
`Tracer.uninstall` puts the originals back, so untraced runs execute the
package unchanged. `layer_metrics` turns the spans of a run into the
per-layer numbers named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    root: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=None,
            parent=parent.id if parent else None,
            root=parent.root if parent else len(self.spans),
            attrs=attrs,
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span `name`.

        `describe(args, kwargs, result)` returns work counts for the span; it
        runs in a child span of its own so that its cost shows up as tracing
        overhead, not as the caller's self time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                result = original(*args, **kwargs)
            if describe is not None:
                with tracer.span("trace.describe"):
                    s.attrs.update(describe(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    # calls are sequential, so a span's children never overlap each other
    return {s.id: s.duration - sum(c.duration for c in children.get(s.id, ())) for s in spans}


def self_seconds_by_name(spans: list[Span], roots: list[Span]) -> dict:
    """Calls, seconds and self seconds of each span name under `roots`."""
    selfs = self_times(spans)
    ids = {r.id for r in roots}
    out: dict[str, dict] = {}
    for s in spans:
        if s.root in ids:
            row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += s.duration
            row["self_s"] += selfs[s.id]
    return out


# ---------------------------------------------------------------------------
# what each layer span counts


def _macs_per_point(arch) -> int:
    """Multiply-adds of one dense forward pass per input point."""
    return sum(w[0] * w[1] for w, _ in arch.param_shapes())


def _batch_rows(batches) -> int:
    if isinstance(batches, np.ndarray):
        return len(np.atleast_2d(batches))
    return sum(len(np.atleast_2d(b)) for b in batches)


def _describe_grad_of_loss(args, kwargs, result):
    # Computed, not counted: 2 FLOPs per multiply-add of the dense layer
    # products. Per point, the data term runs a value forward (1x) and its
    # backward (2x); the Eikonal term carries 3 tangent columns, so its
    # forward costs 4x and its backward 8x. Elementwise work is excluded.
    model, surface, eikonal = args[0], args[1], args[2]
    n_surface, n_eikonal = _batch_rows(surface), len(np.atleast_2d(eikonal))
    macs = _macs_per_point(model.arch) * (3 * n_surface + 12 * n_eikonal)
    return {"points": n_surface + n_eikonal, "flops": 2 * macs}


def _describe_forward(args, kwargs, result):
    model, x = args[0], args[1]
    n = len(np.atleast_2d(x))
    return {"points": n, "flops": 2 * _macs_per_point(model.arch) * n}


def _describe_fit(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"epochs": config.epochs}


def _describe_grid(args, kwargs, result):
    return {"points": int(np.prod(result.dims))}


def _describe_marching_cubes(args, kwargs, result):
    grid = args[0]
    iso = args[1] if len(args) > 1 else kwargs.get("iso", 0.0)
    inside = np.asarray(grid.values) < iso
    nx, ny, nz = inside.shape
    any_in = np.zeros((nx - 1, ny - 1, nz - 1), dtype=bool)
    all_in = np.ones_like(any_in)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                corner = inside[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1]
                any_in |= corner
                all_in &= corner
    return {
        "active_cells": int(np.count_nonzero(any_in & ~all_in)),
        "triangles": int(result.num_triangles),
    }


def _describe_watertight(args, kwargs, result):
    tris = np.asarray(args[0].triangles)
    if len(tris) == 0:
        return {"edges": 0}
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return {"edges": int(len(np.unique(edges, axis=0)))}


def _describe_point_to_mesh(args, kwargs, result):
    points, mesh = args[0], args[1]
    return {"pairs": len(np.atleast_2d(points)) * int(mesh.num_triangles)}


def install_layer_spans(tracer: Tracer, vinr) -> None:
    """Wrap every layer boundary the benchmark reports, under the module
    attribute each caller reads."""
    m = vinr
    targets = [
        (m.training, "grad_of_loss", "network.grad_of_loss", _describe_grad_of_loss),
        (m.csg, "forward", "network.forward", _describe_forward),
        (m.training, "fit_nested", "training.fit", _describe_fit),
        (m.training, "adam_step", "training.adam_step", None),
        (m.training, "sample_eikonal_points", "training.sample_eikonal_points", None),
        (m.csg, "evaluate_on_grid", "csg.evaluate_on_grid", _describe_grid),
        (m.metrics, "evaluate_on_grid", "csg.evaluate_on_grid", _describe_grid),
        (m.csg, "blend_grids", "csg.blend_grids", None),
        (m.extraction, "marching_cubes", "extraction.marching_cubes", _describe_marching_cubes),
        (m.metrics, "marching_cubes", "extraction.marching_cubes", _describe_marching_cubes),
        (m.extraction, "check_watertight", "extraction.check_watertight", _describe_watertight),
        (m.metrics, "point_to_mesh_distance", "geometry.point_to_mesh_distance", _describe_point_to_mesh),
        (m.metrics, "dice", "metrics.dice", None),
        (m.metrics, "average_surface_distance", "metrics.average_surface_distance", None),
        (m.cli, "cmd_sample", "cli.sample", None),
        (m.cli, "cmd_fit", "cli.fit", None),
        (m.cli, "cmd_extract", "cli.extract", None),
        (m.cli, "cmd_eval", "cli.eval", None),
        (m.synthetic, "sample_analytic_surface", "synthetic.sample_analytic_surface", None),
    ]
    for attr in ("load_point_cloud", "save_point_cloud", "load_mesh", "save_mesh"):
        targets.append((m.geometry, attr, "geometry.io", None))
    for attr in ("load_model", "save_model"):
        targets.append((m.network, attr, "geometry.io", None))
    targets.append((m.training.FitReport, "to_csv", "geometry.io", None))
    for owner, attr, name, describe in targets:
        tracer.wrap(owner, attr, name, describe)


# ---------------------------------------------------------------------------
# per-layer metrics

# Additive metrics: (metric, span name, what to add up). "s" adds span
# seconds, "self_s" adds self seconds, anything else adds that span attribute.
# Only layers that run in every workload are timed in seconds here.
_ADDITIVE = [
    ("network.grad_of_loss.calls", "network.grad_of_loss", "count"),
    ("network.forward.points", "network.forward", "points"),
    ("csg.evaluate_on_grid.points", "csg.evaluate_on_grid", "points"),
    ("extraction.marching_cubes.active_cells", "extraction.marching_cubes", "active_cells"),
    ("extraction.marching_cubes.triangles", "extraction.marching_cubes", "triangles"),
    ("extraction.check_watertight.edges", "extraction.check_watertight", "edges"),
    ("geometry.point_to_mesh_distance.pairs", "geometry.point_to_mesh_distance", "pairs"),
    ("geometry.io.s", "geometry.io", "s"),
    ("metrics.average_surface_distance.s", "metrics.average_surface_distance", "s"),
    ("metrics.average_surface_distance.self_s", "metrics.average_surface_distance", "self_s"),
    ("synthetic.sample_analytic_surface.s", "synthetic.sample_analytic_surface", "s"),
]

# Layers that only some workloads run are reported as their percentage of
# the timed part's wall time, pooled over traced repeats: 0 where a layer
# does not run, and less sensitive than seconds to how busy the machine is.
# Their seconds are in the run record's `self_s_by_span`.
_SHARES = [
    ("csg.evaluate_on_grid.pct", "csg.evaluate_on_grid", "s"),
    ("csg.evaluate_on_grid.self_pct", "csg.evaluate_on_grid", "self_s"),
    ("csg.blend_grids.pct", "csg.blend_grids", "s"),
    ("extraction.marching_cubes.pct", "extraction.marching_cubes", "s"),
    ("extraction.check_watertight.pct", "extraction.check_watertight", "s"),
    ("geometry.point_to_mesh_distance.pct", "geometry.point_to_mesh_distance", "s"),
    ("metrics.dice.pct", "metrics.dice", "s"),
    ("metrics.dice.self_pct", "metrics.dice", "self_s"),
    ("cli.sample.pct", "cli.sample", "s"),
    ("cli.fit.pct", "cli.fit", "s"),
    ("cli.extract.pct", "cli.extract", "s"),
    ("cli.eval.pct", "cli.eval", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _unit_totals(spans, selfs) -> dict[str, float]:
    totals = {metric: 0.0 for metric, _, _ in _ADDITIVE}
    for metric, name, what in _ADDITIVE:
        for s in spans:
            if s.name != name:
                continue
            if what == "count":
                totals[metric] += 1
            elif what == "s":
                totals[metric] += s.duration
            elif what == "self_s":
                totals[metric] += selfs[s.id]
            else:
                totals[metric] += s.attrs.get(what, 0)
    return totals


def layer_metrics(spans: list[Span], traced_roots: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one run.

    Additive numbers (seconds and work counts) are per pass: the median over
    traced set-ups plus the median over traced iterations, so layers that
    run only in set-up (the blend_tree fits) still show. Rates and shares
    pool every traced span of the run.
    """
    selfs = self_times(spans)
    by_root: dict[int, list[Span]] = {}
    for s in spans:
        by_root.setdefault(s.root, []).append(s)
    out = {metric: 0.0 for metric, _, _ in _ADDITIVE}
    for phase in ("bench.setup", "bench.iteration"):
        units = [
            _unit_totals(by_root[r.id], selfs) for r in traced_roots if r.name == phase
        ]
        if units:
            for metric in out:
                out[metric] += statistics.median(u[metric] for u in units)

    traced_ids = {r.id for r in traced_roots}
    pooled = [s for s in spans if s.root in traced_ids]

    iterations = [r for r in traced_roots if r.name == "bench.iteration"]
    iteration_ids = {r.id for r in iterations}
    iteration_s = sum(r.duration for r in iterations)
    for metric, name, what in _SHARES:
        secs = sum(
            s.duration if what == "s" else selfs[s.id]
            for s in pooled
            if s.name == name and s.root in iteration_ids
        )
        out[metric] = 100.0 * _ratio(secs, iteration_s)

    def named(name):
        return [s for s in pooled if s.name == name]

    grads = named("network.grad_of_loss")
    grad_s = sum(s.duration for s in grads)
    out["network.grad_of_loss.ms"] = 1e3 * _ratio(grad_s, len(grads))
    out["network.grad_of_loss.gflops"] = 1e-9 * _ratio(sum(s.attrs["flops"] for s in grads), grad_s)

    fwd = named("network.forward")
    fwd_s = sum(s.duration for s in fwd)
    fwd_points = sum(s.attrs["points"] for s in fwd)
    out["network.forward.ns_per_point"] = 1e9 * _ratio(fwd_s, fwd_points)
    out["network.forward.gflops"] = 1e-9 * _ratio(sum(s.attrs["flops"] for s in fwd), fwd_s)

    fits = named("training.fit")
    epochs = sum(s.attrs["epochs"] for s in fits)
    out["training.epochs_per_s"] = _ratio(epochs, sum(s.duration for s in fits))
    out["training.fit.self_ms_per_epoch"] = 1e3 * _ratio(sum(selfs[s.id] for s in fits), epochs)
    for name in ("training.adam_step", "training.sample_eikonal_points"):
        calls = named(name)
        out[f"{name}.ms"] = 1e3 * _ratio(sum(s.duration for s in calls), len(calls))
    return out
