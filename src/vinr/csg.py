"""Constructive solid geometry on signed distance fields: hard and smoothed
unions, grid evaluation of SDF sources in real coordinates, and blending of
per-structure grids into one field.

Sources expose value(points) in real units. Trained models are wrapped so
queries map through the stored domain transform and the returned distances
rescale back to real units (division by the transform scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, ScalarGrid, TriangleMesh, signed_distance_to_mesh
from .network import MlpModel, forward

__all__ = [
    "BlendSpec",
    "ModelSource",
    "GridSource",
    "MeshSource",
    "union_min",
    "smooth_union",
    "evaluate_on_grid",
    "blend_grids",
    "grid_lattice",
]


def union_min(d1, d2):
    """Hard union of SDF values: the pointwise minimum."""
    return np.minimum(d1, d2)


@dataclass(frozen=True)
class BlendSpec:
    """Smoothed-min parameters. `cubic` uses gamma = 0.25*k*max(k-|d1-d2|,0)^2;
    `quilez` uses the polynomial smooth-min gamma = 0.25*max(k-|d1-d2|,0)^2/k.
    The two differ in how the rounding radius scales with k."""

    k: float = 0.1
    variant: str = "cubic"

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("smoothing parameter k must be non-negative")
        if self.variant not in ("cubic", "quilez"):
            raise ValueError(f"unknown blend variant {self.variant!r}")


def smooth_union(d1, d2, spec: BlendSpec):
    """Smoothed union: min(d1, d2) - gamma. Equals the hard min whenever
    |d1 - d2| >= k, and never exceeds it."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if spec.k == 0.0:
        out = np.minimum(d1, d2)
        return float(out) if out.ndim == 0 else out
    h = np.maximum(spec.k - np.abs(d1 - d2), 0.0)
    if spec.variant == "cubic":
        gamma = 0.25 * spec.k * h * h
    else:
        gamma = 0.25 * h * h / spec.k
    out = np.minimum(d1, d2) - gamma
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# SDF sources


@dataclass(frozen=True)
class ModelSource:
    """One channel of a trained model, queried in real coordinates.

    Values are network outputs at the mapped point divided by the transform
    scale, from one `forward` call, which blocks the rows to fit a cache. Queries
    whose mapped point leaves [-1,1]^3 are network extrapolations; validity()
    reports where values are trustworthy.
    """

    model: MlpModel
    channel: int = 0

    def __post_init__(self):
        if not (0 <= self.channel < self.model.arch.output_channels):
            raise GeometryError(
                f"channel {self.channel} out of range for C={self.model.arch.output_channels}"
            )
        if self.model.transform is None:
            raise GeometryError("model has no stored domain transform")

    def values(self, p):
        """Every channel at once, (N, C), in real units."""
        t = self.model.transform
        return forward(self.model, t.apply(np.atleast_2d(np.asarray(p, dtype=np.float64)))) / t.scale

    def value(self, p):
        return self.values(p)[:, self.channel]

    def validity(self, p):
        q = self.model.transform.apply(np.atleast_2d(np.asarray(p, dtype=np.float64)))
        return np.all(np.abs(q) <= 1.0, axis=1)


@dataclass(frozen=True)
class GridSource:
    """Trilinear interpolation of a scalar grid (clamped at the boundary)."""

    grid: ScalarGrid

    def value(self, p):
        g = self.grid
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        dims = np.array(g.dims)
        span = g.bbox_max - g.bbox_min
        u = (p - g.bbox_min) / span * (dims - 1)
        u = np.clip(u, 0, dims - 1)
        i0 = np.minimum(u.astype(np.int64), dims - 2)
        f = u - i0
        v = g.values.astype(np.float64)
        out = np.zeros(len(p))
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (
                        (f[:, 0] if dx else 1 - f[:, 0])
                        * (f[:, 1] if dy else 1 - f[:, 1])
                        * (f[:, 2] if dz else 1 - f[:, 2])
                    )
                    out += w * v[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
        return out


@dataclass(frozen=True)
class MeshSource:
    """Exact signed distance to a watertight reference mesh: the distance
    to its nearest triangle, negative where its winding number is odd."""

    mesh: TriangleMesh

    def value(self, p):
        return np.atleast_1d(signed_distance_to_mesh(p, self.mesh))


# ---------------------------------------------------------------------------
# grid evaluation and blending


def grid_lattice(dims, bbox_min, bbox_max) -> np.ndarray:
    """Lattice coordinates for the given dims/bbox, x index fastest."""
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise GeometryError("grid needs at least 2 samples per axis")
    axes = [np.linspace(bbox_min[i], bbox_max[i], dims[i]) for i in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack(
        [gx.ravel(order="F"), gy.ravel(order="F"), gz.ravel(order="F")], axis=1
    )


def evaluate_on_grid(source, dims, bbox_min, bbox_max) -> ScalarGrid:
    """Sample an SDF source on a real-coordinate Cartesian lattice.

    For model-backed sources the values are already rescaled to real units;
    lattice points outside the model's trusted domain keep the extrapolated
    value and are marked False in the grid's validity mask.
    """
    dims = tuple(int(d) for d in dims)
    pts = grid_lattice(dims, bbox_min, bbox_max)
    vals = np.asarray(source.value(pts), dtype=np.float64)
    validity = None
    if hasattr(source, "validity"):
        validity = np.asarray(source.validity(pts)).reshape(dims, order="F")
    return ScalarGrid(
        dims=dims,
        bbox_min=np.asarray(bbox_min, dtype=np.float64),
        bbox_max=np.asarray(bbox_max, dtype=np.float64),
        values=vals.reshape(dims, order="F"),
        validity=validity,
    )


def blend_grids(grids, spec: BlendSpec) -> ScalarGrid:
    """Left-fold of smooth_union over grids on an identical lattice.

    Fold order is list order; with k=0 the result is the order-independent
    pointwise n-ary minimum.
    """
    grids = list(grids)
    if len(grids) < 2:
        raise GeometryError("blending needs at least two grids")
    first = grids[0]
    for g in grids[1:]:
        if g.dims != first.dims or not (
            np.array_equal(g.bbox_min, first.bbox_min)
            and np.array_equal(g.bbox_max, first.bbox_max)
        ):
            raise GeometryError("all grids must share dims and bbox")
    acc = first.values.astype(np.float64)
    for g in grids[1:]:
        acc = smooth_union(acc, g.values.astype(np.float64), spec)
    return ScalarGrid(
        dims=first.dims, bbox_min=first.bbox_min, bbox_max=first.bbox_max, values=acc
    )
