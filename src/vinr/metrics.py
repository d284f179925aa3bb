"""Quantitative evaluation: Dice similarity on voxelized occupancies,
average surface distance on held-out points, nesting-violation measurement
for multi-channel models, and train/held-out splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csg import ModelSource, evaluate_near_level, lattice_blocks
from .csg import evaluate_on_grid  # noqa: F401  (bench/tracing.py wraps metrics.evaluate_on_grid)
from .extraction import marching_cubes
from .geometry import GeometryError, PointCloud, ScalarGrid, TriangleMesh, point_to_mesh_distance
from .network import MlpModel

__all__ = [
    "dice",
    "average_surface_distance",
    "nesting_violation",
    "split_train_heldout",
    "NestingReport",
    "padded_bbox",
]


def padded_bbox(lo, hi, pad_fraction: float = 0.1):
    """Expand a bbox by a fraction of its extent on every side."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    pad = pad_fraction * (hi - lo)
    return lo - pad, hi + pad


def _on_lattice(source, dims, bbox_min, bbox_max) -> ScalarGrid:
    """A ScalarGrid as it is, which must lie on the given lattice; any other
    SDF source sampled there by evaluate_near_level."""
    if not isinstance(source, ScalarGrid):
        return evaluate_near_level(source, dims, bbox_min, bbox_max)
    if source.dims != tuple(int(d) for d in dims) or not (
        np.array_equal(source.bbox_min, bbox_min) and np.array_equal(source.bbox_max, bbox_max)
    ):
        raise GeometryError("grid does not lie on the Dice lattice")
    return source


def dice(source_a, source_b, dims, bbox_min, bbox_max) -> float:
    """Dice similarity of two SDF sources voxelized by sign on a shared
    lattice. Inside is strictly negative; exact zeros count as outside.
    Only the signs are read, so sources that bound their slope are
    evaluated exactly only near their zero level set. Either source may be
    a ScalarGrid already sampled on that lattice, which is read as it is."""
    a = _on_lattice(source_a, dims, bbox_min, bbox_max).values < 0
    b = _on_lattice(source_b, dims, bbox_min, bbox_max).values < 0
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        raise GeometryError("both shapes are empty on the lattice; DSC undefined")
    return 2.0 * int(np.logical_and(a, b).sum()) / denom


def average_surface_distance(
    reconstruction,
    heldout: PointCloud,
    dims=(128, 128, 128),
    bbox_min=None,
    bbox_max=None,
    use_field_values: bool = False,
) -> float:
    """Mean distance from held-out reference points to the reconstructed
    surface.

    `reconstruction` is a mesh, a grid, a trained model (its channel 0), or
    any SDF source. A mesh is measured as it is, and a grid through its own
    marching-cubes mesh. A model or source is realized as the mesh of its
    grid from evaluate_near_level (default 128^3 over the held-out bbox
    padded 20%), unless `use_field_values` is set: then |field value| at
    each point is used instead.
    """
    if len(heldout) < 1:
        raise GeometryError("need at least one held-out point")
    if isinstance(reconstruction, TriangleMesh):
        mesh = reconstruction
    else:
        grid = reconstruction
        if not isinstance(grid, ScalarGrid):
            source = (
                ModelSource(reconstruction, 0)
                if isinstance(reconstruction, MlpModel)
                else reconstruction
            )
            if use_field_values:
                return float(np.abs(source.value(heldout.points)).mean())
            if bbox_min is None or bbox_max is None:
                lo, hi = heldout.bbox()
                bbox_min, bbox_max = padded_bbox(lo, hi, 0.2)
            grid = evaluate_near_level(source, dims, bbox_min, bbox_max)
        mesh = marching_cubes(grid)
        if mesh.num_triangles == 0:
            raise GeometryError("reconstruction has an empty zero level set")
    return float(np.mean(point_to_mesh_distance(heldout.points, mesh)))


@dataclass(frozen=True)
class NestingReport:
    fraction_violated: float
    max_violation: float  # worst signed gap SDF_outer - SDF_inner (<=0: clean)


def nesting_violation(
    model: MlpModel,
    dims,
    bbox_min,
    bbox_max,
    channel_order=None,
    tolerance: float = 1e-3,
) -> NestingReport:
    """Measure violations of the containment ordering on a lattice.

    `channel_order` lists channels outermost first (default: reverse channel
    order, matching fits whose clouds were given innermost first). A lattice
    point violates when any consecutive pair has SDF_outer - SDF_inner above
    `tolerance` (real units).
    """
    C = model.arch.output_channels
    if C < 2:
        raise GeometryError("nesting check needs at least 2 channels")
    order = list(channel_order) if channel_order is not None else list(range(C - 1, -1, -1))
    if not all(0 <= c < C for c in order):
        raise GeometryError(f"channel_order {order} out of range for C={C}")
    worst, count = -np.inf, 0
    for s, e, pts in lattice_blocks(dims, bbox_min, bbox_max):
        # one forward for all channels, rounded to float32 as a ScalarGrid stores them
        vals = ModelSource(model).values(pts).astype(np.float32).astype(np.float64)
        violated = np.zeros(e - s, dtype=bool)
        for outer, inner in zip(order[:-1], order[1:]):
            gap = vals[:, outer] - vals[:, inner]
            worst = max(worst, float(gap.max()))
            violated |= gap > tolerance
        count += int(np.count_nonzero(violated))
    return NestingReport(fraction_violated=count / e, max_violation=worst)  # e: the lattice size


def split_train_heldout(cloud: PointCloud, n_train: int, seed: int) -> tuple[PointCloud, PointCloud]:
    """Deterministic disjoint split; the two parts recompose the input."""
    n = len(cloud)
    if not (0 <= n_train < n):
        raise GeometryError(f"n_train must be in [0, {n})")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train = cloud.points[np.sort(perm[:n_train])]
    held = cloud.points[np.sort(perm[n_train:])]
    return PointCloud(train), PointCloud(held)
