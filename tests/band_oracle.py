"""Reference lattice evaluation for tests: every lattice-sized array built
whole, in float64, with one source call per pass.

The library streams the same computations over fixed blocks of lattice
points into a float32 result; its grids are checked bitwise against these.
"""

import numpy as np

from vinr.csg import (
    _COARSE_STEP,
    ModelSource,
    _grid_axes,
    _lattice_points,
    _nearest_knot,
    grid_lattice,
    smooth_union,
)
from vinr.extraction import cell_corners


class ValueOnly:
    """A source's values without its slope bound: evaluate_near_level must
    evaluate it densely."""

    def __init__(self, source):
        self.value = source.value


def dense_values(source, dims, bbox_min, bbox_max):
    """One source.value call over the whole lattice, rounded to float32,
    as an (nx, ny, nz) array."""
    return source.value(grid_lattice(dims, bbox_min, bbox_max)).astype(np.float32).reshape(dims)


def blend_values(grids, spec):
    """Left fold of smooth_union over whole float64 copies of the grids,
    rounded to float32 once."""
    acc = grids[0].values.astype(np.float64)
    for g in grids[1:]:
        acc = smooth_union(acc, g.values.astype(np.float64), spec)
    return acc.astype(np.float32)


def _straddles(inside):
    corners = cell_corners(inside)
    return np.logical_or.reduce(corners) & ~np.logical_and.reduce(corners)


def near_level_values(source, dims, bbox_min, bbox_max, iso=0.0):
    """The values of csg.evaluate_near_level, from whole-lattice reach,
    nearest-knot and placement arrays and one source.value call for the
    band and one for the corners across the level."""
    dims = tuple(int(d) for d in dims)
    if not hasattr(source, "value_and_slope"):
        return dense_values(source, dims, bbox_min, bbox_max)
    axes = _grid_axes(dims, bbox_min, bbox_max)
    knots = [np.unique(np.r_[np.arange(0, n, _COARSE_STEP), n - 1]) for n in dims]
    coarse, slope = source.value_and_slope(_lattice_points(*(a[k] for a, k in zip(axes, knots))))
    coarse = coarse.reshape(tuple(len(k) for k in knots))

    (px, dx), (py, dy), (pz, dz) = (_nearest_knot(a, k) for a, k in zip(axes, knots))
    reach = dx[:, None, None] ** 2 + dy[:, None] ** 2 + dz**2
    np.sqrt(reach, out=reach)
    reach *= slope
    near = coarse[np.ix_(px, py, pz)]
    placed = np.abs(near - iso) > reach
    values = near.astype(np.float32)

    def evaluate(mask):
        ix, iy, iz = np.nonzero(mask)
        values[ix, iy, iz] = source.value(np.stack([axes[0][ix], axes[1][iy], axes[2][iz]], axis=1))

    evaluate(~placed)
    inside = values.astype(np.float64) < iso
    across = np.zeros(dims, dtype=bool)
    straddles = _straddles(inside)
    for view in cell_corners(across):
        view |= straddles
    across &= placed
    evaluate(across)
    if np.any((values[across].astype(np.float64) < iso) != inside[across]):
        return dense_values(source, dims, bbox_min, bbox_max)
    return values


def nesting_violation(model, dims, bbox_min, bbox_max, order, tolerance):
    """(fraction violated, worst gap) of metrics.nesting_violation, from one
    forward over the whole lattice."""
    vals = ModelSource(model).values(grid_lattice(dims, bbox_min, bbox_max))
    vals = vals.astype(np.float32).astype(np.float64)
    worst = -np.inf
    violated = np.zeros(len(vals), dtype=bool)
    for outer, inner in zip(order[:-1], order[1:]):
        gap = vals[:, outer] - vals[:, inner]
        worst = max(worst, float(gap.max()))
        violated |= gap > tolerance
    return float(violated.mean()), worst
