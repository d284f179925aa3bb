"""Constructive solid geometry on signed distance fields: smoothed unions
(k = 0 gives the hard minimum) of sources and of grids, and grid evaluation
of SDF sources in real coordinates.

Every lattice pass walks the same x-slabs of whole yz-planes
(lattice_slabs) into a float32 result, so the peak is the float32 grid(s)
plus one slab.

Sources expose value(points) in real units: (N,) signed distances for the
(N, 3) points of geometry.as_points. Trained models are wrapped so queries
map through the stored domain transform and the returned distances rescale
back to real units (division by the transform scale). Sources that can bound
their slope also expose value_and_slope(points), which lets
evaluate_near_level evaluate only a narrow band around a level set; that is
the only optional capability that grid evaluation reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .extraction import cell_corners, cube_index
from .geometry import GeometryError, ScalarGrid, SlopeBounded, as_points, lattice_axes
from .network import MlpModel, forward, forward_with_input_grad

__all__ = [
    "BlendSpec",
    "Union",
    "ModelSource",
    "GridSource",
    "smooth_union",
    "evaluate_on_grid",
    "evaluate_near_level",
    "blend_grids",
    "grid_lattice",
    "lattice_slabs",
    "lattice_slab_points",
]


@dataclass(frozen=True)
class BlendSpec:
    """Smoothed-min parameters. `cubic` uses gamma = 0.25*k*max(k-|d1-d2|,0)^2;
    `quilez` uses the polynomial smooth-min gamma = 0.25*max(k-|d1-d2|,0)^2/k.
    The two differ in how the rounding radius scales with k."""

    k: float = 0.1
    variant: str = "cubic"

    def __post_init__(self):
        if not 0 <= self.k < np.inf:
            raise ValueError(f"smoothing parameter k must be finite and non-negative, got {self.k}")
        if self.variant not in ("cubic", "quilez"):
            raise ValueError(f"unknown blend variant {self.variant!r}")


def smooth_union(d1, d2, spec: BlendSpec):
    """Smoothed union: min(d1, d2) - gamma. Equals the hard min whenever
    |d1 - d2| >= k, and never exceeds it."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if spec.k == 0.0:
        return np.minimum(d1, d2)
    h = np.maximum(spec.k - np.abs(d1 - d2), 0.0)
    if spec.variant == "cubic":
        gamma = 0.25 * spec.k * h * h
    else:
        gamma = 0.25 * h * h / spec.k
    return np.minimum(d1, d2) - gamma


def _fold(values, spec: BlendSpec):
    """Left fold of smooth_union, in float64, over values rounded to float32."""
    first, *rest = (np.asarray(v, dtype=np.float32) for v in values)
    return functools.reduce(lambda acc, v: smooth_union(acc, v, spec), rest, first.astype(np.float64))


# ---------------------------------------------------------------------------
# SDF sources

# A fitted network is only about 1-Lipschitz, and its largest gradient norm
# on the coarse lattice can miss a steeper spot between the samples, so the
# slope bound it gives evaluate_near_level is this factor times that norm.
_SLOPE_SAFETY = 2.0


@dataclass(frozen=True)
class ModelSource:
    """One channel of a trained model, queried in real coordinates.

    Values are network outputs at the mapped point divided by the transform
    scale, from one `forward` call, which blocks the rows to fit a cache. Queries
    whose mapped point leaves [-1,1]^3 are network extrapolations.
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
        return forward(self.model, t.apply(as_points(p))) / t.scale

    def value(self, p):
        return self.values(p)[:, self.channel]

    def value_and_slope(self, p):
        """Values at p and the slope bound evaluate_near_level trusts
        between them: _SLOPE_SAFETY times the largest gradient norm of this
        channel at p, swept for this channel alone (2 GEMM rows per point
        and layer at any C). The real-unit field f(scale * (x - center)) /
        scale has the network's own gradient."""
        t = self.model.transform
        dual = forward_with_input_grad(self.model, t.apply(as_points(p)), channels=[self.channel])
        norms = np.linalg.norm(dual.gradients[:, 0], axis=1)
        return dual.values[:, 0] / t.scale, _SLOPE_SAFETY * float(norms.max())


@dataclass(frozen=True)
class GridSource(SlopeBounded):
    """Trilinear interpolation of a scalar grid (clamped at the boundary)."""

    grid: ScalarGrid

    @functools.cached_property
    def slope(self) -> float:
        """Exact bound on the interpolant's slope, sqrt(Gx^2 + Gy^2 + Gz^2).
        In a cell, df/dx_a is a convex combination of the cell's four
        a-edge differences over the step h_a, so |df/dx_a| <= G_a, the
        largest |difference| along any a-edge over h_a; clamping outside
        the box only zeroes derivatives. The differences are taken in
        float64, slab by slab, each slab with the plane the next one starts
        with."""
        g = self.grid
        per_step = (np.array(g.dims) - 1) / (g.bbox_max - g.bbox_min)  # 1 / h_a
        largest = np.zeros(3)
        for x in lattice_slabs(g.dims):
            v = g.values[x.start : x.stop + 1].astype(np.float64)
            for a in range(3):
                if v.shape[a] > 1:
                    largest[a] = max(largest[a], np.abs(np.diff(v, axis=a)).max())
        return float(np.sqrt(np.sum((largest * per_step) ** 2)))

    def value(self, p):
        g = self.grid
        p = as_points(p)
        dims = np.array(g.dims)
        span = g.bbox_max - g.bbox_min
        u = (p - g.bbox_min) / span * (dims - 1)
        u = np.clip(u, 0, dims - 1)
        i0 = np.minimum(u.astype(np.int64), dims - 2)
        f = u - i0
        out = np.zeros(len(p))
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (
                        (f[:, 0] if dx else 1 - f[:, 0])
                        * (f[:, 1] if dy else 1 - f[:, 1])
                        * (f[:, 2] if dz else 1 - f[:, 2])
                    )
                    corner = g.values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                    out += w * corner.astype(np.float64)  # widen the 8 gathered corners only
        return out


@dataclass(frozen=True)
class Union:
    """Smoothed union of SDF sources (shapes, meshes, ModelSources, grids):
    the left fold of smooth_union over the parts' values rounded to float32,
    so bitwise blend_grids of the parts' grids. k = 0 is the hard minimum.
    value_and_slope exists when every part has it: smooth_union's gradient
    is (1 - a) grad d1 + a grad d2, 0 <= a <= k^2/2 (cubic) or 1/2 (quilez),
    so each fold step scales the largest part slope by max(1, k^2 - 1) for
    cubic and by 1 for quilez (after Hart 1996)."""

    parts: tuple
    spec: BlendSpec = BlendSpec(k=0.0)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise GeometryError("union of zero parts")

    def value(self, p):
        return _fold((s.value(p) for s in self.parts), self.spec)

    @property
    def value_and_slope(self):
        parts = [s.value_and_slope for s in self.parts]  # AttributeError for a part with no bound
        step = max(1.0, self.spec.k**2 - 1.0) if self.spec.variant == "cubic" else 1.0

        def both(p):
            values, slopes = zip(*(f(p) for f in parts))
            return _fold(values, self.spec), max(slopes) * step ** (len(parts) - 1)

        return both

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        boxes = [s.bbox() for s in self.parts]
        return np.min([b[0] for b in boxes], axis=0), np.max([b[1] for b in boxes], axis=0)

    def sample(self, n, rng) -> np.ndarray:
        """n area-uniform points on the surface: per-part counts from a
        multinomial on the parts' area(), the draws that another part buries
        dropped (|value| >= 1e-9), and the deficit redrawn. Only a hard
        union (k = 0) can be sampled so: a blended fillet lies on no part."""
        if self.spec.k > 0:
            raise GeometryError(f"cannot sample a smooth union (k = {self.spec.k}): its fillet lies on no part")
        for s in self.parts:
            if not (hasattr(s, "sample") and hasattr(s, "area")):
                raise GeometryError(f"cannot sample surface of {type(s).__name__}")
        share = np.array([s.area() for s in self.parts])
        out = np.empty((0, 3))
        for _ in range(64):
            if len(out) == n:
                break
            counts = rng.multinomial(n - len(out), share / share.sum())
            batch = np.concatenate([s.sample(c, rng) for s, c in zip(self.parts, counts) if c])
            out = np.concatenate([out, batch[np.abs(self.value(batch)) < 1e-9]])
        if len(out) < n:
            raise GeometryError("rejection sampling of union surface failed")
        return rng.permutation(out)


# ---------------------------------------------------------------------------
# grid evaluation and blending


def _grid_axes(dims, bbox_min, bbox_max):
    if any(d < 2 for d in dims):
        raise GeometryError("grid needs at least 2 samples per axis")
    return lattice_axes(dims, bbox_min, bbox_max)


def _lattice_points(ax, ay, az) -> np.ndarray:
    pts = np.empty((len(ax), len(ay), len(az), 3))  # filled in place: no full-size temporaries
    pts[..., 0] = ax[:, None, None]
    pts[..., 1] = ay[:, None]
    pts[..., 2] = az
    return pts.reshape(-1, 3)


def grid_lattice(dims, bbox_min, bbox_max) -> np.ndarray:
    """Lattice coordinates for the given dims/bbox in ScalarGrid order:
    point i is at values.flat[i], z index fastest."""
    return _lattice_points(*_grid_axes(dims, bbox_min, bbox_max))


# points per x-slab of a lattice pass. A slab need not be a multiple of
# network.forward's row block (1,768 rows at width 37): for one output
# channel its products give each row the same bits in any batch, so however
# the lattice is cut, a model's values are bitwise those of one call over the
# whole lattice. With several channels, BLAS computes a short block's output
# layer with another kernel, which can move those rows' last float64 bits.
_LATTICE_BLOCK = 2**16


def lattice_slabs(dims) -> list:
    """The one lattice walk: x-index slices of whole yz-planes, at most
    _LATTICE_BLOCK points each but at least one plane, in lattice order."""
    step = max(1, _LATTICE_BLOCK // (int(dims[1]) * int(dims[2])))
    return [slice(i, i + step) for i in range(0, int(dims[0]), step)]


def lattice_slab_points(dims, bbox_min, bbox_max):
    """(x, points) for each slab x of lattice_slabs, the points being those
    of grid_lattice in that slab."""
    ax, ay, az = _grid_axes(dims, bbox_min, bbox_max)
    for x in lattice_slabs(dims):
        yield x, _lattice_points(ax[x], ay, az)


def evaluate_on_grid(source, dims, bbox_min, bbox_max) -> ScalarGrid:
    """Sample an SDF source on a real-coordinate Cartesian lattice, one
    source.value call per lattice slab, rounded to float32. Every source's
    value is per point (a model's matrix products give each row the same
    bits in any batch), so the grid is bitwise one call over grid_lattice.

    For model-backed sources the values are already rescaled to real units;
    lattice points outside the model's trusted domain keep the extrapolated
    value.
    """
    dims = tuple(int(d) for d in dims)
    vals = np.empty(dims, dtype=np.float32)
    for x, pts in lattice_slab_points(dims, bbox_min, bbox_max):
        vals[x] = source.value(pts).reshape(-1, *dims[1:])
    return ScalarGrid(dims, bbox_min, bbox_max, vals)


# coarse lattice of evaluate_near_level: every _COARSE_STEP-th index per
# axis, plus the last
_COARSE_STEP = 4


def _nearest_knot(axis, knots):
    """For each sample of a lattice axis: the index into `knots` of the
    nearest knot, and the distance to it."""
    below = np.searchsorted(knots, np.arange(len(axis)), side="right") - 1
    above = np.minimum(below + 1, len(knots) - 1)
    to_below, to_above = axis - axis[knots[below]], axis[knots[above]] - axis
    return np.where(to_above < to_below, above, below), np.minimum(to_below, to_above)


def evaluate_near_level(source, dims, bbox_min, bbox_max, iso: float = 0.0) -> ScalarGrid:
    """Sample a source on the lattice of evaluate_on_grid, exactly only near
    its iso level set, coarse to fine (after MISE, Mescheder et al. 2019,
    and the Lipschitz pruning of sphere tracing, Hart 1996).

    The source's value_and_slope gives values and a slope bound L on a
    coarse lattice. A lattice point whose nearest coarse sample c has
    |f(c) - iso| > L |p - c| is on c's side of iso and keeps c's value;
    every other point is evaluated with source.value, and so are the
    points the bound placed that are corners of a cell across the level.
    Marching cubes and a sign test then read the grid as they read the
    dense one. If one of those exact corner values is on the other side
    from where the bound placed it, the bound failed, and the grid is
    evaluated densely instead. Sources without value_and_slope are
    evaluated densely.

    Placement and both exact passes walk lattice_slabs, one source.value
    call per slab on the points it picks, so no index array spans the
    lattice or the band. Values are float32 as in any ScalarGrid.
    """
    if not np.isfinite(iso):
        raise GeometryError(f"iso level must be finite, got {iso}")
    dims = tuple(int(d) for d in dims)
    if not hasattr(source, "value_and_slope"):
        return evaluate_on_grid(source, dims, bbox_min, bbox_max)
    axes = _grid_axes(dims, bbox_min, bbox_max)
    knots = [np.unique(np.r_[np.arange(0, n, _COARSE_STEP), n - 1]) for n in dims]
    coarse, slope = source.value_and_slope(_lattice_points(*(a[k] for a, k in zip(axes, knots))))
    coarse = coarse.reshape(tuple(len(k) for k in knots))

    (px, dx), (py, dy), (pz, dz) = (_nearest_knot(a, k) for a, k in zip(axes, knots))
    placed = np.empty(dims, dtype=bool)
    values = np.empty(dims, dtype=np.float32)  # as a ScalarGrid stores it
    for x in lattice_slabs(dims):  # the placement test is separable
        reach = dx[x, None, None] ** 2 + dy[:, None] ** 2 + dz**2
        np.sqrt(reach, out=reach)
        reach *= slope  # how far the field can move from the nearest knot
        near = coarse[np.ix_(px[x], py, pz)]
        placed[x] = np.abs(near - iso) > reach
        values[x] = near

    def evaluate(pick, inside=None):
        """Evaluates the lattice points where pick(x) is true, one
        source.value call per slab x. With `inside`, stops and returns True
        at the first slab with a value on the other side of iso."""
        for x in lattice_slabs(dims):
            at = np.nonzero(pick(x))
            if len(at[0]):
                slab = values[x]  # a view: writing it writes the grid
                slab[at] = source.value(np.stack([axes[0][x][at[0]], axes[1][at[1]], axes[2][at[2]]], axis=1))
                if inside is not None and np.any(np.less(slab[at], np.float64(iso)) != inside[x][at]):
                    return True
        return False

    evaluate(lambda x: ~placed[x])
    inside = np.less(values, np.float64(iso))  # in float64: iso may round to a grid value
    across = np.zeros(dims, dtype=bool)
    cube = cube_index(inside)
    straddles = (cube != 0) & (cube != 255)
    del cube
    for view in cell_corners(across):
        view |= straddles
    across &= placed
    if evaluate(lambda x: across[x], inside):
        return evaluate_on_grid(source, dims, bbox_min, bbox_max)
    return ScalarGrid(dims, bbox_min, bbox_max, values)


def blend_grids(grids, spec: BlendSpec) -> ScalarGrid:
    """The fold of Union over grids on one lattice, in list order, slab by
    slab: bitwise the whole-lattice fold, rounded once. With k = 0 it is
    the order-independent pointwise minimum."""
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
    out = np.empty(first.dims, dtype=np.float32)
    for x in lattice_slabs(first.dims):
        out[x] = _fold([g.values[x] for g in grids], spec)
    return ScalarGrid(first.dims, first.bbox_min, first.bbox_max, out)
