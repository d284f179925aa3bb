"""Mesh and point-cloud types, file I/O, surface sampling, normalization and
exact distance queries.

Coordinates are float64 throughout. Point clouds are (N, 3) arrays wrapped in
PointCloud; meshes are vertex/triangle index arrays. Distance queries here are
exact minima over all triangles (pruned by bounding boxes, never approximated)
and double as ground-truth oracles for the rest of the package.
"""

from __future__ import annotations

import numbers
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "TriangleMesh",
    "DomainTransform",
    "ScalarGrid",
    "SlopeBounded",
    "GeometryError",
    "as_points",
    "lattice_axes",
    "text_records",
    "load_point_cloud",
    "save_point_cloud",
    "load_mesh",
    "save_mesh",
    "fit_transform",
    "point_to_mesh_distance",
    "signed_distance_to_mesh",
    "read_grid",
    "write_grid",
]


class GeometryError(ValueError):
    """Raised for malformed geometry files or invalid geometric inputs."""


def as_points(a) -> np.ndarray:
    """Query points as an (N, 3) float64 array; a (3,) point is a batch of
    one. Every SDF query (`value`, the mesh distances, `network.forward`)
    takes its points through here and returns one result per point."""
    pts = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError(f"expected (N, 3) point array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of 3D surface samples."""

    points: np.ndarray  # (N, 3) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise GeometryError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise GeometryError("empty point cloud has no bounding box")
        return self.points.min(axis=0), self.points.max(axis=0)


class SlopeBounded:
    """A constant bound `slope` on how fast an SDF source's value(points)
    changes; value_and_slope(points) returns the values with it, so that
    csg.evaluate_near_level can evaluate the source only near a level set."""

    slope = 1.0  # an exact signed distance is 1-Lipschitz

    def value_and_slope(self, p):
        return self.value(p), self.slope


@dataclass(frozen=True)
class TriangleMesh(SlopeBounded):
    """Triangle surface mesh. Degenerate (zero-area) faces are dropped on
    construction; watertightness is a property checked elsewhere, not an
    invariant.

    A mesh is a surface as the analytic shapes of vinr.synthetic are:
    value(points) is its exact signed distance, which has slope 1, bbox()
    holds it and sample(n, rng) draws area-uniform points on it."""

    vertices: np.ndarray  # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        tris = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if not np.all(np.isfinite(verts)):
            raise GeometryError("mesh has non-finite vertex coordinates")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise GeometryError("triangle index out of range")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        if tris.size and not (keep := self.areas() > 0.0).all():
            object.__setattr__(self, "triangles", tris[keep])

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # take() gathers rows several times faster than fancy indexing
        return tuple(self.vertices.take(self.triangles[:, k], axis=0) for k in range(3))

    def areas(self) -> np.ndarray:
        a, b, c = self.triangle_corners()
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def area(self) -> float:
        return float(self.areas().sum())

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if self.num_vertices == 0:
            raise GeometryError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def value(self, p):
        return signed_distance_to_mesh(p, self)

    def sample(self, n, rng) -> np.ndarray:
        """A triangle with probability proportional to its area, then a
        uniform barycentric point in it, n times."""
        if self.num_triangles == 0:
            raise GeometryError("cannot sample a zero-area mesh")
        cdf = np.cumsum(self.areas())
        face = np.minimum(np.searchsorted(cdf, rng.random(n) * cdf[-1]), self.num_triangles - 1)
        a, b, c = self.triangle_corners()
        # square-root trick gives a uniform density over each triangle
        r1 = np.sqrt(rng.random(n))[:, None]
        r2 = rng.random(n)[:, None]
        return (1 - r1) * a[face] + r1 * (1 - r2) * b[face] + r1 * r2 * c[face]


@dataclass(frozen=True)
class DomainTransform:
    """Uniform similarity map between real coordinates and the normalized
    training cube: x_norm = scale * (x_real - center). Distances scale by
    `scale`, so SDF values rescale linearly under this map."""

    scale: float
    center: np.ndarray  # (3,)
    half_extent: float = 0.9

    def __post_init__(self):
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in (self.scale, self.half_extent)):
            raise GeometryError("transform scale and half_extent must be numbers")
        if not (0 < self.scale < np.inf):
            raise GeometryError("transform scale must be positive and finite")
        if not (0 < self.half_extent <= 1):
            raise GeometryError("half_extent must lie in (0, 1]")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(3))
        if not np.all(np.isfinite(self.center)):
            raise GeometryError("transform center must be finite")

    def apply(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        return self.scale * (p - self.center)

    def invert(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        return p / self.scale + self.center


def fit_transform(cloud: PointCloud, half_extent: float = 0.9) -> DomainTransform:
    """Isotropic normalization placing the cloud inside [-h, h]^3.

    Center is the bbox center; scale is 2h over the longest bbox edge, the
    same factor for all axes so distances rescale uniformly.
    """
    if len(cloud) < 2:
        raise GeometryError("need at least 2 points to fit a transform")
    lo, hi = cloud.bbox()
    with np.errstate(over="ignore"):  # an infinite extent or center fails DomainTransform's checks
        extent = hi - lo
        center = 0.5 * (lo + hi)
    longest = float(extent.max())
    if longest <= 0:
        raise GeometryError("degenerate point cloud: zero bounding-box extent")
    scale = 2.0 * half_extent / longest
    return DomainTransform(scale=scale, center=center, half_extent=half_extent)


@dataclass(frozen=True)
class ScalarGrid:
    """Dense scalar field on an axis-aligned Cartesian lattice.

    values[ix, iy, iz] is the lattice point (ax[ix], ay[iy], az[iz]) of
    axes(). Values are stored C-contiguous, so values.flat[i] is the i-th
    point of csg.grid_lattice (z fastest), and as float32 to match the
    on-disk format bit-exactly.
    """

    dims: tuple[int, int, int]
    bbox_min: np.ndarray  # (3,)
    bbox_max: np.ndarray  # (3,)
    values: np.ndarray  # (nx, ny, nz) float32

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise GeometryError(f"invalid grid dims {dims}")
        lo = np.asarray(self.bbox_min, dtype=np.float64).reshape(3)
        hi = np.asarray(self.bbox_max, dtype=np.float64).reshape(3)
        if not np.all(lo < hi):
            raise GeometryError("grid bbox min must be strictly below max")
        vals = np.ascontiguousarray(self.values, dtype=np.float32).reshape(dims)
        if not np.all(np.isfinite(vals)):
            raise GeometryError("grid contains non-finite values")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "bbox_min", lo)
        object.__setattr__(self, "bbox_max", hi)
        object.__setattr__(self, "values", vals)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return lattice_axes(self.dims, self.bbox_min, self.bbox_max)


def lattice_axes(dims, bbox_min, bbox_max) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample coordinates along each axis of a Cartesian lattice:
    dims[i] evenly spaced values from bbox_min[i] to bbox_max[i], both ends
    included. Grid evaluation and marching cubes both place points by it."""
    lo = np.asarray(bbox_min, dtype=np.float64)
    hi = np.asarray(bbox_max, dtype=np.float64)
    return tuple(np.linspace(lo[i], hi[i], int(dims[i])) for i in range(3))


# ---------------------------------------------------------------------------
# file I/O


def text_records(path):
    """Yield (line number, stripped line) for every line of a UTF-8 text
    file that is neither blank nor a '#' comment: the line rule of the .xyz,
    .obj and config readers. A leading byte-order mark is dropped. A line
    that is not UTF-8 raises GeometryError naming the path and the line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except UnicodeDecodeError:
        # text mode decodes ahead of the line it yields: find the line again,
        # ending lines at \n, \r\n or \r as text mode does
        with open(path, "rb") as f:
            for lineno, line in enumerate((line for raw in f for line in raw.splitlines()), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise GeometryError(f"{path}:{lineno}: {e}") from None
        raise


def _numbers(convert, tokens, path, lineno) -> list:
    """The tokens of one record, each through `convert` (float or int)."""
    try:
        return [convert(t) for t in tokens]
    except ValueError:
        raise GeometryError(f"{path}:{lineno}: malformed number") from None


def load_point_cloud(path) -> PointCloud:
    """Parse an .xyz text file: one 'x y z' line per point, '#' comments."""
    pts = []
    for lineno, line in text_records(path):
        parts = line.split()
        if len(parts) != 3:
            raise GeometryError(f"{path}:{lineno}: expected 3 values, got {len(parts)}")
        xyz = _numbers(float, parts, path, lineno)
        if not all(np.isfinite(v) for v in xyz):
            raise GeometryError(f"{path}:{lineno}: non-finite coordinate")
        pts.append(xyz)
    return PointCloud(np.array(pts, dtype=np.float64).reshape(-1, 3))


def save_point_cloud(cloud: PointCloud, path) -> None:
    """One 'x y z' line per point, 17 significant digits (round-trip exact)."""
    text = ("%.17g %.17g %.17g\n" * len(cloud)) % tuple(cloud.points.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def load_mesh(path) -> TriangleMesh:
    """Parse the v/f subset of ASCII OBJ. Faces must be triangles with
    1-based indices; other record types are ignored with a warning."""
    verts = []
    tris = []
    ignored: set[str] = set()
    for lineno, line in text_records(path):
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) != 4:
                raise GeometryError(f"{path}:{lineno}: vertex needs 3 coordinates")
            verts.append(_numbers(float, parts[1:], path, lineno))
        elif tag == "f":
            if len(parts) != 4:
                raise GeometryError(f"{path}:{lineno}: only triangular faces supported")
            # tolerate v/vt/vn face tokens, use the vertex index only
            idx = _numbers(int, [tok.split("/")[0] for tok in parts[1:]], path, lineno)
            if min(idx) < 0:
                raise GeometryError(f"{path}:{lineno}: negative indices unsupported")
            tris.append([i - 1 for i in idx])
        else:
            ignored.add(tag)
    if ignored:
        warnings.warn(f"{path}: ignored OBJ records: {sorted(ignored)}", stacklevel=2)
    try:
        return TriangleMesh(np.array(verts).reshape(-1, 3), np.array(tris, dtype=np.int64).reshape(-1, 3))
    except (GeometryError, OverflowError) as e:  # an index past int64 overflows
        raise GeometryError(f"{path}: {e}") from None


def save_mesh(mesh: TriangleMesh, path) -> None:
    """Wavefront OBJ: `v` lines with 17 significant digits (round-trip
    exact), then 1-based `f` lines; the text is formatted in one pass."""
    text = ("v %.17g %.17g %.17g\n" * mesh.num_vertices) % tuple(mesh.vertices.ravel().tolist())
    text += ("f %d %d %d\n" * mesh.num_triangles) % tuple((mesh.triangles + 1).ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# distance queries

_DISTANCE_PAIRS = 1 << 16  # bounds or pairs per chunk array: ~4 live arrays in 2 MB (L2)
_WINDING_PAIRS = 1 << 14  # the same for _winding_number, which keeps ~15 (P, T) arrays alive
_LEAF = 32  # consecutive Morton-ordered triangles per leaf box
_SEED_LEAVES = 2  # nearest leaves that seed a point's upper bound
_SEED_TRIANGLES = 4  # exact distances per point that seed its upper bound


def _point_triangle_closest(p: np.ndarray, a, b, c) -> np.ndarray:
    """Closest points on triangles (a, b, c) to query points p, pair by pair.

    p, a, b, c: (N, 3); row i pairs point p[i] with triangle (a[i], b[i],
    c[i]). Returns (N, 3). Vectorized form of Ericson's closest-point-on-
    triangle region tests.
    """
    ab = b - a
    ac = c - a
    diffs = (p - a, p - b, p - c)
    d1, d3, d5 = (np.einsum("nk,nk->n", ab, d) for d in diffs)
    d2, d4, d6 = (np.einsum("nk,nk->n", ac, d) for d in diffs)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        w_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        denom_bc = (d4 - d3) + (d5 - d6)
        w_bc = np.where(denom_bc != 0, (d4 - d3) / denom_bc, 0.0)
        denom = va + vb + vc
        v_in = np.where(denom != 0, vb / denom, 0.0)
        w_in = np.where(denom != 0, vc / denom, 0.0)

    # Ericson's checks are sequential with first-match-wins; replicated here
    # by overwriting in reverse priority order.
    closest = a + v_in[:, None] * ab + w_in[:, None] * ac
    m = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    closest = np.where(m[:, None], b + w_bc[:, None] * (c - b), closest)
    m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    closest = np.where(m[:, None], a + w_ac[:, None] * ac, closest)
    m = (d6 >= 0) & (d5 <= d6)
    closest = np.where(m[:, None], c, closest)
    m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    closest = np.where(m[:, None], a + v_ab[:, None] * ab, closest)
    m = (d3 >= 0) & (d4 <= d3)
    closest = np.where(m[:, None], b, closest)
    m = (d1 <= 0) & (d2 <= 0)
    closest = np.where(m[:, None], a, closest)
    return closest


def _pair_sq_distance(q, a, b, c) -> np.ndarray:
    """Squared distance from q[i] to triangle (a[i], b[i], c[i]), all (N, 3)."""
    return np.sum((q - _point_triangle_closest(q, a, b, c)) ** 2, axis=1)


def _box_sq_gap(q: np.ndarray, lo, hi) -> np.ndarray:
    """Squared distance from each point q[i] of q (N, 3) to boxes [lo, hi],
    given per axis: lo[k] is (M,) for boxes shared by every point or (N, M)
    for a row of boxes per point. Returns (N, M).

    min and max are exact and every step is monotone under rounding, so a box
    that holds another never gets the larger bound.
    """
    for axis in range(3):
        qk = q[:, axis, None]
        gap = lo[axis] - qk
        np.maximum(gap, qk - hi[axis], out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.square(gap, out=gap)
        lb = gap if axis == 0 else np.add(lb, gap, out=lb)
    return lb


def _morton_leaves(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Triangles with boxes [lo, hi] (T, 3) cut into leaves: (L, _LEAF)
    triangle indices, in the stable order of the 30-bit Morton code of the box
    centres, the last leaf padded by repeating its last triangle."""
    centre = 0.5 * lo + 0.5 * hi
    cmin = centre.min(axis=0)
    extent = centre.max(axis=0) - cmin
    cell = np.divide(1023.0, extent, out=np.zeros(3), where=extent > 0)
    code = np.zeros(len(centre), dtype=np.int64)
    for axis in range(3):
        x = ((centre[:, axis] - cmin[axis]) * cell[axis]).astype(np.int64)
        for shift, mask in ((16, 0x030000FF), (8, 0x0300F00F), (4, 0x030C30C3), (2, 0x09249249)):
            x = (x | (x << shift)) & mask
        code |= x << (2 - axis)
    order = np.argsort(code, kind="stable")
    return np.append(order, np.repeat(order[-1], -len(order) % _LEAF)).reshape(-1, _LEAF)


def point_to_mesh_distance(p, mesh: TriangleMesh) -> np.ndarray:
    """Exact unsigned distance: the minimum over all triangles, with the
    closest-point test run only on triangles that could hold the nearest point.
    Returns (N,) for the (N, 3) points of `as_points(p)`, which must be finite.

    A point's squared distance to a triangle's bounding box, `lb`, bounds its
    squared distance to the triangle from below. The triangles are sorted by
    the Morton code of their box centres and cut into leaves of _LEAF
    consecutive ones; a leaf's box is the min/max of its triangles' boxes, and
    the last leaf repeats a triangle, which cannot change a minimum. Per point:
    1. `lb` to every leaf box;
    2. the exact test on the _SEED_TRIANGLES triangles of smallest `lb` in the
       _SEED_LEAVES nearest leaves, whose minimum `ub` bounds the answer from
       above. `ub` is widened by 1e-12 of the distance and of the mesh's
       scale, so that a closest point which rounds just outside its box is
       kept. A leaf's nearness is its reach, sqrt(`lb`) plus its box's
       diagonal, which none of its triangles lies beyond: a leaf that spans a
       jump of the Morton curve has a large box, which may hold the point
       (`lb` = 0) while all its triangles are far;
    3. the exact test on every triangle with `lb <= ub` in every leaf with
       `lb <= ub`; all others are farther.
    A leaf's `lb` is never above its triangles' in floating point (min/max are
    exact and the gap is monotone under rounding), so the nearest triangle of
    the all-pairs scan always survives step 3. The result is bitwise the
    minimum of the same pairwise kernel over all pairs, which runs on gathered,
    contiguous pairs as the brute-force form does.
    """
    if mesh.num_triangles == 0:
        raise GeometryError("cannot measure distance to an empty mesh")
    pts = as_points(p)
    if not np.isfinite(pts).all():
        raise GeometryError("query points must be finite")
    a, b, c = mesh.triangle_corners()
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    leaves = _morton_leaves(lo, hi)
    tri_lo = lo[leaves].transpose(2, 0, 1).copy()  # (3, L, _LEAF)
    tri_hi = hi[leaves].transpose(2, 0, 1).copy()
    leaf_lo, leaf_hi = tri_lo.min(axis=2), tri_hi.max(axis=2)
    leaf_diag = np.sqrt(np.sum((leaf_hi - leaf_lo) ** 2, axis=0))
    slack = 1e-12 * float(np.abs(mesh.vertices).max())
    L = len(leaves)
    out = np.empty(len(pts))
    chunk = max(1, _DISTANCE_PAIRS // max(L, _SEED_LEAVES * _LEAF))
    step = _DISTANCE_PAIRS // _LEAF  # (point, leaf) pairs expanded at once

    def pair_sq_distance(q, pi, ti):  # take(), as in triangle_corners
        return _pair_sq_distance(*(v.take(i, axis=0) for v, i in ((q, pi), (a, ti), (b, ti), (c, ti))))

    for s in range(0, len(pts), chunk):
        q = pts[s : s + chunk]
        rows = np.arange(len(q))
        leaf_lb = _box_sq_gap(q, leaf_lo, leaf_hi)
        reach = np.sqrt(leaf_lb) + leaf_diag  # no triangle of the leaf is farther
        near = np.argpartition(reach, min(_SEED_LEAVES, L) - 1, axis=1)[:, :_SEED_LEAVES]
        lb = _box_sq_gap(q, *(v.take(near, axis=1).reshape(3, len(q), -1) for v in (tri_lo, tri_hi)))
        k = min(_SEED_TRIANGLES, lb.shape[1])
        seed = np.argpartition(lb, k - 1, axis=1)[:, :k]
        ti = leaves[near[rows[:, None], seed // _LEAF], seed % _LEAF].ravel()
        pi = np.repeat(rows, k)
        best = pair_sq_distance(q, pi, ti).reshape(-1, k).min(axis=1)
        bound = (np.sqrt(best) * (1 + 1e-12) + slack) ** 2
        pl, li = np.nonzero(leaf_lb <= bound[:, None])
        for r in range(0, len(pl), step):
            pr, lr = pl[r : r + step], li[r : r + step]
            lb = _box_sq_gap(q.take(pr, axis=0), tri_lo.take(lr, axis=1), tri_hi.take(lr, axis=1))
            row, slot = np.nonzero(lb <= bound[pr, None])
            pi, ti = pr[row], leaves.take(lr[row] * _LEAF + slot)
            np.minimum.at(best, pi, pair_sq_distance(q, pi, ti))
        out[s : s + chunk] = np.sqrt(best)
    return out


def _winding_number(pts: np.ndarray, mesh: TriangleMesh) -> np.ndarray:
    """Generalised winding number of the mesh around each point (Jacobson,
    Kavan & Sorkine-Hornung 2013): the sum of the triangles' signed solid
    angles over 4 pi, each by Van Oosterom and Strackee's formula

        Omega = 2 atan2(a.(b x c), |a||b||c| + (a.b)|c| + (b.c)|a| + (c.a)|b|)

    with a, b, c the corners minus the point. Works on (points, triangles)
    arrays per coordinate, chunked to _WINDING_PAIRS.
    """
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    corners = [v.T for v in mesh.triangle_corners()]  # three (3, T)
    T = mesh.num_triangles
    out = np.empty(len(pts))
    chunk = max(1, _WINDING_PAIRS // T)
    for s in range(0, len(pts), chunk):
        q = pts[s : s + chunk]
        a, b, c = ([v[k] - q[:, k, None] for k in range(3)] for v in corners)
        bxc = (b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0])
        la, lb, lc = (np.sqrt(dot(u, u)) for u in (a, b, c))
        den = la * lb * lc + dot(a, b) * lc + dot(b, c) * la + dot(c, a) * lb
        out[s : s + chunk] = np.arctan2(dot(a, bxc), den).sum(axis=1)
    return out / (2 * np.pi)


def signed_distance_to_mesh(p, mesh: TriangleMesh) -> np.ndarray:
    """Signed distance to a watertight mesh: negative inside.

    The magnitude is point_to_mesh_distance. A point is inside when the
    mesh's winding number around it rounds to an odd integer, which is the
    ray-crossing parity of a closed mesh whatever its orientation, also for
    nested shells, without degenerate rays.
    """
    from .extraction import check_watertight

    if not check_watertight(mesh).closed:
        raise GeometryError("signed distance requires a watertight mesh")
    pts = as_points(p)
    dist = point_to_mesh_distance(pts, mesh)
    inside = np.rint(_winding_number(pts, mesh)) % 2 == 1
    return np.where(inside, -dist, dist)


# ---------------------------------------------------------------------------
# scalar grid binary format: the header, then the float32 values with the x
# index fastest (Fortran order), the only place that order is used. Both
# directions stream one z-plane at a time, which is x-fastest as a (ny, nx)
# C array.

_GRID_MAGIC = b"SDFG"
_GRID_VERSION = 1
_HEADER = struct.Struct("<4sI3I6d")


def write_grid(grid: ScalarGrid, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_GRID_MAGIC, _GRID_VERSION, *grid.dims, *grid.bbox_min, *grid.bbox_max))
        for iz in range(grid.dims[2]):
            f.write(grid.values[:, :, iz].T.astype("<f4").tobytes())


def read_grid(path) -> ScalarGrid:
    """Read a .sdfgrid file. The payload size is checked against the header
    before the grid is allocated; ScalarGrid checks the rest, and every
    failure is a GeometryError that names the file."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        try:
            if len(header) != _HEADER.size:
                raise GeometryError("truncated header")
            magic, version, nx, ny, nz, *bbox = _HEADER.unpack(header)
            if magic != _GRID_MAGIC:
                raise GeometryError(f"bad magic {magic!r}")
            if version != _GRID_VERSION:
                raise GeometryError(f"unsupported format version {version}")
            size, need = os.fstat(f.fileno()).st_size - _HEADER.size, 4 * nx * ny * nz
            if size != need:
                raise GeometryError(f"payload size mismatch (expected {need} bytes, got {size})")
            values = np.empty((nx, ny, nz), dtype=np.float32)
            for iz in range(nz):
                values[:, :, iz] = np.frombuffer(f.read(4 * nx * ny), dtype="<f4").reshape(ny, nx).T
            return ScalarGrid((nx, ny, nz), np.array(bbox[:3]), np.array(bbox[3:]), values)
        except GeometryError as e:
            raise GeometryError(f"{path}: {e}") from None
