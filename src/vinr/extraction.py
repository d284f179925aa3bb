"""Isosurface extraction (marching cubes) and mesh quality checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, ScalarGrid, TriangleMesh
from .mc_tables import EDGE_CORNERS, TRI_TABLE

__all__ = [
    "marching_cubes",
    "check_watertight",
    "extract_model",
    "WatertightReport",
    "enclosed_volume",
]

# corner offsets matching mc_tables numbering
_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

# edge id -> (axis, offset of the edge's low-corner within the cell)
_EDGE_CANONICAL = []
for _e, (_c1, _c2) in enumerate(EDGE_CORNERS):
    _o1 = np.array(_CORNER_OFFSETS[_c1])
    _o2 = np.array(_CORNER_OFFSETS[_c2])
    _axis = int(np.nonzero(_o1 != _o2)[0][0])
    _EDGE_CANONICAL.append((_axis, tuple(np.minimum(_o1, _o2))))


def marching_cubes(grid: ScalarGrid, iso: float = 0.0) -> TriangleMesh:
    """Polygonize the iso level set of a scalar grid.

    Vertices are placed on cell edges by linear interpolation and welded by
    their canonical edge key, so shared edges produce shared vertices and the
    output is scheduling-independent. Grid values exactly equal to iso are
    nudged by +1e-12 first to avoid degenerate vertices. Triangles are
    oriented with normals pointing toward positive field values.
    """
    nx, ny, nz = grid.dims
    if min(nx, ny, nz) < 2:
        raise GeometryError("marching cubes needs at least 2 samples per axis")
    v = grid.values.astype(np.float64)
    v = np.where(v == iso, iso + 1e-12, v)

    inside = v < iso
    # cube index per cell, bit i set when corner i is inside
    cube = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        cube |= (
            inside[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1].astype(np.uint16)
            << bit
        )
    active = np.argwhere((cube != 0) & (cube != 255))

    ax, ay, az = grid.axes()
    axes = (ax, ay, az)

    vert_index: dict[tuple[int, int, int, int], int] = {}
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []

    def edge_vertex(cx: int, cy: int, cz: int, edge: int) -> int:
        axis, off = _EDGE_CANONICAL[edge]
        ix, iy, iz = cx + off[0], cy + off[1], cz + off[2]
        key = (axis, ix, iy, iz)
        idx = vert_index.get(key)
        if idx is not None:
            return idx
        v1 = v[ix, iy, iz]
        step = [0, 0, 0]
        step[axis] = 1
        v2 = v[ix + step[0], iy + step[1], iz + step[2]]
        t = (iso - v1) / (v2 - v1)
        pos = [axes[0][ix], axes[1][iy], axes[2][iz]]
        hi = axes[axis][(ix, iy, iz)[axis] + 1]
        pos[axis] = pos[axis] + t * (hi - pos[axis])
        idx = len(vertices)
        vertices.append((pos[0], pos[1], pos[2]))
        vert_index[key] = idx
        return idx

    for cx, cy, cz in active:
        tris = TRI_TABLE[cube[cx, cy, cz]]
        for i in range(0, len(tris), 3):
            a = edge_vertex(cx, cy, cz, tris[i])
            b = edge_vertex(cx, cy, cz, tris[i + 1])
            c = edge_vertex(cx, cy, cz, tris[i + 2])
            if a != b and b != c and a != c:
                # table order has normals toward the inside; flip so they
                # point toward positive field values
                triangles.append((a, c, b))

    if not vertices:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    return TriangleMesh(np.array(vertices), np.array(triangles, dtype=np.int64))


@dataclass(frozen=True)
class WatertightReport:
    closed: bool
    boundary_edges: int
    non_manifold_edges: int
    orientation_consistent: bool


def check_watertight(mesh: TriangleMesh) -> WatertightReport:
    """Edge-manifoldness audit: a closed mesh has every edge shared by
    exactly two triangles with opposite winding."""
    start, end = mesh.triangles.ravel(), np.roll(mesh.triangles, -1, axis=1).ravel()
    # one integer key per undirected edge, from its sorted vertex pair
    key = np.minimum(start, end) * mesh.num_vertices + np.maximum(start, end)
    _, edge, uses = np.unique(key, return_inverse=True, return_counts=True)
    # winding sum: +1 per use in ascending vertex order, -1 per descending use
    winding = 2 * np.bincount(edge[start < end], minlength=len(uses)) - uses
    boundary = int(np.count_nonzero(uses == 1))
    non_manifold = int(np.count_nonzero(uses > 2))
    orientation = bool(np.all(winding[uses == 2] == 0))
    closed = mesh.num_triangles > 0 and boundary == 0 and non_manifold == 0 and orientation
    return WatertightReport(
        closed=closed,
        boundary_edges=boundary,
        non_manifold_edges=non_manifold,
        orientation_consistent=orientation,
    )


def enclosed_volume(mesh: TriangleMesh) -> float:
    """Signed enclosed volume via the divergence theorem (positive for
    outward-oriented closed meshes)."""
    a, b, c = mesh.triangle_corners()
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def extract_model(model, channel: int, dims, bbox_min, bbox_max, iso: float = 0.0) -> TriangleMesh:
    """Evaluate one model channel on a real-coordinate grid and polygonize."""
    from .csg import ModelSource, evaluate_on_grid

    source = ModelSource(model, channel)
    grid = evaluate_on_grid(source, dims, bbox_min, bbox_max)
    return marching_cubes(grid, iso)
