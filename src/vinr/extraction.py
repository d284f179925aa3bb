"""Isosurface extraction (marching cubes) and mesh quality checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, ScalarGrid, TriangleMesh
from .mc_tables import EDGE_CORNERS, TRI_TABLE

__all__ = [
    "cell_corners",
    "cube_index",
    "marching_cubes",
    "check_watertight",
    "WatertightReport",
    "enclosed_volume",
]

# corner offsets matching mc_tables numbering
_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

# per table edge: the axis it runs along and its low corner within the cell
_EDGE_AXIS = np.empty(12, dtype=np.int64)
_EDGE_LOW = np.empty((12, 3), dtype=np.int64)
for _e, (_c1, _c2) in enumerate(EDGE_CORNERS):
    _o1 = np.array(_CORNER_OFFSETS[_c1])
    _o2 = np.array(_CORNER_OFFSETS[_c2])
    _EDGE_AXIS[_e] = np.nonzero(_o1 != _o2)[0][0]
    _EDGE_LOW[_e] = np.minimum(_o1, _o2)

def cell_corners(a: np.ndarray) -> list:
    """Views of the eight corner samples of every cell of a 3D lattice
    array, in mc_tables corner order: corner i of cell (x, y, z) is
    cell_corners(a)[i][x, y, z]."""
    nx, ny, nz = a.shape
    return [a[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1] for dx, dy, dz in _CORNER_OFFSETS]


def cube_index(inside: np.ndarray) -> np.ndarray:
    """The marching-cubes case of every cell of a 3D bool lattice array,
    uint8 with bit i set when corner i (mc_tables order) is inside: 0 and
    255 are the cells that do not cross the level."""
    cube = np.zeros(tuple(n - 1 for n in inside.shape), dtype=np.uint8)
    for bit, corner in enumerate(cell_corners(inside)):
        cube |= corner.view(np.uint8) << np.uint8(bit)  # a bool is one 0/1 byte
    return cube


# TRI_TABLE as one (256, 16) array, each row's edge list padded with -1
_TRI_EDGES = np.full((256, 16), -1, dtype=np.int64)
for _case, _edges in enumerate(TRI_TABLE):
    _TRI_EDGES[_case, : len(_edges)] = _edges


def marching_cubes(grid: ScalarGrid, iso: float = 0.0) -> TriangleMesh:
    """Polygonize the iso level set of a scalar grid.

    Vertices are placed on cell edges by linear interpolation and welded by
    their canonical edge key, so shared edges produce shared vertices and the
    output is scheduling-independent: vertices are numbered in the order
    their edges are first met, walking the active cells in index order and
    each cell's table triangles in order. Grid values exactly equal to iso
    are nudged by +1e-12 first to avoid degenerate vertices. Triangles are
    oriented with normals pointing toward positive field values.
    """
    nx, ny, nz = grid.dims
    if min(nx, ny, nz) < 2:
        raise GeometryError("marching cubes needs at least 2 samples per axis")
    if not np.isfinite(iso):
        raise GeometryError(f"iso level must be finite, got {iso}")
    # the compare runs in float64, and a sample equal to iso counts as
    # outside, where the nudge below puts it
    cube = cube_index(np.less(grid.values, np.float64(iso)))
    active = np.argwhere((cube != 0) & (cube != 255))
    if len(active) == 0:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))

    # every triangle corner of every active cell, in emission order
    table = _TRI_EDGES[cube[tuple(active.T)]]
    cell, slot = np.nonzero(table >= 0)
    edge = table[cell, slot]
    axis = _EDGE_AXIS[edge]
    low = active[cell] + _EDGE_LOW[edge]
    # one id per lattice edge: its axis, then its low corner's linear index
    key = axis * (nx * ny * nz) + np.ravel_multi_index(tuple(low.T), (nx, ny, nz))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    corner = rank[inverse.ravel()].reshape(-1, 3)

    # vertices, in numbering order, from their edge's first occurrence
    sel = first[order]
    axis, low = axis[sel], low[sel]
    high = low.copy()
    high[np.arange(len(sel)), axis] += 1
    # only the edge samples are widened, and nudged off iso
    v1, v2 = (grid.values[tuple(c.T)].astype(np.float64) for c in (low, high))
    v1, v2 = (np.where(x == iso, iso + 1e-12, x) for x in (v1, v2))
    t = (iso - v1) / (v2 - v1)
    axes = grid.axes()
    vertices = np.stack([axes[k][low[:, k]] for k in range(3)], axis=1)
    for k in range(3):
        on = axis == k
        lo = vertices[on, k]
        vertices[on, k] = lo + t[on] * (axes[k][high[on, k]] - lo)

    # no table triangle repeats an edge and each lattice edge has one id, so
    # no triangle repeats a vertex; swapping the last two corners turns the
    # table's inward normals toward positive field values
    return TriangleMesh(vertices, corner[:, [0, 2, 1]])


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

