"""Reference mesh queries for tests: point-to-mesh distance as a brute-force
minimum over a (P, T, 3) broadcast of every point against every triangle,
the edge audit as a Python dict keyed by sorted vertex pairs, marching
cubes as a loop over active cells that welds vertices through a dict, and
the OBJ writer as one formatted write per row.

The library prunes the distance search with bounding-box lower bounds,
audits edges with sorted integer keys and runs marching cubes on whole
arrays of cells and edges, and formats the whole OBJ text at once; all
four are checked against these straightforward formulations.
"""

import numpy as np

from vinr.geometry import ScalarGrid, TriangleMesh
from vinr.mc_tables import EDGE_CORNERS, TRI_TABLE


def point_triangle_closest(p, a, b, c):
    """Closest points on triangles (a, b, c) to query points p.

    p: (P, 3); a, b, c: (T, 3). Returns (P, T, 3). Vectorized form of
    Ericson's closest-point-on-triangle region tests.
    """
    ab = b - a
    ac = c - a
    ap = p[:, None, :] - a[None, :, :]
    d1 = np.einsum("tk,ptk->pt", ab, ap)
    d2 = np.einsum("tk,ptk->pt", ac, ap)

    bp = p[:, None, :] - b[None, :, :]
    d3 = np.einsum("tk,ptk->pt", ab, bp)
    d4 = np.einsum("tk,ptk->pt", ac, bp)

    cp = p[:, None, :] - c[None, :, :]
    d5 = np.einsum("tk,ptk->pt", ab, cp)
    d6 = np.einsum("tk,ptk->pt", ac, cp)

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

    aT = a[None, :, :]
    bT = b[None, :, :]
    cT = c[None, :, :]
    abT = ab[None, :, :]
    acT = ac[None, :, :]

    closest = aT + v_in[..., None] * abT + w_in[..., None] * acT
    m = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    closest = np.where(m[..., None], bT + w_bc[..., None] * (cT - bT), closest)
    m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    closest = np.where(m[..., None], aT + w_ac[..., None] * acT, closest)
    m = (d6 >= 0) & (d5 <= d6)
    closest = np.where(m[..., None], cT, closest)
    m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    closest = np.where(m[..., None], aT + v_ab[..., None] * abT, closest)
    m = (d3 >= 0) & (d4 <= d3)
    closest = np.where(m[..., None], bT, closest)
    m = (d1 <= 0) & (d2 <= 0)
    closest = np.where(m[..., None], aT, closest)
    return closest


def point_to_mesh_distance(p, mesh):
    """Unsigned distance from each point of p (N, 3) to the nearest of all
    triangles of mesh. Returns (N,).

    The points are made C-contiguous first: einsum sums its three products
    in another order when the (P, T, 3) differences are not contiguous,
    which the library's gathered pairs always are.
    """
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(p, dtype=np.float64)))
    a, b, c = mesh.triangle_corners()
    closest = point_triangle_closest(pts, a, b, c)
    d2 = np.sum((pts[:, None, :] - closest) ** 2, axis=2)
    return np.sqrt(d2.min(axis=1))


def watertight_counts(triangles):
    """Edge audit of a triangle list: (boundary edges, non-manifold edges,
    orientation consistent). An edge is oriented consistently when its two
    faces traverse it in opposite directions."""
    counts = {}
    for t in triangles:
        for i, j in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(i, j), max(i, j))
            rec = counts.setdefault(key, [0, 0])
            rec[0] += 1
            rec[1] += 1 if i < j else -1
    boundary = sum(1 for n, _ in counts.values() if n == 1)
    non_manifold = sum(1 for n, _ in counts.values() if n > 2)
    orientation = all(s == 0 for n, s in counts.values() if n == 2)
    return boundary, non_manifold, orientation


# corner offsets matching mc_tables numbering
_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

# edge id -> (axis, offset of the edge's low-corner within the cell)
_EDGE_CANONICAL = []
for _c1, _c2 in EDGE_CORNERS:
    _o1 = np.array(_CORNER_OFFSETS[_c1])
    _o2 = np.array(_CORNER_OFFSETS[_c2])
    _axis = int(np.nonzero(_o1 != _o2)[0][0])
    _EDGE_CANONICAL.append((_axis, tuple(np.minimum(_o1, _o2))))


def marching_cubes(grid: ScalarGrid, iso: float = 0.0) -> TriangleMesh:
    """Marching cubes one active cell at a time: each table triangle's
    edges become vertices on first use, welded through a dict keyed by
    (axis, low corner); exact-iso values nudged by +1e-12; triangles
    emitted as (a, c, b) so normals point toward positive values."""
    nx, ny, nz = grid.dims
    v = grid.values.astype(np.float64)
    v = np.where(v == iso, iso + 1e-12, v)

    inside = v < iso
    cube = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        cube |= (
            inside[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1].astype(np.uint16)
            << bit
        )
    active = np.argwhere((cube != 0) & (cube != 255))

    axes = grid.axes()
    vert_index = {}
    vertices = []
    triangles = []

    def edge_vertex(cx, cy, cz, edge):
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
                triangles.append((a, c, b))

    if not vertices:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    return TriangleMesh(np.array(vertices), np.array(triangles, dtype=np.int64))


def save_mesh(mesh: TriangleMesh, path) -> None:
    """OBJ text one row at a time: 17 significant digits per coordinate,
    1-based face indices."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for v in mesh.vertices:
            f.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
