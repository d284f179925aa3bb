"""Reference mesh queries for tests: point-to-mesh distance as a brute-force
minimum over a (P, T, 3) broadcast of every point against every triangle,
and the edge audit as a Python dict keyed by sorted vertex pairs.

The library prunes the distance search with bounding-box lower bounds and
audits edges with sorted integer keys; both are checked against these
straightforward formulations.
"""

import numpy as np


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
