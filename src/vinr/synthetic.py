"""Analytic SDF shapes and tessellated fixtures used as exact ground truth.

Every shape exposes value(points) -> signed distances, (N,) for the (N, 3)
points of geometry.as_points, so shapes plug directly into grid evaluation,
blending and metrics as SDF sources; bbox() -> (lo, hi), the axis-aligned
box that holds the surface; area(); and sample(n, rng) -> (n, 3)
area-uniform points on the surface. A geometry.TriangleMesh answers value,
bbox, area and sample too, and so does a csg.Union of any of them (the
bifurcation fixture). A primitive bounds its slope by 1
(geometry.SlopeBounded); csg.evaluate_near_level reads value_and_slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csg import Union
from .geometry import GeometryError, PointCloud, SlopeBounded, TriangleMesh, as_points

__all__ = [
    "Sphere",
    "Capsule",
    "Torus",
    "sample_analytic_surface",
    "nested_wall_fixture",
    "bifurcation_fixture",
    "icosphere",
    "capsule_mesh",
    "parse_shape",
]


@dataclass(frozen=True)
class Sphere(SlopeBounded):
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("sphere radius must be positive")

    def value(self, p):
        return np.linalg.norm(as_points(p) - np.asarray(self.center), axis=1) - self.radius

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def area(self) -> float:
        return 4 * np.pi * self.radius**2

    def sample(self, n, rng) -> np.ndarray:
        return np.asarray(self.center) + self.radius * _directions(n, rng)


@dataclass(frozen=True)
class Capsule(SlopeBounded):
    """Segment a-b dilated by radius r (a tube with hemispherical caps)."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("capsule radius must be positive")

    def value(self, p):
        q = as_points(p)
        a = np.asarray(self.a, dtype=np.float64)
        ab = np.asarray(self.b, dtype=np.float64) - a
        denom = float(ab @ ab)
        if denom == 0:
            t = np.zeros(len(q))
        else:
            t = np.clip((q - a) @ ab / denom, 0.0, 1.0)
        return np.linalg.norm(q - (a + t[:, None] * ab), axis=1) - self.radius

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = np.asarray(self.a), np.asarray(self.b)
        return np.minimum(a, b) - self.radius, np.maximum(a, b) + self.radius

    def area(self) -> float:
        r = self.radius
        return 2 * np.pi * r * float(np.linalg.norm(np.subtract(self.b, self.a))) + 4 * np.pi * r * r

    def sample(self, n, rng) -> np.ndarray:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        axis = b - a
        r = self.radius
        area_cyl = 2 * np.pi * r * np.linalg.norm(axis)
        area_caps = 4 * np.pi * r * r  # two hemispheres
        on_cyl = rng.random(n) < area_cyl / (area_cyl + area_caps)
        ez, ex, ey = _frame(a, b)

        pts = np.empty((n, 3))
        # cylinder part
        m = int(on_cyl.sum())
        t = rng.random(m)
        phi = rng.random(m) * 2 * np.pi
        pts[on_cyl] = (
            a
            + t[:, None] * axis
            + r * (np.cos(phi)[:, None] * ex + np.sin(phi)[:, None] * ey)
        )
        # caps: uniform sphere directions, assigned to the matching end
        v = _directions(n - m, rng)
        pts[~on_cyl] = np.where((v @ ez > 0)[:, None], b, a) + r * v
        return pts


@dataclass(frozen=True)
class Torus(SlopeBounded):
    """Torus around the z axis through `center`: major radius R, tube r."""

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    major: float = 0.5
    minor: float = 0.1

    def __post_init__(self):
        if self.major <= 0 or self.minor <= 0:
            raise GeometryError("torus radii must be positive")

    def value(self, p):
        rel = as_points(p) - np.asarray(self.center)
        return np.hypot(np.hypot(rel[:, 0], rel[:, 1]) - self.major, rel[:, 2]) - self.minor

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        r = np.array([self.major + self.minor] * 2 + [self.minor])
        return c - r, c + r

    def area(self) -> float:
        return 4 * np.pi**2 * self.major * self.minor

    def sample(self, n, rng) -> np.ndarray:
        # area element is (R + r cos v) dv du: rejection-sample the tube angle
        out = np.empty((n, 3))
        filled = 0
        R, r = self.major, self.minor
        while filled < n:
            m = 2 * (n - filled) + 16
            u = rng.random(m) * 2 * np.pi
            v = rng.random(m) * 2 * np.pi
            accept = rng.random(m) * (R + r) <= R + r * np.cos(v)
            u, v = u[accept], v[accept]
            take = min(len(u), n - filled)
            u, v = u[:take], v[:take]
            ring = R + r * np.cos(v)
            pts = np.stack([ring * np.cos(u), ring * np.sin(u), r * np.sin(v)], axis=1)
            out[filled : filled + take] = np.asarray(self.center) + pts
            filled += take
        return out


# ---------------------------------------------------------------------------
# surface sampling


def _directions(n, rng) -> np.ndarray:
    """n uniformly distributed unit vectors, (n, 3)."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _frame(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (ez, ex, ey) with ez along a-b (+z when a == b)."""
    axis = b - a
    length = np.linalg.norm(axis)
    ez = axis / length if length > 0 else np.array([0.0, 0.0, 1.0])
    tmp = np.array([1.0, 0.0, 0.0]) if abs(ez[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    ex = np.cross(tmp, ez)
    ex /= np.linalg.norm(ex)
    return ez, ex, np.cross(ez, ex)


def sample_analytic_surface(shape, n: int, seed: int) -> PointCloud:
    """n samples on the surface of a shape, a geometry.TriangleMesh or a
    csg.Union of them (area-uniform on each), drawn by its
    sample(n, rng) from a generator seeded with `seed`."""
    if n < 0:
        raise GeometryError("sample count must be non-negative")
    if n == 0:
        return PointCloud(np.empty((0, 3)))
    if not hasattr(shape, "sample"):
        raise GeometryError(f"cannot sample surface of {type(shape).__name__}")
    return PointCloud(shape.sample(n, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# fixtures


def nested_wall_fixture(r_lumen: float, wall1: float, wall2: float):
    """Concentric spheres modeling lumen / inner wall / outer wall,
    innermost first. Their SDFs satisfy outer <= inner <= lumen everywhere."""
    if r_lumen <= 0 or wall1 <= 0 or wall2 <= 0:
        raise GeometryError("radii and wall offsets must be positive")
    return (
        Sphere(radius=r_lumen),
        Sphere(radius=r_lumen + wall1),
        Sphere(radius=r_lumen + wall1 + wall2),
    )


def bifurcation_fixture(
    trunk_a=(0.0, 0.0, -0.8),
    junction=(0.0, 0.0, 0.0),
    branch_b1=(0.55, 0.0, 0.7),
    branch_b2=(-0.55, 0.0, 0.7),
    trunk_radius=0.22,
    branch_radius=0.15,
):
    """Y-shaped hard union (csg.Union, k = 0) of three capsules sharing a
    junction point. Returns (union, components)."""
    parts = (
        Capsule(trunk_a, junction, trunk_radius),
        Capsule(junction, branch_b1, branch_radius),
        Capsule(junction, branch_b2, branch_radius),
    )
    return Union(parts), parts


# ---------------------------------------------------------------------------
# tessellations (for mesh-based oracles and the fixtures CLI)


def icosphere(subdivisions: int = 3, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Subdivided icosahedron with all vertices on the sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for i, j, k in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = new_faces
    v = np.asarray(center) + radius * np.array(verts)
    return TriangleMesh(v, np.array(faces, dtype=np.int64))


def capsule_mesh(a, b, radius: float, segments: int = 24, rings: int = 12) -> TriangleMesh:
    """Closed lat/long tessellation of a capsule, poles along the a-b axis."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ez, ex, ey = _frame(a, b)

    # stack of latitude rings: lower hemisphere around a, upper around b
    rows = []
    for i in range(rings + 1):  # theta from -pi/2 (south) to 0
        th = -np.pi / 2 + (np.pi / 2) * i / rings
        rows.append((radius * np.cos(th), a + radius * np.sin(th) * ez))
    for i in range(rings + 1):  # theta from 0 to +pi/2 (north)
        th = (np.pi / 2) * i / rings
        rows.append((radius * np.cos(th), b + radius * np.sin(th) * ez))

    verts = [a - radius * ez]  # south pole
    ring_start = []
    for rad, centre in rows[1:-1]:
        ring_start.append(len(verts))
        for s in range(segments):
            phi = 2 * np.pi * s / segments
            verts.append(centre + rad * (np.cos(phi) * ex + np.sin(phi) * ey))
    north = len(verts)
    verts.append(b + radius * ez)

    faces = []
    first = ring_start[0]
    for s in range(segments):
        faces.append((0, first + s, first + (s + 1) % segments))
    for r in range(len(ring_start) - 1):
        lo, hi = ring_start[r], ring_start[r + 1]
        for s in range(segments):
            s2 = (s + 1) % segments
            faces.append((lo + s, hi + s, hi + s2))
            faces.append((lo + s, hi + s2, lo + s2))
    last = ring_start[-1]
    for s in range(segments):
        faces.append((north, last + (s + 1) % segments, last + s))
    # the loops above wind toward the interior; flip for outward normals
    tris = np.array(faces, dtype=np.int64)[:, [0, 2, 1]]
    return TriangleMesh(np.array(verts), tris)


_SHAPE_FORMS = "sphere[:r[,cx,cy,cz]] | capsule:ax,ay,az,bx,by,bz,r | torus:R,r | bifurcation"

# spec name -> (accepted counts of numbers, what the numbers must be, the
# shape built from them)
_SHAPE_SPECS = {
    "sphere": ((0, 1, 4), "needs r or r,cx,cy,cz",
               lambda *a: Sphere(center=a[1:] or (0.0, 0.0, 0.0), radius=a[0] if a else 1.0)),
    "capsule": ((7,), "needs ax,ay,az,bx,by,bz,r", lambda *a: Capsule(a[0:3], a[3:6], a[6])),
    "torus": ((2,), "needs R,r", lambda R, r: Torus(major=R, minor=r)),
    "bifurcation": ((0,), "takes no numbers", lambda: bifurcation_fixture()[0]),
}


def parse_shape(spec: str):
    """Shape spec mini-language for the CLI, in the forms of _SHAPE_FORMS."""
    name, _, rest = spec.partition(":")
    try:
        args = [float(v) for v in rest.split(",")] if rest else []
    except ValueError:
        args = [np.nan]
    if not np.isfinite(args).all():  # float() also reads "nan" and "inf"
        raise GeometryError(f"shape spec {spec!r} has a non-numeric field; accepted forms: {_SHAPE_FORMS}")
    if name not in _SHAPE_SPECS:
        raise GeometryError(f"unknown shape spec {spec!r}")
    counts, form, build = _SHAPE_SPECS[name]
    if len(args) not in counts:
        raise GeometryError(f"{name} spec {form}")
    return build(*args)
