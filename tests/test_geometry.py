import tracemalloc
import warnings

import mesh_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vinr import geometry
from vinr.csg import evaluate_on_grid, grid_lattice
from vinr.extraction import marching_cubes
from vinr.geometry import (
    GeometryError,
    PointCloud,
    ScalarGrid,
    TriangleMesh,
    fit_transform,
    load_mesh,
    load_point_cloud,
    point_to_mesh_distance,
    read_grid,
    save_mesh,
    save_point_cloud,
    signed_distance_to_mesh,
    write_grid,
)
from vinr.metrics import padded_bbox
from vinr.synthetic import bifurcation_fixture, capsule_mesh, icosphere, sample_analytic_surface

from test_extraction import positive_border_grids


# unit cube, outward-wound; each face is split along one diagonal
CUBE_VERTICES = [
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
]
CUBE_FACES = [  # 1-based, as in OBJ
    (1, 3, 2), (1, 4, 3), (5, 6, 7), (5, 7, 8),
    (1, 2, 6), (1, 6, 5), (2, 3, 7), (2, 7, 6),
    (3, 4, 8), (3, 8, 7), (4, 1, 5), (4, 5, 8),
]


def cube_obj(path):
    with open(path, "w") as f:
        for v in CUBE_VERTICES:
            f.write(f"v {v[0]} {v[1]} {v[2]}\n")
        for a, b, c in CUBE_FACES:
            f.write(f"f {a} {b} {c}\n")


class TestPointCloudIO:
    def test_parse_two_points(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 0\n1 2 3\n")
        cloud = load_point_cloud(p)
        assert len(cloud) == 2
        np.testing.assert_array_equal(cloud.points[1], [1, 2, 3])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.xyz"
        p.write_text("")
        assert len(load_point_cloud(p)) == 0

    def test_nan_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("0 0 nan\n")
        with pytest.raises(GeometryError, match=":1"):
            load_point_cloud(p)

    def test_comments_and_roundtrip(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("# header\n0.5 -1.25 3e-2\n")
        cloud = load_point_cloud(p)
        out = tmp_path / "out.xyz"
        save_point_cloud(cloud, out)
        again = load_point_cloud(out)
        np.testing.assert_array_equal(cloud.points, again.points)

    def test_bytes_match_row_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = 10.0 ** rng.uniform(-30, 300, size=(2002, 3)) * rng.choice([-1, 1], size=(2002, 3))
        pts[0] = [-0.0, 5e-324, 0.0]
        pts[1] = [1 / 3, -2.5e-17, 123456789.0]
        for cloud in (PointCloud(pts), PointCloud(np.empty((0, 3)))):
            save_point_cloud(cloud, tmp_path / "fast.xyz")
            rows = "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in cloud.points)
            assert (tmp_path / "fast.xyz").read_bytes() == rows.encode()

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("1 2\n")
        with pytest.raises(GeometryError, match=":1"):
            load_point_cloud(p)

    @pytest.mark.parametrize("bad_line", [1, 2, 3001])
    def test_non_utf8_line_is_named(self, tmp_path, bad_line):
        # text mode decodes ahead of the line it reads: the error still
        # names the line that holds the byte
        lines = [b"0 0 0"] * 4000
        lines[bad_line - 1] = b"1 2\xa1 3"
        p = tmp_path / "bad.xyz"
        p.write_bytes(b"\r\n".join(lines))
        with pytest.raises(GeometryError, match=f"bad.xyz:{bad_line}: 'utf-8' codec can't decode byte 0xa1 in position 3"):
            load_point_cloud(p)

    @pytest.mark.parametrize("data", [b"0 0 0\r1 1 1\r\n2 2\n", b"0 0 0\n1 1 1\r2 2", b"# comment\r\r2 2\r"])
    def test_line_numbers_follow_text_mode(self, tmp_path, data):
        # \n, \r\n and a lone \r each end a line, as in text mode
        p = tmp_path / "ends.xyz"
        p.write_bytes(data)
        with open(p, encoding="utf-8") as f:
            lineno = next(i for i, line in enumerate(f, start=1) if line.startswith("2 2"))
        assert lineno == 3
        with pytest.raises(GeometryError, match=f"ends.xyz:{lineno}: expected 3 values, got 2"):
            load_point_cloud(p)


class TestMeshIO:
    def test_unit_cube(self, tmp_path):
        p = tmp_path / "cube.obj"
        cube_obj(p)
        mesh = load_mesh(p)
        assert mesh.num_vertices == 8
        assert mesh.num_triangles == 12

    def test_index_out_of_range(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(GeometryError) as info:
            load_mesh(p)
        assert str(info.value) == f"{p}: triangle index out of range"

    @pytest.mark.parametrize("text", ["v 0 0 0\nv 1e999 0 0\n", "v 0 0 0\nf 1 1 99999999999999999999\n"])
    def test_invalid_mesh_names_path(self, tmp_path, text):
        p = tmp_path / "bad.obj"
        p.write_text(text)
        with pytest.raises(GeometryError) as info:
            load_mesh(p)
        assert str(info.value).startswith(f"{p}: ")

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(GeometryError):
            load_mesh(p)

    def test_non_triangular_face(self, tmp_path):
        p = tmp_path / "quad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(GeometryError):
            load_mesh(p)

    @pytest.mark.parametrize("text, line", [
        ("v 0 0 0\nv 0 0 x\n", 2),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 a\n", 4),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n# c\nf 1 2.5/1 3\n", 5),
    ], ids=["vertex", "face", "face-token"])
    def test_malformed_number_reports_location(self, tmp_path, text, line):
        p = tmp_path / "bad.obj"
        p.write_text(text)
        with pytest.raises(GeometryError) as info:
            load_mesh(p)
        assert str(info.value) == f"{p}:{line}: malformed number"

    def test_icosphere_roundtrip(self, tmp_path):
        mesh = icosphere(2)
        p = tmp_path / "ico.obj"
        save_mesh(mesh, p)
        again = load_mesh(p)
        assert again.num_triangles == mesh.num_triangles
        assert np.max(np.abs(again.vertices - mesh.vertices)) < 1e-6

    @pytest.mark.parametrize("subdiv", [0, 3])
    def test_bytes_match_row_writer(self, tmp_path, subdiv):
        rng = np.random.default_rng(subdiv)
        mesh = icosphere(subdiv)
        verts = mesh.vertices * 10.0 ** rng.integers(-50, 50, size=mesh.vertices.shape)
        verts[0] = [0.0, -0.0, 3.0]
        verts[1] = [1 / 3, -2.5e-17, 123456789.0]
        for m in (TriangleMesh(verts, mesh.triangles), TriangleMesh(np.empty((0, 3)), np.empty((0, 3)))):
            save_mesh(m, tmp_path / "fast.obj")
            mesh_oracle.save_mesh(m, tmp_path / "rows.obj")
            assert (tmp_path / "fast.obj").read_bytes() == (tmp_path / "rows.obj").read_bytes()

    def test_unknown_records_warn(self, tmp_path):
        p = tmp_path / "n.obj"
        p.write_text("vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.warns(UserWarning, match="ignored"):
            mesh = load_mesh(p)
        assert mesh.num_triangles == 1


def area_weighted_oracle(mesh, n, seed):
    """The mesh sampling rule as it stood in geometry.sample_surface: a
    triangle by area from one draw, then sqrt(r1) and r2 from two more."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(mesh.areas())
    face = np.minimum(np.searchsorted(cdf, rng.random(n) * cdf[-1]), len(cdf) - 1)
    a, b, c = mesh.triangle_corners()
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    return (1 - r1) * a[face] + r1 * (1 - r2) * b[face] + r1 * r2 * c[face]


class TestSampling:
    @pytest.mark.parametrize("mesh", [
        pytest.param(icosphere(2, 0.5, (0.1, 0.0, -0.2)), id="sphere"),
        pytest.param(capsule_mesh((0, 0, -0.5), (0, 0.2, 0.5), 0.2), id="capsule"),
    ])
    @pytest.mark.parametrize("n, seed", [(1, 0), (257, 3), (1000, 11)])
    def test_matches_area_weighted_oracle(self, mesh, n, seed):
        cloud = sample_analytic_surface(mesh, n, seed)
        assert cloud.points.tobytes() == area_weighted_oracle(mesh, n, seed).tobytes()

    def test_negative_count_rejected(self):
        with pytest.raises(GeometryError, match="non-negative"):
            sample_analytic_surface(icosphere(1), -1, seed=0)

    def test_zero_samples(self):
        mesh = icosphere(1)
        assert len(sample_analytic_surface(mesh, 0, seed=1)) == 0

    def test_samples_lie_on_mesh(self):
        mesh = icosphere(1)
        cloud = sample_analytic_surface(mesh, 50, seed=2)
        d = point_to_mesh_distance(cloud.points, mesh)
        assert d.max() < 1e-9

    def test_area_proportional_selection(self):
        # two triangles with area ratio 1:3 in one plane
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 3, 1]],
            dtype=float,
        )
        tris = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = TriangleMesh(verts, tris)
        n = 10_000
        cloud = sample_analytic_surface(mesh, n, seed=11)
        on_small = cloud.points[:, 2] < 0.5
        count = int(on_small.sum())
        p = 0.25
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(count - n * p) < 3 * sigma

    def test_determinism(self):
        mesh = icosphere(1)
        a = sample_analytic_surface(mesh, 100, seed=7)
        b = sample_analytic_surface(mesh, 100, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_zero_area_mesh_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        with pytest.raises(GeometryError):
            sample_analytic_surface(TriangleMesh(verts, np.array([[0, 1, 2]])), 5, seed=0)


class TestTransform:
    def test_hand_case(self):
        cloud = PointCloud(np.array([[-2, -2, -2], [2, 2, 2]], dtype=float))
        t = fit_transform(cloud, 0.9)
        assert t.scale == pytest.approx(0.45)
        np.testing.assert_allclose(t.center, [0, 0, 0])

    def test_identity_up_to_centering(self):
        cloud = PointCloud(np.array([[-0.9, -0.9, -0.9], [0.9, 0.9, 0.9]]))
        t = fit_transform(cloud, 0.9)
        assert t.scale == pytest.approx(1.0)

    def test_containment(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.uniform(-5, 13, size=(40, 3)))
        t = fit_transform(cloud, 0.9)
        mapped = t.apply(cloud.points)
        assert np.abs(mapped).max() <= 0.9 + 1e-12

    def test_apply_hand_case(self):
        from vinr.geometry import DomainTransform

        t = DomainTransform(scale=0.5, center=np.array([1.0, 0, 0]))
        np.testing.assert_allclose(t.apply(np.array([3.0, 0, 0])), [1, 0, 0])
        np.testing.assert_allclose(t.apply(t.center), [0, 0, 0])

    def test_roundtrip(self):
        from vinr.geometry import DomainTransform

        rng = np.random.default_rng(5)
        t = DomainTransform(scale=0.37, center=np.array([0.4, -2.0, 1.1]))
        pts = rng.uniform(-10, 10, size=(100, 3))
        back = t.invert(t.apply(pts))
        assert np.abs(back - pts).max() < 1e-12

    def test_degenerate_cloud_rejected(self):
        cloud = PointCloud(np.zeros((3, 3)))
        with pytest.raises(GeometryError):
            fit_transform(cloud)

    @pytest.mark.parametrize("ends, message", [
        ((-1e308, 1e308), "transform scale must be positive and finite"),  # the extent overflows
        ((1e308, 1.7e308), "transform center must be finite"),  # the centre overflows
    ])
    def test_overflowing_cloud_rejected_without_a_warning(self, ends, message):
        cloud = PointCloud(np.array([[ends[0]] * 3, [ends[1]] * 3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=message):
                fit_transform(cloud)


class TestDistance:
    def test_vertex_distance_zero(self):
        mesh = icosphere(1)
        assert point_to_mesh_distance(mesh.vertices[0], mesh) == pytest.approx(0.0, abs=1e-12)

    def test_origin_to_unit_icosphere(self):
        mesh = icosphere(3)
        d = point_to_mesh_distance(np.zeros(3), mesh)
        assert abs(d - 1.0) < 5e-3

    def test_matches_scalar_brute_force(self):
        # oracle: per-triangle scalar closest-point computation
        mesh = icosphere(0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, size=(200, 3))
        fast = point_to_mesh_distance(pts, mesh)
        a, b, c = mesh.triangle_corners()

        def closest_pt(p, a, b, c):
            ab, ac, ap = b - a, c - a, p - a
            d1, d2 = ab @ ap, ac @ ap
            if d1 <= 0 and d2 <= 0:
                return a
            bp = p - b
            d3, d4 = ab @ bp, ac @ bp
            if d3 >= 0 and d4 <= d3:
                return b
            vc = d1 * d4 - d3 * d2
            if vc <= 0 and d1 >= 0 and d3 <= 0:
                return a + (d1 / (d1 - d3)) * ab
            cp = p - c
            d5, d6 = ab @ cp, ac @ cp
            if d6 >= 0 and d5 <= d6:
                return c
            vb = d5 * d2 - d1 * d6
            if vb <= 0 and d2 >= 0 and d6 <= 0:
                return a + (d2 / (d2 - d6)) * ac
            va = d3 * d6 - d5 * d4
            if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
                return b + ((d4 - d3) / ((d4 - d3) + (d5 - d6))) * (c - b)
            denom = va + vb + vc
            return a + (vb / denom) * ab + (vc / denom) * ac

        for i, p in enumerate(pts):
            best = min(
                np.linalg.norm(p - closest_pt(p, a[t], b[t], c[t]))
                for t in range(mesh.num_triangles)
            )
            assert fast[i] == pytest.approx(best, abs=1e-12)

    def test_empty_mesh_rejected(self):
        mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(GeometryError):
            point_to_mesh_distance(np.zeros(3), mesh)


def _unfiltered_mesh(verts, tris) -> TriangleMesh:
    """A mesh that keeps zero-area faces, which the constructor drops, so the
    distance kernel is also exercised on the faces it guards against."""
    mesh = TriangleMesh(verts, np.zeros((0, 3), dtype=np.int64))
    object.__setattr__(mesh, "triangles", np.asarray(tris, dtype=np.int64).reshape(-1, 3))
    return mesh


@st.composite
def distance_cases(draw):
    """Random triangle soups and query points. Lattice coordinates give
    repeated vertices, collinear and axis-aligned faces; points sit on
    vertices, on edges, near the soup or far outside its box."""
    lattice = draw(st.booleans())
    coord = (
        st.integers(-3, 3).map(float)
        if lattice
        else st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    )
    n_verts = draw(st.integers(3, 9))
    verts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n_verts, max_size=n_verts)))
    index = st.integers(0, n_verts - 1)
    tris = np.array(draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=40)))
    unit = st.floats(0, 1)
    point = st.one_of(
        index.map(lambda i: verts[i]),
        st.tuples(index, index, unit).map(lambda e: verts[e[0]] + e[2] * (verts[e[1]] - verts[e[0]])),
        st.tuples(coord, coord, coord).map(np.array),
        st.tuples(coord, coord, coord, st.floats(1e3, 1e6)).map(lambda f: f[3] * (np.array(f[:3]) + 0.5)),
    )
    pts = np.array(draw(st.lists(point, min_size=1, max_size=12)), dtype=np.float64)
    return verts, tris, pts


class TestPrunedDistance:
    """The pruned search must return bitwise the brute-force minimum."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        case=distance_cases(),
        leaf=st.sampled_from([1, 2, 3, geometry._LEAF]),
        seeds=st.sampled_from([1, geometry._SEED_TRIANGLES]),
    )
    @example(
        case=(np.eye(3), np.array([[0, 1, 2]]), np.array([[5.0, 5.0, 5.0]])),
        leaf=geometry._LEAF,
        seeds=geometry._SEED_TRIANGLES,
    )
    @example(  # flat faces in z = 0, a coincident pair, a face repeated over two leaves
        case=(
            np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [2, 0, 0]]),
            np.array([[0, 1, 2], [1, 3, 2], [1, 3, 2], [0, 1, 5], [0, 1, 4], [0, 1, 4], [0, 1, 4]]),
            np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 2.0], [3.0, -1.0, 0.0], [4e5, 4e5, 4e5]]),
        ),
        leaf=2,
        seeds=1,
    )
    def test_matches_brute_force_bitwise(self, case, leaf, seeds):
        """Leaf sizes below the default cut the soups into several leaves,
        most with a padded last leaf. A single seed triangle leaves more of
        the search to the leaf bounds."""
        verts, tris, pts = case
        mesh = _unfiltered_mesh(verts, tris)
        expect = mesh_oracle.point_to_mesh_distance(pts, mesh)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_LEAF", leaf)
            mp.setattr(geometry, "_SEED_TRIANGLES", seeds)
            np.testing.assert_array_equal(point_to_mesh_distance(pts, mesh), expect)
            assert point_to_mesh_distance(pts[0], mesh).tobytes() == expect[:1].tobytes()

    def test_closest_point_rounding_outside_its_box_is_kept(self):
        # The first face is tilted by a few ulps; its computed closest point
        # rounds below the face's bounding box, so its box bound exceeds its
        # computed distance. The second face is a little farther but has the
        # smaller bound, and seeds the upper bound together with three far
        # faces whose boxes contain the point.
        p = np.array([[0.14180176897607608, 0.687003341102557, 0.9999999999999892]])
        xs = p[0, 0] - 1.05e-14
        verts = np.array(
            [
                [0.8904318297904276, 0.6937865542416475, 1.0000000000000002],
                [0.40643022261891004, 0.5734727964162015, 0.9999999999999998],
                [0.01637682746200597, 0.7371597103748804, 0.9999999999999998],
                [xs, 0.6, 0.99], [xs, 0.8, 0.99], [xs, 0.7, 1.01],
                [-5.0, -5.0, -5.0], [5.0, -5.0, 5.0], [5.0, 5.0, 5.0],
            ]
        )
        mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [6, 7, 8], [6, 7, 8]])
        a, b, c = mesh.triangle_corners()
        lo = np.minimum(np.minimum(a, b), c)
        expect = mesh_oracle.point_to_mesh_distance(p, mesh)
        assert np.sum((lo[0] - p[0]).clip(0) ** 2) > expect[0] ** 2
        np.testing.assert_array_equal(point_to_mesh_distance(p, mesh), expect)

    def test_near_surface_points_prune_almost_every_pair(self, monkeypatch):
        # 1280 faces in 40 leaves. Measured: 17.4 % of P * T box bounds
        # (leaves, seeds, expanded leaves) and 0.83 % of P * T exact pairs;
        # the all-pairs scan computed P * T bounds.
        mesh = icosphere(3)
        rng = np.random.default_rng(12)
        pts = sample_analytic_surface(mesh, 200, seed=13).points + 0.01 * rng.normal(size=(200, 3))
        evaluated, bounds = [], []
        kernel, box = geometry._pair_sq_distance, geometry._box_sq_gap

        def counting(q, a, b, c):
            evaluated.append(len(q))
            return kernel(q, a, b, c)

        def counting_bounds(q, lo, hi):
            lb = box(q, lo, hi)
            bounds.append(lb.size)
            return lb

        monkeypatch.setattr(geometry, "_pair_sq_distance", counting)
        monkeypatch.setattr(geometry, "_box_sq_gap", counting_bounds)
        d = point_to_mesh_distance(pts, mesh)
        np.testing.assert_array_equal(d, mesh_oracle.point_to_mesh_distance(pts, mesh))
        assert sum(evaluated) < 0.01 * len(pts) * mesh.num_triangles
        assert sum(bounds) < 0.2 * len(pts) * mesh.num_triangles

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        mesh = icosphere(1)
        pts = np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in (point_to_mesh_distance, signed_distance_to_mesh):
                with pytest.raises(GeometryError, match="finite"):
                    query(pts, mesh)


class TestSignedDistance:
    def test_center_negative_one(self):
        mesh = icosphere(3)
        assert abs(signed_distance_to_mesh(np.zeros(3), mesh) + 1.0) < 5e-3

    def test_far_point_positive(self):
        mesh = icosphere(1)
        assert signed_distance_to_mesh(np.array([10.0, 0, 0]), mesh) > 0

    def test_sign_flips_across_surface(self):
        mesh = icosphere(2)
        xs = np.linspace(0.013, 1.493, 30)  # avoid landing exactly on the surface
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        sd = signed_distance_to_mesh(pts, mesh)
        signs = np.sign(sd)
        # exactly one sign change along the ray
        assert int((np.diff(signs) != 0).sum()) == 1

    def test_magnitude_matches_unsigned(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1.5, 1.5, size=(64, 3))
        sd = signed_distance_to_mesh(pts, mesh)
        ud = point_to_mesh_distance(pts, mesh)
        np.testing.assert_array_equal(np.abs(sd), ud)

    def test_similarity_scaling(self):
        mesh = icosphere(1)
        s, t = 2.5, np.array([0.3, -1.0, 0.7])
        scaled = TriangleMesh(s * mesh.vertices + t, mesh.triangles)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.5, 1.5, size=(32, 3))
        sd = signed_distance_to_mesh(pts, mesh)
        sd_scaled = signed_distance_to_mesh(s * pts + t, scaled)
        np.testing.assert_allclose(sd_scaled, s * sd, rtol=1e-9, atol=1e-9)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(g=positive_border_grids(levels=np.array([-2.0, -1.0, 1.0, 2.0])))
    def test_sign_matches_grid_on_marching_cubes_mesh(self, g):
        # every lattice point lies off the surface: each crossing is a third,
        # a half or two thirds of the way along its edge
        mesh = marching_cubes(g)
        pts = grid_lattice(g.dims, g.bbox_min, g.bbox_max)
        signs = np.sign(g.values.ravel())
        for m in (mesh, TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1])):
            np.testing.assert_array_equal(np.sign(signed_distance_to_mesh(pts, m)), signs)

    def test_cube_rays_through_edges_and_vertices(self):
        mesh = TriangleMesh(np.array(CUBE_VERTICES, dtype=float), np.array(CUBE_FACES) - 1)
        pts = np.array([
            # inside: axis rays hit face diagonals, the (1, 1, 1) ray a vertex
            (0.5, 0.5, 0.5), (0.25, 0.25, 0.25), (0.3, 0.3, 0.7), (0.5, 0.5, 1 - 1e-9),
            # outside: rays through two face diagonals, two vertices, along an
            # edge, inside a face's plane and through two vertical edges
            (0.5, 0.5, -1.0), (-1.0, -1.0, -1.0), (-1.0, 0.0, 0.0), (-1.0, 0.0, 0.5),
            (1.5, 1.5, 0.5), (2.0, 0.5, 0.5), (0.5, 0.5, 1 + 1e-9),
            # on a vertex and on an edge
            (1.0, 1.0, 1.0), (0.5, 0.0, 0.0),
        ])
        q = np.abs(pts - 0.5) - 0.5
        analytic = np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(q.max(axis=1), 0.0)
        np.testing.assert_allclose(signed_distance_to_mesh(pts, mesh), analytic, rtol=0, atol=1e-12)

    def test_nested_shells_follow_crossing_parity(self):
        outer, inner = icosphere(2, radius=1.0), icosphere(2, radius=0.5)
        mesh = TriangleMesh(
            np.concatenate([outer.vertices, inner.vertices]),
            np.concatenate([outer.triangles, inner.triangles + outer.num_vertices]),
        )
        pts = np.array([(0.0, 0.0, 0.0), (0.2, -0.1, 0.1), (0.75, 0.0, 0.0), (0.0, -0.8, 0.1), (1.5, 0.0, 0.0)])
        sd = signed_distance_to_mesh(pts, mesh)
        # inside the inner shell two crossings lie ahead: outside
        np.testing.assert_array_equal(np.sign(sd), [1, 1, -1, -1, 1])
        np.testing.assert_array_equal(np.abs(sd), point_to_mesh_distance(pts, mesh))

    def test_bifurcation_mesh_with_sliver_triangles(self):
        union, _ = bifurcation_fixture()
        lo, hi = padded_bbox(*union.bbox(), 0.1)
        mesh = marching_cubes(evaluate_on_grid(union, (64,) * 3, lo, hi))
        # faces of near-zero area, which look parallel to every ray
        assert mesh.areas().min() < 1e-10
        pts = np.random.default_rng(5).uniform(lo, hi, size=(200, 3))
        sd, exact = signed_distance_to_mesh(pts, mesh), union.value(pts)
        np.testing.assert_array_equal(np.sign(sd), np.sign(exact))
        outside = exact > 0  # the union's min is exact outside only
        np.testing.assert_allclose(sd[outside], exact[outside], atol=5e-3)

    def test_open_mesh_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        with pytest.raises(GeometryError, match="watertight"):
            signed_distance_to_mesh(np.zeros(3), mesh)


class TestGridIO:
    def test_small_grid_payload(self, tmp_path):
        g = ScalarGrid((2, 2, 2), np.zeros(3), np.ones(3), np.zeros((2, 2, 2)))
        p = tmp_path / "g.sdfgrid"
        write_grid(g, p)
        # header: 4s + u32 + 3*u32 + 6*f64, then 8 f32 values
        assert p.stat().st_size == (4 + 4 + 12 + 48) + 8 * 4

    def test_payload_is_x_fastest(self, tmp_path):
        # the file order is pinned: value ix + nx * (iy + ny * iz) of the
        # payload is lattice point (ix, iy, iz), whatever the memory order
        dims = (2, 3, 4)
        ix, iy, iz = np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")
        g = ScalarGrid(dims, np.zeros(3), np.ones(3), ix + 10 * iy + 100 * iz)
        p = tmp_path / "g.sdfgrid"
        write_grid(g, p)
        payload = np.frombuffer(p.read_bytes()[4 + 4 + 12 + 48 :], dtype="<f4")
        expect = [x + 10 * y + 100 * z for z in range(4) for y in range(3) for x in range(2)]
        np.testing.assert_array_equal(payload, expect)
        back = read_grid(p)
        np.testing.assert_array_equal(back.values, g.values)
        assert back.values.flags.c_contiguous

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(3, 4, 5)).astype(np.float32)
        g = ScalarGrid((3, 4, 5), np.array([-1.0, -2, -3]), np.array([1.0, 2, 3]), vals)
        p = tmp_path / "g.sdfgrid"
        write_grid(g, p)
        back = read_grid(p)
        assert back.dims == g.dims
        np.testing.assert_array_equal(back.bbox_min, g.bbox_min)
        np.testing.assert_array_equal(back.bbox_max, g.bbox_max)
        np.testing.assert_array_equal(back.values, g.values)

    def test_truncated_file(self, tmp_path):
        g = ScalarGrid((2, 2, 2), np.zeros(3), np.ones(3), np.zeros((2, 2, 2)))
        p = tmp_path / "g.sdfgrid"
        write_grid(g, p)
        data = p.read_bytes()
        p.write_bytes(data[:-4])
        with pytest.raises(GeometryError, match="mismatch"):
            read_grid(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "g.sdfgrid"
        g = ScalarGrid((2, 2, 2), np.zeros(3), np.ones(3), np.zeros((2, 2, 2)))
        write_grid(g, p)
        data = bytearray(p.read_bytes())
        data[:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(GeometryError, match="magic"):
            read_grid(p)

    @pytest.mark.parametrize("edit, reason", [
        (lambda d: d[:-4], "payload size mismatch"),
        (lambda d: d + b"\0" * 4, "payload size mismatch"),
        (lambda d: d[:30], "truncated header"),
        (lambda d: d[:4] + (2).to_bytes(4, "little") + d[8:], "unsupported format version 2"),
        (lambda d: d[:8] + (3).to_bytes(4, "little") + d[12:], "payload size mismatch"),  # nx 3, not 2
        (lambda d: d[:8] + (0).to_bytes(4, "little") + d[12:68], "invalid grid dims"),  # and no payload
        (lambda d: d[:-4] + np.float32(np.inf).tobytes(), "grid contains non-finite"),
        (lambda d: d[:20] + np.float64(2.0).tobytes() + d[28:], "grid bbox min must be strictly below max"),
    ], ids=["truncated", "extra-bytes", "short-header", "version", "dims", "zero-dim", "non-finite", "bbox"])
    def test_malformed_file_names_path(self, tmp_path, edit, reason):
        g = ScalarGrid((2, 2, 2), np.zeros(3), np.ones(3), np.zeros((2, 2, 2)))
        p = tmp_path / "g.sdfgrid"
        write_grid(g, p)
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(GeometryError) as info:
            read_grid(p)
        assert str(info.value).startswith(f"{p}: {reason}")

    def test_streamed_peaks(self, tmp_path):
        # both directions hold at most one z-plane besides the grid: the
        # reader the grid plus ScalarGrid's isfinite mask (1/4 of it)
        dims = (128, 128, 128)
        g = ScalarGrid(dims, np.zeros(3), np.ones(3), np.random.default_rng(3).normal(size=dims))
        p = tmp_path / "g.sdfgrid"
        peaks = []
        for call in (lambda: write_grid(g, p), lambda: read_grid(p)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / g.values.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.25 and peaks[1] <= 1.5, peaks
