import numpy as np
import pytest

from vinr.csg import BlendSpec, GridSource, Union
from vinr.extraction import check_watertight, enclosed_volume
from vinr.geometry import GeometryError, ScalarGrid
from vinr.synthetic import (
    Capsule,
    Offset,
    Sphere,
    Torus,
    bifurcation_fixture,
    capsule_mesh,
    icosphere,
    nested_wall_fixture,
    parse_shape,
    sample_analytic_surface,
)

from band_oracle import ValueOnly

scipy_stats = pytest.importorskip("scipy.stats")


class TestAnalyticSdfs:
    def test_sphere_values(self):
        s = Sphere(radius=0.5)
        assert s.value(np.zeros(3)) == pytest.approx(-0.5)
        assert s.value(np.array([1.0, 0, 0])) == pytest.approx(0.5)
        assert s.value(np.array([0.5, 0, 0])) == pytest.approx(0.0, abs=1e-15)

    def test_sphere_offcenter(self):
        s = Sphere(center=(1.0, 0.0, 0.0), radius=0.2)
        assert s.value(np.array([1.0, 0, 0])) == pytest.approx(-0.2)

    def test_capsule_values(self):
        c = Capsule((0, 0, -1), (0, 0, 1), 0.3)
        # midpoint of the axis, on the axis
        assert c.value(np.zeros(3)) == pytest.approx(-0.3)
        # radially out from the axis
        assert c.value(np.array([0.5, 0, 0])) == pytest.approx(0.2)
        # beyond a cap: distance to the end point minus radius
        assert c.value(np.array([0, 0, 1.5])) == pytest.approx(0.2)

    def test_capsule_degenerate_segment_is_sphere(self):
        c = Capsule((0.1, 0.2, 0.3), (0.1, 0.2, 0.3), 0.4)
        s = Sphere(center=(0.1, 0.2, 0.3), radius=0.4)
        p = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
        np.testing.assert_allclose(c.value(p), s.value(p), atol=1e-12)

    def test_torus_values(self):
        t = Torus(major=0.6, minor=0.2)
        assert t.value(np.array([0.6, 0, 0])) == pytest.approx(-0.2)
        assert t.value(np.array([1.0, 0, 0])) == pytest.approx(0.2)
        assert t.value(np.zeros(3)) == pytest.approx(0.4)

    def test_offset_dilation(self):
        s = Offset(Sphere(radius=0.5), 0.1)  # sphere of radius 0.6
        assert s.value(np.array([0.6, 0, 0])) == pytest.approx(0.0, abs=1e-15)

    def test_union_is_min(self):
        # k = 0: the minimum of the parts' values rounded to float32
        a = Sphere(center=(-0.5, 0, 0), radius=0.3)
        b = Sphere(center=(0.5, 0, 0), radius=0.3)
        u = Union((a, b))
        p = np.random.default_rng(1).uniform(-1, 1, size=(100, 3))
        np.testing.assert_array_equal(
            u.value(p), np.minimum(a.value(p).astype(np.float32), b.value(p).astype(np.float32))
        )

    def test_union_fold_equals_stacked_min(self):
        # rounding is monotone, so the k = 0 fold is the float64 minimum
        # rounded once to float32
        parts = (Sphere(radius=0.3), Capsule((0, 0, -0.5), (0.2, 0.1, 0.5), 0.2), Torus(), Offset(Torus(), -0.05))
        p = np.random.default_rng(3).uniform(-1, 1, size=(500, 3))
        for k in range(1, len(parts) + 1):
            stacked = np.min(np.stack([s.value(p) for s in parts[:k]]), axis=0)
            assert Union(parts[:k]).value(p).tobytes() == stacked.astype(np.float32).astype(np.float64).tobytes()

    def test_slope_bounds(self):
        capsule = Capsule((0, 0, -0.5), (0, 0, 0.5), 0.2)
        p = np.random.default_rng(4).uniform(-1, 1, size=(20, 3))
        assert Sphere().slope == capsule.slope == Torus().slope == 1.0
        assert Offset(Offset(capsule, 0.1), -0.05).value_and_slope(p)[1] == 1.0
        assert Union((Sphere(), Offset(Torus(), 0.1))).value_and_slope(p)[1] == 1.0
        steep = GridSource(ScalarGrid((2, 2, 2), -np.ones(3), np.ones(3), np.array([0.0, 6.0] * 4)))
        assert steep.slope == 3.0
        assert Union((Sphere(), Offset(steep, 0.1))).value_and_slope(p)[1] == 3.0
        assert Offset(Union((steep,)), 0.1).value_and_slope(p)[1] == 3.0
        values, slope = Union((capsule, Torus())).value_and_slope(p)
        assert slope == 1.0
        assert values.tobytes() == Union((capsule, Torus())).value(p).tobytes()
        values, slope = Offset(capsule, 0.1).value_and_slope(p)
        assert values.tobytes() == Offset(capsule, 0.1).value(p).tobytes()

    @pytest.mark.parametrize("spec, step", [
        (BlendSpec(k=0.0), 1.0), (BlendSpec(k=1.2), 1.0), (BlendSpec(k=2.0), 3.0),
        (BlendSpec(k=2.0, variant="quilez"), 1.0),
    ])
    def test_union_slope_scales_per_fold_step(self, spec, step):
        # cubic: max(1, k^2 - 1) per fold step; quilez: 1
        steep = GridSource(ScalarGrid((2, 2, 2), -np.ones(3), np.ones(3), np.array([0.0, 6.0] * 4)))
        p = np.zeros((1, 3))
        assert Union((Sphere(), steep), spec).value_and_slope(p)[1] == 3.0 * step
        assert Union((Sphere(), steep, Torus()), spec).value_and_slope(p)[1] == 3.0 * step**2

    def test_parts_without_a_bound_leave_none(self):
        bare = ValueOnly(Sphere())
        for shape in (Offset(bare, 0.1), Union((Sphere(), bare)), Offset(Union((bare,)), 0.1)):
            assert not hasattr(shape, "slope")
            assert not hasattr(shape, "value_and_slope")

    def test_eikonal_property_single_shapes(self):
        # |grad| = 1 almost everywhere for the primitives, checked by
        # central differences away from medial axes
        rng = np.random.default_rng(2)
        h = 1e-6
        for shape in (Sphere(radius=0.4), Capsule((0, 0, -0.5), (0, 0, 0.5), 0.2), Torus()):
            p = rng.uniform(-1, 1, size=(200, 3))
            g = np.stack(
                [
                    (shape.value(p + h * e) - shape.value(p - h * e)) / (2 * h)
                    for e in np.eye(3)
                ],
                axis=1,
            )
            norms = np.linalg.norm(g, axis=1)
            # exclude points near the shape's medial axis where the
            # gradient is undefined
            keep = np.abs(shape.value(p)) > 0.05
            assert np.abs(norms[keep] - 1).max() < 1e-4

    def test_validation(self):
        with pytest.raises(GeometryError):
            Sphere(radius=0.0)
        with pytest.raises(GeometryError):
            Capsule((0, 0, 0), (1, 0, 0), -0.1)
        with pytest.raises(GeometryError):
            Torus(major=0.0)
        with pytest.raises(GeometryError):
            Union(())


GRID_SOURCE = GridSource(ScalarGrid((2, 2, 2), -np.ones(3), np.ones(3), np.zeros(8)))  # an SDF source with no surface to sample


class TestSurfaceSampling:
    def test_samples_on_surface(self):
        # nested offsets add their deltas: the r = 0.5 sphere
        nested = Offset(Offset(Sphere(radius=0.3), 0.1), 0.1)
        shapes = [
            Sphere(radius=0.7),
            Capsule((0, 0, -0.6), (0, 0, 0.6), 0.25),
            Torus(major=0.6, minor=0.15),
            Offset(Sphere(radius=0.3), 0.2),
            bifurcation_fixture()[0],
            nested,
            Union((Sphere(radius=0.3), Offset(Capsule((0, 0, 0), (0.6, 0, 0), 0.1), 0.05),
                   Torus(major=0.4, minor=0.08))),
        ]
        for shape in shapes:
            cloud = sample_analytic_surface(shape, 500, seed=3)
            assert len(cloud) == 500
            assert np.abs(shape.value(cloud.points)).max() < 1e-9
        cloud = sample_analytic_surface(nested, 500, seed=3)
        assert np.abs(Sphere(radius=0.5).value(cloud.points)).max() < 1e-9

    @pytest.mark.parametrize(
        "shape, message",
        [
            (Offset(bifurcation_fixture()[0], 0.1), "primitives only"),
            (GRID_SOURCE, "cannot sample surface of GridSource"),
            (Union((Sphere(radius=0.3), GRID_SOURCE)), "of GridSource"),
            (nested_wall_fixture(0.3, 0.2, 0.2), "cannot sample surface of tuple"),
        ],
    )
    def test_unsampleable_shapes_raise(self, shape, message):
        with pytest.raises(GeometryError, match=message):
            sample_analytic_surface(shape, 5, 0)
        assert len(sample_analytic_surface(shape, 0, 0)) == 0

    @pytest.mark.parametrize(
        "shape",
        [
            Sphere(center=(0.2, -0.1, 0.3), radius=0.7),
            Capsule((0.1, 0.0, -0.6), (-0.3, 0.4, 0.6), 0.25),
            Torus(center=(0.0, 0.3, -0.2), major=0.6, minor=0.15),
            Offset(Capsule((0, 0, -0.3), (0, 0, 0.3), 0.1), 0.2),
            bifurcation_fixture()[0],
            Offset(Offset(Torus(major=0.5, minor=0.05), 0.05), 0.05),
        ],
    )
    def test_bbox_holds_the_surface_tightly(self, shape):
        lo, hi = shape.bbox()
        pts = sample_analytic_surface(shape, 4000, seed=2).points
        assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)
        np.testing.assert_allclose(pts.min(axis=0), lo, atol=0.03)
        np.testing.assert_allclose(pts.max(axis=0), hi, atol=0.03)

    def test_determinism(self):
        a = sample_analytic_surface(Sphere(radius=0.5), 100, seed=4)
        b = sample_analytic_surface(Sphere(radius=0.5), 100, seed=4)
        np.testing.assert_array_equal(a.points, b.points)

    def test_sphere_z_uniform(self):
        # area-uniform sampling of a sphere has z/r uniform on [-1, 1]
        cloud = sample_analytic_surface(Sphere(radius=0.8), 5000, seed=5)
        z = cloud.points[:, 2] / 0.8
        stat = scipy_stats.kstest(z, "uniform", args=(-1, 2))
        assert stat.pvalue > 0.01

    def test_sphere_isotropic(self):
        cloud = sample_analytic_surface(Sphere(radius=1.0), 20_000, seed=6)
        assert np.abs(cloud.points.mean(axis=0)).max() < 0.02

    def test_capsule_cap_fraction(self):
        # cylinder side area 2*pi*r*L, caps 4*pi*r^2; for L = 2, r = 0.5
        # the caps hold 1/3 of the area
        c = Capsule((0, 0, -1), (0, 0, 1), 0.5)
        cloud = sample_analytic_surface(c, 30_000, seed=7)
        on_caps = np.abs(cloud.points[:, 2]) > 1.0 + 1e-12
        assert on_caps.mean() == pytest.approx(1 / 3, abs=0.02)

    def test_torus_angle_uniform(self):
        t = Torus(major=0.6, minor=0.2)
        cloud = sample_analytic_surface(t, 5000, seed=8)
        phi = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
        stat = scipy_stats.kstest(phi, "uniform", args=(-np.pi, 2 * np.pi))
        assert stat.pvalue > 0.01

    def test_union_with_a_mesh_component(self):
        # a mesh is a surface as the shapes are: a union bounds, samples and
        # measures it like any other component
        mesh, capsule = icosphere(2, radius=0.4), Capsule((0.3, 0.0, 0.0), (0.8, 0.0, 0.0), 0.15)
        union = Union((mesh, capsule))
        lo, hi = union.bbox()
        np.testing.assert_array_equal(lo, np.minimum(mesh.bbox()[0], capsule.bbox()[0]))
        np.testing.assert_array_equal(hi, np.maximum(mesh.bbox()[1], capsule.bbox()[1]))
        pts = sample_analytic_surface(union, 300, seed=10).points
        assert union.value_and_slope(pts)[1] == 1.0
        assert np.abs(union.value(pts)).max() < 1e-9
        assert mesh.value(pts).min() > -1e-9 and capsule.value(pts).min() > -1e-9

    def test_union_rejects_interior_points(self):
        u, _ = bifurcation_fixture()
        cloud = sample_analytic_surface(u, 2000, seed=9)
        # no sample may sit strictly inside any component
        assert u.value(cloud.points).min() > -1e-9

    @pytest.mark.parametrize("parts, share", [
        # disjoint: the small sphere holds 0.2^2 / (0.2^2 + 0.6^2) of the area
        ((Sphere(radius=0.2), Sphere((1.0, 0.0, 0.0), 0.6)), 0.1),
        # overlapping at the plane x = 0.075: exposed areas 2 pi r (2r - h)
        # with cap heights h = 0.225 and 0.075, so 0.1125 / 0.7875 = 1/7
        ((Sphere(radius=0.3), Sphere((0.6, 0.0, 0.0), 0.6)), 1 / 7),
    ])
    def test_union_samples_are_area_true(self, parts, share):
        u = Union(parts)
        pts = sample_analytic_surface(u, 20_000, seed=12).points
        assert np.abs(u.value(pts)).max() < 1e-9
        on_first = np.abs(parts[0].value(pts)) < 1e-9
        assert on_first.mean() == pytest.approx(share, abs=4 * np.sqrt(share * (1 - share) / 20_000))

    @pytest.mark.parametrize("spec", [BlendSpec(k=0.3), BlendSpec(k=1e-9, variant="quilez")], ids=str)
    def test_smooth_union_cannot_be_sampled(self, spec):
        # the blended fillet lies on no part's surface, so part draws would miss it
        u = Union((Sphere(radius=0.3), Sphere((0.4, 0.0, 0.0), 0.3)), spec)
        with pytest.raises(GeometryError, match="smooth union"):
            sample_analytic_surface(u, 10, seed=1)

    def test_areas(self):
        # a mesh's area approaches the shape's from below as it refines
        assert Sphere(radius=0.7).area() == pytest.approx(4 * np.pi * 0.49)
        assert icosphere(5, radius=0.7).area() == pytest.approx(Sphere(radius=0.7).area(), rel=1e-3)
        capsule = Capsule((0.1, 0.0, -0.6), (-0.3, 0.4, 0.6), 0.25)
        assert capsule_mesh(capsule.a, capsule.b, 0.25, 96, 48).area() == pytest.approx(capsule.area(), rel=1e-3)
        assert Torus(major=0.6, minor=0.2).area() == pytest.approx(4 * np.pi**2 * 0.12)
        assert Offset(capsule, 0.05).area() == Capsule(capsule.a, capsule.b, 0.3).area()
        mesh = icosphere(1)
        assert mesh.area() == mesh.areas().sum()


class TestFixtures:
    def test_nested_wall_ordering(self):
        lumen, inner, outer = nested_wall_fixture(0.3, 0.2, 0.2)
        p = np.random.default_rng(10).uniform(-1.5, 1.5, size=(500, 3))
        dl, di, do = (s.value(p) for s in (lumen, inner, outer))
        assert np.all(do <= di + 1e-12)
        assert np.all(di <= dl + 1e-12)

    def test_nested_wall_radii(self):
        lumen, inner, outer = nested_wall_fixture(0.3, 0.2, 0.15)
        assert lumen.value(np.array([0.3, 0, 0])) == pytest.approx(0.0, abs=1e-15)
        assert inner.value(np.array([0.5, 0, 0])) == pytest.approx(0.0, abs=1e-15)
        assert outer.value(np.array([0.65, 0, 0])) == pytest.approx(0.0, abs=1e-15)

    def test_bifurcation_parts_connect(self):
        union, parts = bifurcation_fixture()
        assert len(parts) == 3
        # all branches meet at the junction, which is interior to each
        for part in parts:
            assert part.value(np.zeros(3)) < 0

    def test_fixture_validation(self):
        with pytest.raises(GeometryError):
            nested_wall_fixture(0.0, 0.1, 0.1)


class TestMeshFactories:
    def test_icosphere_on_sphere(self):
        mesh = icosphere(3, radius=0.7, center=(0.1, 0.2, 0.3))
        r = np.linalg.norm(mesh.vertices - np.array([0.1, 0.2, 0.3]), axis=1)
        np.testing.assert_allclose(r, 0.7, atol=1e-12)

    def test_icosphere_watertight(self):
        for sub in (0, 1, 2):
            mesh = icosphere(sub)
            rep = check_watertight(mesh)
            assert rep.closed and rep.orientation_consistent
            assert enclosed_volume(mesh) > 0

    def test_icosphere_counts(self):
        # subdividing multiplies triangle count by 4
        t0 = len(icosphere(0).triangles)
        t1 = len(icosphere(1).triangles)
        assert t0 == 20 and t1 == 80

    def test_icosphere_volume_converges(self):
        v = enclosed_volume(icosphere(4, radius=1.0))
        assert v == pytest.approx(4 / 3 * np.pi, rel=5e-3)

    def test_capsule_mesh_watertight_and_close(self):
        mesh = capsule_mesh((0, 0, -0.5), (0, 0, 0.5), 0.3, segments=32, rings=16)
        rep = check_watertight(mesh)
        assert rep.closed and rep.orientation_consistent
        c = Capsule((0, 0, -0.5), (0, 0, 0.5), 0.3)
        assert np.abs(c.value(mesh.vertices)).max() < 5e-3

    def test_capsule_mesh_volume(self):
        L, r = 1.0, 0.3
        mesh = capsule_mesh((0, 0, 0), (0, 0, L), r, segments=64, rings=32)
        expect = np.pi * r**2 * L + 4 / 3 * np.pi * r**3
        assert enclosed_volume(mesh) == pytest.approx(expect, rel=5e-3)


class TestShapeSpecs:
    def test_sphere_specs(self):
        assert parse_shape("sphere") == Sphere()
        assert parse_shape("sphere:0.5") == Sphere(radius=0.5)
        assert parse_shape("sphere:0.5,1,2,3") == Sphere(center=(1.0, 2.0, 3.0), radius=0.5)

    def test_capsule_spec(self):
        c = parse_shape("capsule:0,0,-1,0,0,1,0.3")
        assert c == Capsule((0.0, 0.0, -1.0), (0.0, 0.0, 1.0), 0.3)

    def test_torus_spec(self):
        assert parse_shape("torus:0.6,0.2") == Torus(major=0.6, minor=0.2)

    def test_nested_spec(self):
        # nested walls are several surfaces, which no command takes as one
        # shape; nested_wall_fixture builds them in the library
        with pytest.raises(GeometryError, match="unknown shape spec"):
            parse_shape("nested:0.3,0.2,0.2")

    def test_bifurcation_spec(self):
        u = parse_shape("bifurcation")
        assert isinstance(u, Union)
        assert u.parts == bifurcation_fixture()[1] and u.spec == BlendSpec(k=0.0)

    def test_bad_specs(self):
        for bad in ("cube", "capsule:1,2,3", "torus:0.5"):
            with pytest.raises(GeometryError):
                parse_shape(bad)

    @pytest.mark.parametrize(
        "spec, form",
        [
            ("sphere:0.5,1,2", "r or r,cx,cy,cz"),
            ("sphere:0.5,1,2,3,4", "r or r,cx,cy,cz"),
            ("bifurcation:1", "no numbers"),
            ("capsule:1,2,3", "ax,ay,az,bx,by,bz,r"),
            ("torus:0.5", "R,r"),
        ],
    )
    def test_wrong_number_count_names_the_form(self, spec, form):
        with pytest.raises(GeometryError, match=form):
            parse_shape(spec)
