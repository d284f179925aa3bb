import tracemalloc

import mesh_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vinr.csg import GridSource, MeshSource, ModelSource, evaluate_on_grid, grid_lattice
from vinr.extraction import (
    WatertightReport,
    cell_corners,
    check_watertight,
    cube_index,
    enclosed_volume,
    marching_cubes,
)
from vinr.geometry import DomainTransform, ScalarGrid, TriangleMesh, point_to_mesh_distance
from vinr.synthetic import Sphere, Torus, icosphere

import band_oracle
from test_network import linear_channel_model


def analytic_grid(shape, dims, lo, hi):
    pts = grid_lattice(dims, lo, hi)
    vals = shape.value(pts).reshape(dims)
    return ScalarGrid(
        dims=dims,
        bbox_min=np.asarray(lo, dtype=float),
        bbox_max=np.asarray(hi, dtype=float),
        values=vals.astype(np.float32),
    )


class TestMarchingCubes:
    def test_sphere_surface_accuracy(self):
        g = analytic_grid(Sphere(radius=0.7), (64, 64, 64), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 0.7).max() < 2.0 / 63  # within one cell
        assert np.abs(r - 0.7).mean() < 1e-3

    def test_vertices_lie_on_interpolated_zero(self):
        # each emitted vertex sits on a cell edge where the linear
        # interpolant of the two corner samples crosses the iso value
        g = analytic_grid(Sphere(radius=0.6), (24, 24, 24), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        src = GridSource(g)
        vals = src.value(mesh.vertices)
        assert np.abs(vals).max() < 1e-6

    def test_empty_when_no_crossing(self):
        g = analytic_grid(Sphere(radius=0.1), (8, 8, 8), np.ones(3), 2 * np.ones(3))
        mesh = marching_cubes(g)
        assert len(mesh.triangles) == 0

    def test_sphere_watertight_and_volume(self):
        g = analytic_grid(Sphere(radius=0.7), (80, 80, 80), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        rep = check_watertight(mesh)
        assert rep.closed
        assert rep.orientation_consistent
        vol = enclosed_volume(mesh)
        assert vol == pytest.approx(4 / 3 * np.pi * 0.7**3, rel=5e-3)

    def test_torus_watertight_genus_one(self):
        g = analytic_grid(Torus(major=0.6, minor=0.2), (72, 72, 48), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        rep = check_watertight(mesh)
        assert rep.closed and rep.orientation_consistent
        # Euler characteristic of a torus is 0
        edges = len(mesh.vertices) + len(mesh.triangles)  # V + F, and E = 3F/2 for closed tri mesh
        assert len(mesh.vertices) - 3 * len(mesh.triangles) // 2 + len(mesh.triangles) == 0
        vol = enclosed_volume(mesh)
        assert vol == pytest.approx(2 * np.pi**2 * 0.6 * 0.2**2, rel=1e-2)

    def test_normals_point_toward_positive_field(self):
        g = analytic_grid(Sphere(radius=0.5), (40, 40, 40), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        a, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
        n = np.cross(b - a, c - a)
        centroid = (a + b + c) / 3
        # outward for a sphere centered at the origin
        assert np.all(np.einsum("ij,ij->i", n, centroid) > 0)

    def test_negated_field_flips_orientation(self):
        g = analytic_grid(Sphere(radius=0.5), (32, 32, 32), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        neg = ScalarGrid(dims=g.dims, bbox_min=g.bbox_min, bbox_max=g.bbox_max, values=-g.values)
        mesh2 = marching_cubes(neg)
        assert len(mesh.triangles) == len(mesh2.triangles)
        assert enclosed_volume(mesh2) == pytest.approx(-enclosed_volume(mesh), rel=1e-12)

    def test_open_surface_reports_boundary(self):
        dims = (16, 16, 16)
        pts = grid_lattice(dims, -np.ones(3), np.ones(3))
        vals = (pts[:, 2] - 0.1 * np.sin(3 * pts[:, 0])).reshape(dims)
        g = ScalarGrid(
            dims=dims, bbox_min=-np.ones(3), bbox_max=np.ones(3), values=vals.astype(np.float32)
        )
        mesh = marching_cubes(g)
        rep = check_watertight(mesh)
        assert not rep.closed
        assert rep.boundary_edges > 0

    def test_nonzero_iso(self):
        g = analytic_grid(Sphere(radius=0.5), (48, 48, 48), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g, iso=0.15)  # offset surface of a sphere SDF
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 0.65).max() < 0.01

    def test_value_exactly_at_iso_does_not_crash(self):
        dims = (4, 4, 4)
        pts = grid_lattice(dims, -np.ones(3), np.ones(3))
        vals = pts[:, 0].reshape(dims)  # plane with a full lattice sheet at 0
        g = ScalarGrid(
            dims=dims, bbox_min=-np.ones(3), bbox_max=np.ones(3), values=vals.astype(np.float32)
        )
        mesh = marching_cubes(g)
        assert len(mesh.triangles) > 0
        assert np.isfinite(mesh.vertices).all()

    def test_deterministic(self):
        g = analytic_grid(Sphere(radius=0.6), (32, 32, 32), -np.ones(3), np.ones(3))
        m1 = marching_cubes(g)
        m2 = marching_cubes(g)
        np.testing.assert_array_equal(m1.vertices, m2.vertices)
        np.testing.assert_array_equal(m1.triangles, m2.triangles)

    def test_vertices_welded(self):
        g = analytic_grid(Sphere(radius=0.6), (24, 24, 24), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        uniq = np.unique(np.round(mesh.vertices, 9), axis=0)
        assert len(uniq) == len(mesh.vertices)

    def test_peak_memory_stays_near_the_grid(self):
        # traced peak relative to the float32 grid at 128^3; one float64
        # copy of the lattice alone would add 2x
        g = analytic_grid(Sphere(radius=0.5), (128, 128, 128), -np.ones(3), np.ones(3))
        tracemalloc.start()
        try:
            marching_cubes(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * g.values.nbytes, peak / g.values.nbytes


class TestEnclosedVolume:
    def test_unit_cube(self):
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
            dtype=float,
        )
        f = np.array(
            [
                [0, 2, 1], [0, 3, 2],  # bottom (z=0), outward normal -z
                [4, 5, 6], [4, 6, 7],  # top
                [0, 1, 5], [0, 5, 4],  # y=0
                [2, 3, 7], [2, 7, 6],  # y=1
                [1, 2, 6], [1, 6, 5],  # x=1
                [3, 0, 4], [3, 4, 7],  # x=0
            ]
        )
        from vinr.geometry import TriangleMesh

        mesh = TriangleMesh(v, f)
        assert enclosed_volume(mesh) == pytest.approx(1.0, abs=1e-12)
        assert check_watertight(mesh).closed


@st.composite
def triangle_soups(draw):
    """Faces of a closed icosphere, some dropped (open edges), some flipped,
    some repeated (non-manifold edges), plus random extra faces."""
    sphere = icosphere(1)
    face = st.integers(0, sphere.num_triangles - 1)
    dropped = draw(st.sets(face, max_size=3))
    flipped = draw(st.sets(face, max_size=3))
    repeated = draw(st.lists(face, max_size=2))
    corner = st.integers(0, sphere.num_vertices - 1)
    extra = draw(st.lists(st.lists(corner, min_size=3, max_size=3, unique=True), max_size=3))
    faces = sphere.triangles.copy()
    faces[sorted(flipped)] = faces[sorted(flipped)][:, ::-1]
    faces = np.concatenate([np.delete(faces, sorted(dropped), axis=0), faces[repeated]])
    faces = np.concatenate([faces, np.array(extra, dtype=np.int64).reshape(-1, 3)])
    return TriangleMesh(sphere.vertices, faces[draw(st.permutations(range(len(faces))))])


@st.composite
def positive_border_grids(draw, levels=None):
    """Grids of 3-7 points per axis over [-1, 1]^3 with a +1 border and one
    negative point; other values uniform on [-1, 1], or drawn from `levels`."""
    dims = draw(st.tuples(st.integers(3, 7), st.integers(3, 7), st.integers(3, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(-1, 1, size=dims) if levels is None else rng.choice(levels, size=dims)
    vals[0], vals[-1] = 1.0, 1.0
    vals[:, 0], vals[:, -1] = 1.0, 1.0
    vals[:, :, 0], vals[:, :, -1] = 1.0, 1.0
    vals[1, 1, 1] = -1.0
    return ScalarGrid(dims=dims, bbox_min=-np.ones(3), bbox_max=np.ones(3), values=vals)


@st.composite
def random_grids(draw):
    """Grids of 2-9 points per axis over a random box, values uniform on
    [-1, 1] or, for about half the grids, drawn from levels that include
    every iso the tests use, so some values equal iso exactly."""
    dims = draw(st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-2, 0, size=3)
    hi = lo + rng.uniform(0.1, 3, size=3)
    if draw(st.booleans()):
        vals = rng.choice([-1.0, -0.25, 0.0, 0.5, 1.0], size=dims)
    else:
        vals = rng.uniform(-1, 1, size=dims)
    return ScalarGrid(dims=dims, bbox_min=lo, bbox_max=hi, values=vals)


def assert_same_mesh(a, b):
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.triangles.tobytes() == b.triangles.tobytes()


class TestMarchingCubesOracle:
    """The array formulation against the per-cell loop: bit-identical
    vertices, triangles and numbering."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(g=random_grids(), iso=st.sampled_from([0.0, 0.5, -0.25]))
    def test_matches_loop_on_random_grids(self, g, iso):
        assert_same_mesh(marching_cubes(g, iso), mesh_oracle.marching_cubes(g, iso))

    @pytest.mark.parametrize("shape", [Sphere(radius=0.7), Torus(major=0.6, minor=0.2)])
    @pytest.mark.parametrize("iso", [0.0, 0.05])
    def test_matches_loop_on_sdf_grids(self, shape, iso):
        g = analytic_grid(shape, (40, 44, 48), -np.ones(3), np.ones(3))
        assert_same_mesh(marching_cubes(g, iso), mesh_oracle.marching_cubes(g, iso))


class TestWatertightAudit:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mesh=triangle_soups())
    @example(mesh=icosphere(1))
    @example(mesh=TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)))
    def test_matches_dict_audit(self, mesh):
        boundary, non_manifold, orientation = mesh_oracle.watertight_counts(mesh.triangles)
        closed = mesh.num_triangles > 0 and boundary == 0 and non_manifold == 0 and orientation
        assert check_watertight(mesh) == WatertightReport(
            closed=closed,
            boundary_edges=boundary,
            non_manifold_edges=non_manifold,
            orientation_consistent=orientation,
        )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(g=positive_border_grids())
    def test_marching_cubes_closed_for_positive_border(self, g):
        mesh = marching_cubes(g)
        rep = check_watertight(mesh)
        assert rep.closed and rep.orientation_consistent, rep
        assert enclosed_volume(mesh) > 0


class TestExtractModel:
    def test_plane_model(self):
        m = linear_channel_model([0.0, 0.0, 1.0])  # f = z in normalized units
        m.transform = DomainTransform(scale=0.5, center=np.zeros(3))
        grid = evaluate_on_grid(ModelSource(m, 0), (12, 12, 12), -np.ones(3), np.ones(3))
        mesh = marching_cubes(grid)
        assert len(mesh.triangles) > 0
        assert np.abs(mesh.vertices[:, 2]).max() < 1e-6

    def test_round_trip_distance(self):
        # extract a sphere from the analytic field through the source API,
        # then check the mesh against the true surface
        g = analytic_grid(Sphere(radius=0.6), (48, 48, 48), -np.ones(3), np.ones(3))
        mesh = marching_cubes(g)
        rng = np.random.default_rng(8)
        v = rng.normal(size=(200, 3))
        v = 0.6 * v / np.linalg.norm(v, axis=1, keepdims=True)
        d = point_to_mesh_distance(v, mesh)
        assert d.max() < 0.01


class TestCubeIndex:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=st.tuples(*[st.integers(2, 6)] * 3), share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_bits_are_corners_and_mixed_cases_straddle(self, dims, share, seed):
        inside = np.random.default_rng(seed).random(dims) < share
        cube = cube_index(inside)
        assert cube.dtype == np.uint8 and cube.shape == tuple(n - 1 for n in dims)
        for bit, corner in enumerate(cell_corners(inside)):
            np.testing.assert_array_equal((cube >> bit) & 1, corner)
        np.testing.assert_array_equal((cube != 0) & (cube != 255), band_oracle._straddles(inside))


class TestCaseTables:
    """Consistency of the 256-entry cube case tables, checked exhaustively."""

    @staticmethod
    def _crossing_and_used(case):
        """The edges whose corners differ in sign for this case, and the
        edges its TRI_TABLE triangles place vertices on."""
        from vinr.mc_tables import EDGE_CORNERS, TRI_TABLE

        inside = [(case >> c) & 1 for c in range(8)]
        crossing = {e for e, (c1, c2) in enumerate(EDGE_CORNERS) if inside[c1] != inside[c2]}
        used = {e for tri in np.reshape(TRI_TABLE[case], (-1, 3)) for e in tri}
        return crossing, used

    def test_every_crossing_edge_is_used(self):
        for case in range(256):
            crossing, used = self._crossing_and_used(case)
            assert crossing <= used, f"case {case}"

    def test_triangle_edges_are_sign_crossing(self):
        for case in range(256):
            crossing, used = self._crossing_and_used(case)
            assert used <= crossing, f"case {case}"

    def test_patch_edges_used_at_most_twice(self):
        # a triangle-patch edge shared by more than two triangles would make
        # the extracted surface non-manifold within a single cell
        from vinr.mc_tables import TRI_TABLE

        for case in range(256):
            counts = {}
            for tri in np.reshape(TRI_TABLE[case], (-1, 3)):
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                    key = (min(a, b), max(a, b))
                    counts[key] = counts.get(key, 0) + 1
            assert all(v <= 2 for v in counts.values()), f"case {case}"

    def test_no_triangle_repeats_an_edge(self):
        # marching_cubes welds one vertex per lattice edge and keeps every
        # table triangle, so this is what keeps its triangles non-degenerate
        from vinr.mc_tables import TRI_TABLE

        for case in range(256):
            for tri in np.reshape(TRI_TABLE[case], (-1, 3)):
                assert len(set(tri)) == 3, f"case {case}"
