import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vinr import csg
from vinr.csg import (
    BlendSpec,
    GridSource,
    ModelSource,
    Union,
    blend_grids,
    evaluate_near_level,
    evaluate_on_grid,
    grid_lattice,
    smooth_union,
)
from vinr.extraction import cell_corners, marching_cubes
from vinr.geometry import (
    DomainTransform,
    GeometryError,
    ScalarGrid,
    point_to_mesh_distance,
    signed_distance_to_mesh,
)
from vinr.network import MlpArchitecture, init_model
from vinr.synthetic import Capsule, Offset, Sphere, Torus, icosphere

import band_oracle
import einsum_oracle
from band_oracle import ValueOnly
from test_network import linear_channel_model


class TestSmoothUnion:
    def test_worked_example_cubic_variant(self):
        # d1=0.02, d2=0.05, k=0.1: h = 0.1-0.03 = 0.07,
        # gamma = 0.25*0.1*0.07^2 = 1.225e-4, result 0.02 - 1.225e-4
        got = smooth_union(0.02, 0.05, BlendSpec(k=0.1, variant="cubic"))
        assert got == pytest.approx(0.0198775, abs=1e-12)

    def test_worked_example_quilez_variant(self):
        # same inputs, gamma = 0.25*0.07^2/0.1 = 0.01225
        got = smooth_union(0.02, 0.05, BlendSpec(k=0.1, variant="quilez"))
        assert got == pytest.approx(0.00775, abs=1e-12)

    def test_k_zero_is_hard_min(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=200), rng.normal(size=200)
        np.testing.assert_array_equal(smooth_union(a, b, BlendSpec(k=0.0)), np.minimum(a, b))

    @pytest.mark.parametrize("variant", ["cubic", "quilez"])
    def test_equals_min_when_far_apart(self, variant):
        spec = BlendSpec(k=0.1, variant=variant)
        assert smooth_union(0.5, 0.9, spec) == 0.5
        assert smooth_union(-0.3, 0.3, spec) == -0.3

    @pytest.mark.parametrize("variant", ["cubic", "quilez"])
    def test_never_exceeds_min(self, variant):
        rng = np.random.default_rng(2)
        a, b = rng.normal(scale=0.05, size=500), rng.normal(scale=0.05, size=500)
        out = smooth_union(a, b, BlendSpec(k=0.1, variant=variant))
        assert np.all(out <= np.minimum(a, b) + 1e-15)

    @pytest.mark.parametrize("variant", ["cubic", "quilez"])
    def test_symmetric(self, variant):
        spec = BlendSpec(k=0.2, variant=variant)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=50), rng.normal(size=50)
        np.testing.assert_array_equal(smooth_union(a, b, spec), smooth_union(b, a, spec))

    def test_continuous_at_kink(self):
        spec = BlendSpec(k=0.1)
        eps = 1e-9
        lo = smooth_union(0.0, 0.1 - eps, spec)
        hi = smooth_union(0.0, 0.1 + eps, spec)
        assert abs(lo - hi) < 1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BlendSpec(k=-0.1)
        with pytest.raises(ValueError):
            BlendSpec(variant="exponential")

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_non_finite_k_rejected(self, k):
        # a nan k would make smooth_union nan everywhere, silently
        with pytest.raises(ValueError, match=f"k must be finite and non-negative, got {k}"):
            BlendSpec(k=k)


def _query_cases():
    """(query, rows_exact) for every SDF query of the package. `rows_exact`
    is False where a batch row may round differently from a batch of one:
    the network's matrix products, whose BLAS kernels depend on the row count."""
    capsule = Capsule((0.0, 0.0, -0.5), (0.2, 0.1, 0.5), 0.2)
    mesh = icosphere(1, radius=0.6)
    model = init_model(MlpArchitecture(hidden_layers=2, hidden_width=8, skip_layer=2), seed=1, scheme="sphere")
    model.transform = DomainTransform(scale=0.8, center=np.array([0.1, 0.2, 0.3]))
    grid = evaluate_on_grid(Sphere(radius=0.5), (5, 6, 7), -np.ones(3), np.ones(3))
    return [
        pytest.param(Sphere((0.1, -0.2, 0.3), 0.5).value, True, id="sphere"),
        pytest.param(capsule.value, True, id="capsule"),
        pytest.param(Torus((0.0, 0.1, 0.0), 0.5, 0.15).value, True, id="torus"),
        pytest.param(Offset(capsule, 0.1).value, True, id="offset"),
        pytest.param(Union((Sphere(radius=0.3), capsule)).value, True, id="union"),
        pytest.param(ModelSource(model).value, False, id="model"),
        pytest.param(GridSource(grid).value, True, id="grid"),
        pytest.param(mesh.value, True, id="mesh"),
        pytest.param(lambda p: point_to_mesh_distance(p, mesh), True, id="point_to_mesh_distance"),
        pytest.param(lambda p: signed_distance_to_mesh(p, mesh), True, id="signed_distance_to_mesh"),
    ]


@pytest.mark.parametrize("query, rows_exact", _query_cases())
def test_query_contract(query, rows_exact):
    """Batch in, batch out: a (3,) point is a batch of one, and every query
    returns one float64 value per point."""
    pts = np.random.default_rng(11).uniform(-1, 1, size=(40, 3))
    batch = query(pts)
    assert batch.dtype == np.float64 and batch.shape == (40,)
    for i, p in enumerate(pts):
        one = query(p)
        assert one.dtype == np.float64 and one.shape == (1,)
        assert one.tobytes() == query(pts[i : i + 1]).tobytes()
        if rows_exact:
            assert one.tobytes() == batch[i : i + 1].tobytes()
        else:
            np.testing.assert_allclose(one, batch[i : i + 1], rtol=1e-15, atol=1e-15)


class TestModelSource:
    def make_source(self):
        m = linear_channel_model([1.0, 0.0, 0.0])  # f(x) = x1 in normalized units
        m.transform = DomainTransform(scale=0.4, center=np.array([2.0, 0.0, 0.0]))
        return ModelSource(m, channel=0)

    def test_real_unit_rescale(self):
        src = self.make_source()
        # normalized value at p=(3,0,0) is 0.4*(3-2) = 0.4; real value 0.4/0.4 = 1
        assert src.value(np.array([3.0, 0.0, 0.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert src.value(np.array([1.5, 0.0, 0.0]))[0] == pytest.approx(-0.5, abs=1e-12)

    def test_channel_bounds_checked(self):
        m = linear_channel_model([1.0, 0.0, 0.0])
        m.transform = DomainTransform(scale=1.0, center=np.zeros(3))
        with pytest.raises(GeometryError):
            ModelSource(m, channel=1)

    def test_missing_transform_rejected(self):
        with pytest.raises(GeometryError):
            ModelSource(linear_channel_model([1.0, 0, 0]))

    def test_chunked_matches_direct(self):
        src = self.make_source()
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 4, size=(70_000, 3))
        vals = src.value(pts)
        np.testing.assert_allclose(vals, pts[:, 0] - 2.0, atol=1e-12)


class TestGridSource:
    def linear_grid(self):
        dims = (5, 4, 3)
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 2.0, 3.0])
        pts = grid_lattice(dims, lo, hi)
        vals = (2 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 2]).reshape(dims)
        return ScalarGrid(dims=dims, bbox_min=lo, bbox_max=hi, values=vals.astype(np.float32))

    def test_exact_on_linear_field(self):
        src = GridSource(self.linear_grid())
        rng = np.random.default_rng(5)
        p = rng.uniform([-1, 0, 2], [1, 2, 3], size=(200, 3))
        expect = 2 * p[:, 0] - p[:, 1] + 0.5 * p[:, 2]
        np.testing.assert_allclose(src.value(p), expect, atol=1e-6)

    def test_exact_at_lattice_points(self):
        g = self.linear_grid()
        src = GridSource(g)
        pts = grid_lattice(g.dims, g.bbox_min, g.bbox_max)
        np.testing.assert_allclose(src.value(pts), g.values.ravel(), atol=1e-6)

    def test_clamped_outside(self):
        g = self.linear_grid()
        src = GridSource(g)
        inside_corner = src.value(np.array([1.0, 2.0, 3.0]))[0]
        outside = src.value(np.array([5.0, 9.0, 7.0]))[0]
        assert outside == pytest.approx(inside_corner, abs=1e-6)

    def sphere_grid(self, n):
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        pts = grid_lattice((n, n, n), lo, hi)
        vals = (np.linalg.norm(pts, axis=1) - 0.5).reshape((n, n, n))
        return ScalarGrid(dims=(n, n, n), bbox_min=lo, bbox_max=hi, values=vals.astype(np.float32))

    def test_matches_widened_grid_bitwise(self):
        # the same trilinear sum over a float64 copy of the whole grid
        g = self.sphere_grid(17)
        p = np.random.default_rng(6).uniform(-1.2, 1.2, size=(500, 3))
        dims = np.array(g.dims)
        u = np.clip((p - g.bbox_min) / (g.bbox_max - g.bbox_min) * (dims - 1), 0, dims - 1)
        i0 = np.minimum(u.astype(np.int64), dims - 2)
        f, v = u - i0, g.values.astype(np.float64)
        expect = np.zeros(len(p))
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (f[:, 0] if dx else 1 - f[:, 0]) * (f[:, 1] if dy else 1 - f[:, 1])
                    expect += w * (f[:, 2] if dz else 1 - f[:, 2]) * v[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
        np.testing.assert_array_equal(GridSource(g).value(p), expect)

    def test_point_query_allocates_no_grid_copy(self):
        g = self.sphere_grid(128)  # 8 MB of float32; a float64 copy is 16 MB
        src = GridSource(g)
        tracemalloc.start()
        try:
            src.value(np.array([0.1, 0.2, 0.3]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.values.nbytes / 100


class TestMeshSource:
    def test_sphere_signs(self):
        src = icosphere(2, radius=1.0)
        vals = src.value(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        assert vals[0] < 0 < vals[1]
        assert vals[0] == pytest.approx(-1.0, abs=5e-2)


class TestGridEvaluation:
    def test_lattice_order_z_fastest(self):
        pts = grid_lattice((2, 2, 3), np.zeros(3), np.array([1.0, 1.0, 2.0]))
        assert pts.shape == (12, 3)
        np.testing.assert_array_equal(pts[:3, 2], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(pts[:3, :2], np.zeros((3, 2)))
        np.testing.assert_array_equal(pts[3], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(pts[-1], [1.0, 1.0, 2.0])

    @pytest.mark.parametrize("dims", [(3, 5, 7), (7, 2, 4), (5, 6, 2)])
    def test_flat_lattice_order_round_trips_through_scalar_grid(self, dims):
        # a grid built from values in grid_lattice order holds the field at
        # values[ix, iy, iz] = f(ax[ix], ay[iy], az[iz]), not a transpose
        lo, hi = np.array([-1.3, 0.2, -0.7]), np.array([0.9, 2.1, 0.4])
        def f(p):
            return p[..., 0] + 10 * p[..., 1] + 100 * p[..., 2]
        g = ScalarGrid(dims, lo, hi, f(grid_lattice(dims, lo, hi)))
        expect = f(np.stack(np.meshgrid(*g.axes(), indexing="ij"), axis=-1)).astype(np.float32)
        np.testing.assert_array_equal(g.values, expect)
        assert g.values.flags.c_contiguous

    @pytest.mark.parametrize("make", [
        pytest.param(lambda d: evaluate_on_grid(Sphere(radius=0.5), d, -np.ones(3), np.ones(3)), id="dense"),
        pytest.param(lambda d: evaluate_near_level(Sphere(radius=0.5), d, -np.ones(3), np.ones(3)), id="band"),
        pytest.param(lambda d: evaluate_near_level(SlopeUnderstated([0.6875, 0.125, 0.125]), d, -np.ones(3), np.ones(3)), id="fallback"),
        pytest.param(lambda d: blend_grids([evaluate_on_grid(Sphere(radius=r), d, -np.ones(3), np.ones(3)) for r in (0.3, 0.5)], BlendSpec()), id="blend"),
        pytest.param(lambda d: ScalarGrid(d, -np.ones(3), np.ones(3), np.asfortranarray(np.zeros(d))), id="fortran-input"),
    ])
    def test_every_grid_is_c_ordered(self, make):
        # one lattice order: every grid's values.flat is in grid_lattice order
        assert make((33, 21, 27)).values.flags.c_contiguous

    def test_values_match_source(self):
        src = icosphere(1, radius=0.8)
        lo, hi = -np.ones(3), np.ones(3)
        g = evaluate_on_grid(src, (6, 6, 6), lo, hi)
        pts = grid_lattice((6, 6, 6), lo, hi)
        np.testing.assert_allclose(g.values.ravel(), src.value(pts), atol=1e-12)

    def test_rejects_degenerate_dims(self):
        src = icosphere(1)
        with pytest.raises(GeometryError):
            evaluate_on_grid(src, (1, 4, 4), -np.ones(3), np.ones(3))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 5, 7), (9, 4, 11), (17, 13, 2)])
    def test_lattice_matches_meshgrid(self, dims):
        lo, hi = np.array([-1.3, 0.2, -0.7]), np.array([0.9, 2.1, 0.4])
        axes = [np.linspace(lo[i], hi[i], dims[i]) for i in range(3)]
        ref = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        pts = grid_lattice(dims, lo, hi)
        assert pts.shape == ref.shape
        np.testing.assert_array_equal(pts, ref)

    def test_lattice_peak_memory_is_the_result(self):
        dims = (64, 65, 66)
        result_bytes = 8 * 3 * int(np.prod(dims))
        tracemalloc.start()
        try:
            pts = grid_lattice(dims, -np.ones(3), np.ones(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.nbytes == result_bytes
        assert peak <= 1.1 * result_bytes, (peak, result_bytes)


def assert_band_matches_dense(band, dense, iso=0.0):
    """What a narrow-band grid must share with the dense one: the side of
    iso at every point, the float32 value at every corner of every cell
    that straddles iso, and so the marching-cubes mesh, byte for byte."""
    inside = dense.values.astype(np.float64) < iso
    np.testing.assert_array_equal(band.values.astype(np.float64) < iso, inside)
    corners = np.zeros(dense.dims, dtype=bool)
    straddles = band_oracle._straddles(inside)
    for view in cell_corners(corners):
        view |= straddles
    assert band.values[corners].tobytes() == dense.values[corners].tobytes()
    a, b = marching_cubes(band, iso), marching_cubes(dense, iso)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.triangles.tobytes() == b.triangles.tobytes()


@st.composite
def sdf_models(draw):
    """Small nets from the sphere initialisation, every weight perturbed,
    behind a random domain transform: each has a bumpy closed level set."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = MlpArchitecture(
        hidden_layers=int(rng.integers(2, 4)),
        hidden_width=int(rng.integers(8, 33)),
        skip_layer=2,
        activation=str(rng.choice(["relu", "softplus"])),
    )
    model = init_model(arch, seed=int(rng.integers(2**31)), scheme="sphere")
    for w in model.weights:
        w += rng.normal(0.0, 0.1, size=w.shape)
    model.transform = DomainTransform(scale=float(rng.uniform(0.8, 1.6)), center=rng.uniform(-0.2, 0.2, 3))
    return model


BOUNDED_KINDS = ["sphere", "capsule", "torus", "offset", "union", "grid"]
SPECS = [BlendSpec(k=k, variant=v) for k in (0.0, 0.1, 0.3, 1.6) for v in ("cubic", "quilez")]


def random_bounded_source(rng, depth=2, kind=None):
    """An analytic shape, an offset, a union (with a random spec) or a
    GridSource (`kind`, or a random one), nested up to `depth` deep: every
    source that bounds its slope by a constant."""
    if kind is None:
        kinds = BOUNDED_KINDS if depth else BOUNDED_KINDS[:3]
        kind = kinds[rng.integers(len(kinds))]
    if kind == "sphere":
        return Sphere(tuple(rng.uniform(-0.3, 0.3, 3)), rng.uniform(0.1, 0.7))
    if kind == "capsule":
        return Capsule(tuple(rng.uniform(-0.6, 0.6, 3)), tuple(rng.uniform(-0.6, 0.6, 3)), rng.uniform(0.05, 0.4))
    if kind == "torus":
        return Torus(tuple(rng.uniform(-0.3, 0.3, 3)), rng.uniform(0.2, 0.6), rng.uniform(0.05, 0.2))
    if kind == "offset":
        return Offset(random_bounded_source(rng, depth - 1), rng.uniform(-0.05, 0.2))
    if kind == "union":
        parts = tuple(random_bounded_source(rng, depth - 1) for _ in range(rng.integers(1, 4)))
        return Union(parts, SPECS[rng.integers(len(SPECS))])
    # a shape sampled on its own anisotropic lattice, plus noise of some scale
    dims = tuple(rng.integers(2, 20, 3))
    lo, hi = -rng.uniform(0.4, 1.5, 3), rng.uniform(0.4, 1.5, 3)
    values = evaluate_on_grid(random_bounded_source(rng, depth - 1), dims, lo, hi).values
    values = values + rng.normal(scale=[0.0, 0.02, 0.3][rng.integers(3)], size=dims)
    return GridSource(ScalarGrid(dims, lo, hi, values))


def rounds_to_float32(source):
    """Whether source holds a Union, which rounds its parts' values to float32."""
    return isinstance(source, Union) or isinstance(source, Offset) and rounds_to_float32(source.shape)


@st.composite
def boxes(draw):
    """Anisotropic boxes: half-extents from 0.3 to 1.4 per axis, off centre."""
    center = np.array(draw(st.tuples(*[st.floats(-0.2, 0.2)] * 3)))
    half = np.array(draw(st.tuples(*[st.floats(0.3, 1.4)] * 3)))
    return center - half, center + half


class TestSlopeBounds:
    @pytest.mark.parametrize("kind", BOUNDED_KINDS)
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1e-3, 0.05, 0.5, 2.0]))
    def test_declared_slope_is_never_exceeded(self, kind, seed, spread):
        # pairs in [-2, 2]^3: many lie outside a grid's box, where it clamps
        rng = np.random.default_rng(seed)
        source = random_bounded_source(rng, kind=kind)
        p = rng.uniform(-2, 2, size=(2000, 3))
        q = p + rng.normal(scale=spread, size=p.shape)
        values, slope = source.value_and_slope(p)
        assert values.tobytes() == source.value(p).tobytes()
        change = np.abs(values - source.value(q))
        # the slope bounds the field before a union rounds its parts to
        # float32: that rounding, scaled by the fold, may come on top
        rounding = 2**-20 * slope * (1 + np.abs(values)) if rounds_to_float32(source) else 0.0
        assert np.all(change <= slope * np.linalg.norm(p - q, axis=1) * (1 + 1e-12) + 1e-12 + rounding)

    def test_grid_slope_is_the_steepest_edge(self):
        dims, lo, hi = (5, 4, 3), np.array([-1.0, 0.0, 2.0]), np.array([1.0, 2.0, 3.0])
        pts = grid_lattice(dims, lo, hi)
        linear = (2 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 2]).reshape(dims)
        assert GridSource(ScalarGrid(dims, lo, hi, linear)).slope == pytest.approx(np.sqrt(5.25), rel=1e-6)
        spike = np.zeros(dims)
        spike[2, 1, 1] = 3.0  # one x-edge step of 3 over h = 0.5, y: 3 / (2/3), z: 3 / 0.5
        assert GridSource(ScalarGrid(dims, lo, hi, spike)).slope == pytest.approx(np.sqrt(36 + 20.25 + 36))

    @pytest.mark.parametrize("dims", [(1, 5, 5), (5, 5, 1), (2, 2, 2), (7, 30, 40)])
    def test_grid_slope_slabs_cover_every_edge(self, dims):
        # the streamed maximum equals the whole-lattice one on flat and thin grids
        values = np.random.default_rng(1).normal(size=dims).astype(np.float32)
        g = ScalarGrid(dims, -np.ones(3), np.ones(3), values)
        v, per_step = values.astype(np.float64), (np.array(dims) - 1) / 2.0
        largest = [np.abs(np.diff(v, axis=a)).max() if dims[a] > 1 else 0.0 for a in range(3)]
        assert GridSource(g).slope == float(np.sqrt(np.sum((np.array(largest) * per_step) ** 2)))

    def test_grid_slope_sees_every_z_edge(self):
        # a single unit step between planes k - 1 and k, for every k
        dims = (7, 300, 40)
        z = np.arange(dims[2])
        for k in range(1, dims[2]):
            values = np.broadcast_to((z >= k).astype(np.float32), dims)
            assert GridSource(ScalarGrid(dims, -np.ones(3), np.ones(3), values)).slope == (dims[2] - 1) / 2.0

    def test_grid_slope_sees_every_x_edge(self):
        # a single unit step between x-planes i - 1 and i, for every i: the
        # edges between two slabs (of 2 planes here) count as well as those
        # inside one
        dims = (40, 300, 80)
        x = np.arange(dims[0])
        for i in range(1, dims[0]):
            values = np.broadcast_to((x >= i).astype(np.float32)[:, None, None], dims)
            assert GridSource(ScalarGrid(dims, -np.ones(3), np.ones(3), values)).slope == (dims[0] - 1) / 2.0

    def test_grid_slope_builds_no_float64_lattice(self):
        dims = (128, 128, 128)
        values = np.random.default_rng(2).normal(size=dims).astype(np.float32)  # 8 MB
        source = GridSource(ScalarGrid(dims, -np.ones(3), np.ones(3), values))
        assert peak_bytes(lambda: source.slope) < values.nbytes / 2


class SlopeUnderstated:
    """Sphere SDF of radius 0.5 with a blob: a negative spike of height 2
    and radius 0.15 at `blob`, 13 times steeper than the slope bound of 1
    that value_and_slope claims."""

    def __init__(self, blob):
        self.blob = np.asarray(blob)

    def value(self, p):
        p = np.atleast_2d(p)
        spike = 2.0 * np.maximum(0.0, 1.0 - np.linalg.norm(p - self.blob, axis=1) / 0.15)
        return np.linalg.norm(p, axis=1) - 0.5 - spike

    def value_and_slope(self, p):
        return self.value(p), 1.0


@pytest.fixture
def dense_calls(monkeypatch):
    """The dims of every dense evaluation evaluate_near_level falls back to."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return evaluate_on_grid(*args)

    monkeypatch.setattr(csg, "evaluate_on_grid", counted)
    return calls


class TestNarrowBand:
    LO, HI = -np.ones(3), np.ones(3)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        model=sdf_models(),
        dims=st.tuples(st.integers(2, 24), st.integers(2, 24), st.integers(2, 24)),
        iso=st.sampled_from([0.0, 0.1, -0.05]),
    )
    def test_matches_dense_on_random_models(self, model, dims, iso):
        source = ModelSource(model)
        band = evaluate_near_level(source, dims, self.LO, self.HI, iso)
        assert_band_matches_dense(band, evaluate_on_grid(source, dims, self.LO, self.HI), iso)

    def test_evaluates_only_near_the_level(self, dense_calls, monkeypatch):
        m = linear_channel_model([0.0, 0.0, 1.0])  # the plane z = 0.3 in real units
        m.transform = DomainTransform(scale=1.0, center=np.array([0.0, 0.0, 0.3]))
        source = ModelSource(m)
        evaluated = []
        value = ModelSource.value
        monkeypatch.setattr(ModelSource, "value", lambda self, p: evaluated.append(p) or value(self, p))
        dims = (33, 33, 33)
        band = evaluate_near_level(source, dims, self.LO, self.HI)
        assert dense_calls == []
        z = np.concatenate(evaluated)[:, 2]
        # with slope bound 2 (twice |grad| = 1), a point is evaluated only if
        # its nearest coarse sample, at most sqrt(3) * 0.125 away, is within
        # 2 * 0.2165 of the level, so the point is within 0.65 of it; every
        # point within one lattice step of the level is evaluated
        assert np.abs(z - 0.3).max() < 0.65
        assert np.count_nonzero(np.abs(z - 0.3) < 0.0625) == 33 * 33 * 2
        assert len(z) < 0.4 * 33**3
        assert_band_matches_dense(band, evaluate_on_grid(source, dims, self.LO, self.HI))

    @pytest.mark.parametrize("channel", [1, 2])
    def test_three_channel_model_reads_its_own_channel(self, dense_calls, monkeypatch, channel):
        # every weight perturbed, so each channel has its own level set and
        # its own largest gradient norm on the coarse lattice
        rng = np.random.default_rng(31)
        model = init_model(MlpArchitecture(hidden_layers=3, hidden_width=24, output_channels=3, skip_layer=2),
                           seed=5, scheme="sphere")
        for w in model.weights:
            w += rng.normal(0.0, 0.1, size=w.shape)
        model.transform = DomainTransform(scale=1.2, center=np.array([0.05, -0.1, 0.0]))
        source = ModelSource(model, channel)
        coarse = []  # (points, (values, slope)) of each coarse pass
        value_and_slope = ModelSource.value_and_slope

        def recorded(self, p):
            coarse.append((p, value_and_slope(self, p)))
            return coarse[-1][1]

        monkeypatch.setattr(ModelSource, "value_and_slope", recorded)
        dims = (29, 30, 31)
        band = evaluate_near_level(source, dims, self.LO, self.HI)
        assert dense_calls == []
        assert_band_matches_dense(band, evaluate_on_grid(source, dims, self.LO, self.HI))
        [(points, (_, slope))] = coarse
        _, G, _ = einsum_oracle.forward_pass(model, model.transform.apply(points), with_jac=True)
        largest = np.linalg.norm(G, axis=2).max(axis=0)  # per channel
        assert slope == pytest.approx(csg._SLOPE_SAFETY * largest[channel], rel=1e-12)
        assert all(slope != pytest.approx(csg._SLOPE_SAFETY * n, rel=1e-6) for n in np.delete(largest, channel))

    def test_understated_slope_falls_back_to_dense(self, dense_calls):
        # the blob reaches from the sphere's band into points the claimed
        # slope places outside, where a band without the check would put 10
        # lattice points on the wrong side; the exact values at the corners
        # of the cells across the level contradict the bound
        source = SlopeUnderstated([0.6875, 0.125, 0.125])
        dims = (33, 33, 33)
        band = evaluate_near_level(source, dims, self.LO, self.HI)
        assert dense_calls == [dims]
        dense = evaluate_on_grid(source, dims, self.LO, self.HI)
        np.testing.assert_array_equal(band.values, dense.values)
        assert dense.values[27, 18, 18] < 0  # the blob's centre

    def test_mesh_source_takes_the_band(self, dense_calls):
        source = icosphere(2, radius=0.5)
        dims = (14, 13, 12)
        band = evaluate_near_level(source, dims, self.LO, self.HI)
        assert dense_calls == []
        assert_band_matches_dense(band, evaluate_on_grid(source, dims, self.LO, self.HI))

    def test_union_with_a_mesh_takes_the_band(self, dense_calls):
        # a mesh bounds its slope by 1 as the shapes do, so a union holding
        # one bounds it too
        source = Union((Sphere((0.3, 0.0, 0.0), 0.3), icosphere(1, radius=0.5)))
        assert source.value_and_slope(np.zeros(3))[1] == 1.0
        dims = (24, 24, 24)
        band = evaluate_near_level(source, dims, self.LO, self.HI)
        assert dense_calls == []
        expect = band_oracle.near_level_values(source, dims, self.LO, self.HI)
        assert band.values.tobytes() == expect.tobytes()
        assert_band_matches_dense(band, evaluate_on_grid(source, dims, self.LO, self.HI))

    @pytest.mark.parametrize("kind", BOUNDED_KINDS)
    @settings(max_examples=15, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        box=boxes(),
        dims=st.tuples(st.integers(2, 24), st.integers(2, 24), st.integers(2, 24)),
        iso=st.sampled_from([0.0, 0.1, -0.05]),
    )
    @example(seed=0, box=(-np.ones(3), np.ones(3)), dims=(9, 9, 9), iso=0.0)
    def test_bounded_sources_take_the_band(self, dense_calls, kind, seed, box, dims, iso):
        dense_calls.clear()
        source = random_bounded_source(np.random.default_rng(seed), kind=kind)
        band = evaluate_near_level(source, dims, *box, iso)
        assert dense_calls == []
        assert_band_matches_dense(band, evaluate_on_grid(source, dims, *box), iso)

    def test_union_with_an_understated_part_falls_back_to_dense(self, dense_calls):
        # the union is as steep as the blob, whatever its other part bounds
        source = Union((Sphere((-0.5, 0.0, 0.0), 0.2), SlopeUnderstated([0.6875, 0.125, 0.125])), BlendSpec(k=0.1))
        dims = (33, 33, 33)
        band = evaluate_near_level(source, dims, self.LO, self.HI)
        assert dense_calls == [dims]
        np.testing.assert_array_equal(band.values, evaluate_on_grid(source, dims, self.LO, self.HI).values)

    @pytest.mark.parametrize("make", [
        lambda: ValueOnly(Sphere(radius=0.5)),
        lambda: ValueOnly(GridSource(ScalarGrid((3, 3, 3), -np.ones(3), np.ones(3), np.linspace(-1, 1, 27)))),
        lambda: Union((Sphere(radius=0.5), ValueOnly(Sphere((0.3, 0.0, 0.0), 0.3)))),
        lambda: Union((ModelSource(bumpy_model(8)), ValueOnly(Sphere((0.3, 0.0, 0.0), 0.3))), BlendSpec(k=0.1)),
    ])
    def test_sources_without_slope_bound_go_dense(self, dense_calls, make):
        grid = evaluate_near_level(make(), (9, 9, 9), self.LO, self.HI)
        assert dense_calls == [(9, 9, 9)]
        np.testing.assert_array_equal(grid.values, evaluate_on_grid(make(), (9, 9, 9), self.LO, self.HI).values)

    def test_rejects_degenerate_dims(self):
        with pytest.raises(GeometryError):
            evaluate_near_level(icosphere(1), (1, 4, 4), self.LO, self.HI)

    @pytest.mark.parametrize("iso", [np.nan, np.inf, -np.inf])
    def test_non_finite_iso_rejected(self, dense_calls, iso):
        with pytest.raises(GeometryError, match=f"iso level must be finite, got {iso}"):
            evaluate_near_level(Sphere(radius=0.5), (8, 8, 8), self.LO, self.HI, iso)
        assert dense_calls == []


class TestUnion:
    """A Union of models and shapes on the lattice is bitwise the blend of
    its parts' grids, and its band mesh is the dense mesh."""

    LO, HI = np.array([-1.0, -0.9, -1.1]), np.array([1.0, 1.2, 0.9])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 4),
        spec=st.sampled_from(SPECS),
        dims=st.tuples(*[st.integers(2, 12).map(lambda n: 2 * n + 1)] * 3),
    )
    def test_grid_is_the_blend_and_band_mesh_is_dense(self, dense_calls, seed, count, spec, dims):
        dense_calls.clear()
        rng = np.random.default_rng(seed)
        parts = [
            ModelSource(bumpy_model(int(rng.choice([4, 8, 16])), seed=int(rng.integers(1000))))
            if rng.random() < 0.5 else random_bounded_source(rng, depth=1)
            for _ in range(count)
        ]
        union = Union(parts, spec)
        dense = evaluate_on_grid(union, dims, self.LO, self.HI)
        blended = blend_grids([evaluate_on_grid(s, dims, self.LO, self.HI) for s in parts], spec)
        assert dense.values.tobytes() == blended.values.tobytes()
        band = evaluate_near_level(union, dims, self.LO, self.HI)
        assert dense_calls == []
        assert_band_matches_dense(band, dense)


class TestBlendGrids:
    def make_grids(self, n=3):
        rng = np.random.default_rng(6)
        dims = (4, 4, 4)
        lo, hi = -np.ones(3), np.ones(3)
        return [
            ScalarGrid(
                dims=dims,
                bbox_min=lo,
                bbox_max=hi,
                values=rng.normal(scale=0.05, size=dims).astype(np.float32),
            )
            for _ in range(n)
        ]

    def test_k_zero_is_nary_min(self):
        grids = self.make_grids()
        out = blend_grids(grids, BlendSpec(k=0.0))
        expect = np.minimum(np.minimum(grids[0].values, grids[1].values), grids[2].values)
        np.testing.assert_array_equal(out.values, expect.astype(np.float64))

    def test_left_fold_matches_scalar_path(self):
        grids = self.make_grids()
        spec = BlendSpec(k=0.1)
        out = blend_grids(grids, spec)
        acc = smooth_union(grids[0].values.astype(np.float64), grids[1].values.astype(np.float64), spec)
        acc = smooth_union(acc, grids[2].values.astype(np.float64), spec)
        np.testing.assert_array_equal(out.values, acc.astype(out.values.dtype))

    def test_lattice_mismatch_rejected(self):
        grids = self.make_grids(2)
        other = ScalarGrid(
            dims=(4, 4, 4),
            bbox_min=-2 * np.ones(3),
            bbox_max=np.ones(3),
            values=np.zeros((4, 4, 4), dtype=np.float32),
        )
        with pytest.raises(GeometryError):
            blend_grids([grids[0], other], BlendSpec())

    def test_needs_two(self):
        with pytest.raises(GeometryError):
            blend_grids(self.make_grids(1), BlendSpec())


BLOCK = csg._LATTICE_BLOCK


def block_dims():
    """Lattices below one block, of exactly one block, of four blocks and
    one point, and above one block with planes that do not divide it."""
    return st.one_of(
        st.tuples(st.integers(2, 30), st.integers(2, 30), st.integers(2, 30)),
        st.sampled_from([(64, 32, 32), (16, 64, 64), (2, 256, 128)]),
        st.sampled_from([(65, 37, 109), (109, 65, 37)]),  # 4 * BLOCK + 1 points
        st.tuples(st.integers(37, 48), st.integers(37, 48), st.integers(48, 60)),
    )


def bumpy_model(width, layers=3, seed=0):
    rng = np.random.default_rng(seed)
    model = init_model(MlpArchitecture(hidden_layers=layers, hidden_width=width, skip_layer=2), seed=seed, scheme="sphere")
    for w in model.weights:
        w += rng.normal(0.0, 0.05, size=w.shape)
    model.transform = DomainTransform(scale=1.1, center=np.array([0.05, -0.02, 0.01]))
    return model


def peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLatticeBlocks:
    """Lattice evaluation slab by slab is bitwise the one-shot evaluation of
    band_oracle, and holds no lattice-sized float64 array."""

    LO, HI = np.array([-1.0, -0.9, -1.1]), np.array([1.0, 1.2, 0.9])
    SETTINGS = settings(max_examples=6, deadline=None, derandomize=True, database=None)

    @SETTINGS
    @given(dims=block_dims())
    @example(dims=(65, 37, 109))
    @example(dims=(3, 300, 300))  # a plane above one block: one plane per slab
    def test_blocks_tile_the_lattice(self, dims):
        # the slabs are consecutive runs of whole yz-planes, as many per slab
        # as fit in one block but at least one, and their points tile grid_lattice
        plane = dims[1] * dims[2]
        step = max(1, BLOCK // plane)
        ends, parts = [0], []
        for x, pts in csg.lattice_slab_points(dims, self.LO, self.HI):
            assert x.start == ends[-1] and x.stop == x.start + step
            assert len(pts) == (min(x.stop, dims[0]) - x.start) * plane
            ends.append(x.stop)
            parts.append(pts)
        assert ends[-2] < dims[0] <= ends[-1]
        assert [x for x, _ in csg.lattice_slab_points(dims, self.LO, self.HI)] == csg.lattice_slabs(dims)
        np.testing.assert_array_equal(np.concatenate(parts), grid_lattice(dims, self.LO, self.HI))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ModelSource(bumpy_model(4)), id="model-4"),
        pytest.param(lambda: ModelSource(bumpy_model(16)), id="model-16"),
        pytest.param(lambda: ModelSource(bumpy_model(64)), id="model-64"),
        pytest.param(lambda: ModelSource(bumpy_model(37)), id="model-37"),
        pytest.param(lambda: GridSource(evaluate_on_grid(Torus((0.0, 0.1, 0.0), 0.5, 0.15), (9, 8, 7), -np.ones(3), np.ones(3))), id="grid"),
        pytest.param(lambda: Union((Sphere(radius=0.3), Capsule((0.0, 0.0, -0.5), (0.2, 0.1, 0.5), 0.2))), id="union"),
    ])
    @SETTINGS
    @given(dims=block_dims())
    @example(dims=(64, 32, 32))
    @example(dims=(65, 37, 109))
    def test_grid_matches_one_shot(self, make, dims):
        source = make()
        grid = evaluate_on_grid(source, dims, self.LO, self.HI)
        assert grid.values.tobytes() == band_oracle.dense_values(source, dims, self.LO, self.HI).tobytes()

    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(dims=st.sampled_from([(9, 10, 11), (64, 32, 32), (37, 41, 53)]))
    def test_mesh_grid_matches_one_shot(self, dims):
        source = icosphere(0, radius=0.6)
        grid = evaluate_on_grid(source, dims, self.LO, self.HI)
        assert grid.values.tobytes() == band_oracle.dense_values(source, dims, self.LO, self.HI).tobytes()

    @pytest.mark.parametrize("spec", [BlendSpec(k=0.1), BlendSpec(k=0.3, variant="quilez"), BlendSpec(k=0.0)], ids=str)
    @SETTINGS
    @given(dims=block_dims(), seed=st.integers(0, 2**32 - 1))
    @example(dims=(65, 37, 109), seed=0)
    def test_blend_matches_whole_lattice_fold(self, spec, dims, seed):
        rng = np.random.default_rng(seed)
        values = [rng.normal(scale=0.1, size=dims).astype(np.float32) for _ in range(3)]
        values[1] = np.asfortranarray(values[1])  # a grid in either memory order
        grids = [ScalarGrid(dims, self.LO, self.HI, v) for v in values]
        expect = band_oracle.blend_values(grids, spec)
        assert blend_grids(grids, spec).values.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("iso", [0.1, 1 / 3])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(width=st.sampled_from([4, 16, 64]), dims=block_dims())
    @example(width=64, dims=(65, 37, 109))
    def test_band_matches_oracle(self, iso, width, dims):
        source = ModelSource(bumpy_model(width, seed=width))
        band = evaluate_near_level(source, dims, self.LO, self.HI, iso)
        expect = band_oracle.near_level_values(source, dims, self.LO, self.HI, iso)
        assert band.values.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dims", [(33, 33, 33), (65, 37, 109)])
    def test_band_dense_fallback_matches_oracle(self, dense_calls, dims):
        source = SlopeUnderstated([0.6875, 0.125, 0.125])
        band = evaluate_near_level(source, dims, -np.ones(3), np.ones(3))
        assert dense_calls == [dims]
        expect = band_oracle.near_level_values(source, dims, -np.ones(3), np.ones(3))
        assert band.values.tobytes() == expect.tobytes()

    # peak traced memory at 96^3 relative to the float32 grid returned;
    # the whole-lattice forms peak at 22x, 15.9x, 10x and 8.0x
    DIMS = (96, 96, 96)
    GRID_BYTES = 4 * 96**3

    def test_analytic_grid_peak(self):
        peak = peak_bytes(lambda: evaluate_on_grid(Sphere(radius=0.5), self.DIMS, -np.ones(3), np.ones(3)))
        assert peak <= 3 * self.GRID_BYTES, peak / self.GRID_BYTES

    def test_model_grid_peak(self):
        source = ModelSource(bumpy_model(64, layers=4))
        peak = peak_bytes(lambda: evaluate_on_grid(source, self.DIMS, -np.ones(3), np.ones(3)))
        assert peak <= 4.5 * self.GRID_BYTES, peak / self.GRID_BYTES

    def test_blend_peak(self):
        grids = [evaluate_on_grid(Sphere((0.1 * i, 0.0, 0.0), 0.5), self.DIMS, -np.ones(3), np.ones(3)) for i in range(3)]
        peak = peak_bytes(lambda: blend_grids(grids, BlendSpec(k=0.1)))
        assert peak <= 5 * self.GRID_BYTES, peak / self.GRID_BYTES

    def test_blend_of_band_grids_copies_no_grid(self):
        # the output grid and one block's float64 temporaries; a copy of
        # any input grid would add one grid more
        grids = [evaluate_near_level(Sphere((0.1 * i, 0.0, 0.0), 0.5), self.DIMS, -np.ones(3), np.ones(3)) for i in range(3)]
        peak = peak_bytes(lambda: blend_grids(grids, BlendSpec(k=0.1)))
        assert peak < 2 * self.GRID_BYTES, peak / self.GRID_BYTES

    def test_band_peak(self):
        source = ModelSource(bumpy_model(64, layers=4))
        peak = peak_bytes(lambda: evaluate_near_level(source, self.DIMS, -np.ones(3), np.ones(3)))
        assert peak <= 6 * self.GRID_BYTES, peak / self.GRID_BYTES
