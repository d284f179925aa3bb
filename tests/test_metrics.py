import numpy as np
import pytest

import band_oracle
from vinr.csg import MeshSource, ModelSource, evaluate_near_level, evaluate_on_grid
from vinr.extraction import marching_cubes
from vinr.geometry import point_to_mesh_distance
from vinr.geometry import DomainTransform, GeometryError, PointCloud
from vinr.metrics import (
    NestingReport,
    average_surface_distance,
    dice,
    nesting_violation,
    padded_bbox,
    split_train_heldout,
)
from vinr.network import MlpArchitecture, init_model
from vinr.synthetic import Sphere, icosphere

from test_network import model_from_layers


def sphere_points(n, r, seed=0, center=(0, 0, 0)):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return PointCloud(r * v + np.asarray(center, dtype=float))


def two_plane_model(offset=0.2):
    """Two-channel net: f0(x) = x1, f1(x) = x1 - offset. Exact SDFs of two
    parallel half-spaces, handy for nesting checks."""
    arch = MlpArchitecture(hidden_layers=1, hidden_width=4, output_channels=2, skip_layer=1)
    w = np.array([1.0, 0.0, 0.0])
    weights = [
        np.vstack([w, -w, w, -w]),
        np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
    ]
    biases = [np.zeros(4), np.array([0.0, -offset])]
    m = model_from_layers(arch, weights, biases)
    m.transform = DomainTransform(scale=1.0, center=np.zeros(3))
    return m


def bumpy_sphere_model():
    """A 3x32 net from the sphere initialisation with perturbed weights."""
    rng = np.random.default_rng(11)
    model = init_model(MlpArchitecture(hidden_layers=3, hidden_width=32, skip_layer=2), seed=3, scheme="sphere")
    for w in model.weights:
        w += rng.normal(0.0, 0.1, size=w.shape)
    model.transform = DomainTransform(scale=1.0, center=np.zeros(3))
    return model


class TestPaddedBbox:
    def test_hand_case(self):
        lo, hi = padded_bbox([0.0, 0.0, 0.0], [2.0, 4.0, 1.0], 0.1)
        np.testing.assert_allclose(lo, [-0.2, -0.4, -0.1])
        np.testing.assert_allclose(hi, [2.2, 4.4, 1.1])


class TestDice:
    def test_identical_shapes(self):
        s = Sphere(radius=0.5)
        d = dice(s, s, (48, 48, 48), -np.ones(3), np.ones(3))
        assert d == 1.0

    def test_disjoint_shapes(self):
        a = Sphere(radius=0.2)
        b = Sphere(center=(0.8, 0.0, 0.0), radius=0.2)
        d = dice(a, b, (64, 64, 64), -1.5 * np.ones(3), 1.5 * np.ones(3))
        assert d == 0.0

    def test_offset_spheres_match_lens_volume(self):
        # two radius-0.5 spheres with centers 0.1 apart overlap in a lens of
        # volume pi*(4r+d)*(2r-d)^2/12; for equal spheres the Dice score is
        # that volume over the sphere volume
        r, off = 0.5, 0.1
        a = Sphere(radius=r)
        b = Sphere(center=(off, 0.0, 0.0), radius=r)
        lens = np.pi * (4 * r + off) * (2 * r - off) ** 2 / 12
        expect = lens / (4 / 3 * np.pi * r**3)
        d = dice(a, b, (96, 96, 96), -np.ones(3), np.ones(3))
        assert d == pytest.approx(expect, rel=0.02)

    def test_empty_pair_rejected(self):
        a = Sphere(radius=0.1)
        with pytest.raises(GeometryError):
            dice(a, a, (8, 8, 8), 2 * np.ones(3), 3 * np.ones(3))

    def test_band_matches_dense(self):
        # a bumpy net against an exact mesh distance: both take the narrow
        # band; the score must be the dense lattice's, exactly
        model = bumpy_sphere_model()
        ref = MeshSource(icosphere(3, radius=0.5))
        dims, lo, hi = (16, 17, 18), -0.8 * np.ones(3), 0.8 * np.ones(3)
        a = evaluate_on_grid(ModelSource(model), dims, lo, hi).values < 0
        b = evaluate_on_grid(ref, dims, lo, hi).values < 0
        dense = 2.0 * int(np.logical_and(a, b).sum()) / (int(a.sum()) + int(b.sum()))
        assert dice(ModelSource(model), ref, dims, lo, hi) == dense


    def test_grid_is_read_as_it_is(self):
        model = bumpy_sphere_model()
        ref = Sphere(radius=0.5)
        dims, lo, hi = (16, 17, 18), -0.8 * np.ones(3), 0.8 * np.ones(3)
        grid = evaluate_near_level(ModelSource(model), dims, lo, hi)
        assert dice(grid, ref, dims, lo, hi) == dice(ModelSource(model), ref, dims, lo, hi)
        assert dice(ref, grid, dims, lo, hi) == dice(grid, ref, dims, lo, hi)

    @pytest.mark.parametrize("dims, hi", [((16, 17, 19), 0.8), ((16, 17, 18), 0.9)])
    def test_grid_off_the_lattice_rejected(self, dims, hi):
        grid = evaluate_on_grid(Sphere(radius=0.5), (16, 17, 18), -0.8 * np.ones(3), 0.8 * np.ones(3))
        with pytest.raises(GeometryError, match="Dice lattice"):
            dice(grid, Sphere(radius=0.5), dims, -0.8 * np.ones(3), hi * np.ones(3))


class TestAverageSurfaceDistance:
    def test_points_on_mesh(self):
        mesh = icosphere(3, radius=0.5)
        # sample the held-out points from the mesh itself
        from vinr.geometry import sample_surface

        held = sample_surface(mesh, 300, seed=1)
        asd = average_surface_distance(mesh, held)
        assert asd < 1e-9

    def test_radial_offset_recovered(self):
        mesh = icosphere(3, radius=0.5)
        held = sphere_points(500, 0.6, seed=2)
        asd = average_surface_distance(mesh, held)
        assert asd == pytest.approx(0.1, rel=0.03)

    def test_source_is_extracted_then_measured(self):
        src = Sphere(radius=0.5)
        held = sphere_points(400, 0.5, seed=3)
        asd = average_surface_distance(src, held, dims=(96, 96, 96))
        assert asd < 5e-3

    def test_field_value_variant(self):
        src = Sphere(radius=0.5)
        held = sphere_points(100, 0.55, seed=4)
        asd = average_surface_distance(src, held, use_field_values=True)
        assert asd == pytest.approx(0.05, abs=1e-9)

    def test_explicit_bbox_respected(self):
        src = Sphere(radius=0.5)
        held = sphere_points(200, 0.5, seed=5)
        asd = average_surface_distance(
            src, held, dims=(64, 64, 64), bbox_min=-np.ones(3), bbox_max=np.ones(3)
        )
        assert asd < 5e-3

    def test_band_matches_dense(self):
        model = bumpy_sphere_model()
        held = sphere_points(100, 0.5, seed=7)
        dims, lo, hi = (40, 40, 40), -0.8 * np.ones(3), 0.8 * np.ones(3)
        mesh = marching_cubes(evaluate_on_grid(ModelSource(model), dims, lo, hi))
        dense = float(np.mean(point_to_mesh_distance(held.points, mesh)))
        assert average_surface_distance(model, held, dims, lo, hi) == dense

    def test_grid_is_meshed_as_it_is(self):
        model = bumpy_sphere_model()
        held = sphere_points(100, 0.5, seed=8)
        dims, lo, hi = (40, 40, 40), -0.8 * np.ones(3), 0.8 * np.ones(3)
        grid = evaluate_near_level(ModelSource(model), dims, lo, hi)
        # the dims and bbox arguments (here the defaults) apply to sources only
        assert average_surface_distance(grid, held) == average_surface_distance(model, held, dims, lo, hi)

    def test_empty_heldout_rejected(self):
        with pytest.raises(GeometryError):
            average_surface_distance(icosphere(1), PointCloud(np.empty((0, 3))))

    def test_empty_level_set_rejected(self):
        src = Sphere(radius=0.05)
        held = sphere_points(10, 0.01, seed=6, center=(3.0, 3.0, 3.0))
        with pytest.raises(GeometryError):
            average_surface_distance(src, held, dims=(16, 16, 16))


class TestNestingViolation:
    def test_clean_ordering(self):
        m = two_plane_model(offset=0.2)
        # channel 1 is everywhere 0.2 below channel 0, so with channel 1
        # treated as outermost the ordering holds everywhere
        rep = nesting_violation(m, (16, 16, 16), -np.ones(3), np.ones(3))
        assert rep.fraction_violated == 0.0
        # grid storage is float32, so allow rounding of the gap
        assert rep.max_violation == pytest.approx(-0.2, abs=1e-6)

    def test_reversed_order_flags_everything(self):
        m = two_plane_model(offset=0.2)
        rep = nesting_violation(
            m, (16, 16, 16), -np.ones(3), np.ones(3), channel_order=[0, 1]
        )
        assert rep.fraction_violated == 1.0
        assert rep.max_violation == pytest.approx(0.2, abs=1e-6)

    def test_tolerance(self):
        m = two_plane_model(offset=0.2)
        rep = nesting_violation(
            m, (8, 8, 8), -np.ones(3), np.ones(3), channel_order=[0, 1], tolerance=0.5
        )
        assert rep.fraction_violated == 0.0
        assert rep.max_violation > 0

    def test_matches_per_channel_grids(self):
        # oracle: the per-channel path, one lattice evaluation per channel
        arch = MlpArchitecture(hidden_layers=2, hidden_width=16, output_channels=3, skip_layer=2)
        m = init_model(arch, seed=7, scheme="standard")
        m.biases[-1][:] = [0.05, 0.0, -0.05]
        m.transform = DomainTransform(scale=0.8, center=np.array([0.1, -0.2, 0.0]))
        dims, lo, hi = (12, 10, 9), -np.ones(3), np.ones(3)
        for order in (None, [0, 1, 2], [2, 0, 1]):
            rep = nesting_violation(m, dims, lo, hi, channel_order=order, tolerance=0.01)
            grids = [
                evaluate_on_grid(ModelSource(m, c), dims, lo, hi).values.astype(np.float64)
                for c in (order or [2, 1, 0])
            ]
            gaps = [outer - inner for outer, inner in zip(grids[:-1], grids[1:])]
            violated = np.any([g > 0.01 for g in gaps], axis=0)
            assert rep == NestingReport(
                fraction_violated=float(violated.mean()),
                max_violation=max(float(g.max()) for g in gaps),
            )
            assert 0.0 < rep.fraction_violated < 1.0

    @pytest.mark.parametrize("dims", [(12, 10, 9), (64, 32, 32), (37, 41, 53), (65, 37, 109)])
    def test_blocks_match_one_shot(self, dims):
        # one block, exactly one block, blocks starting mid-plane, 4 blocks + 1 point
        arch = MlpArchitecture(hidden_layers=2, hidden_width=16, output_channels=3, skip_layer=2)
        m = init_model(arch, seed=7, scheme="standard")
        m.biases[-1][:] = [0.05, 0.0, -0.05]
        m.transform = DomainTransform(scale=0.8, center=np.array([0.1, -0.2, 0.0]))
        lo, hi = -np.ones(3), np.ones(3)
        rep = nesting_violation(m, dims, lo, hi, channel_order=[0, 2, 1], tolerance=0.01)
        expect = band_oracle.nesting_violation(m, dims, lo, hi, [0, 2, 1], 0.01)
        assert (rep.fraction_violated, rep.max_violation) == expect
        assert 0.0 < rep.fraction_violated < 1.0

    @pytest.mark.parametrize("order", [[2, 0], [-1, 0]])
    def test_channel_order_out_of_range(self, order):
        with pytest.raises(GeometryError):
            nesting_violation(two_plane_model(), (8, 8, 8), -np.ones(3), np.ones(3), channel_order=order)

    @pytest.mark.parametrize("order", [[], [1], [1, 1], [0, 1, 0]])
    def test_degenerate_channel_order(self, order):
        # fewer than two channels has no pair to compare (max_violation
        # would be -inf); a repeated channel compares a channel with itself
        with pytest.raises(GeometryError, match="at least two channels"):
            nesting_violation(two_plane_model(), (8, 8, 8), -np.ones(3), np.ones(3), channel_order=order)

    def test_needs_two_channels(self):
        from test_network import linear_channel_model

        m = linear_channel_model([1.0, 0, 0])
        m.transform = DomainTransform(scale=1.0, center=np.zeros(3))
        with pytest.raises(GeometryError):
            nesting_violation(m, (8, 8, 8), -np.ones(3), np.ones(3))


class TestSplit:
    def test_sizes_and_recomposition(self):
        cloud = sphere_points(100, 1.0, seed=7)
        train, held = split_train_heldout(cloud, 70, seed=8)
        assert len(train) == 70 and len(held) == 30
        combined = np.concatenate([train.points, held.points])
        a = combined[np.lexsort(combined.T)]
        b = cloud.points[np.lexsort(cloud.points.T)]
        np.testing.assert_array_equal(a, b)

    def test_disjoint(self):
        cloud = sphere_points(50, 1.0, seed=9)
        train, held = split_train_heldout(cloud, 20, seed=10)
        tset = {tuple(p) for p in train.points}
        assert not any(tuple(p) in tset for p in held.points)

    def test_deterministic(self):
        cloud = sphere_points(40, 1.0, seed=11)
        a1, b1 = split_train_heldout(cloud, 25, seed=12)
        a2, b2 = split_train_heldout(cloud, 25, seed=12)
        np.testing.assert_array_equal(a1.points, a2.points)
        np.testing.assert_array_equal(b1.points, b2.points)

    def test_seed_matters(self):
        cloud = sphere_points(40, 1.0, seed=13)
        a1, _ = split_train_heldout(cloud, 20, seed=0)
        a2, _ = split_train_heldout(cloud, 20, seed=1)
        assert not np.array_equal(a1.points, a2.points)

    def test_bounds_checked(self):
        cloud = sphere_points(10, 1.0)
        with pytest.raises(GeometryError):
            split_train_heldout(cloud, 10, seed=0)
        with pytest.raises(GeometryError):
            split_train_heldout(cloud, -1, seed=0)
