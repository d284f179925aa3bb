import numpy as np
import pytest

from vinr.geometry import GeometryError, PointCloud
from vinr.network import forward, grad_of_loss
from vinr.training import (
    AdamState,
    EikonalSampler,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    fit,
    fit_nested,
    loss_value,
    sample_eikonal_points,
)


def desk_config(**kw):
    """Small, fast settings for tests; the library defaults are sized for real reconstructions and far too slow here."""
    base = dict(
        epochs=300,
        learning_rate=1e-3,
        hidden_layers=4,
        hidden_width=32,
        skip_layer=2,
        surface_batch_size=128,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def sphere_cloud(n=300, r=1.0, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return PointCloud(r * v)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 25_000
        assert cfg.learning_rate == 1e-4
        assert cfg.lam == 0.1
        assert cfg.hidden_layers == 6
        assert cfg.hidden_width == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(surface_batch_size=0)


class TestEikonalSampling:
    def test_bounds_and_count(self):
        rng = np.random.default_rng(0)
        surf = sphere_cloud(50, r=0.8).points
        pts = sample_eikonal_points(EikonalSampler(half_extent=1.0, sigma=0.1), surf, 1000, rng)
        assert pts.shape == (1000, 3)
        assert np.all(pts >= -1.0) and np.all(pts <= 1.0)

    def test_mixture_proportions(self):
        # the second half are perturbed surface points, so they cluster
        # near the sphere while the first half fills the cube uniformly
        rng = np.random.default_rng(1)
        surf = sphere_cloud(200, r=0.8, seed=2).points
        n = 20_000
        pts = sample_eikonal_points(EikonalSampler(half_extent=1.0, sigma=0.05), surf, n, rng)
        r_uniform = np.linalg.norm(pts[: n // 2], axis=1)
        r_perturb = np.linalg.norm(pts[n // 2 :], axis=1)
        assert np.abs(r_perturb - 0.8).mean() < 0.1
        assert np.abs(r_uniform - 0.8).mean() > 0.2

    def test_uniform_half_mean_near_zero(self):
        rng = np.random.default_rng(3)
        surf = np.array([[0.5, 0.5, 0.5]])
        n = 40_000
        pts = sample_eikonal_points(EikonalSampler(), surf, n, rng)
        # CLT bound: sd of the mean of U(-1,1) over 20k draws is ~0.0041
        assert np.abs(pts[: n // 2].mean(axis=0)).max() < 4 * (1 / np.sqrt(3)) / np.sqrt(n // 2)

    def test_determinism(self):
        surf = sphere_cloud(30).points
        a = sample_eikonal_points(EikonalSampler(), surf, 64, np.random.default_rng(7))
        b = sample_eikonal_points(EikonalSampler(), surf, 64, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_eikonal_points(EikonalSampler(), np.zeros((1, 3)), 0, np.random.default_rng(0))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # after bias correction the first update is lr * g/(|g| + eps') ~ lr * sign(g)
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.7, 0.001])
        st = AdamState.for_params([p])
        adam_step(st, [p], [g], lr=0.01)
        expect = np.array([1.0, -2.0, 0.5]) - 0.01 * np.sign(g) / (1 + 1e-8 / np.abs(g))
        np.testing.assert_allclose(p, expect, rtol=1e-12)

    def test_two_steps_hand_computed(self):
        p = np.array([0.0])
        st = AdamState.for_params([p])
        g1, g2 = np.array([1.0]), np.array([0.5])
        lr = 0.1
        adam_step(st, [p], [g1], lr)
        adam_step(st, [p], [g2], lr)
        # replay the recurrences by hand
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        q = -lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * 0.5
        v = b2 * v + (1 - b2) * 0.25
        q += -lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
        assert p[0] == pytest.approx(q, rel=1e-12)

    def test_zero_gradient_keeps_params(self):
        p = np.array([3.0, -1.0])
        st = AdamState.for_params([p])
        adam_step(st, [p], [np.zeros(2)], lr=0.1)
        np.testing.assert_array_equal(p, [3.0, -1.0])

    def test_nonfinite_gradient_raises(self):
        p = np.array([0.0])
        st = AdamState.for_params([p])
        with pytest.raises(TrainingDiverged):
            adam_step(st, [p], [np.array([np.nan])], lr=0.1)


class TestFit:
    def test_loss_decreases_on_sphere(self):
        cloud = sphere_cloud(400)
        model, report = fit(cloud, desk_config())
        trace = report.trace[: report.completed_epochs, 0]
        assert trace[-10:].mean() < 0.25 * trace[:10].mean()
        assert report.wall_time > 0

    def test_sign_structure_after_fit(self):
        cloud = sphere_cloud(400)
        model, _ = fit(cloud, desk_config(epochs=800))
        s = model.transform.scale
        center = forward(model, model.transform.apply(np.zeros((1, 3))))[0, 0] / s
        outside = forward(model, model.transform.apply(np.array([[1.6, 0, 0]])))[0, 0] / s
        assert center < 0 < outside
        # surface points should be near the zero level set
        vals = forward(model, model.transform.apply(cloud.points))[:, 0] / s
        assert np.abs(vals).mean() < 0.05

    def test_determinism(self):
        cloud = sphere_cloud(200)
        cfg = desk_config(epochs=50)
        m1, r1 = fit(cloud, cfg)
        m2, r2 = fit(cloud, cfg)
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(r1.trace, r2.trace)

    def test_seed_changes_result(self):
        cloud = sphere_cloud(200)
        m1, _ = fit(cloud, desk_config(epochs=20, seed=0))
        m2, _ = fit(cloud, desk_config(epochs=20, seed=1))
        assert any(not np.array_equal(a, b) for a, b in zip(m1.parameters(), m2.parameters()))

    def test_transform_attached(self):
        cloud = PointCloud(np.array([[10.0, 0, 0], [12.0, 0, 0], [10.0, 2, 0], [11.0, 1, 1]]))
        model, _ = fit(cloud, desk_config(epochs=2))
        mapped = model.transform.apply(cloud.points)
        assert np.abs(mapped).max() <= 0.9 + 1e-12

    def test_rejects_tiny_cloud(self):
        with pytest.raises(GeometryError):
            fit(PointCloud(np.zeros((3, 3)) + np.arange(3)[:, None]), desk_config())

    def test_report_csv(self, tmp_path):
        cloud = sphere_cloud(100)
        _, report = fit(cloud, desk_config(epochs=5))
        p = tmp_path / "trace.csv"
        report.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "epoch,total,data,eik"
        assert len(lines) == 2 + 5
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(float(row[2]) + 0.1 * float(row[3]), rel=1e-9)


class TestFitNested:
    def test_two_sphere_channels(self):
        inner = sphere_cloud(300, r=0.5, seed=0)
        outer = sphere_cloud(300, r=1.0, seed=1)
        model, _ = fit_nested([inner, outer], desk_config(epochs=800), channel_names=["in", "out"])
        assert model.arch.output_channels == 2
        assert model.channel_names == ["in", "out"]
        s = model.transform.scale
        probe = model.transform.apply(np.array([[0.75, 0, 0]]))  # between the two surfaces
        vals = forward(model, probe)[0] / s
        assert vals[0] > 0  # outside the inner sphere
        assert vals[1] < 0  # inside the outer one

    def test_shared_transform(self):
        inner = sphere_cloud(100, r=0.5)
        outer = sphere_cloud(100, r=1.0)
        model, _ = fit_nested([inner, outer], desk_config(epochs=2))
        both = np.concatenate([inner.points, outer.points])
        assert np.abs(model.transform.apply(both)).max() <= 0.9 + 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(GeometryError):
            fit_nested([], desk_config())

    def test_channel_names_must_match_clouds(self, monkeypatch):
        import vinr.training

        # raised before the first epoch, so the saved model can never be unloadable
        monkeypatch.setattr(vinr.training, "grad_of_loss", lambda *a: pytest.fail("trained first"))
        one, two = [sphere_cloud(50)], [sphere_cloud(50), sphere_cloud(50, r=0.5)]
        for clouds, names in ((one, ["a", "b"]), (two, ["lumen"])):
            with pytest.raises(ValueError, match=f"{len(names)} channel names for {len(clouds)}"):
                fit_nested(clouds, desk_config(), names)

    def test_divergence_guard(self):
        cloud = sphere_cloud(100)
        with pytest.raises(TrainingDiverged):
            fit(cloud, desk_config(epochs=2000, learning_rate=1e6))


class TestLossValue:
    def test_matches_gradient_path_decomposition(self):
        from vinr.network import MlpArchitecture, grad_of_loss, init_model

        rng = np.random.default_rng(5)
        m = init_model(MlpArchitecture(hidden_layers=2, hidden_width=8, skip_layer=2), seed=6)
        surf = rng.uniform(-0.5, 0.5, size=(10, 3))
        eik = rng.uniform(-1, 1, size=(12, 3))
        t1 = loss_value(m, [surf], eik, lam=0.1)
        t2, _ = grad_of_loss(m, [surf], eik, lam=0.1)
        assert t1.total == pytest.approx(t2.total, rel=1e-14)
        assert t1.data == pytest.approx(t2.data, rel=1e-14)
        assert t1.eikonal == pytest.approx(t2.eikonal, rel=1e-14)

    def test_perfect_sdf_on_plane(self):
        from test_network import linear_channel_model

        m = linear_channel_model([1.0, 0.0, 0.0])  # f(x) = x1, a true SDF
        surf = np.array([[0.0, 0.2, 0.3], [0.0, -0.4, 0.1]])
        eik = np.array([[0.5, 0.1, -0.2], [-0.3, 0.2, 0.9]])
        terms = loss_value(m, [surf], eik, lam=0.1)
        assert terms.total == pytest.approx(0.0, abs=1e-15)


class TestNestingPenalty:
    """The optional channel-ordering hinge of fit_nested (nesting_penalty > 0)."""

    def test_hinge_gradient_matches_central_difference(self):
        """The one-pass gradient fit_nested steps on: loss plus hinge."""
        from vinr.network import MlpArchitecture, init_model
        from vinr.training import _grad_with_nesting_hinge

        arch = MlpArchitecture(
            hidden_layers=2, hidden_width=6, output_channels=2, skip_layer=2, activation="softplus"
        )
        m = init_model(arch, seed=3)
        rng = np.random.default_rng(4)
        batch = rng.uniform(-1, 1, size=(16, 3))
        surface = [rng.uniform(-1, 1, size=(8, 3)) for _ in range(2)]
        y = forward(m, batch)
        gap = y[:, 1] - y[:, 0]
        # both sides of the hinge and of |f|, none within reach of the step below
        assert (gap > 0).any() and (gap < 0).any()
        assert np.abs(gap).min() > 1e-4
        assert min(np.abs(forward(m, s)[:, c]).min() for c, s in enumerate(surface)) > 1e-4
        lam, weight, h = 0.1, 0.5, 1e-6

        def objective():
            terms, pen, _ = _grad_with_nesting_hinge(m, surface, batch, lam, weight)
            return terms.total + pen

        terms, pen, grads = _grad_with_nesting_hinge(m, surface, batch, lam, weight)
        assert pen > 0
        assert grad_of_loss(m, surface, batch, lam)[0] == terms
        for p, g in zip(m.parameters(), grads):
            numeric = np.empty_like(p)
            for idx in np.ndindex(p.shape):
                old = p[idx]
                p[idx] = old + h
                up = objective()
                p[idx] = old - h
                down = objective()
                p[idx] = old
                numeric[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(g, numeric, rtol=1e-6, atol=1e-9)

    def test_fit_nested_with_penalty_runs(self):
        inner = sphere_cloud(100, r=0.5, seed=0)
        outer = sphere_cloud(100, r=1.0, seed=1)
        sizes = dict(epochs=20, hidden_width=16, surface_batch_size=64)
        plain, _ = fit_nested([inner, outer], desk_config(**sizes))
        model, report = fit_nested([inner, outer], desk_config(**sizes, nesting_penalty=1.0))
        assert report.completed_epochs == 20
        assert np.all(np.isfinite(report.trace))
        # the hinge changed the parameter updates
        assert any(not np.array_equal(a, b) for a, b in zip(model.parameters(), plain.parameters()))
