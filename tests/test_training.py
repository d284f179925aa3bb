import fit_oracle
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import vinr.training
from vinr.geometry import GeometryError, PointCloud
from vinr.network import MlpArchitecture, forward, grad_of_loss, init_model
from vinr.training import (
    AdamState,
    EikonalSampler,
    TrainConfig,
    TrainingDiverged,
    _chunks,
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
        with pytest.raises(ValueError, match="nesting_penalty"):
            TrainConfig(nesting_penalty=-1.0)
        assert TrainConfig(nesting_penalty=0.0).nesting_penalty == 0.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", np.nan, "learning rate"),
            ("learning_rate", np.inf, "learning rate"),
            ("lam", np.nan, "lambda"),
            ("lam", np.inf, "lambda"),
            ("nesting_penalty", np.nan, "nesting_penalty"),
            ("nesting_penalty", np.inf, "nesting_penalty"),
            ("half_extent", np.nan, "half_extent"),
            ("half_extent", -1.0, "half_extent"),
            ("half_extent", 0.0, "half_extent"),
            ("half_extent", 1.5, "half_extent"),
        ],
    )
    def test_nonfinite_and_out_of_range_rejected(self, field, value, message):
        # NaN fails no `<` comparison, so each check must be written to fail on it
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_half_extent_bounds_inclusive_at_one(self):
        assert TrainConfig(half_extent=1.0).half_extent == 1.0


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

    def test_matches_textbook_expressions_bitwise(self):
        # three steps on parameters of different shapes, so the scratch
        # buffers are cut to each size in turn
        rng = np.random.default_rng(3)
        params = [rng.normal(size=(5, 4)), rng.normal(size=7), rng.normal(size=(2, 3))]
        ref_p = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        st = AdamState.for_params(params)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape) for p in params]
            adam_step(st, params, grads, lr)
            for p, g, m, v in zip(ref_p, grads, ref_m, ref_v):
                m[...] = b1 * m + (1 - b1) * g
                v[...] = b2 * v + (1 - b2) * g * g
                p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert st.step_count == 3
        for got, ref in zip(params + st.m + st.v, ref_p + ref_m + ref_v):
            np.testing.assert_array_equal(got, ref)

    def test_nonfinite_gradient_raises(self):
        # before any state changes, though the bad gradient is in the last layer
        params = [np.array([1.0, -2.0]), np.array([0.5])]
        st = AdamState.for_params(params)
        adam_step(st, params, [np.array([0.3, -0.1]), np.array([0.2])], lr=0.1)
        before = [a.copy() for a in params + st.m + st.v]
        with pytest.raises(TrainingDiverged):
            adam_step(st, params, [np.array([0.1, 0.4]), np.array([np.inf])], lr=0.1)
        assert st.step_count == 1
        for a, b in zip(params + st.m + st.v, before):
            np.testing.assert_array_equal(a, b)


@st.composite
def chunked_adam_cases(draw):
    """Parameter shapes of one to three axes, a chunk size up to the total
    entry count, and a seed."""
    shapes = draw(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple), min_size=1, max_size=6))
    total = sum(int(np.prod(s)) for s in shapes)
    return shapes, draw(st.integers(1, total)), draw(st.integers(0, 2**32 - 1))


class TestChunkedAdam:
    """adam_step over chunk views of one flat vector, as fit_nested runs it,
    against adam_step over the per-layer arrays."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=chunked_adam_cases())
    @example(case=([(4, 3), (4,), (1, 4), (1,)], 7, 0))  # 7 divides the 21 entries
    @example(case=([(4, 3), (4,), (1, 4), (1,)], 8, 1))  # 8 does not
    @example(case=([(2, 2)], 4, 2))  # one chunk
    def test_matches_per_layer_steps_bitwise(self, case):
        shapes, size, seed = case
        total = sum(int(np.prod(s)) for s in shapes)
        event(f"chunk size {'divides' if total % size == 0 else 'does not divide'} the total")
        rng = np.random.default_rng(seed)
        per_layer = [rng.normal(size=s) for s in shapes]
        flat = np.concatenate([p.ravel() for p in per_layer])
        chunks = _chunks(flat, size)
        assert [c.size for c in chunks] == [size] * (total // size) + ([total % size] if total % size else [])
        by_layer = AdamState.for_params(per_layer)
        by_chunk = AdamState(m=_chunks(np.zeros(total), size), v=_chunks(np.zeros(total), size))
        for _ in range(3):
            grads = [rng.normal(size=s) for s in shapes]
            adam_step(by_layer, per_layer, grads, 0.01)
            adam_step(by_chunk, chunks, _chunks(np.concatenate([g.ravel() for g in grads]), size), 0.01)
        assert by_chunk.step_count == by_layer.step_count == 3
        for got, ref in [(chunks, per_layer), (by_chunk.m, by_layer.m), (by_chunk.v, by_layer.v)]:
            np.testing.assert_array_equal(np.concatenate(got), np.concatenate([a.ravel() for a in ref]))

        # a non-finite entry in the last chunk raises before any chunk moves
        bad = rng.normal(size=total)
        bad[-1] = np.nan if seed % 2 else np.inf
        before = [np.concatenate(a).copy() for a in (chunks, by_chunk.m, by_chunk.v)]
        with pytest.raises(TrainingDiverged):
            adam_step(by_chunk, chunks, _chunks(bad, size), 0.01)
        assert by_chunk.step_count == 3
        for a, b in zip((chunks, by_chunk.m, by_chunk.v), before):
            np.testing.assert_array_equal(np.concatenate(a), b)


class TestFit:
    def test_loss_decreases_on_sphere(self):
        cloud = sphere_cloud(400)
        model, report = fit(cloud, desk_config())
        trace = report.trace[:, 0]
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
        assert lines[1] == "epoch,total,data,eik,nesting"
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
        # raised before the first epoch, so the saved model can never be unloadable
        monkeypatch.setattr(vinr.training, "grad_of_loss", lambda *a: pytest.fail("trained first"))
        one, two = [sphere_cloud(50)], [sphere_cloud(50), sphere_cloud(50, r=0.5)]
        for clouds, names in ((one, ["a", "b"]), (two, ["lumen"])):
            with pytest.raises(ValueError, match=f"{len(names)} channel names for {len(clouds)}"):
                fit_nested(clouds, desk_config(), names)

    @pytest.mark.parametrize("clouds, kw", [
        # a surface batch smaller than the cloud, so each epoch draws it
        ([sphere_cloud(90)], dict(activation="relu", surface_batch_size=40)),
        ([sphere_cloud(60, r=0.5, seed=1), sphere_cloud(80, seed=2)],
         dict(activation="softplus", surface_batch_size=None, nesting_penalty=0.5)),
    ])
    @pytest.mark.parametrize("chunk", [vinr.training.ADAM_CHUNK, 1000])
    def test_matches_per_layer_oracle_bitwise(self, monkeypatch, clouds, kw, chunk):
        # the flat parameter, gradient and moment vectors, stepped in chunks
        # of the default size (one chunk here) and of a size that cuts them
        # into several, against per-layer arrays and fresh gradients
        monkeypatch.setattr(vinr.training, "ADAM_CHUNK", chunk)
        cfg = desk_config(epochs=25, hidden_layers=3, hidden_width=24, **kw)
        model, report = fit_nested(clouds, cfg)
        ref_model, ref_trace = fit_oracle.fit_nested(clouds, cfg)
        np.testing.assert_array_equal(report.trace, ref_trace)
        for got, ref in zip(model.parameters(), ref_model.parameters()):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)
        # the model's arrays are consecutive views of one vector, in .inr order
        flat = model.weights[0].base
        assert flat.size == model.arch.param_count()
        np.testing.assert_array_equal(flat, np.concatenate([p.ravel() for p in ref_model.parameters()]))
        assert all(p.base is flat for p in model.parameters())

    def test_divergence_guard(self):
        cloud = sphere_cloud(100)
        with pytest.raises(TrainingDiverged):
            fit(cloud, desk_config(epochs=2000, learning_rate=1e6))


class TestLossValue:
    def test_matches_gradient_path_decomposition(self):
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

    @pytest.mark.parametrize("lam, nesting", [(np.nan, 0.0), (0.1, np.nan), (-0.1, 0.0), (0.1, -1.0)])
    def test_nan_or_negative_weight_rejected(self, lam, nesting):
        m = init_model(MlpArchitecture(hidden_layers=2, hidden_width=8, skip_layer=2), seed=6)
        pts = np.random.default_rng(5).uniform(-1, 1, size=(6, 3))
        with pytest.raises(ValueError, match="must be non-negative"):
            grad_of_loss(m, [pts], pts, lam, nesting)


class TestNestingPenalty:
    """The optional channel-ordering hinge, weighted by nesting_penalty in
    the one loss that grad_of_loss differentiates."""

    @staticmethod
    def two_channel_case():
        arch = MlpArchitecture(
            hidden_layers=2, hidden_width=6, output_channels=2, skip_layer=2, activation="softplus"
        )
        m = init_model(arch, seed=3)
        rng = np.random.default_rng(4)
        batch = rng.uniform(-1, 1, size=(16, 3))
        surface = [rng.uniform(-1, 1, size=(8, 3)) for _ in range(2)]
        y = forward(m, batch)
        gap = y[:, 1] - y[:, 0]
        # both sides of the hinge and of |f|, none within reach of a central-difference step
        assert (gap > 0).any() and (gap < 0).any()
        assert np.abs(gap).min() > 1e-4
        assert min(np.abs(forward(m, s)[:, c]).min() for c, s in enumerate(surface)) > 1e-4
        return m, surface, batch

    def test_hinge_gradient_matches_central_difference(self):
        """The one-pass gradient fit_nested steps on: loss plus weighted hinge."""
        m, surface, batch = self.two_channel_case()
        lam, weight, h = 0.1, 0.5, 1e-6
        terms, grads = grad_of_loss(m, surface, batch, lam, weight)
        assert terms.nesting > 0
        for p, g in zip(m.parameters(), grads):
            numeric = np.empty_like(p)
            for idx in np.ndindex(p.shape):
                old = p[idx]
                p[idx] = old + h
                up = loss_value(m, surface, batch, lam, weight).total
                p[idx] = old - h
                down = loss_value(m, surface, batch, lam, weight).total
                p[idx] = old
                numeric[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(g, numeric, rtol=1e-6, atol=1e-9)

    def test_total_includes_weighted_hinge(self):
        m, surface, batch = self.two_channel_case()
        lam = 0.1
        off, _ = grad_of_loss(m, surface, batch, lam)
        assert off.nesting > 0 and off.total == off.data + lam * off.eikonal
        for weight in (0.5, 2.0):
            terms, _ = grad_of_loss(m, surface, batch, lam, weight)
            assert terms.total == terms.data + lam * terms.eikonal + weight * terms.nesting
            assert (terms.data, terms.eikonal, terms.nesting) == (off.data, off.eikonal, off.nesting)
            assert loss_value(m, surface, batch, lam, weight) == terms
        with pytest.raises(ValueError):
            grad_of_loss(m, surface, batch, lam, -0.5)

    def test_single_channel_has_no_hinge(self):
        rng = np.random.default_rng(8)
        m = init_model(MlpArchitecture(hidden_layers=2, hidden_width=6, skip_layer=2), seed=9)
        surface, batch = rng.uniform(-1, 1, size=(8, 3)), rng.uniform(-1, 1, size=(10, 3))
        off, off_grads = grad_of_loss(m, surface, batch, 0.1)
        terms, grads = grad_of_loss(m, surface, batch, 0.1, 3.0)
        assert terms == off and terms.nesting == 0.0
        for g, ref in zip(grads, off_grads):
            assert g.tobytes() == ref.tobytes()

    def test_fit_nested_with_penalty_runs(self):
        inner = sphere_cloud(100, r=0.5, seed=0)
        outer = sphere_cloud(100, r=1.0, seed=1)
        sizes = dict(epochs=20, hidden_width=16, surface_batch_size=64)
        plain, _ = fit_nested([inner, outer], desk_config(**sizes))
        model, report = fit_nested([inner, outer], desk_config(**sizes, nesting_penalty=0.5))
        assert report.trace.shape == (20, 4)
        assert np.all(np.isfinite(report.trace))
        # the reported total is the objective Adam steps on: its columns account for all of it
        total, data, eik, nesting = report.trace.T
        np.testing.assert_allclose(total, data + 0.1 * eik + 0.5 * nesting, rtol=0, atol=1e-12)
        assert np.any(nesting > 0)
        # the hinge changed the parameter updates
        assert any(not np.array_equal(a, b) for a, b in zip(model.parameters(), plain.parameters()))
