import tracemalloc

import einsum_oracle
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from vinr.network import (
    MlpArchitecture,
    MlpModel,
    ModelFormatError,
    _backward_pass,
    _forward_pass,
    forward,
    forward_with_input_grad,
    grad_of_loss,
    init_model,
    load_model,
    save_model,
)
from vinr.training import loss_value


def linear_channel_model(w, b=0.0):
    """Width-2 ReLU net computing w.x + b exactly via relu(u) - relu(-u)."""
    arch = MlpArchitecture(hidden_layers=1, hidden_width=2, output_channels=1, skip_layer=1)
    w = np.asarray(w, dtype=float)
    weights = [np.vstack([w, -w]), np.array([[1.0, -1.0]])]
    biases = [np.zeros(2), np.array([b])]
    return MlpModel(arch=arch, weights=weights, biases=biases)


def small_random_arch(rng):
    return MlpArchitecture(
        hidden_layers=int(rng.integers(2, 4)),
        hidden_width=int(rng.integers(4, 17)),
        output_channels=int(rng.integers(1, 3)),
        skip_layer=2,
        activation=rng.choice(["relu", "softplus"]),
    )


class TestInit:
    def test_determinism(self):
        arch = MlpArchitecture(hidden_layers=3, hidden_width=16)
        a = init_model(arch, seed=4, scheme="standard")
        b = init_model(arch, seed=4, scheme="standard")
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_sphere_scheme_signs(self):
        arch = MlpArchitecture(hidden_layers=4, hidden_width=64)
        m = init_model(arch, seed=1, scheme="sphere")
        assert forward(m, np.zeros(3))[0] < 0
        assert forward(m, np.array([0.9, 0, 0]))[0] > 0

    def test_standard_scheme_bounded(self):
        arch = MlpArchitecture(hidden_layers=6, hidden_width=256)
        m = init_model(arch, seed=2, scheme="standard")
        rng = np.random.default_rng(3)
        y = forward(m, rng.uniform(-1, 1, size=(100, 3)))
        assert np.abs(y).max() < 10


class TestForward:
    def test_zero_weights_yield_bias(self):
        arch = MlpArchitecture(hidden_layers=2, hidden_width=4, skip_layer=2)
        m = init_model(arch, seed=0, scheme="standard")
        for w in m.weights:
            w[:] = 0
        m.biases[-1][:] = 0.75
        rng = np.random.default_rng(1)
        y = forward(m, rng.uniform(-1, 1, size=(10, 3)))
        np.testing.assert_array_equal(y, np.full((10, 1), 0.75))

    def test_hand_computed_two_layer(self):
        # positive pre-activations so ReLU acts as identity
        arch = MlpArchitecture(hidden_layers=1, hidden_width=2, skip_layer=1)
        weights = [np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]]), np.array([[2.0, -1.0]])]
        biases = [np.array([10.0, 10.0]), np.array([0.25])]
        m = MlpModel(arch=arch, weights=weights, biases=biases)
        x = np.array([0.1, 0.2, 0.3])
        h1 = 1.0 * 0.1 + 2.0 * 0.2 + 3.0 * 0.3 + 10.0
        h2 = 0.5 * 0.1 - 1.0 * 0.3 + 10.0
        expect = 2.0 * h1 - 1.0 * h2 + 0.25
        assert forward(m, x)[0] == pytest.approx(expect, abs=1e-12)

    def test_negative_zero_input(self):
        arch = MlpArchitecture(hidden_layers=2, hidden_width=8, skip_layer=2)
        m = init_model(arch, seed=5, scheme="standard")
        a = forward(m, np.array([0.0, 0.3, -0.2]))
        b = forward(m, np.array([-0.0, 0.3, -0.2]))
        np.testing.assert_array_equal(a, b)


def block_rows(arch):
    """Rows per block of `forward`: ~2 MB of float64 activations."""
    return max(1, 2**18 // arch.hidden_width)


@st.composite
def split_cases(draw):
    """The desk and paper sizes and a few between; N near a multiple of the
    block size; arbitrary cuts, which may leave 1-row pieces."""
    layers, width = draw(st.sampled_from([(4, 64), (6, 256), (3, 128), (2, 32), (3, 16)]))
    arch = MlpArchitecture(
        hidden_layers=layers, hidden_width=width, skip_layer=min(3, layers),
        output_channels=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["relu", "softplus"])),
    )
    n = draw(st.integers(1, 3)) * block_rows(arch) + draw(st.sampled_from([-1, 0, 1]))
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=4, unique=True))
    return arch, n, sorted(cuts), draw(st.integers(0, 2**16))


def normwise_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestBlockedForward:
    """`forward` runs in row blocks; the split may move a value by rounding
    only (BLAS picks other kernels for few rows), never by more."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(case=split_cases())
    @example(  # N = 2 * rows + 1: a 1-row trailing block, also cut off as a piece
        case=(MlpArchitecture(hidden_layers=4, hidden_width=64), 8193, [8192], 0)
    )
    def test_row_splits_agree(self, case):
        arch, n, cuts, seed = case
        rng = np.random.default_rng(seed)
        m = init_model(arch, seed=seed, scheme="sphere")
        x = rng.uniform(-1, 1, size=(n, 3))
        y = forward(m, x)
        edges = [0, *cuts, n]
        pieces = np.concatenate([forward(m, x[a:b]) for a, b in zip(edges[:-1], edges[1:])])
        unblocked, _ = _forward_pass(m, x, 0)
        assert pieces.shape == unblocked.shape == y.shape
        assert normwise_rel(pieces, y) <= 1e-15
        assert normwise_rel(unblocked, y) <= 1e-15
        event(f"split bitwise equal: {np.array_equal(pieces, y)}")
        event(f"unblocked bitwise equal: {np.array_equal(unblocked, y)}")

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries_at_paper_size(self, offset):
        arch = MlpArchitecture(hidden_layers=6, hidden_width=256, output_channels=2)
        m = init_model(arch, seed=3, scheme="sphere")
        n = 2 * block_rows(arch) + offset
        x = np.random.default_rng(4).uniform(-1, 1, size=(n, 3))
        y = forward(m, x)
        ref = np.concatenate([_forward_pass(m, x[i : i + 1], 0)[0] for i in range(n)])
        assert normwise_rel(ref, y) <= 1e-15

    def test_empty_and_single_point(self):
        m = init_model(MlpArchitecture(hidden_layers=2, hidden_width=8, skip_layer=2), seed=0)
        assert forward(m, np.empty((0, 3))).shape == (0, 1)
        assert forward(m, np.zeros(3)).shape == (1,)

    def test_peak_memory_is_one_block(self):
        # 200k points at 6x256: one 65536-row activation matrix alone is 128 MB
        arch = MlpArchitecture(hidden_layers=6, hidden_width=256)
        m = init_model(arch, seed=0, scheme="sphere")
        x = np.random.default_rng(0).uniform(-1, 1, size=(200_000, 3))
        tracemalloc.start()
        try:
            forward(m, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_matrix = 65536 * arch.hidden_width * 8
        assert peak < one_matrix / 8


class TestInputGradients:
    def test_linear_model_gradient(self):
        w = np.array([0.3, -1.2, 2.0])
        m = linear_channel_model(w, b=0.1)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(20, 3))
        pts = pts[np.abs(pts @ w) > 1e-3]  # stay off the ReLU kink
        dual = forward_with_input_grad(m, pts)
        np.testing.assert_allclose(dual.gradients[:, 0, :], np.tile(w, (len(pts), 1)), atol=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            arch = small_random_arch(rng)
            m = init_model(arch, seed=trial, scheme="standard")
            x = rng.uniform(-0.8, 0.8, size=(4, 3))
            dual = forward_with_input_grad(m, x)
            h = 1e-4
            for b in range(len(x)):
                for k in range(3):
                    xp, xm = x[b].copy(), x[b].copy()
                    xp[k] += h
                    xm[k] -= h
                    fd = (forward(m, xp) - forward(m, xm)) / (2 * h)
                    for c in range(arch.output_channels):
                        ref = fd[c]
                        got = dual.gradients[b, c, k]
                        assert abs(got - ref) <= 1e-4 * max(abs(ref), 1e-3)

    def test_values_match_forward_bitwise(self):
        arch = MlpArchitecture(hidden_layers=3, hidden_width=12, output_channels=2)
        m = init_model(arch, seed=8, scheme="standard")
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(16, 3))
        dual = forward_with_input_grad(m, x)
        np.testing.assert_array_equal(dual.values, forward(m, x))

    def test_piecewise_linearity_of_relu_net(self):
        arch = MlpArchitecture(hidden_layers=3, hidden_width=8, activation="relu")
        m = init_model(arch, seed=10, scheme="standard")
        rng = np.random.default_rng(11)
        p = rng.uniform(-0.5, 0.5, size=3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        # tiny segment: almost surely within one linear region
        ts = np.array([0.0, 5e-7, 1e-6])
        ys = forward(m, p + ts[:, None] * d)[:, 0]
        second_diff = ys[0] - 2 * ys[1] + ys[2]
        assert abs(second_diff) < 1e-9


class TestLossGradients:
    def test_zero_loss_zero_gradient(self):
        w = np.array([1.0, 0.0, 0.0])
        m = linear_channel_model(w)  # f(x) = x1
        surface = np.array([[0.0, 0.3, -0.5], [0.0, -0.2, 0.8]])
        eik = np.array([[0.4, 0.1, 0.2], [-0.3, 0.5, -0.6]])
        terms, grads = grad_of_loss(m, [surface], eik, lam=0.0)
        assert terms.total == 0.0
        assert terms.data == 0.0
        # data-term gradient is zero; lam=0 kills the eikonal contribution
        assert all(np.abs(g).max() == 0.0 for g in grads)

    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    def test_parameter_finite_differences(self, activation):
        rng = np.random.default_rng(12)
        arch = MlpArchitecture(
            hidden_layers=2, hidden_width=8, output_channels=1, skip_layer=2, activation=activation
        )
        m = init_model(arch, seed=13, scheme="standard")
        surface = rng.uniform(-0.8, 0.8, size=(5, 3))
        eik = rng.uniform(-0.9, 0.9, size=(7, 3))
        lam = 0.1
        _, grads = grad_of_loss(m, [surface], eik, lam)
        h = 1e-5
        for pi, p in enumerate(m.parameters()):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = loss_value(m, [surface], eik, lam).total
                p[idx] = orig - h
                lm = loss_value(m, [surface], eik, lam).total
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(grads[pi][idx] - fd) <= 1e-3 * max(abs(fd), 1e-6)

    def test_lambda_linearity(self):
        rng = np.random.default_rng(14)
        arch = MlpArchitecture(hidden_layers=2, hidden_width=6, skip_layer=2)
        m = init_model(arch, seed=15, scheme="standard")
        surface = rng.uniform(-0.8, 0.8, size=(4, 3))
        eik = rng.uniform(-0.9, 0.9, size=(4, 3))
        t1, _ = grad_of_loss(m, [surface], eik, lam=0.1)
        t2, _ = grad_of_loss(m, [surface], eik, lam=0.2)
        assert (t2.total - t2.data) == pytest.approx(2 * (t1.total - t1.data), abs=1e-15)

    def test_unused_channel_does_not_disturb_others(self):
        arch1 = MlpArchitecture(hidden_layers=2, hidden_width=8, output_channels=1, skip_layer=2)
        m1 = init_model(arch1, seed=16, scheme="standard")
        arch2 = MlpArchitecture(hidden_layers=2, hidden_width=8, output_channels=2, skip_layer=2)
        weights = [w.copy() for w in m1.weights]
        biases = [b.copy() for b in m1.biases]
        weights[-1] = np.vstack([weights[-1], np.zeros((1, 8))])
        biases[-1] = np.concatenate([biases[-1], [0.0]])
        m2 = MlpModel(arch=arch2, weights=weights, biases=biases)
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, size=(10, 3))
        d1 = forward_with_input_grad(m1, x)
        d2 = forward_with_input_grad(m2, x)
        # matmul may take a different BLAS path for the wider output matrix,
        # so allow rounding-level differences
        np.testing.assert_allclose(d1.values[:, 0], d2.values[:, 0], rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(d1.gradients[:, 0], d2.gradients[:, 0], rtol=1e-14, atol=1e-16)


@st.composite
def oracle_cases(draw):
    """A random small network with nonzero biases, per-channel surface
    batches of unequal sizes, and an Eikonal batch."""
    layers = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 3))
    arch = MlpArchitecture(
        hidden_layers=layers,
        hidden_width=draw(st.integers(1, 12)),
        output_channels=channels,
        skip_layer=draw(st.sampled_from(sorted({1, min(2, layers), layers}))),
        activation=draw(st.sampled_from(["relu", "softplus"])),
    )
    sizes = draw(st.lists(st.integers(1, 9), min_size=channels, max_size=channels))
    return arch, sizes, draw(st.integers(1, 9)), draw(st.integers(0, 2**32 - 1))


def assert_rel_close(got, ref, rtol=1e-12):
    """Max-norm relative agreement; an all-zero reference needs exact zeros."""
    err = np.abs(np.asarray(got) - ref).max()
    assert err <= rtol * np.abs(ref).max(), (err, np.abs(ref).max())


class TestEinsumOracle:
    """The stacked-tangent core against the einsum (B, width, 3) Jacobian
    formulation in tests/einsum_oracle.py."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=oracle_cases())
    @example(
        case=(
            MlpArchitecture(
                hidden_layers=3, hidden_width=6, output_channels=3, skip_layer=3,
                activation="softplus",
            ),
            [1, 1, 1],
            1,
            0,
        )
    )
    def test_matches_oracle(self, case):
        arch, sizes, n_eik, seed = case
        rng = np.random.default_rng(seed)
        m = init_model(arch, seed=seed % 1000, scheme="standard")
        for b in m.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        surface = [rng.uniform(-1, 1, size=(n, 3)) for n in sizes]
        eik = rng.uniform(-1, 1, size=(n_eik, 3))

        terms, grads = grad_of_loss(m, surface, eik, lam=0.1)
        ref_terms, ref_grads = einsum_oracle.grad_of_loss(m, surface, eik, 0.1)
        for got, ref in zip((terms.total, terms.data, terms.eikonal), ref_terms):
            assert_rel_close(got, ref)
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert_rel_close(g, ref)

        y, G, _ = einsum_oracle.forward_pass(m, eik, with_jac=True)
        dual = forward_with_input_grad(m, eik)
        assert_rel_close(dual.values, y)
        assert_rel_close(dual.gradients, G)
        assert_rel_close(forward(m, eik), y)

        # value-only backward (no tangent rows)
        caches = []
        y, _ = _forward_pass(m, eik, 0, caches)
        ybar = rng.normal(size=y.shape)
        _, _, ref_caches = einsum_oracle.forward_pass(m, eik, with_jac=False)
        ref_grads = einsum_oracle.backward_pass(m, ref_caches, ybar, None)
        for g, ref in zip(_backward_pass(m, caches, ybar, None), ref_grads):
            assert_rel_close(g, ref)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        from vinr.geometry import DomainTransform

        arch = MlpArchitecture(hidden_layers=3, hidden_width=10, output_channels=3)
        m = init_model(arch, seed=18, scheme="standard")
        m.transform = DomainTransform(scale=0.45, center=np.array([0.1, 0.2, 0.3]))
        m.channel_names = ["lumen", "inner_wall", "outer_wall"]
        p = tmp_path / "m.inr"
        save_model(m, p)
        back = load_model(p)
        rng = np.random.default_rng(19)
        x = rng.uniform(-1, 1, size=(100, 3))
        np.testing.assert_array_equal(forward(m, x), forward(back, x))
        assert back.channel_names == ["lumen", "inner_wall", "outer_wall"]
        assert back.transform.scale == m.transform.scale

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.inr"
        p.write_bytes(b'{"magic": "NOPE"}\n\n')
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(p)

    def test_truncated_blob(self, tmp_path):
        arch = MlpArchitecture(hidden_layers=2, hidden_width=4, skip_layer=2)
        m = init_model(arch, seed=20, scheme="standard")
        p = tmp_path / "m.inr"
        save_model(m, p)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ModelFormatError, match="mismatch"):
            load_model(p)
