import copy
import functools
import json
import math
import multiprocessing
import pickle
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import einsum_oracle
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import vinr.network
from vinr.geometry import DomainTransform
from vinr.network import (
    INPUT_DIM,
    MlpArchitecture,
    MlpModel,
    ModelFormatError,
    _act,
    _act_d1,
    _act_d2,
    _backward_pass,
    _EvalRows,
    _forward_pass,
    _TrainRows,
    forward,
    forward_with_input_grad,
    grad_of_loss,
    init_model,
    load_model,
    loss_value,
    loss_workspace,
    param_views,
    save_model,
)


def model_from_layers(arch, weights, biases):
    """An MlpModel whose parameter vector concatenates per-layer arrays in
    .inr order: W1, b1, ..., Wout, bout."""
    return MlpModel(arch, np.concatenate([np.ravel(a) for w, b in zip(weights, biases) for a in (w, b)]))


def linear_channel_model(w, b=0.0):
    """Width-2 ReLU net computing w.x + b exactly via relu(u) - relu(-u)."""
    arch = MlpArchitecture(hidden_layers=1, hidden_width=2, output_channels=1, skip_layer=1)
    w = np.asarray(w, dtype=float)
    weights = [np.vstack([w, -w]), np.array([[1.0, -1.0]])]
    biases = [np.zeros(2), np.array([b])]
    return model_from_layers(arch, weights, biases)


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
        np.testing.assert_array_equal(a.params, b.params)

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
        m = model_from_layers(arch, weights, biases)
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


def whole_batch(m, x):
    """The core on all of x at once, in a workspace of its own."""
    return _forward_pass(m, x, _EvalRows(m.arch, len(x), 0).inputs)


def block_rows(arch):
    """Rows per block of `forward` and `forward_with_input_grad`: ~0.25 MB
    of float64 activations, in whole groups of 8 rows."""
    return max(8, 2**15 // arch.hidden_width // 8 * 8)


def whole_block(m, x):
    """The core on x (at most one block of points) in a fresh workspace of a
    full block, whose rows past x are zeros."""
    return _forward_pass(m, x, _EvalRows(m.arch, block_rows(m.arch), 0).inputs)[: len(x)]


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
    """`forward` runs every row block over a full block of rows, so a split
    of the batch gives each row the same bits; one product over the whole
    batch takes other BLAS kernels and agrees to rounding only."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(case=split_cases())
    @example(  # N = 2 * rows + 1: a 1-row trailing block, also cut off as a piece
        case=(MlpArchitecture(hidden_layers=4, hidden_width=64), 1025, [1024], 0)
    )
    # several channels, whose output layer BLAS computes with a kernel it
    # picks by the product's size: pieces of 1 and 37 rows
    @example(case=(MlpArchitecture(hidden_layers=6, hidden_width=256, output_channels=2), 257, [1, 38], 1))
    @example(
        case=(
            MlpArchitecture(hidden_layers=3, hidden_width=32, output_channels=3, skip_layer=2, activation="softplus"),
            2049, [1, 38, 1000], 2,
        )
    )
    def test_row_splits_agree(self, case):
        arch, n, cuts, seed = case
        rng = np.random.default_rng(seed)
        m = init_model(arch, seed=seed, scheme="sphere")
        x = rng.uniform(-1, 1, size=(n, 3))
        y = forward(m, x)
        edges = [0, *cuts, n]
        pieces = np.concatenate([forward(m, x[a:b]) for a, b in zip(edges[:-1], edges[1:])])
        unblocked = whole_batch(m, x)
        assert pieces.shape == unblocked.shape == y.shape
        np.testing.assert_array_equal(pieces, y)
        assert normwise_rel(unblocked, y) <= 1e-15
        event(f"unblocked bitwise equal: {np.array_equal(unblocked, y)}")

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries_at_paper_size(self, offset):
        arch = MlpArchitecture(hidden_layers=6, hidden_width=256, output_channels=2)
        m = init_model(arch, seed=3, scheme="sphere")
        n = 2 * block_rows(arch) + offset
        x = np.random.default_rng(4).uniform(-1, 1, size=(n, 3))
        y = forward(m, x)
        ref = np.concatenate([whole_batch(m, x[i : i + 1]) for i in range(n)])
        assert normwise_rel(ref, y) <= 1e-15

    def test_empty_and_single_point(self):
        m = init_model(MlpArchitecture(hidden_layers=2, hidden_width=8, skip_layer=2), seed=0)
        assert forward(m, np.empty((0, 3))).shape == (0, 1)
        assert forward(m, np.zeros(3)).shape == (1, 1)

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

    def test_input_grad_blocks_agree(self):
        # 2^15 / 64 = 512 points per block: four full blocks and a 1-point
        # one, against the einsum Jacobian of the whole batch at once
        m = init_model(MlpArchitecture(hidden_layers=4, hidden_width=64), seed=1, scheme="sphere")
        x = np.random.default_rng(1).uniform(-1, 1, size=(2049, 3))
        dual = forward_with_input_grad(m, x)
        y, G, _ = einsum_oracle.forward_pass(m, x, with_jac=True)
        assert normwise_rel(dual.values, y) <= 1e-15
        assert normwise_rel(dual.gradients, G) <= 1e-15

    def test_input_grad_peak_memory_is_one_block(self):
        # 8192 points at 6x256 carry 32768 rows: 64 MB per activation
        # matrix unblocked, 1 MB in blocks of 128 points, one per thread
        m = init_model(MlpArchitecture(hidden_layers=6, hidden_width=256), seed=0, scheme="sphere")
        x = np.random.default_rng(0).uniform(-1, 1, size=(8192, 3))
        tracemalloc.start()
        try:
            forward_with_input_grad(m, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20 / 8


def per_block(m, x):
    """The core on each row block of `forward` in turn, on this thread with
    the BLAS's own threads, each block in a fresh workspace."""
    rows = block_rows(m.arch)
    return np.concatenate([whole_block(m, x[s : s + rows]) for s in range(0, len(x), rows)])


def forward_in_child(m, x, expected):
    """Process target: exit 0 when `forward` reproduces `expected`."""
    sys.exit(0 if np.array_equal(forward(m, x), expected) else 1)


class TestEvaluationThreads:
    """The evaluation pass runs its row blocks, a lone one too, at one BLAS
    thread, two or more on one thread per BLAS thread; where no control of
    the BLAS is found, they run on the calling thread. Each thread keeps one
    workspace."""

    ARCHS = [
        MlpArchitecture(hidden_layers=4, hidden_width=64),
        MlpArchitecture(hidden_layers=6, hidden_width=256, output_channels=2),
        MlpArchitecture(hidden_layers=3, hidden_width=32, output_channels=3, skip_layer=2, activation="softplus"),
        MlpArchitecture(hidden_layers=3, hidden_width=16, skip_layer=1),
    ]

    @staticmethod
    def model_and_points(arch, n, seed=0):
        m = init_model(arch, seed=seed, scheme="sphere")
        for b in m.biases:  # biases away from zero, so the ones column is exercised
            b += np.random.default_rng(seed).normal(0.0, 0.1, size=b.shape)
        return m, np.random.default_rng(seed + 1).uniform(-1, 1, size=(n, 3))

    @pytest.mark.parametrize("arch", ARCHS, ids=["4x64", "6x256-C2", "3x32-softplus-C3", "skip1"])
    def test_pool_matches_one_worker_and_blocks(self, arch, monkeypatch):
        rows = block_rows(arch)
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 5 * rows + 3):
            m, x = self.model_and_points(arch, n)
            pooled = forward(m, x)
            with monkeypatch.context() as mp:
                mp.setattr(vinr.network, "_blas_control", lambda: None)
                one_worker = forward(m, x)
            np.testing.assert_array_equal(pooled, one_worker)
            np.testing.assert_array_equal(pooled, per_block(m, x))
            # a call of one point runs a full block too: the same bits
            per_row = np.concatenate([forward(m, x[i : i + 1]) for i in range(n)])
            np.testing.assert_array_equal(per_row, pooled)

    def test_thread_count_restored(self, monkeypatch):
        arch = self.ARCHS[0]
        m, x = self.model_and_points(arch, 3 * block_rows(arch) + 1)
        expected = per_block(m, x)
        blas = vinr.network._blas_control()
        if blas is None:  # no control of the BLAS: the blocks run on the calling thread
            np.testing.assert_array_equal(forward(m, x), expected)
            assert vinr.network._POOL is None
            return
        start = blas[0]()
        try:
            for count in (1, 2):  # inline, then on the pool
                blas[1](count)
                np.testing.assert_array_equal(forward(m, x), expected)
                assert blas[0]() == count
            assert vinr.network._POOL[0] == 2

            # a block that raises on a pool thread: the error reaches the
            # caller, the count is restored, and the next call works; while
            # the blocks run, the BLAS is held to one thread
            real, held = vinr.network._forward_pass, []

            def failing(model, pts, inputs, layers):
                if threading.current_thread() is threading.main_thread():
                    held.append(blas[0]())
                    time.sleep(0.05)  # leaves blocks to the pool
                    return real(model, pts, inputs, layers)
                raise FloatingPointError("planted")

            with monkeypatch.context() as mp:
                mp.setattr(vinr.network, "_forward_pass", failing)
                with pytest.raises(FloatingPointError, match="planted"):
                    forward(m, x)
            assert held and set(held) == {1}
            assert blas[0]() == 2
            np.testing.assert_array_equal(forward(m, x), expected)
        finally:
            blas[1](start)

    def test_input_grad_bits_do_not_depend_on_the_thread_count(self, monkeypatch):
        # at 6x256 the sweep's products round differently at one and two
        # BLAS threads; every block runs at one, a call of one block too
        blas = vinr.network._blas_control()
        if blas is None:
            pytest.skip("no control of the BLAS")
        arch = MlpArchitecture(hidden_layers=6, hidden_width=256)
        m, x = self.model_and_points(arch, 3 * block_rows(arch) + 5)
        start = blas[0]()
        try:
            runs = []
            for count in (1, 2):
                blas[1](count)
                runs.append([forward_with_input_grad(m, pts) for pts in (x, x[:37])])
                assert blas[0]() == count
            with monkeypatch.context() as mp:  # the blocks in turn on this thread, the BLAS at one thread
                blas[1](1)
                mp.setattr(vinr.network, "_blas_control", lambda: None)
                runs.append([forward_with_input_grad(m, pts) for pts in (x, x[:37])])
        finally:
            blas[1](start)
        for run in runs[1:]:
            for got, ref in zip(run, runs[0]):
                np.testing.assert_array_equal(got.values, ref.values)
                np.testing.assert_array_equal(got.gradients, ref.gradients)
        np.testing.assert_array_equal(runs[0][1].gradients, runs[0][0].gradients[:37])
        np.testing.assert_array_equal(runs[0][0].values, forward(m, x))

    @pytest.mark.parametrize("n", [1, 1024])  # 1024: one full block at width 32
    def test_one_block_runs_at_one_blas_thread(self, n, monkeypatch):
        m, x = self.model_and_points(self.ARCHS[2], n)
        expected = whole_block(m, x)
        blas = vinr.network._blas_control()
        if blas is None:
            np.testing.assert_array_equal(forward(m, x), expected)
            return
        real, held, start = vinr.network._forward_pass, [], blas[0]()

        def counting(*args):
            held.append((blas[0](), threading.current_thread() is threading.main_thread()))
            return real(*args)

        monkeypatch.setattr(vinr.network, "_forward_pass", counting)
        try:
            blas[1](2)
            np.testing.assert_array_equal(forward(m, x), expected)
            assert held == [(1, True)]
            assert blas[0]() == 2
        finally:
            blas[1](start)

    def test_one_workspace_serves_every_sweep(self, monkeypatch):
        # a sweep of all three channels, then of one, then values alone, on
        # this thread: the narrower passes read the leading rows of the
        # first one's workspace, whose rows past the points are stale, and
        # give the bits of the same call on fresh workspaces
        m, x = self.model_and_points(self.ARCHS[2], 2 * block_rows(self.ARCHS[2]) + 5)
        calls = [
            lambda: forward_with_input_grad(m, x, channels=[0, 1, 2]),
            lambda: forward_with_input_grad(m, x, channels=[2]),
            lambda: forward(m, x),
        ]
        monkeypatch.setattr(vinr.network, "_blas_control", lambda: None)  # every block on this thread
        fresh = []
        for call in calls:
            monkeypatch.setattr(vinr.network, "_LOCAL", threading.local())
            fresh.append(call())
        monkeypatch.setattr(vinr.network, "_LOCAL", threading.local())
        reused, kept = [], []
        for call in calls:
            reused.append(call())
            kept.append(vars(vinr.network._LOCAL).copy())
        assert all(k.keys() == {"rows"} and k["rows"] is kept[0]["rows"] for k in kept)
        assert kept[0]["rows"].n_swept == 3
        for got, ref in zip(reused[:2], fresh[:2]):
            np.testing.assert_array_equal(got.values, ref.values)
            np.testing.assert_array_equal(got.gradients, ref.gradients)
        np.testing.assert_array_equal(reused[2], fresh[2])

    def test_forked_child_evaluates(self):
        # a child forked after a pooled call inherits the executor but not its
        # threads; it must build its own pool rather than wait on that one
        arch = self.ARCHS[0]
        m, x = self.model_and_points(arch, 4 * block_rows(arch))
        expected = forward(m, x)
        child = multiprocessing.get_context("fork").Process(target=forward_in_child, args=(m, x, expected))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung in forward")
        assert child.exitcode == 0


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
                    fd = (forward(m, xp)[0] - forward(m, xm)[0]) / (2 * h)
                    for c in range(arch.output_channels):
                        ref = fd[c]
                        got = dual.gradients[b, c, k]
                        assert abs(got - ref) <= 1e-4 * max(abs(ref), 1e-3)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 16, 2**16 // 12], ids=["one", "16", "one-gradient-block"])
    def test_values_match_forward_bitwise(self, channels, n):
        # the values come from the same value-only GEMMs as forward's, over
        # the same row blocks, so they are bitwise equal for any batch
        arch = MlpArchitecture(hidden_layers=3, hidden_width=12, output_channels=channels)
        m = init_model(arch, seed=8, scheme="standard")
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(n, 3))
        dual = forward_with_input_grad(m, x)
        np.testing.assert_array_equal(dual.values, forward(m, x))

    @pytest.mark.parametrize("channels", [[2, 0], [1, 1]])
    def test_channels_in_any_order_match_the_oracle(self, channels):
        arch = MlpArchitecture(hidden_layers=3, hidden_width=32, output_channels=3, skip_layer=2, activation="softplus")
        m = init_model(arch, seed=8, scheme="standard")
        x = np.random.default_rng(9).uniform(-1, 1, size=(300, 3))
        y, G, _ = einsum_oracle.forward_pass(m, x, with_jac=True)
        dual = forward_with_input_grad(m, x, channels=channels)
        np.testing.assert_array_equal(dual.values, forward(m, x)[:, channels])
        assert_rel_close(dual.values, y[:, channels])
        assert_rel_close(dual.gradients, G[:, channels])

    @pytest.mark.parametrize("channels", [[5], [-1], [0, 2]])
    def test_channel_out_of_range_is_named(self, channels):
        m = init_model(MlpArchitecture(hidden_layers=2, hidden_width=8, output_channels=2, skip_layer=2), seed=0)
        with pytest.raises(ValueError, match=rf"channel {channels[-1]} out of range 0\.\.1"):
            forward_with_input_grad(m, np.zeros((4, 3)), channels=channels)

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

    @pytest.mark.parametrize("activation, channels", [
        pytest.param(a, c, id=a if c == 1 else f"{a}-C{c}") for c in (1, 2, 3, 4) for a in ("relu", "softplus")
    ])
    def test_parameter_finite_differences(self, activation, channels):
        rng = np.random.default_rng(12)
        arch = MlpArchitecture(
            hidden_layers=2, hidden_width=8, output_channels=channels, skip_layer=2, activation=activation
        )
        m = init_model(arch, seed=13, scheme="standard")
        surface = [rng.uniform(-0.8, 0.8, size=(5, 3)) for _ in range(channels)]
        eik = rng.uniform(-0.9, 0.9, size=(7, 3))
        lam, nesting = 0.1, 0.5 * (channels > 1)
        _, grads = grad_of_loss(m, surface, eik, lam, nesting)
        h = 1e-5
        for pi, p in enumerate(param_views(arch, m.params)):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = loss_value(m, surface, eik, lam, nesting).total
                p[idx] = orig - h
                lm = loss_value(m, surface, eik, lam, nesting).total
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
        weights, biases = list(m1.weights), list(m1.biases)
        weights[-1] = np.vstack([weights[-1], np.zeros((1, 8))])
        biases[-1] = np.concatenate([biases[-1], [0.0]])
        m2 = model_from_layers(arch2, weights, biases)
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, size=(10, 3))
        d1 = forward_with_input_grad(m1, x)
        d2 = forward_with_input_grad(m2, x)
        # matmul may take a different BLAS path for the wider output matrix,
        # so allow rounding-level differences
        np.testing.assert_allclose(d1.values[:, 0], d2.values[:, 0], rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(d1.gradients[:, 0], d2.gradients[:, 0], rtol=1e-14, atol=1e-16)


def nbytes(ws, arrays=None):
    """Bytes of the distinct buffers a workspace holds, its row blocks'
    included: a view counts as the array it views, once."""
    arrays = {} if arrays is None else arrays
    for v in vars(ws).values():
        for a in v if isinstance(v, list) else [v]:
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                arrays[id(owner)] = owner.nbytes
            elif isinstance(a, _TrainRows):
                nbytes(a, arrays)
    return sum(arrays.values())


class TestActivationDerivatives:
    """act' and act''/act' read from the activation's output h = act(z),
    against their stable pre-activation forms over beta z in [-700, 700],
    where exp(beta z) stays finite."""

    SOFTPLUS = MlpArchitecture(hidden_layers=1, hidden_width=1, skip_layer=1, activation="softplus")

    def pre_activations(self):
        """z, sigma(beta z) and beta / (1 + exp(beta z)) = beta sigma(-beta z)."""
        beta = self.SOFTPLUS.softplus_beta
        bz = np.concatenate([np.linspace(-700.0, 700.0, 14001), [29.99, 30.0, 30.01, 36.99, 37.0, 37.01]])
        z = bz / beta
        bz = beta * z  # as _act rounds it
        return z, einsum_oracle._sigmoid(bz), beta * einsum_oracle._sigmoid(-bz)

    def test_softplus_d1_is_sigmoid(self):
        z, sigma, _ = self.pre_activations()
        d1 = _act_d1(self.SOFTPLUS, _act(self.SOFTPLUS, z))
        assert np.max(np.abs(d1 / sigma - 1.0)) <= 1e-14

    def test_softplus_d2_is_stable_ratio(self):
        z, _, ratio = self.pre_activations()
        d2 = _act_d2(self.SOFTPLUS, _act(self.SOFTPLUS, z))
        assert np.max(np.abs(d2 / ratio - 1.0)) <= 1e-14

    def test_relu_reads_sign(self):
        relu = MlpArchitecture(hidden_layers=1, hidden_width=1, skip_layer=1)
        z = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, np.inf])
        np.testing.assert_array_equal(_act_d1(relu, _act(relu, z)), z > 0)
        assert _act_d2(relu, _act(relu, z)) is None

    def test_workspace_bytes_independent_of_activation(self):
        relu = init_model(MlpArchitecture(4, 16, 2, 3), seed=0)
        softplus = init_model(MlpArchitecture(4, 16, 2, 3, "softplus"), seed=0)
        assert nbytes(loss_workspace(softplus, [5, 6], 7)) == nbytes(loss_workspace(relu, [5, 6], 7))

    @pytest.mark.parametrize("arch, n_surface, n_eik", [
        (MlpArchitecture(6, 256, 1, 3), 1024, 1024),
        (MlpArchitecture(4, 64, 1, 3, "softplus"), 200, 200),
        (MlpArchitecture(3, 16, 1, 1), 5, 9),
        (MlpArchitecture(2, 8, 1, 2), 9, 5),
    ])
    def test_single_channel_workspace_within_three_tangent_blocks(self, arch, n_surface, n_eik):
        # a training workspace that carried three tangent blocks under the N
        # value rows held N + 3 T rows in x0 and in every layer's input buffer,
        # and its backward allocated the parameter gradient on every call,
        # which the workspace now holds
        rows = n_surface + n_eik + INPUT_DIM * n_eik
        widths = INPUT_DIM + sum(arch.layer_in_dim(l) for l in range(2, arch.hidden_layers + 2))
        ws = loss_workspace(init_model(arch, seed=0), [n_surface], n_eik)
        assert ws.grad.nbytes == 8 * arch.param_count()
        assert nbytes(ws) <= 8 * rows * widths + ws.grad.nbytes


@st.composite
def oracle_cases(draw):
    """A random small network with nonzero biases, per-channel surface
    batches of unequal sizes, an Eikonal batch, and a nesting weight that is
    0 or positive for C >= 2 (C = 1 has no channel pairs)."""
    layers = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 4))
    arch = MlpArchitecture(
        hidden_layers=layers,
        hidden_width=draw(st.integers(1, 12)),
        output_channels=channels,
        skip_layer=draw(st.sampled_from(sorted({1, min(2, layers), layers}))),
        activation=draw(st.sampled_from(["relu", "softplus"])),
    )
    sizes = draw(st.lists(st.integers(1, 9), min_size=channels, max_size=channels))
    nesting = 0.0
    if channels >= 2:
        nesting = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    return arch, sizes, draw(st.integers(1, 9)), draw(st.integers(0, 2**32 - 1)), nesting


def rows_left_by_loss(model, surface, eik, ws):
    """What the last grad_of_loss call in training workspace `ws` left in
    its row blocks: whether every hidden layer's Eikonal value rows (each
    block's first rows) still hold the forward pass's outputs rather than
    adjoints, and the spatial gradients (T, C, 3) that the blocks' carried
    rows, which end as the masked gradient-sweep rows, give through the xyz
    columns of layer 1 and of the skip layer."""
    arch, width = model.arch, model.arch.hidden_width
    untouched, G = True, []
    for j, rows in enumerate(ws.blocks):
        N, T = rows.n_rows, rows.n_tangent
        x = np.concatenate([b[c[j] : c[j + 1]] for b, c in zip([eik] + surface, ws.cuts)])
        fresh = _TrainRows(arch, N, T)
        _forward_pass(model, x, [buf[:N] for buf in fresh.inputs])
        untouched &= all(np.array_equal(a[:T, :width], b[:T, :width]) for a, b in zip(rows.inputs[1:], fresh.inputs[1:]))
        g = sum(rows.inputs[l][N:, :width] @ model.weights[l - 1][:, -INPUT_DIM:] for l in {1, arch.skip_layer})
        G.append(g.reshape(arch.output_channels, T, INPUT_DIM).transpose(1, 0, 2))
    return untouched, np.concatenate(G)


def row_buffers(ws):
    """Every row buffer of a training workspace's blocks."""
    return [buf for rows in ws.blocks for buf in rows.inputs + rows.adjoints]


def assert_rel_close(got, ref, rtol=1e-12):
    """Max-norm relative agreement; an all-zero reference needs exact zeros."""
    err = np.abs(np.asarray(got) - ref).max()
    assert err <= rtol * np.abs(ref).max(), (err, np.abs(ref).max())


class TestEinsumOracle:
    """The row-stacked core, its sweeps and its workspace against the einsum
    (B, width, 3) Jacobian formulation in tests/einsum_oracle.py."""

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
            0.5,
        )
    )
    # one explicit case per channel count and activation, with the skip layer
    # above layer 1 so the reused workspace also covers the skip buffer's xyz
    # columns, which the tangent sweep fills with Gbar
    @example(case=(MlpArchitecture(3, 7, 1, 2, "relu"), [5], 6, 1, 0.0))
    @example(case=(MlpArchitecture(3, 7, 1, 3, "softplus"), [4], 5, 2, 0.0))
    @example(case=(MlpArchitecture(3, 7, 2, 2, "relu"), [3, 6], 7, 3, 0.8))
    @example(case=(MlpArchitecture(2, 5, 2, 2, "softplus"), [4, 2], 6, 4, 1.5))
    @example(case=(MlpArchitecture(3, 6, 3, 2, "relu"), [2, 3, 4], 5, 5, 0.3))
    @example(case=(MlpArchitecture(2, 6, 4, 2, "relu"), [2, 3, 4, 5], 6, 6, 0.7))
    @example(case=(MlpArchitecture(3, 8, 4, 3, "softplus"), [3, 1, 2, 4], 5, 7, 2.0))
    # the Eikonal value rows skipped by the backward: ReLU at C = 1, at C = 2
    # with nesting 0 and with an idle hinge (seed 0), and at C = 4 (idle
    # hinge at seed 40); carried: an active hinge (seed 1) and softplus
    @example(case=(MlpArchitecture(4, 9, 1, 3, "relu"), [6], 8, 11, 0.0))
    @example(case=(MlpArchitecture(3, 8, 2, 2, "relu"), [4, 5], 7, 1, 0.0))
    @example(case=(MlpArchitecture(3, 8, 2, 2, "relu"), [4, 5], 7, 0, 1.0))
    @example(case=(MlpArchitecture(2, 6, 4, 2, "relu"), [2, 3, 4, 5], 6, 40, 1.0))
    @example(case=(MlpArchitecture(3, 8, 2, 2, "relu"), [4, 5], 7, 1, 1.0))
    @example(case=(MlpArchitecture(3, 8, 1, 2, "softplus"), [4], 7, 1, 0.0))
    # active hinges: softplus at C = 2 (seed 21), ReLU at C = 4 (seed 20);
    # skip layer 1, whose xyz columns are the whole input (seed 22: active
    # hinge); width 64 with batches large enough for BLAS's blocked kernels
    @example(case=(MlpArchitecture(3, 8, 2, 2, "softplus"), [4, 5], 7, 21, 1.0))
    @example(case=(MlpArchitecture(3, 8, 4, 3, "relu"), [3, 4, 2, 5], 6, 20, 0.5))
    @example(case=(MlpArchitecture(3, 7, 2, 1, "relu"), [5, 3], 6, 22, 0.8))
    @example(case=(MlpArchitecture(3, 7, 1, 1, "softplus"), [5], 6, 23, 0.0))
    @example(case=(MlpArchitecture(4, 64, 2, 3, "softplus"), [48, 80], 96, 20, 0.5))
    def test_matches_oracle(self, case):
        arch, sizes, n_eik, seed, nesting = case
        rng = np.random.default_rng(seed)
        m = init_model(arch, seed=seed % 1000, scheme="standard")
        for b in m.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        surface = [rng.uniform(-1, 1, size=(n, 3)) for n in sizes]
        eik = rng.uniform(-1, 1, size=(n_eik, 3))

        terms, grads = grad_of_loss(m, surface, eik, 0.1, nesting)
        ref_terms, ref_grads = einsum_oracle.grad_of_loss(m, surface, eik, 0.1, nesting)
        event(f"nesting {'on' if nesting > 0 else 'off'}, hinge {'active' if ref_terms[3] else 'idle'}")
        # no loss term reads the Eikonal values and ReLU has no act'' term
        skipped = arch.activation == "relu" and (nesting == 0 or ref_terms[3] == 0)
        event(f"Eikonal value rows {'skipped' if skipped else 'carried'}")
        for got, ref in zip((terms.total, terms.data, terms.eikonal, terms.nesting), ref_terms):
            assert_rel_close(got, ref)
        assert terms.total == terms.data + 0.1 * terms.eikonal + nesting * terms.nesting
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert_rel_close(g, ref)

        y, G, _ = einsum_oracle.forward_pass(m, eik, with_jac=True)
        dual = forward_with_input_grad(m, eik)
        assert_rel_close(dual.values, y)
        assert_rel_close(dual.gradients, G)
        assert_rel_close(forward(m, eik), y)
        for c in range(arch.output_channels):  # one channel's sweep: the oracle's column c
            one = forward_with_input_grad(m, eik, channels=[c])
            assert_rel_close(one.values[:, 0], y[:, c])
            assert_rel_close(one.gradients[:, 0], G[:, c])

        # value-only backward: no tangent rows, so an empty gradient adjoint
        rows = _TrainRows(m.arch, len(eik), 0)
        y = _forward_pass(m, eik, rows.inputs)
        ybar = rng.normal(size=y.shape)
        _, _, ref_caches = einsum_oracle.forward_pass(m, eik, with_jac=False)
        ref_grads = einsum_oracle.backward_pass(m, ref_caches, ybar, None)
        for g, ref in zip(_backward_pass(m, rows, ybar, np.zeros((0, arch.output_channels, 3))), ref_grads):
            assert_rel_close(g, ref)

        # a reused workspace: other points and parameters in between leave
        # no trace; the gradients alias only its gradient vector, never its
        # row buffers, and the next call overwrites them; the fresh
        # gradients of a call without a workspace no later call touches
        ws = loss_workspace(m, sizes, n_eik)
        other = MlpModel(arch, m.params + rng.normal(0.0, 0.1, size=m.params.shape))
        earlier, kept = None, []
        for model, pts, e in [
            (m, surface, eik),
            (other, [rng.uniform(-1, 1, size=(n, 3)) for n in sizes], rng.uniform(-1, 1, size=(n_eik, 3))),
            (m, surface, eik),
        ]:
            reused = grad_of_loss(model, pts, e, 0.1, nesting, workspace=ws)
            untouched, G_rows = rows_left_by_loss(model, pts, e, ws)
            if model is m and skipped:
                assert untouched
            assert_rel_close(G_rows, einsum_oracle.forward_pass(model, e, with_jac=True)[1])
            fresh = grad_of_loss(model, pts, e, 0.1, nesting)
            assert reused[0] == fresh[0]
            for g, f in zip(reused[1], fresh[1]):
                np.testing.assert_array_equal(g, f)
                assert np.shares_memory(g, ws.grad)
                assert not any(np.shares_memory(g, buf) for buf in row_buffers(ws))
                assert not np.shares_memory(f, ws.grad)
            if earlier is not None:
                for was, g in zip(earlier, reused[1]):
                    np.testing.assert_array_equal(was, g)
            earlier = reused[1]
            kept.append((fresh[1], [f.copy() for f in fresh[1]]))
        assert reused[0] == terms
        for grads, copies in kept:
            for g, c in zip(grads, copies):
                np.testing.assert_array_equal(g, c)

    def test_workspace_reused_across_skipped_and_carried_calls(self):
        # ReLU at C = 2: nesting 0 skips the Eikonal value rows, an active
        # hinge carries them; one workspace takes turns between the two
        arch = MlpArchitecture(3, 8, 2, 2, "relu")
        m = init_model(arch, seed=1, scheme="standard")
        rng = np.random.default_rng(1)
        for b in m.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        surface = [rng.uniform(-1, 1, size=(n, 3)) for n in (4, 5)]
        eik = rng.uniform(-1, 1, size=(7, 3))
        ws = loss_workspace(m, [4, 5], 7)
        earlier = None
        for nesting in (0.0, 1.0, 0.0, 1.0):
            reused = grad_of_loss(m, surface, eik, 0.1, nesting, workspace=ws)
            untouched, G_rows = rows_left_by_loss(m, surface, eik, ws)
            assert untouched == (nesting == 0)
            assert_rel_close(G_rows, einsum_oracle.forward_pass(m, eik, with_jac=True)[1])
            fresh = grad_of_loss(m, surface, eik, 0.1, nesting)
            assert reused[0] == fresh[0]
            assert reused[0].nesting > 0
            for g, f in zip(reused[1], fresh[1]):
                np.testing.assert_array_equal(g, f)
                assert np.shares_memory(g, ws.grad)
                assert not any(np.shares_memory(g, buf) for buf in row_buffers(ws))
            if earlier is not None:  # the previous call's gradients now hold this one's
                for was, g in zip(earlier, reused[1]):
                    np.testing.assert_array_equal(was, g)
            earlier = reused[1]

    def test_mismatched_workspace_raises(self):
        arch = MlpArchitecture(hidden_layers=3, hidden_width=8, output_channels=2, skip_layer=2)
        m = init_model(arch, seed=0, scheme="standard")
        rng = np.random.default_rng(0)
        surface = [rng.uniform(-1, 1, size=(4, 3)), rng.uniform(-1, 1, size=(5, 3))]
        eik = rng.uniform(-1, 1, size=(6, 3))
        wider = init_model(MlpArchitecture(3, 9, 2, 2), seed=0, scheme="standard")
        softplus = init_model(MlpArchitecture(3, 8, 2, 2, "softplus"), seed=0, scheme="standard")
        for ws in [
            loss_workspace(wider, [4, 5], 6),
            loss_workspace(softplus, [4, 5], 6),
            loss_workspace(m, [4, 5], 7),
            loss_workspace(m, [4, 6], 6),
            loss_workspace(m, [5, 5], 5),  # same row total, other tangent count
            _EvalRows(arch, 15, 2),  # evaluation buffers cannot run a backward
        ]:
            with pytest.raises(ValueError, match="workspace"):
                grad_of_loss(m, surface, eik, 0.1, workspace=ws)
        grad_of_loss(m, surface, eik, 0.1, workspace=loss_workspace(m, [4, 5], 6))


class TestTrainingBlocks:
    """A training step runs fixed row blocks, set by the batch shape alone,
    at one BLAS thread on `forward`'s pool, and adds their loss sums and
    gradient vectors in block order."""

    @pytest.mark.parametrize("arch, surface, n_eik, cuts", [
        (MlpArchitecture(6, 256), [1024], 1024, [[0, 512, 1024]] * 2),  # the paper's batch: two blocks
        (MlpArchitecture(4, 64), [200], 200, [[0, 200]] * 2),  # the desk size: one
        (MlpArchitecture(1, 256, 2, 1), [1000, 700], 1000, [[0, 333, 666, 1000]] * 2 + [[0, 233, 466, 700]]),
        (MlpArchitecture(1, 2048, 1, 1), [300], 2, [[0, 1, 2], [0, 150, 300]]),  # never more blocks than Eikonal rows
    ])
    def test_blocks_follow_the_batch_shape(self, arch, surface, n_eik, cuts):
        ws = loss_workspace(init_model(arch, seed=0), surface, n_eik)
        assert ws.cuts == cuts
        assert [(rows.n_rows, rows.n_tangent) for rows in ws.blocks] == [
            (sum(c[j + 1] - c[j] for c in cuts), cuts[0][j + 1] - cuts[0][j]) for j in range(len(cuts[0]) - 1)
        ]

    @pytest.mark.parametrize("arch, sizes, n_eik, nesting", [
        (MlpArchitecture(3, 8, 1, 2, "relu"), [37], 29, 0.0),
        (MlpArchitecture(3, 8, 2, 2, "softplus"), [23, 40], 31, 0.7),
        (MlpArchitecture(2, 8, 3, 1, "relu"), [9, 17, 12], 13, 1.0),
    ])
    def test_blocks_match_oracle_and_one_worker(self, arch, sizes, n_eik, nesting, monkeypatch):
        # 16 value rows per block at width 8: several blocks of unequal slices
        monkeypatch.setattr(vinr.network, "_TRAIN_BLOCK", 16 * 8)
        rng = np.random.default_rng(3)
        m = init_model(arch, seed=3, scheme="standard")
        for b in m.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        surface = [rng.uniform(-1, 1, size=(n, 3)) for n in sizes]
        eik = rng.uniform(-1, 1, size=(n_eik, 3))
        ws = loss_workspace(m, sizes, n_eik)
        assert len(ws.blocks) >= 3
        terms, grads = grad_of_loss(m, surface, eik, 0.1, nesting, workspace=ws)
        ref_terms, ref_grads = einsum_oracle.grad_of_loss(m, surface, eik, 0.1, nesting)
        for got, ref in zip((terms.total, terms.data, terms.eikonal, terms.nesting), ref_terms):
            assert_rel_close(got, ref)
        for g, ref in zip(grads, ref_grads):
            assert_rel_close(g, ref)
        _, G_rows = rows_left_by_loss(m, surface, eik, ws)
        assert_rel_close(G_rows, einsum_oracle.forward_pass(m, eik, with_jac=True)[1])
        assert loss_value(m, surface, eik, 0.1, nesting) == terms
        # one worker taking the blocks in turn gives the same bits
        with monkeypatch.context() as mp:
            mp.setattr(vinr.network, "_blas_control", lambda: None)
            inline = grad_of_loss(m, surface, eik, 0.1, nesting)
        assert inline[0] == terms
        for g, f in zip(grads, inline[1]):
            np.testing.assert_array_equal(g, f)


class TestArchitecture:
    @pytest.mark.parametrize("field, value", [
        ("hidden_layers", 1.5), ("hidden_width", 2.5), ("skip_layer", 1.0),
        ("output_channels", True), ("hidden_width", "8"), ("softplus_beta", "x"), ("softplus_beta", None),
    ])
    def test_non_numeric_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field if "beta" in field else "integers"):
            MlpArchitecture(**{"hidden_layers": 2, "hidden_width": 2, "skip_layer": 1, field: value})

    def test_numpy_integers_accepted(self):
        arch = MlpArchitecture(hidden_layers=np.int64(2), hidden_width=np.int32(3), skip_layer=np.int64(1))
        init_model(arch, seed=0)

    @pytest.mark.parametrize("layers, width, channels, skip", [
        (1, 1, 1, 1), (1, 5, 3, 1), (2, 4, 1, 1), (2, 4, 2, 2), (6, 256, 1, 3), (4, 7, 4, 4),
    ])
    def test_param_count_matches_shapes(self, layers, width, channels, skip):
        arch = MlpArchitecture(hidden_layers=layers, hidden_width=width, output_channels=channels, skip_layer=skip)
        assert arch.param_count() == sum(math.prod(s) for pair in arch.param_shapes() for s in pair)


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

    def test_huge_header_rejected_before_shapes(self, tmp_path, monkeypatch):
        m = init_model(MlpArchitecture(hidden_layers=1, hidden_width=3, skip_layer=1), seed=23)
        p = tmp_path / "m.inr"
        write_mutated_model(m, p, ("arch", "hidden_layers"), 10**6)
        p.write_bytes(p.read_bytes().partition(b"\n\n")[0] + b"\n\n")

        def no_shapes(self):
            raise AssertionError("param_shapes built before the blob size was checked")

        monkeypatch.setattr(MlpArchitecture, "param_shapes", no_shapes)
        with pytest.raises(ModelFormatError, match="parameter blob size mismatch"):
            load_model(p)

    @pytest.mark.parametrize("edit, reason", [
        (lambda d: d.replace(b"\n\n", b"\n", 1), "missing header terminator"),
        (lambda d: b"\xff" + d, "'utf-8' codec can't decode"),
        (lambda d: b"{" + d, "Expecting property name"),
        (lambda d: b"[" * 100000 + b"]" * 100000 + b"\n\n", "maximum recursion depth exceeded"),
        (lambda d: d + bytes(8), "parameter blob size mismatch"),
        (lambda d: d[:-8] + np.float64(np.nan).tobytes(), "layer 1: non-finite parameters"),
        (lambda d: d.replace(b"null}", b'["a", "b"]}'), "channel_names must be a list of output_channels"),
    ], ids=["terminator", "utf8", "json", "deep-json", "long-blob", "nan", "names"])
    def test_corrupt_file_names_path(self, tmp_path, edit, reason):
        m = init_model(MlpArchitecture(hidden_layers=1, hidden_width=3, skip_layer=1), seed=23)
        p = tmp_path / "m.inr"
        save_model(m, p)
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(ModelFormatError) as info:
            load_model(p)
        assert str(info.value).startswith(f"{p}: {reason}")


class TestParameterStore:
    """A model is one float64 vector in .inr order; its weights and biases
    are views of it, however the model was made."""

    ARCH = MlpArchitecture(hidden_layers=3, hidden_width=5, output_channels=2, skip_layer=2)

    @pytest.mark.parametrize("made_by", ["init_model", "load_model", "fit_nested"])
    def test_layers_are_views_of_params_in_inr_order(self, tmp_path, made_by):
        from vinr.geometry import PointCloud
        from vinr.training import TrainConfig, fit_nested

        m = init_model(self.ARCH, seed=1)
        if made_by == "load_model":
            save_model(m, tmp_path / "m.inr")
            m = load_model(tmp_path / "m.inr")
        elif made_by == "fit_nested":
            rng = np.random.default_rng(2)
            clouds = [PointCloud(rng.normal(size=(12, 3))), PointCloud(2 * rng.normal(size=(9, 3)))]
            cfg = TrainConfig(epochs=3, hidden_layers=3, hidden_width=5, skip_layer=2, surface_batch_size=8)
            m, _ = fit_nested(clouds, cfg)
        n = self.ARCH.param_count()
        assert m.params.shape == (n,) and m.params.dtype == np.float64
        layers = [a for w, b in zip(m.weights, m.biases) for a in (w, b)]
        assert [a.shape for a in layers] == [s for pair in self.ARCH.param_shapes() for s in pair]
        m.params[:] = np.arange(n)  # every write to the vector shows in the layers, in order
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in layers]), np.arange(n))

    def test_saved_blob_is_the_vector(self, tmp_path):
        m = init_model(self.ARCH, seed=3, scheme="standard")
        save_model(m, tmp_path / "m.inr")
        assert (tmp_path / "m.inr").read_bytes().partition(b"\n\n")[2] == m.params.astype("<f8").tobytes()

    def test_layers_cannot_be_replaced(self):
        m = init_model(self.ARCH, seed=4)
        with pytest.raises(TypeError):
            m.weights[0] = np.zeros_like(m.weights[0])
        with pytest.raises(TypeError):
            m.biases[-1] = np.zeros_like(m.biases[-1])

    @pytest.mark.parametrize("name", ["params", "weights", "biases"])
    def test_store_cannot_be_rebound(self, name):
        # a rebound vector would be saved while forward still read the old views
        m = init_model(self.ARCH, seed=5)
        x = np.random.default_rng(6).normal(size=(7, 3))
        before, kept = forward(m, x), getattr(m, name)
        with pytest.raises(AttributeError, match=f"cannot rebind {name}"):
            setattr(m, name, m.params + 1.0 if name == "params" else kept[::-1])
        assert getattr(m, name) is kept
        np.testing.assert_array_equal(forward(m, x), before)
        m.transform = DomainTransform(scale=0.5, center=np.zeros(3))  # metadata stays settable
        m.channel_names = ["a", "b"]

    @pytest.mark.parametrize("copy_model", [
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda m: pickle.loads(pickle.dumps(m)), id="pickle"),
    ])
    def test_copies_keep_their_layers_on_their_own_vector(self, copy_model):
        m = init_model(self.ARCH, seed=7)
        m.transform = DomainTransform(scale=0.8, center=np.array([0.1, 0.0, -0.2]))
        m.channel_names = ["a", "b"]
        c = copy_model(m)
        assert all(np.shares_memory(a, c.params) for a in c.weights + c.biases)
        assert not np.shares_memory(c.params, m.params)
        np.testing.assert_array_equal(c.params, m.params)
        assert (c.arch, c.channel_names, c.transform.scale) == (m.arch, m.channel_names, m.transform.scale)
        x = np.random.default_rng(8).normal(size=(9, 3))
        before = forward(m, x)
        c.params[:] += 0.01  # a stepped copy evaluates its new values, and the original keeps its own
        np.testing.assert_array_equal(forward(c, x), forward(MlpModel(self.ARCH, c.params.copy()), x))
        assert not np.array_equal(forward(c, x), before)
        np.testing.assert_array_equal(forward(m, x), before)

    @pytest.mark.parametrize("shape", [lambda n: n - 1, lambda n: n + 1, lambda n: (1, n)], ids=["short", "long", "2d"])
    def test_wrong_length_rejected(self, shape):
        n = self.ARCH.param_count()
        with pytest.raises(ValueError, match=f"expected {n} parameters"):
            MlpModel(self.ARCH, np.zeros(shape(n)))


def header_models():
    """The two models whose saved headers the .inr reader tests corrupt: one
    with every optional field set, one with none."""
    full = init_model(
        MlpArchitecture(hidden_layers=2, hidden_width=4, output_channels=2, skip_layer=1, activation="softplus"),
        seed=21,
    )
    full.transform = DomainTransform(scale=0.5, center=np.array([0.1, 0.2, 0.3]))
    full.channel_names = ["lumen", "wall"]
    bare = init_model(MlpArchitecture(hidden_layers=1, hidden_width=3, skip_layer=1), seed=22)
    return full, bare


DELETE = object()  # as a mutation value: remove the field instead

# (field path, value) pairs for the first header model that the reader once
# let through, to fail later as errors of other types or without the path;
# () is the whole header
MALFORMED_HEADERS = [
    ((), [1, 2]),
    (("transform", "scale"), "x"),
    (("transform", "half_extent"), None),
    (("channel_names",), 5),
    (("arch", "hidden_layers"), 1.5),
    (("transform",), 3),
    (("transform", "center"), [0.0, 1.0]),
    (("transform", "center"), [float("nan"), 0.0, 0.0]),
    (("transform", "scale"), float("inf")),
]


def write_mutated_model(model, path, field, value):
    """Save `model` to `path` with the header field at path `field` set to
    `value` (removed for DELETE), the parameter blob unchanged."""
    save_model(model, path)
    head, _, blob = path.read_bytes().partition(b"\n\n")
    header = json.loads(head)
    if not field:
        header = value
    else:
        parent = header
        for key in field[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[field[-1]]
        else:
            parent[field[-1]] = value
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n\n" + blob)


@functools.cache
def saved_headers():
    """(header, field paths) of each header model as saved, nested fields
    included."""
    out = []
    with tempfile.TemporaryDirectory() as d:
        for model in header_models():
            save_model(model, Path(d) / "m.inr")
            header = json.loads((Path(d) / "m.inr").read_bytes().partition(b"\n\n")[0])
            nested = [(k, sub) for k in ("arch", "transform") if isinstance(header[k], dict) for sub in header[k]]
            out.append((header, [(k,) for k in header] + nested))
    return out


def _json_kind(v):
    """A JSON value's type; an integer also counts as a float, the way a
    hand-written file may give a float field."""
    return "bool" if isinstance(v, bool) else "float" if isinstance(v, (int, float)) else type(v).__name__


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def header_mutations(draw):
    """(header model index, field path, value): a field of a saved header
    deleted, or the header or a field replaced by a JSON value of another
    type."""
    which = draw(st.sampled_from([0, 1]))
    header, fields = saved_headers()[which]
    field = draw(st.sampled_from([()] + fields))
    old = header
    for key in field:
        old = old[key]
    retyped = _json_values.filter(lambda v: _json_kind(v) != _json_kind(old))
    return which, field, draw(retyped | st.just(DELETE) if field else retyped)


def with_malformed_headers(test):
    for field, value in MALFORMED_HEADERS:
        test = example(mutation=(0, field, value))(test)
    return test


@pytest.fixture(scope="module")
def header_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("headers")


class TestHeaderMutations:
    """Every corrupt .inr header is a ModelFormatError naming the file."""

    @staticmethod
    def _loads(path):
        try:
            load_model(path)
        except ModelFormatError as e:
            assert str(e).startswith(f"{path}: ")
            return False
        return True

    def test_every_field_deleted(self, header_dir):
        for model, (_, fields) in zip(header_models(), saved_headers()):
            for field in fields:
                write_mutated_model(model, header_dir / "m.inr", field, DELETE)
                assert not self._loads(header_dir / "m.inr"), field

    @with_malformed_headers
    @given(mutation=header_mutations())
    @settings(max_examples=150, deadline=None)
    def test_deleted_or_retyped_field(self, header_dir, mutation):
        which, field, value = mutation
        write_mutated_model(header_models()[which], header_dir / "m.inr", field, value)
        # only an optional field may take a valid value of another type:
        # null, or names for a model saved without them
        if self._loads(header_dir / "m.inr"):
            assert value is not DELETE and field in [("transform",), ("channel_names",)]
