"""Fixed-topology MLP with skip connection: forward evaluation, exact spatial
gradients, and exact parameter gradients of losses that involve those spatial
gradients.

The network maps normalized 3D coordinates to C signed-distance channels.
Each layer's activations form one matrix of stacked rows, the N value rows
first, so one GEMM per layer serves every row. Spatial gradients come from
one reverse sweep after a value-only forward pass, one block of rows per
channel (_gradient_sweep): evaluation (`forward_with_input_grad`) sweeps
the K channels it is given, 1 + K GEMM rows per point and layer.

Training (`grad_of_loss`) needs the spatial gradients of the T Eikonal
points, the first T value rows, and the parameter gradient of a loss that
reads them. It runs four sweeps in a caller-owned workspace, each carrying
C blocks of T rows under the N value rows:
  1. a value-only forward pass over the N rows (_forward_pass);
  2. the gradient sweep over every channel, which gives grad f_c (T, C, 3)
     from C T rows per layer (_gradient_sweep); then the loss terms and
     their adjoints ybar (N, C) and Gbar (T, C, 3);
  3. a bottom-up tangent sweep in direction Gbar[:, c] for block c: the
     parameter gradient of sum_c Gbar[:, c] . grad f_c is the derivative of
     d f_c / d theta along that direction (Pearlmutter's R-operator,
     Pearlmutter 1994, applied to the gradient penalty of IGR, Gropp et al.
     2020), so one tangent per channel suffices;
  4. a top-down value backward on the value rows lo to N, whose weight
     gradient is one GEMM per layer over [value adjoints; gradient rows]^T
     @ [layer inputs; tangent rows] (_backward_pass).
lo = T when no loss term reads the Eikonal values and the activation has no
act'' term (ReLU without an active nesting hinge): their adjoint is then
zero at every layer and those rows stay out of the GEMMs; otherwise lo = 0.
Per Eikonal point and layer the GEMMs carry 1 + 3C + 2 carry rows (carry =
1 when lo = 0): fewer at C <= 2, the paper's one or two nested channels,
than the 4 + 2 min(C, 3) + 2 carry of a forward pass with three tangent
blocks and a backward over min(C, 3) direction blocks (README gives the
measured fit times). Parameter gradients include the mixed d^2 f / dx
dtheta path exactly. Everything is float64 so finite-difference checks
are meaningful.

Both kinds of workspace are caller-owned: `fit_nested` makes one
`_TrainRows` per fit (`loss_workspace`), `forward_with_input_grad` one
`_EvalRows` per call, reused across row blocks, and every thread that runs
`forward`'s blocks keeps one value-only `_EvalRows` across calls. Every
layer's input rows end in a column of ones and its weights are [W | b]
(`_with_bias`), so one GEMM also adds the bias. GEMMs write into the next
layer's input buffer and the activation runs there in place; later sweeps
read the derivatives they need from those outputs h = act(z), and the
value backward then overwrites them with adjoints. No pre-activation is kept: ReLU's act' is [h > 0], and for
softplus with sharpness beta,
    act'(z) = sigma(beta z) = 1 - exp(-beta h),
    act''(z) / act'(z) = beta exp(-beta h),
so act''(z) g Jz u = (act''/act')(z) g u_a, where u_a = act'(z) Jz u is the
tangent row the tangent sweep stores and g the gradient sweep's unmasked
adjoint. A model is one parameter vector in .inr order (`MlpModel.params`),
each layer's weights and biases views of it (`param_views`); the parameter
gradients go into the training workspace's vector of the same layout: with
`workspace=` they are views of it, which the next call overwrites; without
one they are fresh arrays.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import DomainTransform, as_points

__all__ = [
    "MlpArchitecture",
    "MlpModel",
    "DualBatch",
    "LossTerms",
    "init_model",
    "forward",
    "forward_with_input_grad",
    "grad_of_loss",
    "loss_value",
    "loss_workspace",
    "param_views",
    "save_model",
    "load_model",
    "ModelFormatError",
]

INPUT_DIM = 3


class ModelFormatError(ValueError):
    """Raised for invalid or corrupt model files."""


@dataclass(frozen=True)
class MlpArchitecture:
    hidden_layers: int = 6
    hidden_width: int = 256
    output_channels: int = 1
    skip_layer: int = 3  # hidden layer whose input gets the raw xyz appended
    activation: str = "relu"  # "relu" | "softplus"
    softplus_beta: float = 100.0

    def __post_init__(self):
        sizes = (self.hidden_layers, self.hidden_width, self.output_channels, self.skip_layer)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in sizes):
            raise ValueError(f"layer counts, width and skip layer must be integers, got {sizes}")
        if isinstance(self.softplus_beta, bool) or not isinstance(self.softplus_beta, numbers.Real):
            raise ValueError(f"softplus_beta must be a number, got {self.softplus_beta!r}")
        if min(self.hidden_layers, self.hidden_width, self.output_channels) < 1:
            raise ValueError("need at least one hidden layer, a positive width and an output channel")
        if not (1 <= self.skip_layer <= self.hidden_layers):
            raise ValueError("skip_layer must index a hidden layer")
        if self.activation not in ("relu", "softplus"):
            raise ValueError(f"unknown activation {self.activation!r}")

    def layer_in_dim(self, layer: int) -> int:
        """Input width of hidden layer `layer` (1-based)."""
        base = INPUT_DIM if layer == 1 else self.hidden_width
        return base + (INPUT_DIM if layer == self.skip_layer and layer != 1 else 0)

    def param_count(self) -> int:
        """Number of float parameters, in closed form: the sizes of
        `param_shapes` summed without building one entry per layer."""
        width, skip = self.hidden_width, INPUT_DIM * (self.skip_layer != 1)
        first = width * (INPUT_DIM + 1)
        rest = (self.hidden_layers - 1) * width * (width + 1) + skip * width
        return first + rest + self.output_channels * (width + 1)

    def param_shapes(self) -> list[tuple[tuple[int, int], tuple[int]]]:
        shapes = []
        for l in range(1, self.hidden_layers + 1):
            shapes.append(((self.hidden_width, self.layer_in_dim(l)), (self.hidden_width,)))
        shapes.append(((self.output_channels, self.hidden_width), (self.output_channels,)))
        return shapes


@dataclass
class MlpModel:
    """An INR: one float64 vector `params` in .inr order, which training
    steps in place. `weights` ((out, in) per layer) and `biases` ((out,))
    are tuples of its views (`param_views`), so a layer cannot be replaced,
    and none of the three can be rebound once built: a new vector would be
    saved but not evaluated. `transform` and `channel_names` can be set."""

    arch: MlpArchitecture
    params: np.ndarray
    transform: DomainTransform | None = None
    channel_names: list | None = None
    weights: tuple = field(init=False, repr=False, compare=False)
    biases: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        if self.params.shape != (self.arch.param_count(),):
            raise ValueError(f"expected {self.arch.param_count()} parameters, got shape {self.params.shape}")
        views = param_views(self.arch, self.params)
        self.weights, self.biases = tuple(views[0::2]), tuple(views[1::2])
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        names = self.channel_names
        if names is not None and (not isinstance(names, list) or len(names) != self.arch.output_channels):
            raise ValueError("channel_names must be a list of output_channels names")

    def __reduce__(self):
        # rebuilt from the vector, so a copy's layers are views of its own params
        return MlpModel, (self.arch, self.params, self.transform, self.channel_names)

    def __setattr__(self, name, value):
        if name in ("params", "weights", "biases") and "biases" in self.__dict__:
            raise AttributeError(f"cannot rebind {name}: write into model.params in place")
        super().__setattr__(name, value)


def param_views(arch: MlpArchitecture, flat: np.ndarray) -> list:
    """The parameter arrays [W1, b1, ..., Wout, bout] of `arch` as views of
    one flat vector of arch.param_count() entries, in .inr order: writing a
    view writes the vector."""
    views, start = [], 0
    for shape in (s for pair in arch.param_shapes() for s in pair):
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@dataclass(frozen=True)
class DualBatch:
    """Values and input-space gradients for a batch of query points."""

    values: np.ndarray  # (B, C)
    gradients: np.ndarray  # (B, C, 3)


@dataclass(frozen=True)
class LossTerms:
    total: float  # data + lam * eikonal + nesting weight * nesting
    data: float
    eikonal: float
    nesting: float  # unweighted channel-ordering hinge


# ---------------------------------------------------------------------------
# activations


def _act(arch: MlpArchitecture, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if arch.activation == "relu":
        return np.maximum(z, 0.0, out=out)
    # above beta z = 37, exp(-beta z) < 2^-52: softplus is z to rounding, and
    # so are the derivatives _act_d1 and _act_d2 read from it
    bz = arch.softplus_beta * z
    sp = np.where(bz > 37.0, z, np.log1p(np.exp(np.minimum(bz, 37.0))) / arch.softplus_beta)
    if out is None:
        return sp
    out[...] = sp
    return out


def _act_d1(arch: MlpArchitecture, h: np.ndarray) -> np.ndarray:
    """act'(z) from the output h = act(z): ReLU's [h > 0] (subgradient 0 at
    exactly 0; products cast the mask to 0.0/1.0), softplus's
    sigma(beta z) = 1 - exp(-beta h)."""
    if arch.activation == "relu":
        return h > 0.0
    return -np.expm1(-arch.softplus_beta * h)


def _act_d2(arch: MlpArchitecture, h: np.ndarray) -> np.ndarray | None:
    """act''(z) / act'(z) from the output h, or None where act'' is zero:
    softplus's beta (1 - sigma(beta z)) = beta exp(-beta h)."""
    if arch.activation == "relu":
        return None
    return arch.softplus_beta * np.exp(-arch.softplus_beta * h)


# ---------------------------------------------------------------------------
# initialization


def init_model(arch: MlpArchitecture, seed: int, scheme: str = "standard") -> MlpModel:
    """Deterministic initialization.

    standard: uniform(+-1/sqrt(fan_in)) weights, zero biases.
    sphere: geometric initialization so the fresh network approximates the
    SDF of an origin-centered sphere of radius 0.5 (hidden weights Gaussian
    with std sqrt(2/width), final layer pointing along the mean-activation
    direction with bias -0.5).
    """
    rng = np.random.default_rng(seed)
    model = MlpModel(arch, np.zeros(arch.param_count()))
    n_hidden = arch.hidden_layers
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        fan_out, fan_in = w.shape
        if scheme == "standard":
            bound = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        elif scheme == "sphere":
            if i < n_hidden:
                w[...] = rng.normal(0.0, np.sqrt(2.0) / np.sqrt(fan_out), size=w.shape)
                if i + 1 == arch.skip_layer and arch.skip_layer != 1:
                    w[:, -INPUT_DIM:] = 0.0  # keep the radial structure at init
            else:
                w[...] = np.sqrt(np.pi) / np.sqrt(fan_in) + rng.normal(0.0, 1e-5, size=w.shape)
                b[...] = -0.5
        else:
            raise ValueError(f"unknown init scheme {scheme!r}")
    return model


# ---------------------------------------------------------------------------
# forward / backward
#
# Every layer works on one stacked matrix of rows: first the N value rows,
# one per query point, then, where a sweep runs, K blocks of T rows that
# carry derivatives of the first T of them, one block per channel swept.
# Evaluation keeps the value rows and the sweep's rows in separate buffers
# (_EvalRows). Training carries its C blocks under the value rows of each
# layer's buffer and fills them in the sweeps of _gradient_sweep and
# _backward_pass (_TrainRows).


def _layer_rows(n_rows: int, n_in: int) -> np.ndarray:
    """Input rows of one weight layer: n_in zeroed columns and a trailing
    column of ones, the column by which the layer's matrix product with
    [W | b] (_with_bias) adds the bias."""
    buf = np.zeros((n_rows, n_in + 1))
    buf[:, -1] = 1.0
    return buf


class _EvalRows:
    """Evaluation workspace for N points and a gradient sweep of K channels
    over all of them (K = 0: values only). `inputs[l]` holds the N input
    rows of weight layer l (_layer_rows): inputs[0] is [x0, 1], and the skip
    layer's buffer ends in x0's columns before its ones. For values only,
    two buffers take turns besides the skip buffer; a sweep reads act' from
    every layer's outputs, so then each has its own. The sweep masks into
    one block of K N rows (`masked`) and writes its adjoints into two
    buffers that take turns (`adjoints`)."""

    def __init__(self, arch: MlpArchitecture, n_rows: int, n_swept: int):
        self.arch, self.n_rows, self.n_tangent = arch, n_rows, n_rows
        L, width, R = arch.hidden_layers, arch.hidden_width, n_swept * n_rows
        turns = None if n_swept else [_layer_rows(n_rows, width), _layer_rows(n_rows, width)]
        self.inputs = [_layer_rows(n_rows, INPUT_DIM)]
        for l in range(2, L + 2):
            own = n_swept or l == arch.skip_layer
            self.inputs.append(_layer_rows(n_rows, arch.layer_in_dim(l)) if own else turns[l % 2])
        self.masked = [np.empty((R, width))] * L
        turns = [np.empty((R, width + INPUT_DIM)), np.empty((R, width + INPUT_DIM))]
        self.adjoints = [turns[l % 2][:, : arch.layer_in_dim(l + 1)] for l in range(L)]


class _TrainRows:
    """Training workspace for one (arch, N, T) shape, built by
    `loss_workspace`: N + C T rows per layer, each layer its own buffer
    (_layer_rows, whose ones column only the value rows' products read).
    `inputs[l]` holds the input rows of weight layer l: inputs[0] is x0 =
    [x; Gbar rows], and the skip layer's buffer ends in x0's columns. The
    value rows hold the outputs of the value-only forward pass, from which
    the later sweeps read act' and act''/act'; the C blocks of T rows under
    them (channel c's block for the first T points) first hold
    _gradient_sweep's masked adjoints as GEMM input (`masked`, their hidden
    columns), then the tangent sweep's rows u_l, then the masked gradient
    rows again as the left operand of the weight-gradient GEMM.
    `adjoints[l]` (C T rows, the width of inputs[l]) holds the gradient
    sweep's unmasked adjoint of inputs[l], for l < L; the xyz columns of
    adjoints[0] and of the skip buffer's are the spatial gradient's terms.
    That is N + 2 C T rows per layer: at C = 1 fewer than the N + 3 T a
    training pass with three tangent blocks held, at C >= 2 more.
    `out_adjoints` is [ybar; e_c rows] for the value backward. `grad` is
    the parameter gradient vector in .inr order and `grads` its per-layer
    views (`param_views`), which every _backward_pass overwrites.
    """

    def __init__(self, arch: MlpArchitecture, n_rows: int, n_tangent: int):
        self.arch, self.n_rows, self.n_tangent = arch, n_rows, n_tangent
        L, C, carried = arch.hidden_layers, arch.output_channels, arch.output_channels * n_tangent
        self.inputs = [_layer_rows(n_rows + carried, INPUT_DIM)]
        self.inputs += [_layer_rows(n_rows + carried, arch.layer_in_dim(l)) for l in range(2, L + 2)]
        self.masked = [buf[n_rows:, : arch.hidden_width] for buf in self.inputs[1:]]
        self.adjoints = [np.zeros((carried, arch.layer_in_dim(l + 1))) for l in range(L)]
        self.out_adjoints = np.concatenate([np.zeros((n_rows, C)), np.repeat(np.eye(C), n_tangent, axis=0)])
        self.grad = np.empty(arch.param_count())
        self.grads = param_views(arch, self.grad)


def _gradient_rows(rows, l: int, top: np.ndarray) -> np.ndarray:
    """The gradient sweep's unmasked adjoint of hidden layer l's output,
    (K, T, width): the hidden columns of rows.adjoints[l], or at the last
    layer the output rows `top` (K, width) the sweep started from, as
    (K, 1, width) for broadcasting."""
    if l == rows.arch.hidden_layers:
        return top[:, None, :]
    return rows.adjoints[l][:, : top.shape[1]].reshape(len(top), rows.n_tangent, top.shape[1])


def _with_bias(model: MlpModel):
    """[W_l | b_l] (out, in + 1) per weight layer in order, each built as it
    is drawn. Against input rows [h, 1] the bias is the last term of each
    output's sum over k, which BLAS accumulates in k order: the same bits as
    adding b to h @ W_l^T (with the ones column first they differ)."""
    return (np.concatenate([w, b[:, None]], axis=1) for w, b in zip(model.weights, model.biases))


def _forward_pass(model: MlpModel, x: np.ndarray, inputs: list, layers: list | None = None) -> np.ndarray:
    """Runs the MLP on a batch x (N, 3) in caller-owned row buffers:
    `inputs[l]` holds the N input rows of weight layer l (_layer_rows),
    inputs[0] being [x0, 1]. `layers` holds _with_bias(model), drawn here
    one layer at a time when None. Returns the values (N, C), a fresh
    array. Each GEMM writes into the next layer's input buffer and the
    activation runs there in place, so where every layer has its own buffer
    (_EvalRows with a sweep, the value rows of _TrainRows) the outputs left
    there give the later sweeps act' and act''/act'.
    """
    arch, width = model.arch, model.arch.hidden_width
    layers = iter(_with_bias(model) if layers is None else layers)
    inputs[0][:, :INPUT_DIM] = x
    for l in range(1, arch.hidden_layers + 1):
        inp, out = inputs[l - 1], inputs[l]
        if l == arch.skip_layer and l != 1:  # the layer below and a backward pass write here
            inp[:, -1 - INPUT_DIM : -1] = x
        # whole rows keep elementwise work contiguous: relu(1) = 1 keeps the
        # ones column, and the skip buffer's xyz columns take junk (finite:
        # the buffer starts zeroed) until refilled
        np.matmul(inp, next(layers).T, out=out[:, :width])
        _act(arch, out, out=out)
        if arch.activation != "relu":  # softplus(1) rounds to 1 only for beta > 37
            out[:, -1] = 1.0
    return inputs[-1] @ next(layers).T


def _gradient_sweep(model: MlpModel, rows, top: np.ndarray) -> np.ndarray:
    """Reverse-mode spatial gradients (T, K, 3), a fresh array, at the first
    T value rows of the workspace `rows` (_EvalRows or _TrainRows) after
    _forward_pass, of the K channels whose output rows W_out[c] are `top`;
    training passes W_out itself.

    Block k of K T rows starts from the output adjoint e_c of its channel,
    so its adjoint of the last hidden output is top[k]. At each layer it is
    masked by act' read from the stored value rows, into rows.masked, and
    one GEMM with W_l gives the adjoint of the layer's input, kept unmasked
    in adjoints[l - 1]. The xyz columns of that adjoint at layer 1 and at
    the skip layer add up into G.
    """
    arch = model.arch
    T, K, width = rows.n_tangent, len(top), arch.hidden_width
    G = np.zeros((K, T, INPUT_DIM))
    for l in range(arch.hidden_layers, 0, -1):
        gz, out = rows.masked[l - 1], rows.adjoints[l - 1]
        d1 = _act_d1(arch, rows.inputs[l][:T])[:, :width]  # from whole rows, which read faster
        np.multiply(_gradient_rows(rows, l, top), d1, out=gz.reshape(K, T, width))
        np.matmul(gz, model.weights[l - 1], out=out)
        if l in (1, arch.skip_layer):
            G += out[:, -INPUT_DIM:].reshape(K, T, INPUT_DIM)
    return G.transpose(1, 0, 2)


def _block_rows(arch: MlpArchitecture) -> int:
    """Points per row block of evaluation: 2^16 / width rounded down to a
    multiple of 8, so a layer's activations are ~0.5 MB of float64 (~5 MB of
    workspace at 6x256 for a one-channel sweep, which reads every layer's
    outputs). The multiple of 8: numpy computes a one-channel output layer
    with gemv, whose kernel rounds the last n mod 4 rows of a call apart
    from the rest, so only blocks of whole row groups give every row the
    bits of one call over the whole batch."""
    return max(8, 2**16 // arch.hidden_width // 8 * 8)


# ---------------------------------------------------------------------------
# evaluation threads: `forward` runs its row blocks on one thread per BLAS
# thread while the BLAS is held to one thread


@functools.cache
def _blas_control():
    """(get_num_threads, set_num_threads, thread_shutdown) of numpy's bundled
    scipy-openblas, found as the loaded library with `openblas` in its path,
    or None: no /proc, another BLAS, or a symbol missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_", "blas_thread_shutdown_")
            get, put, shutdown = (getattr(lib, name) for name in names)
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        shutdown.restype, shutdown.argtypes = ctypes.c_int, []
        return get, put, shutdown
    return None


_POOL = None  # (workers, ThreadPoolExecutor of workers - 1 threads)
_POOL_LOCK = threading.Lock()  # one pooled call at a time holds the BLAS thread count
_LOCAL = threading.local()  # each thread's value-only workspace


def _drop_pool():
    """A forked child has none of the executor's threads: it builds its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _value_rows(arch: MlpArchitecture) -> _EvalRows:
    """This thread's value-only workspace of _block_rows rows, replaced when
    the architecture changes; a shorter block uses row prefixes of it."""
    rows = getattr(_LOCAL, "rows", None)
    if rows is None or rows.arch != arch:
        _LOCAL.rows = rows = None  # free the old workspace before allocating
        _LOCAL.rows = rows = _EvalRows(arch, _block_rows(arch), 0)
    return rows


def forward(model: MlpModel, x) -> np.ndarray:
    """Evaluate the network at normalized coordinates: (B, C) for the (B, 3)
    points of `as_points(x)`, in row blocks of about 2^16 / width points
    (_block_rows). A call of two or more blocks runs them on one thread per
    BLAS thread, the count the BLAS reports at call time: the calling
    thread and a persistent pool. For the length of the call the BLAS is
    held to one thread and its idle threads are shut down (an idle OpenBLAS
    thread spins and slows the workers); the count is restored on return,
    also when a block raises. The blocks do not depend on the thread count
    and a block's rows get the same bits at any BLAS thread count, so the
    values do not depend on it either. At one BLAS thread, or without
    control of the BLAS, the blocks run in turn on the calling thread."""
    global _POOL
    pts, arch = as_points(x), model.arch
    n, step = len(pts), _block_rows(arch)
    y = np.empty((n, arch.output_channels))
    layers = list(_with_bias(model))

    def run(starts):
        rows = _value_rows(arch)
        for s in starts:
            e = min(s + step, n)
            y[s:e] = _forward_pass(model, pts[s:e], [b[: e - s] for b in rows.inputs], layers)

    starts = range(0, n, step)
    blas = _blas_control() if len(starts) > 1 else None
    if blas is None:
        run(starts)
        return y
    get_threads, set_threads, shutdown = blas
    with _POOL_LOCK:
        workers = get_threads()
        if workers < 2:
            run(starts)
            return y
        if _POOL is None or _POOL[0] != workers:
            if _POOL is not None:
                _POOL[1].shutdown()
            _POOL = (workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="vinr-forward"))
        todo = iter(starts)  # shared: next() on a range iterator runs under the GIL
        set_threads(1)
        shutdown()
        try:
            jobs = [_POOL[1].submit(run, todo) for _ in range(workers - 1)]
            try:
                run(todo)  # the calling thread is one of the workers
            finally:
                wait(jobs)
            for job in jobs:
                job.result()
        finally:
            set_threads(workers)
    return y


def forward_with_input_grad(model: MlpModel, x, channels=None) -> DualBatch:
    """Values (B, K) and exact spatial gradients (B, K, 3) of the K output
    channels listed in `channels` (every channel when None) at the (B, 3)
    points of `as_points(x)`: per row block of `forward` (_block_rows),
    _forward_pass and a _gradient_sweep from the rows W_out[channels]; the
    values are bitwise `forward`'s. It stays on the
    calling thread with the BLAS's own threads: the sweep's products give
    gradients whose bits depend on the BLAS thread count (at 6x256 they
    differ between 1 and 2 threads; the values do not), and the band's
    slope bound would then depend on the thread count too."""
    pts = as_points(x)
    if len(pts) == 0:
        raise ValueError("batch must be non-empty")
    channels = slice(None) if channels is None else list(channels)
    top = model.weights[-1][channels]
    layers, n, step, rows = list(_with_bias(model)), len(pts), _block_rows(model.arch), None
    y, G = np.empty((n, len(top))), np.empty((n, len(top), INPUT_DIM))
    for s in range(0, n, step):
        e = min(s + step, n)
        if rows is None or rows.n_rows != e - s:
            rows = None  # free the full blocks' workspace before allocating the tail's
            rows = _EvalRows(model.arch, e - s, len(top))
        y[s:e] = _forward_pass(model, pts[s:e], rows.inputs, layers)[:, channels]
        G[s:e] = _gradient_sweep(model, rows, top)
    return DualBatch(values=y, gradients=G)


def _backward_pass(model: MlpModel, rows: _TrainRows, ybar: np.ndarray, Gbar: np.ndarray):
    """Parameter gradients of a loss whose adjoints are ybar (N, C) for the
    values and Gbar (T, C, 3) for the spatial gradients of the first T
    points, through the _forward_pass and _gradient_sweep last run in the
    training workspace `rows`. Writes them into rows.grad and returns its
    views rows.grads, in [W1, b1, ..., Wout, bout] order: the same GEMMs and
    row sums as into fresh arrays, so the same bits.

    Tangent sweep, bottom-up: block c of the carried rows starts from
    u_0 = Gbar[:, c] in x0, the skip layer's xyz columns get Gbar again,
    and each layer takes one GEMM and an act' scaling, so inputs[l]'s
    carried rows hold the tangent u_l of layer l's output.

    Value backward, top-down, on the value rows lo to N (see the module
    docstring): the input adjoint is written in place over the layer's
    outputs once their act' and act''/act' are read. The R-operator's
    adjoint shares the Eikonal value rows: for softplus, act'' adds
    d2 * sum_c g_c * u_c onto them, with g_c the gradient sweep's unmasked
    adjoint (_gradient_rows), u_c the tangent rows and d2 = act''/act'.
    Once the layer above has read the tangent rows, they take the masked
    gradient rows g_c * act', the left operand of this layer's
    weight-gradient GEMM.
    """
    arch = model.arch
    N, T, C, width = rows.n_rows, rows.n_tangent, arch.output_channels, arch.hidden_width
    W = model.weights
    lo = T if arch.activation == "relu" and not ybar[:T].any() else 0
    x0 = rows.inputs[0][N:, :INPUT_DIM]
    x0[...] = Gbar.transpose(1, 0, 2).reshape(C * T, INPUT_DIM)
    for l in range(1, arch.hidden_layers + 1):
        inp, out = rows.inputs[l - 1][N:, :-1], rows.inputs[l]
        if l == arch.skip_layer and l != 1:
            inp[:, -INPUT_DIM:] = x0
        np.matmul(inp, W[l - 1].T, out=rows.masked[l - 1])
        # whole rows, which scale faster: the next layer rewrites the skip
        # buffer's xyz columns before reading them, and no GEMM reads the ones
        u = out[N:].reshape(C, T, out.shape[1])
        u *= _act_d1(arch, out[:T])

    sbar = rows.out_adjoints[lo:]  # under ybar, the output's gradient rows e_c
    sbar[: N - lo] = ybar[lo:]
    zbar = ybar[lo:]
    for l in range(arch.hidden_layers, -1, -1):
        full = rows.inputs[l]
        buf = full[:, :-1]  # the ones column stays for the next forward pass
        np.matmul(sbar.T, buf[lo:], out=rows.grads[2 * l])
        np.sum(sbar[: N - lo], axis=0, out=rows.grads[2 * l + 1])
        if l == 0:
            break
        # the skip buffer's xyz columns were read above; zeroed, they mask to
        # 0, so the mask scales whole rows (a strided mask and product ran
        # ~3x slower); relu'(1) = 1 keeps the ones column, and a softplus
        # forward pass restores it
        buf[:N, width:] = 0.0
        d1 = _act_d1(arch, full[:N])
        d2 = _act_d2(arch, buf[:T, :width])
        g = _gradient_rows(rows, l, W[-1])
        u = buf[N:, :width].reshape(C, T, width)
        src = None if d2 is None else d2 * (g * u).sum(axis=0)  # act'' onto the Eikonal rows (lo = 0)
        np.matmul(zbar, W[l], out=buf[lo:N])
        full[lo:N] *= d1[lo:]
        if src is not None:
            buf[:T, :width] += src
        np.multiply(g, d1[:T, :width], out=u)
        sbar, zbar = buf[lo:, :width], buf[lo:N, :width]
    return list(rows.grads)


def _loss_and_adjoints(model: MlpModel, surface_batches, eikonal_batch, lam: float, nesting: float, rows):
    """Runs the Eikonal and surface points through one value-only forward
    pass and the Eikonal points through _gradient_sweep, in the training
    workspace `rows` (a new one when None), and returns (LossTerms, rows,
    ybar, Gbar), the input of _backward_pass."""
    if not lam >= 0:  # also catches NaN
        raise ValueError("lambda must be non-negative")
    if not nesting >= 0:
        raise ValueError("nesting weight must be non-negative")
    C = model.arch.output_channels
    if isinstance(surface_batches, np.ndarray):
        surface_batches = [surface_batches]
    if len(surface_batches) != C:
        raise ValueError(f"need {C} surface batches, got {len(surface_batches)}")
    batches = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in surface_batches]
    if any(b.shape[0] == 0 for b in batches):
        raise ValueError("surface batches must be non-empty")
    eik = np.atleast_2d(np.asarray(eikonal_batch, dtype=np.float64))
    if eik.shape[0] == 0:
        raise ValueError("eikonal batch must be non-empty")

    # rows: the Eikonal batch, whose gradients the sweeps carry, then every
    # channel's surface batch
    B = eik.shape[0]
    x = np.concatenate([eik] + batches)
    if rows is None:
        rows = _TrainRows(model.arch, len(x), B)
    elif not isinstance(rows, _TrainRows) or (rows.arch, rows.n_rows, rows.n_tangent) != (model.arch, len(x), B):
        raise ValueError("workspace was not built by loss_workspace for this model and batch sizes")
    y = _forward_pass(model, x, [buf[: len(x)] for buf in rows.inputs])
    G = _gradient_sweep(model, rows, model.weights[-1])
    ybar = np.zeros_like(y)
    data = 0.0
    row = B
    for c, b in enumerate(batches):
        n = b.shape[0]
        yc = y[row : row + n, c]
        data += np.abs(yc).mean() / C
        ybar[row : row + n, c] = np.sign(yc) / (n * C)
        row += n

    # the hinge: on the Eikonal batch, each outer channel should not exceed
    # the next inner one (channels are ordered innermost first)
    hinge = 0.0
    pairs = C - 1
    y_eik, ybar_eik = y[:B], ybar[:B]
    for i in range(pairs):
        gap = y_eik[:, i + 1] - y_eik[:, i]
        active = gap > 0
        hinge += float(np.where(active, gap, 0.0).mean()) / pairs
        step = np.where(active, nesting / (B * pairs), 0.0)
        ybar_eik[:, i + 1] += step
        ybar_eik[:, i] -= step

    norms = np.linalg.norm(G, axis=2)  # (B, C)
    eik_term = float(((norms - 1.0) ** 2).mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(norms > 1e-300, 2.0 * (norms - 1.0) / norms, 0.0)
    Gbar = (lam / (B * C)) * coef[..., None] * G

    total = float(data) + lam * eik_term + nesting * hinge
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")
    terms = LossTerms(total=total, data=float(data), eikonal=eik_term, nesting=hinge)
    return terms, rows, ybar, Gbar


def grad_of_loss(
    model: MlpModel,
    surface_batches,
    eikonal_batch,
    lam: float,
    nesting: float = 0.0,
    workspace: _TrainRows | None = None,
) -> tuple[LossTerms, list]:
    """Loss value and exact parameter gradients for

        data + lam * eikonal + nesting * hinge

    where data averages |f_c(x)| over channel c's own surface batch (then
    over channels), eikonal averages (||grad f_c|| - 1)^2 over a shared
    off-surface batch and all channels, and hinge averages
    max(f_{c+1} - f_c, 0) over that batch and the C - 1 adjacent channel
    pairs. The gradient includes the second-order path through the spatial
    gradients.

    surface_batches: one (B_c, 3) array per channel (a single array is
    accepted for C=1).

    workspace: caller-owned row buffers from `loss_workspace` for batches
    of these sizes (ValueError otherwise), reused on every call as
    `fit_nested` does; without one, the call builds its own. Its layer
    inputs are overwritten by their adjoints and ReLU derivatives are read
    from layer outputs. With a workspace, the returned gradients are views
    of its gradient vector (`workspace.grad`, in .inr order), overwritten by
    the next call that uses it; without one they are fresh arrays.
    """
    terms, rows, ybar, Gbar = _loss_and_adjoints(model, surface_batches, eikonal_batch, lam, nesting, workspace)
    return terms, _backward_pass(model, rows, ybar, Gbar)


def loss_workspace(model: MlpModel, surface_sizes, n_eikonal: int) -> _TrainRows:
    """Row buffers for `grad_of_loss(..., workspace=)` on one surface batch
    per channel of the given sizes and an Eikonal batch of `n_eikonal`."""
    return _TrainRows(model.arch, sum(surface_sizes) + n_eikonal, n_eikonal)


def loss_value(model: MlpModel, surface_batches, eikonal_batch, lam: float, nesting: float = 0.0) -> LossTerms:
    """Loss value only (no gradients): the value forward pass and gradient
    sweep of grad_of_loss, without its tangent sweep and value backward."""
    return _loss_and_adjoints(model, surface_batches, eikonal_batch, lam, nesting, None)[0]


# ---------------------------------------------------------------------------
# serialization (.inr): JSON header, blank line, little-endian f64 blob


def save_model(model: MlpModel, path) -> None:
    t = model.transform
    header = {
        "magic": "VINR",
        "format_version": 1,
        "arch": asdict(model.arch),  # keys in field order
        "transform": None
        if t is None
        else {"scale": t.scale, "center": t.center.tolist(), "half_extent": t.half_extent},
        "channel_names": model.channel_names,
    }
    blob = model.params.astype("<f8").tobytes()
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n\n" + blob)


def load_model(path) -> MlpModel:
    """Read a .inr file. Every field of the header must be present; the
    types built from it (MlpArchitecture, DomainTransform, MlpModel) check
    its values, and any failure is a ModelFormatError that names the file."""
    with open(path, "rb") as f:
        head, sep, blob = f.read().partition(b"\n\n")
    try:
        if not sep:
            raise ValueError("missing header terminator")
        header = json.loads(head.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
        if header["magic"] != "VINR":
            raise ValueError("bad magic")
        version = header["format_version"]
        if version != 1 or type(version) is not int:
            raise ValueError(f"unsupported version {version!r}")
        arch = MlpArchitecture(**header["arch"])
        if len(header["arch"]) != len(asdict(arch)):
            raise ValueError(f"architecture block needs every field of {list(asdict(arch))}")
        if len(blob) != 8 * arch.param_count():  # before param_shapes, whose length the header sets
            raise ValueError(f"parameter blob size mismatch (expected {8 * arch.param_count()} bytes, got {len(blob)})")
        params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        t = header["transform"]
        transform = None if t is None else DomainTransform(t["scale"], t["center"], t["half_extent"])
        return MlpModel(arch, params, transform, header["channel_names"])
    except KeyError as e:
        raise ModelFormatError(f"{path}: missing field {e}") from None
    except (TypeError, ValueError, RecursionError) as e:  # RecursionError: JSON nested too deep
        raise ModelFormatError(f"{path}: {e}") from None
