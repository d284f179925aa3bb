"""Fixed-topology MLP with skip connection: forward evaluation, exact spatial
gradients, and exact parameter gradients of losses that involve those spatial
gradients.

The network maps normalized 3D coordinates to C signed-distance channels.
Spatial gradients are propagated in forward mode as stacked tangent rows:
each layer's activations form one matrix whose value rows are followed by
three blocks of tangent rows, one block per input direction, so values and
Jacobian-vector products come from the same GEMM. The value rows of the T
points that carry tangents come first: [T Eikonal value rows; the other
N - T value rows; 3 tangent blocks]. The backward pass needs fewer rows:
the loss sees the spatial gradients only through their (C, 3) adjoint per
point, whose rank is at most K = min(C, 3), and the tangent map is linear,
so K direction rows per point carry every tangent adjoint (the
double-backward identity, Pearlmutter 1994). Each layer contracts its three
stored tangent blocks into K direction blocks in place, then runs one GEMM
for the weight gradient and one for the input adjoint on N - lo + K T rows,
N value rows and T Eikonal points. lo = T when no loss term reads the
Eikonal values and the activation has no act'' term (ReLU without an active
nesting hinge): their adjoint is then zero at every layer and those rows
stay out of the GEMMs; otherwise lo = 0. Parameter gradients of
gradient-penalty terms so include the mixed d^2 f / dx dtheta path exactly.
The data and Eikonal batches share one forward and one backward pass.
Everything is float64 so finite-difference checks are meaningful.

Both passes run in a caller-owned row workspace (`_Rows`): `fit_nested`
makes one per fit (`loss_workspace`), `forward` and `forward_with_input_grad`
one per call, reused across row blocks. GEMMs write into the next layer's
input buffer and the activation runs there in place; the backward pass reads
the derivatives it needs from those outputs h = act(z), then overwrites the
buffer with the adjoint of that input. No pre-activation is kept: ReLU's
act' is [h > 0], and for softplus with sharpness beta,
    act'(z) = sigma(beta z) = 1 - exp(-beta h),
    act''(z) Jz = beta exp(-beta h) Ja,
where Ja = act'(z) Jz is the tangent row the forward pass stores. Returned
gradients are fresh arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

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
    """INR parameters. Treated as immutable during inference; the training
    loop mutates parameter arrays in place and hands out the final model."""

    arch: MlpArchitecture
    weights: list  # per layer, (out, in) float64
    biases: list  # per layer, (out,) float64
    transform: DomainTransform | None = None
    channel_names: list | None = None

    def __post_init__(self):
        expected = self.arch.param_shapes()
        if len(self.weights) != len(expected) or len(self.biases) != len(expected):
            raise ValueError("parameter count does not match architecture")
        for i, (wshape, bshape) in enumerate(expected):
            w = np.asarray(self.weights[i], dtype=np.float64)
            b = np.asarray(self.biases[i], dtype=np.float64)
            if w.shape != wshape or b.shape != bshape:
                raise ValueError(
                    f"layer {i}: expected shapes {wshape}/{bshape}, got {w.shape}/{b.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
            self.weights[i] = w
            self.biases[i] = b
        names = self.channel_names
        if names is not None and (not isinstance(names, list) or len(names) != self.arch.output_channels):
            raise ValueError("channel_names must be a list of output_channels names")

    def parameters(self) -> list:
        """Flat parameter list [W1, b1, ..., Wout, bout] (live arrays)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out


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
    weights, biases = [], []
    shapes = arch.param_shapes()
    n_hidden = arch.hidden_layers
    for i, (wshape, bshape) in enumerate(shapes):
        fan_out, fan_in = wshape
        if scheme == "standard":
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=wshape)
            b = np.zeros(bshape)
        elif scheme == "sphere":
            if i < n_hidden:
                w = rng.normal(0.0, np.sqrt(2.0) / np.sqrt(fan_out), size=wshape)
                if i + 1 == arch.skip_layer and arch.skip_layer != 1:
                    w[:, -INPUT_DIM:] = 0.0  # keep the radial structure at init
                b = np.zeros(bshape)
            else:
                w = np.full(wshape, np.sqrt(np.pi) / np.sqrt(fan_in))
                w += rng.normal(0.0, 1e-5, size=wshape)
                b = np.full(bshape, -0.5)
        else:
            raise ValueError(f"unknown init scheme {scheme!r}")
        weights.append(w)
        biases.append(b)
    return MlpModel(arch=arch, weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# forward / backward
#
# Every layer works on one stacked matrix of rows: first the N value rows,
# one per query point, then three blocks of T tangent rows. Block k holds
# the derivative d/dx_k of the first T value rows. A single GEMM per layer
# then yields both the values and the Jacobian-vector products: the bias
# goes on the value rows only, and each tangent row is scaled by act'(z) of
# its value row.


class _Rows:
    """Stacked row matrices for one (arch, N, T) shape, N + 3 T rows: the
    N value rows, of which the first T carry tangents, then three blocks of
    T tangent rows. The forward pass runs on all of them, a backward pass on
    rows lo to N + K T (see _backward_pass). `inputs[l]` holds the input
    rows of weight layer l: inputs[0] is x0 = [x; identity tangent rows],
    and the skip layer's buffer ends in x0's columns. With keep=True each
    layer has its own buffer, so a backward pass can follow; with
    keep=False two buffers take turns, besides the skip buffer. Both
    activations read their derivatives from these outputs, so nothing else
    is kept."""

    def __init__(self, arch: MlpArchitecture, n_rows: int, n_tangent: int, keep: bool):
        self.arch, self.n_rows, self.n_tangent, self.keep = arch, n_rows, n_tangent, keep
        R, width = n_rows + INPUT_DIM * n_tangent, arch.hidden_width
        self.x0 = np.empty((R, INPUT_DIM))
        self.x0[n_rows:] = np.repeat(np.eye(INPUT_DIM), n_tangent, axis=0)
        turns = None if keep else [np.empty((R, width)), np.empty((R, width))]
        self.inputs = [self.x0]
        for l in range(2, arch.hidden_layers + 2):
            if l == arch.skip_layer or keep:
                self.inputs.append(np.zeros((R, arch.layer_in_dim(l))))
            else:
                self.inputs.append(turns[l % 2])


def _forward_pass(model: MlpModel, x: np.ndarray, rows: _Rows):
    """Runs the MLP on a batch x (N, 3) in the caller's workspace `rows`,
    carrying the input Jacobian of the first T = rows.n_tangent points as 3T
    tangent rows. Returns the values (N, C) and the spatial gradients
    (T, C, 3), views of one fresh output matrix. Each GEMM writes into the
    next layer's input buffer, the activation runs there in place, and the
    tangent rows are scaled by act' read from the first T value rows'
    outputs. The outputs left there give the backward pass act' and
    act''/act'; _backward_pass then overwrites them with adjoints.
    """
    arch = model.arch
    N, T, C = rows.n_rows, rows.n_tangent, arch.output_channels
    rows.x0[:N] = x
    for l in range(1, arch.hidden_layers + 1):
        inp, out = rows.inputs[l - 1], rows.inputs[l]
        if l == arch.skip_layer and l != 1:  # the layer below and a backward pass write here
            inp[:, -INPUT_DIM:] = rows.x0
        # whole rows keep elementwise work contiguous; the skip buffer's xyz
        # columns take junk (finite: the buffer starts zeroed) until refilled
        np.matmul(inp, model.weights[l - 1].T, out=out[:, : arch.hidden_width])
        out[:N] += np.concatenate([model.biases[l - 1], np.zeros(out.shape[1] - arch.hidden_width)])
        _act(arch, out[:N], out=out[:N])
        if T:
            t = out[N:].reshape(INPUT_DIM, T, -1)
            t *= _act_d1(arch, out[:T])
    s = rows.inputs[-1] @ model.weights[-1].T
    s[:N] += model.biases[-1]
    return s[:N], s[N:].reshape(INPUT_DIM, T, C).transpose(1, 2, 0)


def _blocked_forward(model: MlpModel, x, tangents: bool):
    """Values (B, C) at the (B, 3) points of `as_points(x)` and, with
    `tangents`, their spatial gradients (B, C, 3). Runs _forward_pass in
    blocks of 2^18 stacked rows, so a layer's activations are ~2 MB of
    float64 and fit one L2 cache: a point carries one row, or four with
    its three tangents. Every full block shares one keep=False workspace."""
    pts = as_points(x)
    step = max(1, 2**18 // ((1 + INPUT_DIM * tangents) * model.arch.hidden_width))
    C = model.arch.output_channels
    y, G = np.empty((len(pts), C)), (np.empty((len(pts), C, INPUT_DIM)) if tangents else None)
    rows = None
    for s in range(0, len(pts), step):
        block = pts[s : s + step]
        if rows is None or rows.n_rows != len(block):
            rows = None  # free the previous block's workspace before allocating the tail's
            rows = _Rows(model.arch, len(block), len(block) if tangents else 0, keep=False)
        y[s : s + step], grads = _forward_pass(model, block, rows)
        if tangents:
            G[s : s + step] = grads
    return y, G


def forward(model: MlpModel, x) -> np.ndarray:
    """Evaluate the network at normalized coordinates: (B, C) for the (B, 3)
    points of `as_points(x)`."""
    return _blocked_forward(model, x, tangents=False)[0]


def forward_with_input_grad(model: MlpModel, x) -> DualBatch:
    """Values plus exact per-channel spatial gradients for a batch (B, 3)."""
    y, G = _blocked_forward(model, x, tangents=True)
    if len(y) == 0:
        raise ValueError("batch must be non-empty")
    return DualBatch(values=y, gradients=G)


def _contract(t: np.ndarray, D: np.ndarray) -> None:
    """Overwrites the first K = D.shape[1] of the tangent blocks t (3, T, width)
    with the direction blocks s_j = sum_k D[:, j, k] t_k; the other blocks
    are left as junk."""
    rest = [np.einsum("tk,ktw->tw", D[:, j], t) for j in range(1, D.shape[1])]
    t *= D[:, 0].T[:, :, None]
    t[0] += t[1]
    t[0] += t[2]
    for j, s in enumerate(rest, 1):
        t[j] = s


def _backward_pass(model: MlpModel, rows: _Rows, ybar: np.ndarray, Gbar: np.ndarray | None):
    """Reverse pass through the _forward_pass last run in the keep=True
    workspace `rows`.

    ybar: (N, C) adjoint of the values; Gbar: (T, C, 3) adjoint of the
    spatial gradients of the first T points, or None when the forward pass
    carried no tangents.

    The pass carries K = min(C, 3) tangent blocks, not three. Gbar[i] has
    rank <= K, so Gbar[i] = U[i] D[i] with U[i] (C, K) and D[i] (K, 3):
    D = Gbar and U = I for C < 3, D = I and U = Gbar otherwise. The tangent
    map is linear and each point's rows share its act', so the adjoints of
    the three tangent rows of point i stay D[i]-combinations of K adjoint
    rows at every layer, and the weight gradient only meets the direction
    rows s_j = sum_k D[i, j, k] t_k. Each layer contracts its stored
    tangent rows into those K blocks in place. At layer 0 the contraction
    of x0's identity rows is D itself; x0 is left intact.

    Both GEMMs, the bias sum, the act' masks and softplus's act'' term run
    on the N - lo + K T rows lo to N + K T, in the order [T tangent-carrying
    value rows; N - T value rows; K direction blocks]. lo = T when ybar is
    zero on the first T rows and the activation has no act'' term (ReLU):
    those rows' adjoint then stays zero at every layer, and the direction
    rows still read act' from their outputs, which are left untouched.
    Otherwise (softplus, or an active nesting hinge) lo = 0.

    Once a layer's weight gradient, act' and act''/act' are read from its
    input buffer, the adjoint of that input overwrites it. With
    Ja = act'(z) Jz the tangent rows stored there, act''(z) Jz =
    (act''/act')(z) Ja, so softplus needs no pre-activations: only its copy
    of the direction rows outlives the overwrite. Returns fresh parameter
    gradients in [W1, b1, ..., Wout, bout] order.
    """
    arch = model.arch
    N, T, C = rows.n_rows, rows.n_tangent, arch.output_channels
    K = min(C, INPUT_DIM)
    R = N + K * T
    lo = T if arch.activation == "relu" and not ybar[:T].any() else 0
    D = Gbar if C < INPUT_DIM else None  # None: D = I, the axis blocks stay
    sbar = ybar
    if T:  # output adjoints of the K blocks: the rows of U
        U = np.repeat(np.eye(C), T, axis=0) if D is not None else Gbar.transpose(2, 0, 1).reshape(K * T, C)
        sbar = np.concatenate([ybar[lo:], U])
    grads = [None] * (2 * len(model.weights))
    for l in range(arch.hidden_layers, -1, -1):
        buf = rows.inputs[l]
        if l == 0 and D is not None:  # x0's identity rows outlive the call; their contraction is D
            inp = np.concatenate([buf[lo:N], D.transpose(1, 0, 2).reshape(K * T, INPUT_DIM)])
        else:
            if D is not None:
                _contract(buf[N:].reshape(INPUT_DIM, T, -1), D)
            buf = buf[:R]
            inp = buf[lo:]
        grads[2 * l] = sbar.T @ inp
        grads[2 * l + 1] = sbar[: N - lo].sum(axis=0)
        if l == 0:
            break
        # whole rows, as in the forward; the skip buffer's xyz columns are x0,
        # not outputs, so they are zeroed first to keep their junk finite
        buf[:, arch.hidden_width :] = 0.0
        d1, d2 = _act_d1(arch, buf[:N]), _act_d2(arch, buf[:T])
        s = None if d2 is None else buf[N:].copy()
        # the adjoint of this layer's input becomes, in place, the adjoint
        # of the previous layer's pre-activation
        np.matmul(sbar, model.weights[l], out=inp)
        inp[: N - lo] *= d1[lo:]
        if T:
            sbar_t = buf[N:].reshape(K, T, -1)
            if d2 is not None:  # act'' moves tangent adjoints onto the Eikonal value rows (lo = 0)
                buf[:T] += d2 * (sbar_t * s.reshape(K, T, -1)).sum(axis=0)
            sbar_t *= d1[:T]
        sbar = inp[:, : arch.hidden_width]
    return grads


def _loss_and_adjoints(model: MlpModel, surface_batches, eikonal_batch, lam: float, nesting: float, rows):
    """Runs the surface and Eikonal points through one forward pass in the
    keep=True workspace `rows` (a new one when None) and returns (LossTerms,
    rows, ybar, Gbar), the input of _backward_pass."""
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

    # rows: the Eikonal batch, which carries tangents, then every channel's
    # surface batch
    B = eik.shape[0]
    x = np.concatenate([eik] + batches)
    if rows is None:
        rows = _Rows(model.arch, len(x), B, keep=True)
    elif (rows.arch, rows.n_rows, rows.n_tangent, rows.keep) != (model.arch, len(x), B, True):
        raise ValueError("workspace was not built by loss_workspace for this model and batch sizes")
    y, G = _forward_pass(model, x, rows)
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
    workspace: _Rows | None = None,
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
    from layer outputs. The returned gradients are fresh arrays.
    """
    terms, rows, ybar, Gbar = _loss_and_adjoints(model, surface_batches, eikonal_batch, lam, nesting, workspace)
    return terms, _backward_pass(model, rows, ybar, Gbar)


def loss_workspace(model: MlpModel, surface_sizes, n_eikonal: int) -> _Rows:
    """Row buffers for `grad_of_loss(..., workspace=)` on one surface batch
    per channel of the given sizes and an Eikonal batch of `n_eikonal`."""
    return _Rows(model.arch, sum(surface_sizes) + n_eikonal, n_eikonal, keep=True)


def loss_value(model: MlpModel, surface_batches, eikonal_batch, lam: float, nesting: float = 0.0) -> LossTerms:
    """Loss value only (no gradients), from the same forward pass as grad_of_loss."""
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
    blob = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in model.parameters())
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
        shapes = [s for pair in arch.param_shapes() for s in pair]
        sizes = [math.prod(s) for s in shapes]
        flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        params = [p.reshape(s) for p, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        t = header["transform"]
        transform = None if t is None else DomainTransform(t["scale"], t["center"], t["half_extent"])
        return MlpModel(arch, params[0::2], params[1::2], transform, header["channel_names"])
    except KeyError as e:
        raise ModelFormatError(f"{path}: missing field {e}") from None
    except (TypeError, ValueError, RecursionError) as e:  # RecursionError: JSON nested too deep
        raise ModelFormatError(f"{path}: {e}") from None
