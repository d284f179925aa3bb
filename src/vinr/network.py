"""Fixed-topology MLP with skip connection: forward evaluation, exact spatial
gradients, and exact parameter gradients of losses that involve those spatial
gradients.

The network maps normalized 3D coordinates to C signed-distance channels.
Spatial gradients are propagated in forward mode as stacked tangent rows:
each layer's activations form one matrix whose value rows are followed by
three blocks of tangent rows, one block per input direction, so values and
Jacobian-vector products come from the same GEMM. The backward pass
differentiates that stacked computation, again with one GEMM per layer for
the weight gradient and one for the input adjoint, so parameter gradients of
gradient-penalty terms include the mixed d^2 f / dx dtheta path exactly. The
data and Eikonal batches share one forward and one backward pass.
Everything is float64 so finite-difference checks are meaningful.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import DomainTransform, GeometryError, as_points

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
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ValueError("need at least one hidden layer and positive width")
        if not (1 <= self.skip_layer <= self.hidden_layers):
            raise ValueError("skip_layer must index a hidden layer")
        if self.output_channels < 1:
            raise ValueError("output_channels must be >= 1")
        if self.activation not in ("relu", "softplus"):
            raise ValueError(f"unknown activation {self.activation!r}")

    def layer_in_dim(self, layer: int) -> int:
        """Input width of hidden layer `layer` (1-based)."""
        base = INPUT_DIM if layer == 1 else self.hidden_width
        return base + (INPUT_DIM if layer == self.skip_layer and layer != 1 else 0)

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
        if self.channel_names is not None and len(self.channel_names) != self.arch.output_channels:
            raise ValueError("channel_names length must equal output_channels")

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
    bz = arch.softplus_beta * z
    sp = np.where(bz > 30.0, z, np.log1p(np.exp(np.minimum(bz, 30.0))) / arch.softplus_beta)
    if out is None:
        return sp
    out[...] = sp
    return out


def _act_d1(arch: MlpArchitecture, z: np.ndarray) -> np.ndarray:
    if arch.activation == "relu":
        # subgradient 0 at exactly 0
        return (z > 0.0).astype(np.float64)
    return _sigmoid(arch.softplus_beta * z)


def _act_d2(arch: MlpArchitecture, z: np.ndarray) -> np.ndarray | None:
    if arch.activation == "relu":
        return None
    s = _sigmoid(arch.softplus_beta * z)
    return arch.softplus_beta * s * (1.0 - s)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
# the derivative d/dx_k of the last T value rows. A single GEMM per layer
# then yields both the values and the Jacobian-vector products: the bias
# goes on the value rows only, and each tangent row is scaled by act'(z) of
# its value row.


def _forward_pass(model: MlpModel, x: np.ndarray, n_tangent: int, caches: list | None = None):
    """Runs the MLP on a batch x (N, 3), carrying the input Jacobian of the
    last `n_tangent` points as 3 * n_tangent tangent rows. Returns the values
    (N, C) and the spatial gradients (n_tangent, C, 3).

    When `caches` is a list, appends to it per layer the (input,
    pre-activation) pair of stacked row matrices that _backward_pass needs;
    the output layer's pre-activation is the output. Without it, each
    activation overwrites its pre-activation, so only a layer or two of rows
    is alive at a time.
    """
    arch = model.arch
    N, T, C = x.shape[0], n_tangent, arch.output_channels
    x0 = np.concatenate([x, np.repeat(np.eye(INPUT_DIM), T, axis=0)]) if T else x
    h = x0
    for l in range(1, arch.hidden_layers + 2):
        inp = np.concatenate([h, x0], axis=1) if l == arch.skip_layer and l != 1 else h
        s = inp @ model.weights[l - 1].T
        s[:N] += model.biases[l - 1]
        if caches is not None:
            caches.append((inp, s))
        if l > arch.hidden_layers:
            break
        h = s if caches is None else np.empty_like(s)
        if T:  # tangents first: their act'(z) reads value rows that _act may overwrite
            d1 = _act_d1(arch, s[N - T : N])
            np.multiply(s[N:].reshape(INPUT_DIM, T, -1), d1, out=h[N:].reshape(INPUT_DIM, T, -1))
        _act(arch, s[:N], out=h[:N])
    return s[:N], s[N:].reshape(INPUT_DIM, T, C).transpose(1, 2, 0)


def forward(model: MlpModel, x) -> np.ndarray:
    """Evaluate the network at normalized coordinates: (B, C) for the (B, 3)
    points of `as_points(x)`. Runs in blocks of 2^18 / hidden_width rows, so
    a layer's activations are ~2 MB of float64 and fit one L2 cache."""
    pts = as_points(x)
    rows = max(1, 2**18 // model.arch.hidden_width)
    y = np.empty((len(pts), model.arch.output_channels))
    for s in range(0, len(pts), rows):
        y[s : s + rows] = _forward_pass(model, pts[s : s + rows], 0)[0]
    return y


def forward_with_input_grad(model: MlpModel, x) -> DualBatch:
    """Values plus exact per-channel spatial gradients for a batch (B, 3).
    Each point carries 4 stacked rows (its value and three tangents), so it
    runs in blocks of 2^16 / hidden_width points: ~2 MB per activation
    matrix, as in `forward`."""
    arr = as_points(x)
    if arr.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    rows = max(1, 2**16 // model.arch.hidden_width)
    C = model.arch.output_channels
    y, G = np.empty((len(arr), C)), np.empty((len(arr), C, INPUT_DIM))
    for s in range(0, len(arr), rows):
        block = arr[s : s + rows]
        y[s : s + rows], G[s : s + rows] = _forward_pass(model, block, len(block))
    return DualBatch(values=y, gradients=G)


def _backward_pass(model: MlpModel, caches, ybar: np.ndarray, Gbar: np.ndarray | None):
    """Reverse pass through _forward_pass.

    ybar: (N, C) adjoint of the values; Gbar: (T, C, 3) adjoint of the
    spatial gradients of the last T points, or None when the forward pass
    carried no tangents. Consumes `caches`, freeing each layer's matrices
    once they are used. Returns parameter gradients in
    [W1, b1, ..., Wout, bout] order.
    """
    arch = model.arch
    N = ybar.shape[0]
    T = 0 if Gbar is None else Gbar.shape[0]
    sbar = ybar
    if T:
        sbar = np.concatenate([ybar, Gbar.transpose(2, 0, 1).reshape(INPUT_DIM * T, -1)])
    grads = [None] * (2 * len(model.weights))
    for l in range(arch.hidden_layers, -1, -1):
        grads[2 * l] = sbar.T @ caches.pop()[0]
        grads[2 * l + 1] = sbar[:N].sum(axis=0)
        if l == 0:
            break
        # the adjoint of this layer's input becomes, in place, the adjoint
        # of the previous layer's pre-activation
        sbar = (sbar @ model.weights[l])[:, : arch.hidden_width]
        s = caches[l - 1][1]
        d1 = _act_d1(arch, s[:N])
        sbar[:N] *= d1
        if T:
            sbar_t = sbar[N:].reshape(INPUT_DIM, T, -1)
            d2 = _act_d2(arch, s[N - T : N])
            if d2 is not None:  # act'' moves tangent adjoints onto the Eikonal value rows
                sbar[N - T : N] += d2 * (sbar_t * s[N:].reshape(INPUT_DIM, T, -1)).sum(axis=0)
            sbar_t *= d1[N - T :]
    return grads


def _loss_and_adjoints(model: MlpModel, surface_batches, eikonal_batch, lam: float, nesting: float):
    """Runs the surface and Eikonal points through one forward pass and
    returns (LossTerms, caches, ybar, Gbar), the input of _backward_pass."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if nesting < 0:
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

    # rows: every channel's surface batch, then the Eikonal batch with tangents
    B = eik.shape[0]
    caches = []
    y, G = _forward_pass(model, np.concatenate(batches + [eik]), B, caches)
    ybar = np.zeros_like(y)
    data = 0.0
    row = 0
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
    y_eik, ybar_eik = y[row:], ybar[row:]
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
    return terms, caches, ybar, Gbar


def grad_of_loss(
    model: MlpModel,
    surface_batches,
    eikonal_batch,
    lam: float,
    nesting: float = 0.0,
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
    """
    terms, caches, ybar, Gbar = _loss_and_adjoints(model, surface_batches, eikonal_batch, lam, nesting)
    return terms, _backward_pass(model, caches, ybar, Gbar)


def loss_value(model: MlpModel, surface_batches, eikonal_batch, lam: float, nesting: float = 0.0) -> LossTerms:
    """Loss value only (no gradients), from the same forward pass as grad_of_loss."""
    return _loss_and_adjoints(model, surface_batches, eikonal_batch, lam, nesting)[0]


# ---------------------------------------------------------------------------
# serialization (.inr): JSON header, blank line, little-endian f64 blob


def save_model(model: MlpModel, path) -> None:
    header = {
        "magic": "VINR",
        "format_version": 1,
        "arch": {
            "hidden_layers": model.arch.hidden_layers,
            "hidden_width": model.arch.hidden_width,
            "output_channels": model.arch.output_channels,
            "skip_layer": model.arch.skip_layer,
            "activation": model.arch.activation,
            "softplus_beta": model.arch.softplus_beta,
        },
        "transform": None
        if model.transform is None
        else {
            "scale": model.transform.scale,
            "center": model.transform.center.tolist(),
            "half_extent": model.transform.half_extent,
        },
        "channel_names": model.channel_names,
    }
    buf = io.BytesIO()
    buf.write(json.dumps(header).encode("utf-8"))
    buf.write(b"\n\n")
    for p in model.parameters():
        buf.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_model(path) -> MlpModel:
    with open(path, "rb") as f:
        raw = f.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise ModelFormatError(f"{path}: missing header terminator")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"{path}: unreadable header: {e}") from None
    if header.get("magic") != "VINR":
        raise ModelFormatError(f"{path}: bad magic")
    if header.get("format_version") != 1:
        raise ModelFormatError(f"{path}: unsupported version {header.get('format_version')}")
    try:
        arch = MlpArchitecture(**header["arch"])
    except (KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"{path}: bad architecture block: {e}") from None
    blob = raw[sep + 2 :]
    shapes = arch.param_shapes()
    need = sum(np.prod(w) + np.prod(b) for w, b in shapes)
    if len(blob) != 8 * need:
        raise ModelFormatError(
            f"{path}: parameter blob size mismatch (expected {8 * int(need)} bytes, got {len(blob)})"
        )
    flat = np.frombuffer(blob, dtype="<f8")
    weights, biases = [], []
    off = 0
    for wshape, bshape in shapes:
        n = int(np.prod(wshape))
        weights.append(flat[off : off + n].reshape(wshape).copy())
        off += n
        n = int(np.prod(bshape))
        biases.append(flat[off : off + n].reshape(bshape).copy())
        off += n
    tinfo = header.get("transform")
    transform = None
    if tinfo is not None:
        try:
            transform = DomainTransform(
                scale=tinfo["scale"],
                center=np.asarray(tinfo["center"]),
                half_extent=tinfo["half_extent"],
            )
        except (KeyError, GeometryError) as e:
            raise ModelFormatError(f"{path}: bad transform block: {e}") from None
    try:
        return MlpModel(
            arch=arch,
            weights=weights,
            biases=biases,
            transform=transform,
            channel_names=header.get("channel_names"),
        )
    except ValueError as e:
        raise ModelFormatError(f"{path}: corrupt payload: {e}") from None
