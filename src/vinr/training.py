"""SDF fitting: Eikonal-point sampling, Adam, and the single-shape / nested
multi-channel training loops.

The per-epoch loss, network.grad_of_loss, is

    mean_c mean_i |f_c(x_i)|  +  lambda * mean_{x,c} (||grad f_c(x)|| - 1)^2
        +  nesting_penalty * mean_{x,c<C} max(f_{c+1}(x) - f_c(x), 0)

with surface points drawn from the input cloud(s) and off-surface points
from a 50/50 mixture of uniform samples over [-1,1]^3 and Gaussian
perturbations of surface points. Runs are bit-deterministic for a fixed
seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, PointCloud, fit_transform
from .network import MlpArchitecture, MlpModel, grad_of_loss, init_model, loss_value, loss_workspace, param_views

__all__ = [
    "TrainConfig",
    "EikonalSampler",
    "FitReport",
    "AdamState",
    "adam_step",
    "sample_eikonal_points",
    "loss_value",
    "fit",
    "fit_nested",
    "TrainingDiverged",
]

DIVERGENCE_LIMIT = 1e6
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# entries per Adam step view in a fit: each elementwise pass of the step
# touches at most three 512 KiB views, which the next pass finds in L2; over
# a 6x256 model's whole 2.6 MB vectors the passes fall out of it
ADAM_CHUNK = 2**16


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite or explodes."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25_000
    learning_rate: float = 1e-4
    lam: float = 0.1  # weight of the gradient-norm penalty
    surface_batch_size: int | None = None  # None -> min(N, 1024); Eikonal batch = largest
    seed: int = 0
    activation: str = "relu"
    init_scheme: str = "sphere"
    hidden_layers: int = 6
    hidden_width: int = 256
    skip_layer: int = 3
    half_extent: float = 0.9
    nesting_penalty: float = 0.0  # optional hinge on channel ordering, off by default

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # `not lo < x < hi`: NaN fails every comparison, so it is rejected too
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be non-negative and finite, got {self.lam}")
        if self.surface_batch_size is not None and self.surface_batch_size < 1:
            raise ValueError("surface_batch_size must be >= 1")
        if not 0 < self.half_extent <= 1:
            raise ValueError(f"half_extent must be in (0, 1], got {self.half_extent}")
        if not 0 <= self.nesting_penalty < math.inf:
            raise ValueError(f"nesting_penalty must be non-negative and finite, got {self.nesting_penalty}")

    def architecture(self, channels: int) -> MlpArchitecture:
        return MlpArchitecture(
            hidden_layers=self.hidden_layers,
            hidden_width=self.hidden_width,
            output_channels=channels,
            skip_layer=self.skip_layer,
            activation=self.activation,
        )


@dataclass(frozen=True)
class EikonalSampler:
    """Sampling measure for the gradient-norm penalty: half uniform over
    [-h, h]^3, half Gaussian perturbations of surface points, clamped."""

    half_extent: float = 1.0
    sigma: float = 0.1


def sample_eikonal_points(
    sampler: EikonalSampler, surface_points: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one eikonal point")
    h = sampler.half_extent
    n_uniform = n // 2
    pts = np.empty((n, 3))
    pts[:n_uniform] = rng.uniform(-h, h, size=(n_uniform, 3))
    k = n - n_uniform
    idx = rng.integers(0, len(surface_points), size=k)
    noisy = surface_points[idx] + sampler.sigma * rng.normal(size=(k, 3))
    pts[n_uniform:] = np.clip(noisy, -h, h)
    return pts


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: list
    v: list
    step_count: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params, grads, lr: float) -> None:
    """One bias-corrected Adam update, applied to `params` in place. A
    non-finite gradient raises TrainingDiverged before any state changes.

    The update runs in two scratch buffers sized to the largest parameter,
    with the operations of

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p -= lr (m / c1) / (sqrt(v / c2) + eps)

    in that order, so the results are those of the expressions to the bit."""
    if not all(np.all(np.isfinite(g)) for g in grads):
        raise TrainingDiverged("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    size = max(p.size for p in params)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = scratch_a[: p.size].reshape(p.shape), scratch_b[: p.size].reshape(p.shape)
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        p -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitReport:
    """Per-epoch loss trace and run metadata. Each row holds the fields of
    network.LossTerms: total = data + lam * eikonal + nesting_penalty * nesting."""

    trace: np.ndarray  # (epochs, 4): total, data, eikonal, unweighted nesting hinge
    wall_time: float
    config: TrainConfig

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("# " + _config_echo(self.config) + "\n")
            f.write("epoch,total,data,eik,nesting\n")
            for i, (t, d, e, n) in enumerate(self.trace):
                f.write(f"{i},{t:.12g},{d:.12g},{e:.12g},{n:.12g}\n")


def _config_echo(cfg: TrainConfig) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(vars(cfg).items()))


def _chunks(flat: np.ndarray, size: int) -> list:
    """Consecutive views of `size` entries of a flat vector, the last one
    shorter unless `size` divides its length."""
    return [flat[s : s + size] for s in range(0, flat.size, size)]


def fit(cloud: PointCloud, config: TrainConfig) -> tuple[MlpModel, FitReport]:
    """Fit a single-channel SDF to a real-coordinate point cloud."""
    return fit_nested([cloud], config, channel_names=None)


def fit_nested(
    clouds,
    config: TrainConfig,
    channel_names=None,
) -> tuple[MlpModel, FitReport]:
    """Fit one SDF channel per cloud (innermost surface first) with a shared
    domain transform computed from the union of all clouds."""
    clouds = list(clouds)
    if not clouds:
        raise GeometryError("need at least one point cloud")
    if any(len(c) < 4 for c in clouds):
        raise GeometryError("each cloud needs at least 4 points")
    C = len(clouds)
    if channel_names and len(channel_names) != C:
        raise ValueError(f"got {len(channel_names)} channel names for {C} point clouds")

    union = PointCloud(np.concatenate([c.points for c in clouds]))
    transform = fit_transform(union, half_extent=config.half_extent)
    norm_points = [transform.apply(c.points) for c in clouds]

    model = init_model(config.architecture(C), seed=config.seed, scheme=config.init_scheme)
    model.transform = transform
    model.channel_names = list(channel_names) if channel_names else None

    # one contiguous parameter vector in .inr order, the model's arrays its views
    flat = np.concatenate([p.ravel() for p in model.parameters()])
    views = param_views(model.arch, flat)
    model.weights, model.biases = views[0::2], views[1::2]
    sampler = EikonalSampler()
    rng = np.random.default_rng(config.seed)

    n_surf = config.surface_batch_size
    batch_sizes = [min(len(c), 1024) if n_surf is None else min(len(c), n_surf) for c in clouds]
    n_eik = max(batch_sizes)
    rows = loss_workspace(model, batch_sizes, n_eik)  # every epoch's batches have these sizes
    # Adam steps the parameter, gradient and moment vectors in chunk views
    params, grads = _chunks(flat, ADAM_CHUNK), _chunks(rows.grad, ADAM_CHUNK)
    opt = AdamState(m=_chunks(np.zeros_like(flat), ADAM_CHUNK), v=_chunks(np.zeros_like(flat), ADAM_CHUNK))

    trace = np.zeros((config.epochs, 4))
    start = time.perf_counter()
    all_norm = np.concatenate(norm_points)
    for epoch in range(config.epochs):
        batches = []
        for pts, bs in zip(norm_points, batch_sizes):
            idx = rng.choice(len(pts), size=bs, replace=False) if bs < len(pts) else np.arange(len(pts))
            batches.append(pts[idx])
        eik_batch = sample_eikonal_points(sampler, all_norm, n_eik, rng)
        try:
            # the gradient lands in rows.grad, whose chunks `grads` holds
            terms, _ = grad_of_loss(model, batches, eik_batch, config.lam, config.nesting_penalty, workspace=rows)
        except FloatingPointError:
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}") from None
        trace[epoch] = (terms.total, terms.data, terms.eikonal, terms.nesting)
        if terms.total > DIVERGENCE_LIMIT:
            raise TrainingDiverged(
                f"loss diverged at epoch {epoch}: total={terms.total}"
            )
        adam_step(opt, params, grads, config.learning_rate)

    report = FitReport(trace=trace, wall_time=time.perf_counter() - start, config=config)
    return model, report
