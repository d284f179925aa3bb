"""SDF fitting: Eikonal-point sampling, loss assembly, Adam, and the
single-shape / nested multi-channel training loops.

The per-epoch loss is

    mean_c mean_i |f_c(x_i)|  +  lambda * mean_{x,c} (||grad f_c(x)|| - 1)^2

with surface points drawn from the input cloud(s) and off-surface points
from a 50/50 mixture of uniform samples over [-1,1]^3 and Gaussian
perturbations of surface points. Runs are bit-deterministic for a fixed
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, PointCloud, fit_transform
from .network import (
    LossTerms,
    MlpArchitecture,
    MlpModel,
    _backward_pass,
    _loss_and_adjoints,
    grad_of_loss,
    init_model,
)

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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.surface_batch_size is not None and self.surface_batch_size < 1:
            raise ValueError("surface_batch_size must be >= 1")

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


def loss_value(model: MlpModel, surface_batches, eikonal_batch, lam: float) -> LossTerms:
    """Loss value only (no gradients), from the same forward pass as grad_of_loss."""
    return _loss_and_adjoints(model, surface_batches, eikonal_batch, lam)[0]


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
    """One bias-corrected Adam update, applied to `params` in place."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged("non-finite gradient")
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitReport:
    """Per-epoch loss trace and run metadata."""

    trace: np.ndarray  # (epochs, 3): total, data, eikonal
    wall_time: float
    config: TrainConfig
    completed_epochs: int

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("# " + _config_echo(self.config) + "\n")
            f.write("epoch,total,data,eik\n")
            for i in range(self.completed_epochs):
                t, d, e = self.trace[i]
                f.write(f"{i},{t:.12g},{d:.12g},{e:.12g}\n")


def _config_echo(cfg: TrainConfig) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(vars(cfg).items()))


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

    params = model.parameters()
    opt = AdamState.for_params(params)
    sampler = EikonalSampler(half_extent=1.0)
    rng = np.random.default_rng(config.seed)

    n_surf = config.surface_batch_size
    batch_sizes = [min(len(c), 1024) if n_surf is None else min(len(c), n_surf) for c in clouds]
    n_eik = max(batch_sizes)

    trace = np.zeros((config.epochs, 3))
    start = time.perf_counter()
    all_norm = np.concatenate(norm_points)
    for epoch in range(config.epochs):
        batches = []
        for pts, bs in zip(norm_points, batch_sizes):
            idx = rng.choice(len(pts), size=bs, replace=False) if bs < len(pts) else np.arange(len(pts))
            batches.append(pts[idx])
        eik_batch = sample_eikonal_points(sampler, all_norm, n_eik, rng)
        try:
            if config.nesting_penalty > 0 and C > 1:
                terms, _, grads = _grad_with_nesting_hinge(
                    model, batches, eik_batch, config.lam, config.nesting_penalty
                )
            else:
                terms, grads = grad_of_loss(model, batches, eik_batch, config.lam)
        except FloatingPointError:
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}") from None
        trace[epoch] = (terms.total, terms.data, terms.eikonal)
        if not np.isfinite(terms.total) or terms.total > DIVERGENCE_LIMIT:
            raise TrainingDiverged(
                f"loss diverged at epoch {epoch}: total={terms.total}"
            )
        adam_step(opt, params, grads, config.learning_rate)

    report = FitReport(
        trace=trace,
        wall_time=time.perf_counter() - start,
        config=config,
        completed_epochs=config.epochs,
    )
    return model, report


def _grad_with_nesting_hinge(model: MlpModel, surface_batches, eikonal_batch, lam: float, weight: float):
    """grad_of_loss plus the optional ordering regularizer, from the loss's
    one forward and one backward pass. The hinge penalizes, on the Eikonal
    batch, outer-channel SDF exceeding the next inner channel's (channels
    ordered innermost first). Returns (LossTerms, penalty, parameter
    gradients of the loss plus the penalty)."""
    terms, caches, ybar, Gbar = _loss_and_adjoints(model, surface_batches, eikonal_batch, lam)
    N, B, C = ybar.shape[0], Gbar.shape[0], ybar.shape[1]
    # the output layer's pre-activation is the output; the Eikonal batch's
    # values are the last B of its N value rows
    y, y_bar = caches[-1][1][N - B : N], ybar[N - B :]
    pen = 0.0
    pairs = C - 1
    for i in range(pairs):
        gap = y[:, i + 1] - y[:, i]  # outer minus inner, should be <= 0
        active = gap > 0
        pen += float(np.where(active, gap, 0.0).mean()) / pairs
        scale = weight / (B * pairs)
        y_bar[:, i + 1] += np.where(active, scale, 0.0)
        y_bar[:, i] -= np.where(active, scale, 0.0)
    return terms, weight * pen, _backward_pass(model, caches, ybar, Gbar)
