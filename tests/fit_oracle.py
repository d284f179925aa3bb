"""The fitting loop with one array per weight and bias: Adam steps the
per-layer parameters with the fresh gradient arrays of grad_of_loss called
without a workspace. Test oracle for training.fit_nested, which keeps the
parameters, the gradient and the Adam moments in flat vectors stepped in
chunk views; the arithmetic is the same, so the results agree to the bit."""

import numpy as np

from vinr.geometry import PointCloud, fit_transform
from vinr.network import grad_of_loss, init_model
from vinr.training import AdamState, EikonalSampler, adam_step, sample_eikonal_points


def fit_nested(clouds, config):
    """(model, loss trace (epochs, 4)) of training.fit_nested on the same
    clouds and config, drawing the same random numbers in the same order."""
    union = PointCloud(np.concatenate([c.points for c in clouds]))
    transform = fit_transform(union, half_extent=config.half_extent)
    norm_points = [transform.apply(c.points) for c in clouds]
    model = init_model(config.architecture(len(clouds)), seed=config.seed, scheme=config.init_scheme)
    params = model.parameters()
    opt = AdamState.for_params(params)
    rng = np.random.default_rng(config.seed)
    n_surf = 1024 if config.surface_batch_size is None else config.surface_batch_size
    batch_sizes = [min(len(pts), n_surf) for pts in norm_points]
    all_norm = np.concatenate(norm_points)
    trace = np.zeros((config.epochs, 4))
    for epoch in range(config.epochs):
        batches = [
            pts[rng.choice(len(pts), size=bs, replace=False)] if bs < len(pts) else pts
            for pts, bs in zip(norm_points, batch_sizes)
        ]
        eik = sample_eikonal_points(EikonalSampler(), all_norm, max(batch_sizes), rng)
        terms, grads = grad_of_loss(model, batches, eik, config.lam, config.nesting_penalty)
        trace[epoch] = (terms.total, terms.data, terms.eikonal, terms.nesting)
        adam_step(opt, params, grads, config.learning_rate)
    return model, trace
