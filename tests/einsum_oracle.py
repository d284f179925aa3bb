"""Reference network core for tests: the input Jacobian carried as a
(B, width, 3) tensor per layer and contracted with einsum, with the data and
Eikonal batches run through separate passes.

The library carries the same Jacobian as stacked tangent rows of one matrix
per layer; its values and gradients are checked against this straightforward
formulation.
"""

import numpy as np

from vinr.network import INPUT_DIM, _act


def _sigmoid(x):
    """Logistic function without overflow: exp only of non-positive values."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _act_d1(arch, z):
    """act'(z) from the pre-activation, independently of the library, which
    reads it from the output."""
    if arch.activation == "relu":
        return z > 0.0
    return _sigmoid(arch.softplus_beta * z)


def _act_d2(arch, z):
    """act''(z), or None for ReLU."""
    if arch.activation == "relu":
        return None
    s = _sigmoid(arch.softplus_beta * z)
    return arch.softplus_beta * s * (1.0 - s)


def forward_pass(model, x, with_jac):
    """Runs the MLP on a batch (B, 3), optionally propagating the Jacobian
    of every unit w.r.t. the 3 inputs. Returns (y, G, caches)."""
    arch = model.arch
    B = x.shape[0]
    a = x
    Ja = np.broadcast_to(np.eye(INPUT_DIM), (B, INPUT_DIM, INPUT_DIM)).copy() if with_jac else None
    caches = []
    for l in range(1, arch.hidden_layers + 1):
        W, b = model.weights[l - 1], model.biases[l - 1]
        if l == arch.skip_layer and l != 1:
            inp = np.concatenate([a, x], axis=1)
            Jin = (
                np.concatenate(
                    [Ja, np.broadcast_to(np.eye(INPUT_DIM), (B, INPUT_DIM, INPUT_DIM))],
                    axis=1,
                )
                if with_jac
                else None
            )
        else:
            inp, Jin = a, Ja
        z = inp @ W.T + b
        a = _act(arch, z)
        if with_jac:
            Jz = np.einsum("oi,bik->bok", W, Jin)
            Ja = _act_d1(arch, z)[..., None] * Jz
        else:
            Jz = None
        caches.append((inp, Jin, z, Jz))
    Wout, bout = model.weights[-1], model.biases[-1]
    y = a @ Wout.T + bout
    G = np.einsum("ci,bik->bck", Wout, Ja) if with_jac else None
    caches.append((a, Ja, None, None))
    return y, G, caches


def backward_pass(model, caches, ybar, Gbar):
    """Reverse pass through forward_pass. ybar: (B, C); Gbar: (B, C, 3) or
    None. Returns parameter gradients in [W1, b1, ..., Wout, bout] order."""
    arch = model.arch
    with_jac = Gbar is not None
    Wout = model.weights[-1]
    a_last, Ja_last = caches[-1][0], caches[-1][1]

    gWout = ybar.T @ a_last
    gbout = ybar.sum(axis=0)
    abar = ybar @ Wout
    Jbar = None
    if with_jac:
        gWout = gWout + np.einsum("bck,bik->ci", Gbar, Ja_last)
        Jbar = np.einsum("bck,ci->bik", Gbar, Wout)

    grads = [None] * (2 * len(model.weights))
    grads[-2], grads[-1] = gWout, gbout
    for l in range(arch.hidden_layers, 0, -1):
        inp, Jin, z, Jz = caches[l - 1]
        W = model.weights[l - 1]
        d1 = _act_d1(arch, z)
        zbar = d1 * abar
        if with_jac:
            d2 = _act_d2(arch, z)
            if d2 is not None:
                zbar = zbar + d2 * np.einsum("bok,bok->bo", Jbar, Jz)
            Jzbar = d1[..., None] * Jbar
        gW = zbar.T @ inp
        if with_jac:
            gW = gW + np.einsum("bok,bik->oi", Jzbar, Jin)
        grads[2 * (l - 1)] = gW
        grads[2 * (l - 1) + 1] = zbar.sum(axis=0)
        if l == 1:
            break
        abar = (zbar @ W)[:, : arch.hidden_width]
        if with_jac:
            Jbar = np.einsum("bok,oi->bik", Jzbar, W)[:, : arch.hidden_width]
    return grads


def grad_of_loss(model, surface_batches, eikonal_batch, lam, nesting=0.0):
    """(total, data, eikonal, hinge), gradients: the loss of
    vinr.network.grad_of_loss from one value pass over the surface batches
    and one Jacobian pass over the Eikonal batch, whose values also carry
    the channel-ordering hinge."""
    C = model.arch.output_channels
    xs = np.concatenate(surface_batches, axis=0)
    y, _, caches = forward_pass(model, xs, with_jac=False)
    ybar = np.zeros_like(y)
    data = 0.0
    row = 0
    for c, b in enumerate(surface_batches):
        n = b.shape[0]
        yc = y[row : row + n, c]
        data += np.abs(yc).mean() / C
        ybar[row : row + n, c] = np.sign(yc) / (n * C)
        row += n
    grads = backward_pass(model, caches, ybar, None)

    y_e, G, caches_e = forward_pass(model, eikonal_batch, with_jac=True)
    norms = np.linalg.norm(G, axis=2)
    eik = float(((norms - 1.0) ** 2).mean())
    B = eikonal_batch.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(norms > 1e-300, 2.0 * (norms - 1.0) / norms, 0.0)
    Gbar = (lam / (B * C)) * coef[..., None] * G
    # hinge: mean over points and adjacent pairs of max(outer - inner, 0),
    # whose derivative is +-1 / (B * pairs) on the points where it is active
    gaps = y_e[:, 1:] - y_e[:, :-1]  # (B, C - 1), outer minus inner
    active = (gaps > 0).astype(np.float64)
    hinge = float((gaps * active).mean()) if C > 1 else 0.0
    ybar_e = np.zeros_like(y_e)
    if C > 1:
        ybar_e[:, 1:] += nesting * active / active.size
        ybar_e[:, :-1] -= nesting * active / active.size
    grads_e = backward_pass(model, caches_e, ybar_e, Gbar)
    total = float(data) + lam * eik + nesting * hinge
    return (total, float(data), eik, hinge), [g + ge for g, ge in zip(grads, grads_e)]
