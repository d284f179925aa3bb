"""End-to-end acceptance checks for the reconstruction pipeline.

Each test prints one pass/fail line. The fitting fixtures run small but real
trainings, so this module takes several minutes in total.
"""

import time

import numpy as np
import pytest

from vinr.csg import (
    BlendSpec,
    GridSource,
    ModelSource,
    blend_grids,
    evaluate_near_level,
    evaluate_on_grid,
)
from vinr.extraction import check_watertight, enclosed_volume, marching_cubes
from vinr.geometry import save_mesh, signed_distance_to_mesh
from vinr.metrics import average_surface_distance, dice, nesting_violation, split_train_heldout
from vinr.network import MlpArchitecture, forward, grad_of_loss, init_model, param_views, save_model
from vinr.synthetic import (
    Capsule,
    Sphere,
    bifurcation_fixture,
    icosphere,
    sample_analytic_surface,
)
from vinr.training import TrainConfig, fit, fit_nested, loss_value

import einsum_oracle
from test_csg import assert_band_matches_dense

scipy_stats = pytest.importorskip("scipy.stats")

DESK = dict(learning_rate=1e-3, hidden_layers=4, hidden_width=64, skip_layer=3)


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared pipelines (each is also re-run for the determinism criterion)


def run_sphere_pipeline():
    cloud = sample_analytic_surface(Sphere(radius=1.0), 300, seed=0)
    train, held = split_train_heldout(cloud, 200, seed=0)
    cfg = TrainConfig(epochs=2000, seed=0, **DESK)
    t0 = time.perf_counter()
    model, report = fit(train, cfg)
    return dict(
        model=model,
        report=report,
        held=held,
        seconds=time.perf_counter() - t0,
    )


def run_nested_pipeline():
    radii = (0.3, 0.5, 0.7)
    clouds = [
        sample_analytic_surface(Sphere(radius=r), 200, seed=1 + i)
        for i, r in enumerate(radii)
    ]
    cfg = TrainConfig(epochs=2500, seed=0, **DESK)
    model, report = fit_nested(clouds, cfg, channel_names=["lumen", "inner", "outer"])
    return dict(model=model, report=report, clouds=clouds, radii=radii, cfg=cfg)


def run_bifurcation_pipeline():
    union, parts = bifurcation_fixture()
    cfg = TrainConfig(epochs=2000, seed=0, **DESK)
    t0 = time.perf_counter()
    fits = [
        fit(sample_analytic_surface(part, 400, seed=10 + i), cfg)
        for i, part in enumerate(parts)
    ]
    lo = np.array([-1.2, -0.5, -1.2])
    hi = np.array([1.2, 0.5, 1.2])
    dims = (96, 96, 96)
    grids = [evaluate_on_grid(ModelSource(m, 0), dims, lo, hi) for m, _ in fits]
    blended = blend_grids(grids, BlendSpec(k=0.1))
    mesh = marching_cubes(blended)
    return dict(
        union=union,
        models=[m for m, _ in fits],
        reports=[r for _, r in fits],
        blended=blended,
        mesh=mesh,
        bbox=(lo, hi),
        dims=dims,
        seconds=time.perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def sphere_run():
    return run_sphere_pipeline()


@pytest.fixture(scope="module")
def nested_run():
    return run_nested_pipeline()


@pytest.fixture(scope="module")
def bifurcation_run():
    return run_bifurcation_pipeline()


# ---------------------------------------------------------------------------
# criteria


def _off_kink_points(model, n, rng, margin=1e-3):
    """Sample points where no ReLU pre-activation (or output value, which the
    data term takes the absolute value of) is within `margin` of zero, so
    central differences see a locally smooth loss."""
    out = []
    for _ in range(200):
        cand = rng.uniform(-0.9, 0.9, size=(4 * n, 3))
        y, _, caches = einsum_oracle.forward_pass(model, cand, with_jac=False)
        clear = np.abs(y[:, 0]) > margin
        for _, _, z, _ in caches[:-1]:  # (input, Jacobian, pre-activation, ...) of each hidden layer
            clear &= np.abs(z).min(axis=1) > margin
        out.append(cand[clear])
        if sum(len(o) for o in out) >= n:
            break
    pts = np.concatenate(out)
    assert len(pts) >= n, "could not find enough off-kink sample points"
    return pts[:n]


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_param, worst_input = 0.0, 0.0
    for trial in range(20):
        arch = MlpArchitecture(
            hidden_layers=int(rng.integers(2, 4)),
            hidden_width=int(rng.integers(4, 17)),
            output_channels=1,
            skip_layer=2,
            activation="relu" if trial % 2 == 0 else "softplus",
        )
        model = init_model(arch, seed=trial, scheme="standard")
        surface = _off_kink_points(model, 4, rng)
        eik = _off_kink_points(model, 5, rng)
        lam = 0.1
        _, grads = grad_of_loss(model, [surface], eik, lam)
        h = 1e-5
        for pi, p in enumerate(param_views(model.arch, model.params)):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = loss_value(model, [surface], eik, lam).total
                p[idx] = orig - h
                lm = loss_value(model, [surface], eik, lam).total
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(grads[pi][idx] - fd) / max(abs(fd), 1e-6)
                worst_param = max(worst_param, rel)

        from vinr.network import forward_with_input_grad

        x = _off_kink_points(model, 3, rng)
        dual = forward_with_input_grad(model, x)
        hx = 1e-4
        for b in range(len(x)):
            for k in range(3):
                xp, xm = x[b].copy(), x[b].copy()
                xp[k] += hx
                xm[k] -= hx
                fd = (forward(model, xp)[0, 0] - forward(model, xm)[0, 0]) / (2 * hx)
                rel = abs(dual.gradients[b, 0, k] - fd) / max(abs(fd), 1e-3)
                worst_input = max(worst_input, rel)
    secs = time.perf_counter() - t0
    ok = worst_param < 1e-3 and worst_input < 1e-4 and secs < 60
    announce(
        capsys, 1, ok,
        f"param rel err {worst_param:.2e} < 1e-3, input rel err {worst_input:.2e} < 1e-4, {secs:.1f}s",
    )


def test_criterion_2_loss_decomposition(capsys, sphere_run, nested_run, bifurcation_run):
    worst = 0.0
    traces = (
        [sphere_run["report"].trace, nested_run["report"].trace]
        + [r.trace for r in bifurcation_run["reports"]]
    )
    for trace in traces:
        gap = np.abs(trace[:, 0] - (trace[:, 1] + 0.1 * trace[:, 2]))
        worst = max(worst, float(gap.max()))
    ok = worst < 1e-12
    announce(capsys, 2, ok, f"max |total - (data + lam*eik)| = {worst:.2e} over all logged epochs")


def test_criterion_3_sphere_reconstruction(capsys, sphere_run):
    model = sphere_run["model"]
    lo, hi = -1.2 * np.ones(3), 1.2 * np.ones(3)
    dsc = dice(ModelSource(model, 0), Sphere(radius=1.0), (96, 96, 96), lo, hi)
    asd = average_surface_distance(model, sphere_run["held"])
    secs = sphere_run["seconds"]
    ok = dsc > 0.95 and asd < 0.02 and secs < 300
    announce(capsys, 3, ok, f"DSC {dsc:.4f} > 0.95, ASD {asd:.4f} < 0.02, fit {secs:.0f}s")


def test_criterion_4_robustness_sweep(capsys):
    from vinr import cli

    counts = (100, 200, 400, 800)
    repeats = 5
    cfg = TrainConfig(
        epochs=800,
        learning_rate=1e-3,
        hidden_layers=4,
        hidden_width=40,
        skip_layer=2,
        seed=0,
    )
    # a thin capsule: 100 surface points barely cover it, so reconstruction
    # quality genuinely depends on which points were drawn
    shape_spec = "capsule:0,0,-0.8,0,0,0.8,0.1"
    rows = []
    job_index = 0
    for count in counts:
        for repeat in range(repeats):
            rows.append(
                cli._sweep_job(
                    (shape_spec, None, count, repeat, job_index, cfg, 48)
                )
            )
            job_index += 1
    medians = []
    iqrs = {}
    for count in counts:
        ds = np.array([r[2] for r in rows if r[0] == count])
        assert np.isfinite(ds).all(), f"sweep produced NaN at count={count}"
        medians.append(float(np.median(ds)))
        iqrs[count] = float(np.percentile(ds, 75) - np.percentile(ds, 25))
    rho = scipy_stats.spearmanr(counts, medians).statistic
    ok = rho >= 0 and iqrs[800] <= iqrs[100]
    announce(
        capsys, 4, ok,
        f"median DSC by count {[f'{m:.3f}' for m in medians]}, spearman rho {rho:.2f} >= 0, "
        f"IQR 800 {iqrs[800]:.4f} <= IQR 100 {iqrs[100]:.4f}",
    )


def test_criterion_5_nested_fitting(capsys, nested_run):
    model = nested_run["model"]
    lo, hi = -0.9 * np.ones(3), 0.9 * np.ones(3)
    dims = (64, 64, 64)
    rep = nesting_violation(model, dims, lo, hi, tolerance=1e-3)
    dscs = [
        dice(ModelSource(model, c), Sphere(radius=r), dims, lo, hi)
        for c, r in enumerate(nested_run["radii"])
    ]
    # comparison baseline: three independent single-channel fits on the
    # same clouds, violation fraction reported but not asserted
    singles = [fit(c, nested_run["cfg"])[0] for c in nested_run["clouds"]]
    grids = [
        evaluate_on_grid(ModelSource(m, 0), dims, lo, hi).values.astype(np.float64)
        for m in singles
    ]
    violated = np.zeros(dims, dtype=bool)
    for outer, inner in zip(grids[::-1][:-1], grids[::-1][1:]):
        violated |= (outer - inner) > 1e-3
    baseline = float(violated.mean())
    ok = rep.fraction_violated < 0.01 and all(d > 0.9 for d in dscs)
    announce(
        capsys, 5, ok,
        f"joint-fit violations {rep.fraction_violated:.4%} < 1%, per-channel DSC "
        f"{[f'{d:.3f}' for d in dscs]} > 0.9; independent-fit baseline violations {baseline:.4%}",
    )


def test_criterion_6_csg_algebra(capsys):
    rng = np.random.default_rng(200)
    n = 1_000_000
    d1 = rng.normal(scale=0.5, size=n)
    d2 = rng.normal(scale=0.5, size=n)
    k = rng.uniform(1e-6, 0.5, size=n)
    tol = 1e-12
    worst = 0.0
    # vectorize over distinct k by computing gamma directly
    h = np.maximum(k - np.abs(d1 - d2), 0.0)
    gamma = 0.25 * k * h * h
    su = np.minimum(d1, d2) - gamma
    sym = np.minimum(d2, d1) - 0.25 * k * np.maximum(k - np.abs(d2 - d1), 0.0) ** 2
    worst = max(worst, float(np.abs(su - sym).max()))  # symmetry
    far = np.abs(d1 - d2) >= k
    worst = max(worst, float(np.abs(su[far] - np.minimum(d1, d2)[far]).max()))
    assert np.all(su <= np.minimum(d1, d2) + tol)  # never above the hard min
    # k -> 0 limit: the gap to the hard min is bounded by 0.25*k^3
    assert np.all(np.minimum(d1, d2) - su <= 0.25 * k**3 + tol)
    # the scalar API must agree with the vectorized identity above
    from vinr.csg import smooth_union

    probe = smooth_union(0.02, 0.05, BlendSpec(k=0.1, variant="cubic"))
    exact = probe == 0.0198775
    ok = worst < tol and exact
    announce(
        capsys, 6, ok,
        f"property residual {worst:.2e} < 1e-12 on 1e6 triples, worked value {probe!r}"
        f" {'==' if exact else '!='} 0.0198775",
    )


def test_criterion_7_blending_pipeline(capsys, bifurcation_run):
    mesh = bifurcation_run["mesh"]
    rep = check_watertight(mesh)
    lo, hi = bifurcation_run["bbox"]
    dsc = dice(
        GridSource(bifurcation_run["blended"]),
        bifurcation_run["union"],
        bifurcation_run["dims"],
        lo,
        hi,
    )
    secs = bifurcation_run["seconds"]
    ok = rep.closed and rep.boundary_edges == 0 and dsc > 0.9 and secs < 1200
    announce(
        capsys, 7, ok,
        f"watertight={rep.closed} (boundary edges {rep.boundary_edges}), "
        f"DSC vs analytic union {dsc:.4f} > 0.9, {secs:.0f}s",
    )


def test_criterion_8_extraction_quality(capsys):
    r = 0.7
    dims = (64, 64, 64)
    lo, hi = -np.ones(3), np.ones(3)
    g = evaluate_on_grid(Sphere(radius=r), dims, lo, hi)
    mesh = marching_cubes(g)
    rep = check_watertight(mesh)
    radial_err = float(np.abs(np.linalg.norm(mesh.vertices, axis=1) - r).max())
    cell_diag = float(np.linalg.norm((hi - lo) / (np.array(dims) - 1)))
    vol = enclosed_volume(mesh)
    vol_true = 4 / 3 * np.pi * r**3
    ok = (
        rep.closed
        and radial_err < 1.5 * cell_diag
        and abs(vol - vol_true) / vol_true < 0.02
    )
    announce(
        capsys, 8, ok,
        f"watertight={rep.closed}, max radial error {radial_err:.4f} < {1.5 * cell_diag:.4f}, "
        f"volume off by {abs(vol - vol_true) / vol_true:.2%} < 2%",
    )


def test_criterion_9_determinism(capsys, sphere_run, nested_run, bifurcation_run, tmp_path):
    def model_bytes(model, tag):
        p = tmp_path / f"{tag}.inr"
        save_model(model, p)
        return p.read_bytes()

    def mesh_bytes(mesh, tag):
        p = tmp_path / f"{tag}.obj"
        save_mesh(mesh, p)
        return p.read_bytes()

    results = []

    rerun = run_sphere_pipeline()
    same = model_bytes(sphere_run["model"], "s1") == model_bytes(rerun["model"], "s2")
    lo, hi = -1.2 * np.ones(3), 1.2 * np.ones(3)
    m1 = marching_cubes(evaluate_on_grid(ModelSource(sphere_run["model"], 0), (64,) * 3, lo, hi))
    m2 = marching_cubes(evaluate_on_grid(ModelSource(rerun["model"], 0), (64,) * 3, lo, hi))
    same &= mesh_bytes(m1, "sm1") == mesh_bytes(m2, "sm2")
    results.append(("sphere", same))

    rerun = run_nested_pipeline()
    same = model_bytes(nested_run["model"], "n1") == model_bytes(rerun["model"], "n2")
    results.append(("nested", same))

    rerun = run_bifurcation_pipeline()
    same = all(
        model_bytes(a, f"b1_{i}") == model_bytes(b, f"b2_{i}")
        for i, (a, b) in enumerate(zip(bifurcation_run["models"], rerun["models"]))
    )
    same &= mesh_bytes(bifurcation_run["mesh"], "bm1") == mesh_bytes(rerun["mesh"], "bm2")
    results.append(("bifurcation", same))

    ok = all(s for _, s in results)
    announce(
        capsys, 9, ok,
        "bit-identical reruns: " + ", ".join(f"{n}={'yes' if s else 'NO'}" for n, s in results),
    )


def test_criterion_10_oracle_equivalence(capsys):
    mesh = icosphere(3, radius=1.0)
    rng = np.random.default_rng(300)
    pts = rng.uniform(-1.5, 1.5, size=(10_000, 3))
    sd = signed_distance_to_mesh(pts, mesh)
    analytic = np.linalg.norm(pts, axis=1) - 1.0
    worst = float(np.abs(sd - analytic).max())
    ok = worst < 5e-3
    announce(capsys, 10, ok, f"max |mesh SDF - analytic| = {worst:.2e} < 5e-3 at 1e4 points")


def test_narrow_band_matches_dense(sphere_run, nested_run, bifurcation_run):
    # every fitted model at the lattices the criteria extract and score on:
    # the same signs, straddling values and mesh bytes, so the same DSC and ASD
    cases = [(sphere_run["model"], 0, dims, -1.2 * np.ones(3), 1.2 * np.ones(3)) for dims in (64, 96)]
    cases += [(nested_run["model"], c, 64, -0.9 * np.ones(3), 0.9 * np.ones(3)) for c in range(3)]
    cases += [(m, 0, 96, *bifurcation_run["bbox"]) for m in bifurcation_run["models"]]
    for model, channel, n, lo, hi in cases:
        source = ModelSource(model, channel)
        band = evaluate_near_level(source, (n,) * 3, lo, hi)
        assert_band_matches_dense(band, evaluate_on_grid(source, (n,) * 3, lo, hi))
