"""The benchmark's three workloads.

Each workload generates every input vinr receives from the run seed. It has
a `setup` (input generation plus whatever must exist before timing starts),
a timed `run`, and an untimed `inspect` that reads the outputs back and
checks them. Stage spans (`bench.fit`, `bench.mesh`, `bench.eval`, ...) are
recorded in every run; they are the end-to-end stage timers.

Sizes are set so that 3 set-ups plus a 20 s measuring window with several
iterations fit the benchmark's time budget on a 2-CPU machine; `TINY` sizes
only exercise the harness.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vinr import cli, csg, extraction, geometry, metrics, network, synthetic, training


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Inspection:
    values: dict  # deterministic quality numbers (dsc, asd, final_loss, ...)
    checks: list  # list[Check]


class CommandFailed(RuntimeError):
    pass


def _sub_seed(seed: int, k: int) -> int:
    """Distinct, reproducible seeds for the independent random inputs of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperFitSizes:
    points: int = 1024
    heldout: int = 1024
    epochs: int = 8
    hidden_layers: int = 6
    hidden_width: int = 256


class PaperFit:
    """Single-channel fit of a sphere cloud at the paper's 6x256 network with
    a 1024-point batch, then save the model and measure field-value ASD on
    held-out points.

    Why: training at paper size is bound by the dense products inside
    `grad_of_loss` (about 0.4 s of each 0.45 s epoch on 2 CPUs), and no grid
    is evaluated or extracted, so a faster network core shows here and a
    faster extraction does not.
    """

    name = "paper_fit"
    ops_per_run = 3  # fit, save, eval

    def __init__(self, sizes: PaperFitSizes = PaperFitSizes()):
        self.sizes = sizes

    def setup(self, tracer, seed: int, workdir: Path):
        z = self.sizes
        with tracer.span("bench.sample"):
            cloud = synthetic.sample_analytic_surface(
                synthetic.Sphere(radius=0.5), z.points + z.heldout, _sub_seed(seed, 0)
            )
            train, held = metrics.split_train_heldout(cloud, z.points, _sub_seed(seed, 1))
        config = training.TrainConfig(
            epochs=z.epochs,
            seed=_sub_seed(seed, 2),
            hidden_layers=z.hidden_layers,
            hidden_width=z.hidden_width,
        )
        with tracer.span("bench.warmup"):
            # one gradient at the timed shapes, so BLAS threads and buffers exist
            model = network.init_model(config.architecture(1), seed=config.seed, scheme="sphere")
            rng = np.random.default_rng(config.seed)
            eik = training.sample_eikonal_points(training.EikonalSampler(), train.points, z.points, rng)
            training.grad_of_loss(model, train.points[: z.points], eik, config.lam)
        return {"train": train, "held": held, "config": config}, {"files": {}, "values": {}}

    def run(self, tracer, state, workdir: Path) -> dict:
        with tracer.span("bench.fit"):
            model, report = training.fit(state["train"], state["config"])
        path = workdir / "paper.inr"
        with tracer.span("bench.save"):
            network.save_model(model, path)
        with tracer.span("bench.eval"):
            asd = metrics.average_surface_distance(model, state["held"], use_field_values=True)
        return {"files": {"paper.inr": path}, "trace": report.trace, "asd": asd}

    def inspect(self, state, raw) -> Inspection:
        trace = raw["trace"][:, 0]
        finite = bool(np.all(np.isfinite(trace)))
        return Inspection(
            values={"asd": raw["asd"], "final_loss": float(trace[-1])},
            checks=[
                Check("loss_trace_finite", finite, f"{len(trace)} epochs"),
                Check(
                    "loss_decreased",
                    finite and trace[-1] < trace[0],
                    f"first {trace[0]:.6g}, final {trace[-1]:.6g}",
                ),
                Check("asd_finite", math.isfinite(raw["asd"]), f"asd {raw['asd']:.6g}"),
            ],
        )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliSizes:
    count: int = 200
    heldout: int = 100
    epochs: int = 250
    hidden_layers: int = 4
    hidden_width: int = 64
    extract_dims: int = 64
    dsc_dims: int = 48
    asd_dims: int = 48
    warmup_epochs: int = 20
    warmup_dims: int = 24


class CliRoundTrip:
    """`vinr sample -> fit -> extract -> eval` through `vinr.cli.main`, in
    process, at the 4x64 desk size with 200 training and 100 held-out
    points of a radius-0.5 sphere: 250 epochs, extraction at 64^3, Dice and
    ASD at 48^3.

    Why: this is the path users run. Small-batch training is bound by
    Python dispatch rather than by the products, and grid evaluation,
    marching cubes, brute-force point-to-mesh distance and OBJ/INR/XYZ file
    I/O all sit on the blocking path, so every layer shows.
    """

    name = "cli_roundtrip"
    ops_per_run = 4  # the four commands
    SHAPE = "sphere:0.5"
    BBOX = "-0.8 -0.8 -0.8 0.8 0.8 0.8"

    def __init__(self, sizes: CliSizes = CliSizes()):
        self.sizes = sizes

    def _argvs(self, seed: int, d: Path, epochs: int, dims: tuple) -> list:
        z = self.sizes
        net = ["--lr", "1e-3", "--layers", str(z.hidden_layers), "--width", str(z.hidden_width)]
        return [
            ["sample", "--shape", self.SHAPE, "--count", str(z.count), "--heldout", str(z.heldout),
             "--seed", str(_sub_seed(seed, 0)), "--out", str(d / "points.xyz"),
             "--heldout-out", str(d / "heldout.xyz")],
            ["fit", "--points", str(d / "points.xyz"), "--out", str(d / "model.inr"),
             "--report", str(d / "trace.csv"), "--epochs", str(epochs),
             "--seed", str(_sub_seed(seed, 1))] + net,
            ["extract", "--model", str(d / "model.inr"), "--dims", str(dims[0]),
             "--bbox", self.BBOX, "--out", str(d / "surface.obj")],
            ["eval", "--model", str(d / "model.inr"), "--ref-shape", self.SHAPE,
             "--heldout", str(d / "heldout.xyz"), "--dsc-dims", str(dims[1]),
             "--asd-dims", str(dims[2])],
        ]

    @staticmethod
    def _main(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise CommandFailed(f"vinr {argv[0]} exited with {rc}")
        return out.getvalue()

    def setup(self, tracer, seed: int, workdir: Path):
        z = self.sizes
        warm = workdir / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        with tracer.span("bench.warmup"):
            # the same four commands once at a small size
            for argv in self._argvs(seed, warm, z.warmup_epochs, (z.warmup_dims,) * 3):
                self._main(argv)
        return {"seed": seed}, {"files": {}, "values": {}}

    def run(self, tracer, state, workdir: Path) -> dict:
        z = self.sizes
        dims = (z.extract_dims, z.dsc_dims, z.asd_dims)
        outs = []
        for stage, argv in zip(
            ("bench.sample", "bench.fit", "bench.mesh", "bench.eval"),
            self._argvs(state["seed"], workdir, z.epochs, dims),
        ):
            with tracer.span(stage):
                outs.append(self._main(argv))
        return {
            "files": {"model.inr": workdir / "model.inr", "surface.obj": workdir / "surface.obj"},
            "eval_stdout": outs[-1],
            "trace_csv": workdir / "trace.csv",
        }

    def inspect(self, state, raw) -> Inspection:
        header, row = raw["eval_stdout"].strip().splitlines()[-2:]
        fields = dict(zip(header.split(","), row.split(",")))
        dsc, asd = float(fields["dsc"]), float(fields["asd"])
        lines = [l for l in raw["trace_csv"].read_text().splitlines() if l and l[0].isdigit()]
        totals = np.array([float(l.split(",")[1]) for l in lines])
        mesh = geometry.load_mesh(raw["files"]["surface.obj"])
        wt = extraction.check_watertight(mesh)
        return Inspection(
            values={"dsc": dsc, "asd": asd, "final_loss": float(totals[-1])},
            checks=[
                Check("mesh_closed_and_oriented", wt.closed and wt.orientation_consistent, str(wt)),
                Check("dsc_above_0.95", dsc > 0.95, f"dsc {dsc}"),
                Check("asd_below_0.02", asd < 0.02, f"asd {asd}"),
                Check("loss_trace_finite", bool(np.all(np.isfinite(totals))), f"{len(totals)} epochs"),
            ],
        )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlendSizes:
    points: int = 200
    heldout: int = 100
    epochs: int = 100
    hidden_layers: int = 4
    hidden_width: int = 64
    dims: int = 64


class BlendTree:
    """Set-up fits the three `bifurcation_fixture` branches with short 4x64
    fits and saves them; the timed part evaluates each model on a 64^3 grid,
    blends the grids (k=0.1), runs marching cubes and the watertight audit,
    saves the mesh, and computes Dice against the analytic union and ASD
    from held-out union samples.

    Why: this uses the network forward-only, in 65536-point chunks, with no
    Jacobian and no backward, and training does no timed work. Grid
    evaluation is most of the timed part, so a narrow-band extraction shows
    here and a faster training step barely does (outside `setup_s`).
    """

    name = "blend_tree"
    ops_per_run = 3  # mesh, save, eval
    K = 0.1
    BBOX = (np.array([-1.2, -0.5, -1.2]), np.array([1.2, 0.5, 1.2]))

    def __init__(self, sizes: BlendSizes = BlendSizes()):
        self.sizes = sizes

    def setup(self, tracer, seed: int, workdir: Path):
        z = self.sizes
        union, parts = synthetic.bifurcation_fixture()
        with tracer.span("bench.sample"):
            clouds = [
                synthetic.sample_analytic_surface(p, z.points, _sub_seed(seed, i))
                for i, p in enumerate(parts)
            ]
            held = synthetic.sample_analytic_surface(union, z.heldout, _sub_seed(seed, 3))
        config = training.TrainConfig(
            epochs=z.epochs,
            learning_rate=1e-3,
            seed=_sub_seed(seed, 4),
            hidden_layers=z.hidden_layers,
            hidden_width=z.hidden_width,
        )
        models, losses, files = [], [], {}
        with tracer.span("bench.fit"):
            for cloud in clouds:
                model, report = training.fit(cloud, config)
                models.append(model)
                losses.append(float(report.trace[-1, 0]))
        with tracer.span("bench.save"):
            for i, model in enumerate(models):
                files[f"branch{i}.inr"] = workdir / f"branch{i}.inr"
                network.save_model(model, files[f"branch{i}.inr"])
        state = {"models": models, "union": union, "held": held}
        return state, {"files": files, "values": {"final_loss": float(np.mean(losses))}}

    def run(self, tracer, state, workdir: Path) -> dict:
        dims = (self.sizes.dims,) * 3
        lo, hi = self.BBOX
        with tracer.span("bench.mesh"):
            grids = [
                csg.evaluate_on_grid(csg.ModelSource(m, 0), dims, lo, hi) for m in state["models"]
            ]
            blended = csg.blend_grids(grids, csg.BlendSpec(k=self.K))
            mesh = extraction.marching_cubes(blended)
            wt = extraction.check_watertight(mesh)
        path = workdir / "tree.obj"
        with tracer.span("bench.save"):
            geometry.save_mesh(mesh, path)
        with tracer.span("bench.eval"):
            dsc = metrics.dice(csg.GridSource(blended), state["union"], dims, lo, hi)
            asd = metrics.average_surface_distance(mesh, state["held"])
        return {"files": {"tree.obj": path}, "watertight": wt, "dsc": dsc, "asd": asd}

    def inspect(self, state, raw) -> Inspection:
        wt, dsc = raw["watertight"], raw["dsc"]
        return Inspection(
            values={"dsc": dsc, "asd": raw["asd"]},
            checks=[
                Check("mesh_closed_and_oriented", wt.closed and wt.orientation_consistent, str(wt)),
                Check("dsc_above_0.9", dsc > 0.9, f"dsc {dsc}"),
                Check("asd_finite", math.isfinite(raw["asd"]), f"asd {raw['asd']}"),
            ],
        )


WORKLOADS = {w.name: w for w in (PaperFit, CliRoundTrip, BlendTree)}

TINY = {
    "paper_fit": PaperFitSizes(points=64, heldout=64, epochs=3, hidden_layers=3, hidden_width=32),
    "cli_roundtrip": CliSizes(count=60, heldout=20, epochs=40, hidden_layers=3, hidden_width=16,
                              extract_dims=20, dsc_dims=16, asd_dims=20, warmup_epochs=2,
                              warmup_dims=12),
    "blend_tree": BlendSizes(points=60, heldout=20, epochs=30, hidden_layers=3, hidden_width=16,
                             dims=24),
}
