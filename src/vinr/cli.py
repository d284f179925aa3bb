"""Command-line interface tying the pipeline together.

Subcommands: sample, fit, blend, extract, eval, sweep, fixtures. Every
subcommand is deterministic given identical flags (including --seed); sweep
repetitions run as independent parallel jobs with per-job seeds derived from
the base seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import csg, extraction, geometry, metrics, network, synthetic, training

def _bbox_arg(text: str):
    """argparse type for a box: six finite numbers x0 y0 z0 x1 y1 z1, each
    min strictly below its max."""
    vals = [float(v) for v in text.replace(",", " ").split()]
    if len(vals) != 6:
        raise argparse.ArgumentTypeError("bbox needs 6 numbers: x0 y0 z0 x1 y1 z1")
    lo, hi = np.array(vals[:3]), np.array(vals[3:])
    if not (np.isfinite(vals).all() and (lo < hi).all()):
        raise argparse.ArgumentTypeError(f"bbox needs finite numbers, each min below its max, got {text!r}")
    return lo, hi


def _int_at_least(low: int):
    """argparse type for an integer of at least `low`. argparse names the
    flag in the usage error: "invalid int value" for a non-integer."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    parse.__name__ = "int"
    return parse


def _counts_arg(text: str) -> list:
    """Comma-separated point counts, each at least 1, at least one of them."""
    counts = [_int_at_least(1)(c) for c in text.split(",") if c.strip()]
    if not counts:
        raise argparse.ArgumentTypeError("needs at least one count")
    return counts


def _load_config_file(path) -> dict:
    """`key = value` lines, keys being flag dests. Values stay strings, which
    argparse converts with the flag's own type when it applies a default."""
    out = {}
    for lineno, line in geometry.text_records(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        k, _, v = line.partition("=")
        out[k.strip().replace("-", "_")] = v.strip()
    return out


# fit flag, its argparse dest (the config key), the TrainConfig field it sets,
# and its parsing; the defaults are TrainConfig's
_FIT_FLAGS = (
    ("--epochs", "epochs", "epochs", dict(type=int)),
    ("--lr", "lr", "learning_rate", dict(type=float)),
    ("--lambda", "lam", "lam", dict(type=float)),
    ("--layers", "layers", "hidden_layers", dict(type=int)),
    ("--width", "width", "hidden_width", dict(type=int)),
    ("--skip", "skip", "skip_layer", dict(type=int)),
    ("--activation", "activation", "activation", dict(choices=("relu", "softplus"))),
    ("--init", "init", "init_scheme", dict(choices=("standard", "sphere"))),
    ("--batch", "batch", "surface_batch_size", dict(type=int)),
    ("--seed", "seed", "seed", dict(type=int)),
    ("--half-extent", "half_extent", "half_extent", dict(type=float)),
    ("--nesting-penalty", "nesting_penalty", "nesting_penalty", dict(type=float)),
)


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(**{field: getattr(args, dest) for _, dest, field, _ in _FIT_FLAGS})


def _add_fit_flags(p: argparse.ArgumentParser):
    defaults = training.TrainConfig()
    for flag, dest, field, kwargs in _FIT_FLAGS:
        p.add_argument(flag, dest=dest, default=getattr(defaults, field), **kwargs)


def _reference(mesh_path, shape_spec):
    """The reference surface a --mesh/--shape (or --ref-mesh/--ref-shape)
    pair names, exactly one of the two being set: a mesh or a shape, which
    has value(), bbox() and sample()."""
    return geometry.load_mesh(mesh_path) if mesh_path else synthetic.parse_shape(shape_spec)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    ref = _reference(args.mesh, args.shape)
    cloud = synthetic.sample_analytic_surface(ref, args.count + args.heldout, args.seed)
    if args.heldout:
        train, held = metrics.split_train_heldout(cloud, args.count, args.seed)
        geometry.save_point_cloud(train, args.out)
        held_path = args.heldout_out or _with_suffix(args.out, "_heldout")
        geometry.save_point_cloud(held, held_path)
    else:
        geometry.save_point_cloud(cloud, args.out)
    return 0


def _with_suffix(path: str, suffix: str) -> str:
    stem, dot, ext = path.rpartition(".")
    return f"{stem}{suffix}.{ext}" if dot else f"{path}{suffix}"


def cmd_fit(args) -> int:
    clouds = [geometry.load_point_cloud(p) for p in args.points]
    cfg = _train_config(args)
    try:
        model, report = training.fit_nested(clouds, cfg, channel_names=args.channel_names)
    except training.TrainingDiverged as e:
        print(f"fit diverged: {e}", file=sys.stderr)
        return 1
    network.save_model(model, args.out)
    if args.report:
        report.to_csv(args.report)
    return 0


def cmd_blend(args) -> int:
    if len(args.models) < 2:
        print("blend needs at least two models", file=sys.stderr)
        return 2
    if not (args.out_grid or args.out_mesh):
        print("nothing to write: pass --out-grid and/or --out-mesh", file=sys.stderr)
        return 2
    spec = csg.BlendSpec(k=args.k, variant=args.variant)
    union = csg.Union([csg.ModelSource(network.load_model(p), args.channel) for p in args.models], spec)
    # a grid file holds the field everywhere; a mesh reads it only near its level set
    evaluate = csg.evaluate_on_grid if args.out_grid else csg.evaluate_near_level
    blended = evaluate(union, (args.dims,) * 3, *args.bbox)
    if args.out_grid:
        geometry.write_grid(blended, args.out_grid)
    if args.out_mesh:
        mesh = extraction.marching_cubes(blended, iso=0.0)
        geometry.save_mesh(mesh, args.out_mesh)
    return 0


def cmd_extract(args) -> int:
    if args.grid:
        grid = geometry.read_grid(args.grid)
    else:
        if args.bbox is None:
            print("--bbox is required when extracting from a model", file=sys.stderr)
            return 2
        source = csg.ModelSource(network.load_model(args.model), args.channel)
        grid = csg.evaluate_near_level(source, (args.dims,) * 3, *args.bbox, iso=args.iso)
    mesh = extraction.marching_cubes(grid, iso=args.iso)
    geometry.save_mesh(mesh, args.out)
    return 0


def cmd_eval(args) -> int:
    model = network.load_model(args.model)
    ref = _reference(args.ref_mesh, args.ref_shape)
    lo, hi = args.bbox if args.bbox else metrics.padded_bbox(*ref.bbox(), 0.1)
    dims = (args.dsc_dims,) * 3
    recon = csg.ModelSource(model, args.channel)
    if args.heldout and args.asd_dims == args.dsc_dims:  # one band grid serves Dice and ASD
        recon = csg.evaluate_near_level(recon, dims, lo, hi)
    dsc = metrics.dice(recon, ref, dims, lo, hi)
    asd = ""
    if args.heldout:
        held = geometry.load_point_cloud(args.heldout)
        asd = metrics.average_surface_distance(
            recon, held, dims=(args.asd_dims,) * 3, bbox_min=lo, bbox_max=hi
        )
    nesting = ""
    if model.arch.output_channels >= 2:
        nesting = metrics.nesting_violation(model, dims, lo, hi).fraction_violated
    print("dsc,asd,nesting_fraction")
    print(f"{dsc:.6f},{asd if asd == '' else f'{asd:.6f}'},{nesting if nesting == '' else f'{nesting:.6f}'}")
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as f:
            f.write(f"dsc = {dsc}\n")
            f.write(f"asd = {asd}\n")
            f.write(f"nesting_fraction = {nesting}\n")
    return 0


def _sweep_job(job):
    """One (count, repeat) cell: sample, fit, evaluate. Returns a CSV row."""
    (shape_spec, mesh_path, count, repeat, job_index, cfg, dsc_dims) = job
    seed = cfg.seed + job_index
    t0 = time.perf_counter()
    try:
        ref = _reference(mesh_path, shape_spec)
        cloud = synthetic.sample_analytic_surface(ref, count + max(count // 2, 50), seed)
        train, held = metrics.split_train_heldout(cloud, count, seed)
        model, _ = training.fit(train, dataclasses.replace(cfg, seed=seed))
        lo, hi = metrics.padded_bbox(*ref.bbox(), 0.1)
        dims = (dsc_dims,) * 3
        grid = csg.evaluate_near_level(csg.ModelSource(model, 0), dims, lo, hi)  # for Dice and ASD
        dsc = metrics.dice(grid, ref, dims, lo, hi)
        asd = metrics.average_surface_distance(grid, held)
        return (count, repeat, dsc, asd, time.perf_counter() - t0)
    except Exception as e:  # failures become NaN rows, the sweep continues
        print(f"sweep job (count={count}, repeat={repeat}) failed: {e}", file=sys.stderr)
        return (count, repeat, float("nan"), float("nan"), time.perf_counter() - t0)


def _median_iqr(values) -> tuple[float, float]:
    """Median and interquartile range over the jobs that succeeded (failed
    jobs hold NaN); NaN for both when every job failed."""
    a = np.asarray(values, dtype=np.float64)
    a = a[~np.isnan(a)]
    if a.size == 0:
        return float("nan"), float("nan")
    return float(np.median(a)), float(np.percentile(a, 75) - np.percentile(a, 25))


def cmd_sweep(args) -> int:
    cfg = _train_config(args)
    jobs = [
        (args.shape, args.mesh, count, repeat, job_index, cfg, args.dsc_dims)
        for job_index, (count, repeat) in enumerate(itertools.product(args.counts, range(args.repeats)))
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_job, jobs))
    else:
        rows = [_sweep_job(j) for j in jobs]

    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# sweep generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        f.write("count,repeat,dsc,asd,seconds\n")
        for count, repeat, dsc, asd, secs in rows:
            f.write(f"{count},{repeat},{dsc:.6f},{asd:.6f},{secs:.3f}\n")
        for count in args.counts:
            (dsc, dsc_iqr), (asd, asd_iqr) = (
                _median_iqr([r[k] for r in rows if r[0] == count]) for k in (2, 3)
            )
            f.write(f"{count},median,{dsc:.6f},{asd:.6f},\n")
            f.write(f"{count},iqr,{dsc_iqr:.6f},{asd_iqr:.6f},\n")
    failed = sum(np.isnan(r[2]) for r in rows)
    if failed:
        print(f"error: {failed} of {len(rows)} sweep jobs failed", file=sys.stderr)
        return 1
    return 0


def cmd_fixtures(args) -> int:
    shape = synthetic.parse_shape(args.shape)
    if isinstance(shape, synthetic.Sphere):
        mesh = synthetic.icosphere(args.subdiv, shape.radius, shape.center)
    elif isinstance(shape, synthetic.Capsule):
        mesh = synthetic.capsule_mesh(shape.a, shape.b, shape.radius)
    else:
        print(f"no tessellation for shape {args.shape!r}", file=sys.stderr)
        return 2
    geometry.save_mesh(mesh, args.out_mesh)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser(config=None) -> argparse.ArgumentParser:
    """The `vinr` parser. `config` maps flag dests to string defaults (a
    config file's contents), split on whitespace for list-valued flags;
    explicit flags still win."""
    parser = argparse.ArgumentParser(
        prog="vinr",
        description="Fit, blend, extract and evaluate neural signed-distance surfaces.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key = value file of flag defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    config = {k: v.split() if k in ("channel_names", "models") else v
              for k, v in (config or {}).items()}
    if "points" in config:  # an `append` default would be added to, not replaced by, --points
        parser.error("config key 'points' is not supported: give the clouds with --points")

    p = sub.add_parser("sample", help="sample a point cloud from a mesh or analytic shape")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--mesh")
    src.add_argument("--shape")
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--heldout", type=_int_at_least(0), default=0, help="also write N disjoint held-out points")
    p.add_argument("--heldout-out")
    p.set_defaults(**{**config, "func": cmd_sample})

    p = sub.add_parser("fit", help="fit an SDF model to one or more point clouds")
    p.add_argument("--points", action="append", required=True,
                   help="repeatable; more than one triggers a nested multi-channel fit")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--channel-names", nargs="*", default=None)
    _add_fit_flags(p)
    p.set_defaults(**{**config, "func": cmd_fit})

    p = sub.add_parser("blend", help="blend trained models on a shared grid")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--k", type=float, default=0.1)
    p.add_argument("--variant", choices=("cubic", "quilez"), default="cubic")
    p.add_argument("--dims", type=_int_at_least(2), default=256)
    p.add_argument("--bbox", type=_bbox_arg, required=True)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--out-grid")
    p.add_argument("--out-mesh")
    p.set_defaults(**{**config, "func": cmd_blend})

    p = sub.add_parser("extract", help="marching-cubes mesh from a model or grid")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--grid")
    p.add_argument("--dims", type=_int_at_least(2), default=128)
    p.add_argument("--bbox", type=_bbox_arg)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--iso", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(**{**config, "func": cmd_extract})

    p = sub.add_parser("eval", help="DSC / ASD / nesting metrics for a model")
    p.add_argument("--model", required=True)
    ref = p.add_mutually_exclusive_group(required=True)
    ref.add_argument("--ref-mesh")
    ref.add_argument("--ref-shape")
    p.add_argument("--heldout")
    p.add_argument("--dsc-dims", type=_int_at_least(2), default=96)
    p.add_argument("--asd-dims", type=_int_at_least(2), default=128)
    p.add_argument("--bbox", type=_bbox_arg)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(**{**config, "func": cmd_eval})

    p = sub.add_parser("sweep", help="robustness sweep over point-cloud sizes")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--mesh")
    src.add_argument("--shape")
    p.add_argument("--counts", type=_counts_arg, default="100,200,400,800")
    p.add_argument("--repeats", type=_int_at_least(1), default=5)
    p.add_argument("--dsc-dims", type=_int_at_least(2), default=64)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", required=True)
    _add_fit_flags(p)
    p.set_defaults(**{**config, "func": cmd_sweep})

    p = sub.add_parser("fixtures", help="emit an analytic fixture mesh")
    p.add_argument("--shape", required=True)
    p.add_argument("--subdiv", type=_int_at_least(0), default=3)
    p.add_argument("--out-mesh", required=True)
    p.set_defaults(**{**config, "func": cmd_fixtures})

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # find --config first, so that the file's values become the defaults
    pre = argparse.ArgumentParser(prog="vinr", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    try:
        config = _load_config_file(config_path) if config_path else {}
        args = build_parser(config).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
