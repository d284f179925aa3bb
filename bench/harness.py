"""One benchmark run: set up, measure for a fixed time, check, report.

A run sets its workload up `SETUP_REPEATS` times (the median is `setup_s`),
then repeats the timed part until the measuring window has passed and
reports medians over those repeats. Every repeat writes output files whose
sha256 must match across repeats: runs are bit-deterministic for a fixed
seed. With tracing on, repeats alternate untraced and traced (set-ups after
the first are traced), so traced and untraced hashes are compared in the
same process and the difference of their wall times is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import vinr
import vinr.cli
from tracing import Tracer, install_layer_spans, layer_metrics, self_seconds_by_name
from workloads import TINY, WORKLOADS

SETUP_REPEATS = 3


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# provenance


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: Path):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "vinr").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_steal_s():
    """Machine-wide CPU time stolen by the hypervisor so far (/proc/stat)."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the run


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Run:
    def __init__(self):
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.roots = []  # root span of every completed unit
        self.values: dict[str, list] = {}
        self.hashes: dict[str, list] = {}

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def unit(self, kind: str, traced: bool, fn, ops: int):
        """Run one set-up or timed repeat; returns its raw output or None."""
        self.attempted += ops
        if traced:
            install_layer_spans(self.tracer, vinr)
        try:
            with self.tracer.span(kind, traced=traced) as root:
                raw = fn()
        except Exception:
            self._fail(f"{kind}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.tracer.uninstall()
        self.roots.append(root)
        return raw

    def record(self, files: dict, values: dict, checks=()) -> None:
        for name, path in files.items():
            self.hashes.setdefault(name, []).append(_sha256(path))
        for name, v in values.items():
            self.values.setdefault(name, []).append(v)
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self._fail(f"check {c.name}: {c.detail}")

    def check_determinism(self) -> None:
        for kind, table in (("hash", self.hashes), ("value", self.values)):
            for name, seen in table.items():
                self.attempted += 1
                if len(set(seen)) != 1:
                    self._fail(f"{kind} of {name} differs across repeats: {sorted(set(map(str, seen)))}")


def _median_stage(spans, roots, stage: str):
    """Median, over the units that ran `stage`, of the stage's seconds per unit."""
    per_unit = {}
    ids = {r.id for r in roots}
    for s in spans:
        if s.name == stage and s.root in ids:
            per_unit[s.root] = per_unit.get(s.root, 0.0) + s.duration
    return statistics.median(per_unit.values()) if per_unit else None


def _warm_up(run: _Run, cls, seed: int, workdir: Path) -> None:
    """One untimed pass at tiny sizes before anything is timed, so that BLAS
    threads, allocator pools and lazy imports exist when the first set-up
    starts. Without it the first of the three set-ups was often the slowest,
    by up to a half on a 2-CPU VM."""
    tiny = cls(TINY[cls.name])
    workdir.mkdir(parents=True)

    def setup_and_run():
        state, _ = tiny.setup(run.tracer, seed, workdir)
        tiny.run(run.tracer, state, workdir)

    run.unit("bench.warmup", False, setup_and_run, 1)


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Returns (result, detail, spans): the result object the benchmark
    prints last, a record of provenance, hashes, quality values and
    failures, and every span of the run."""
    spec = load_spec(root)
    cls = WORKLOADS[name]
    workload = cls(sizes) if sizes is not None else cls()
    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = _Run()
    steal_start = cpu_steal_s()
    try:
        _warm_up(run, cls, seed, workdir / "warmup")
        state = None
        for rep in range(SETUP_REPEATS):
            out = run.unit(
                "bench.setup", trace and rep > 0, lambda: workload.setup(run.tracer, seed, workdir), 1
            )
            if out is None:
                break
            state, setup_raw = out
            run.record(setup_raw["files"], setup_raw["values"])
        else:
            deadline = time.perf_counter() + seconds
            i = 0
            while i < (2 if trace else 1) or time.perf_counter() < deadline:
                traced = trace and i % 2 == 1
                raw = run.unit(
                    "bench.iteration",
                    traced,
                    lambda: workload.run(run.tracer, state, workdir),
                    workload.ops_per_run,
                )
                if raw is None:
                    break
                report = workload.inspect(state, raw)
                run.record(raw["files"], report.values, report.checks)
                i += 1
            run.check_determinism()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    steal_end = cpu_steal_s()
    spans = run.tracer.spans
    timed = [r for r in run.roots if r.name in ("bench.setup", "bench.iteration")]
    untraced = [r for r in timed if not r.attrs["traced"]]
    traced = [r for r in timed if r.attrs["traced"]]
    iters = [r for r in untraced if r.name == "bench.iteration"]
    traced_iters = [r for r in traced if r.name == "bench.iteration"]
    values = {k: v[0] for k, v in run.values.items()}

    detail_extra = {}
    if trace:
        declared = spec["per_layer"]
        computed = layer_metrics(spans, traced)
        detail_extra["self_s_by_span"] = self_seconds_by_name(spans, traced)
        computed["trace.overhead_s"] = (
            statistics.median(r.duration for r in traced_iters)
            - statistics.median(r.duration for r in iters)
            if iters and traced_iters
            else None
        )
    else:
        declared = spec["end_to_end"]
        setups = [r for r in untraced if r.name == "bench.setup"]
        computed = {
            "setup_s": statistics.median(r.duration for r in setups) if setups else None,
            "wall_s": statistics.median(r.duration for r in iters) if iters else None,
            "fit_s": _median_stage(spans, untraced, "bench.fit"),
            "eval_s": _median_stage(spans, untraced, "bench.eval"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    names = {m["name"] for m in declared}
    if set(computed) != names:
        raise RuntimeError(f"metrics computed {sorted(computed)} != declared {sorted(names)}")
    metrics_out = {
        m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]}
        for m in declared
        if computed[m["name"]] is not None
    }
    result = {
        "correct": run.failed == 0 and len(metrics_out) == len(declared),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics_out,
    }
    detail = {
        "workload": name,
        "trace": int(trace),
        "provenance": provenance(root, seed),
        "iterations": {"untraced": len(iters), "traced": len(traced_iters)},
        "cpu_steal_s": None if None in (steal_start, steal_end) else steal_end - steal_start,
        "values": values,
        "hashes": {k: v[0] for k, v in run.hashes.items()},
        "failures": run.failures,
        **detail_extra,
    }
    return result, detail, spans


def write_spans(path: Path, detail: dict, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**detail, "spans": [s.as_dict() for s in spans]}, f, separators=(",", ":"))
