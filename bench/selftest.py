"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that:
every metric BENCHMARK.json names appears with its unit; no repeat raised
and no output hash or value differed across repeats (quality thresholds
are not expected to hold at tiny sizes); traced and untraced runs wrote
identical outputs; every span's self time is >= 0; the child spans of each
`training.fit` span add up to no more than that span; every layer span the
benchmark reports was recorded on some workload; and the entry point exits
non-zero without a result when the checkout has no vinr sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

from run import ROOT, prepare_environment


def _expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def check_run(spec, name, trace, result, detail, spans, self_times):
    section = spec["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
    _expect(result["attempted"] >= 1, f"{name}: nothing attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    _expect(got == declared, f"{name} trace={trace}: metrics/units {got} != {declared}")
    bad = [f for f in detail["failures"] if not f.startswith("check ")]
    _expect(not bad, f"{name} trace={trace}: failures other than quality checks: {bad}")
    selfs = self_times(spans)
    _expect(all(v >= -1e-9 for v in selfs.values()), f"{name}: negative self time")
    for fit in (s for s in spans if s.name == "training.fit"):
        covered = sum(c.duration for c in spans if c.parent == fit.id)
        _expect(covered <= fit.duration + 1e-9, f"{name}: children of fit cover {covered} > {fit.duration}")


def check_bare_checkout():
    """The entry point must fail, printing no result, without vinr sources."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper_fit", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0, "run without sources exited 0")
    _expect('"metrics"' not in proc.stdout, "run without sources printed a result")


def main() -> int:
    check_bare_checkout()
    prepare_environment()
    import harness
    from tracing import self_times
    from workloads import TINY

    spec = harness.load_spec(ROOT)
    seen_spans = set()
    for name in harness.WORKLOADS:
        hashes = {}
        for trace in (0, 1):
            result, detail, spans = harness.run_workload(ROOT, name, 0, 0.0, bool(trace), TINY[name])
            check_run(spec, name, trace, result, detail, spans, self_times)
            hashes[trace] = detail["hashes"]
            seen_spans |= {s.name for s in spans}
        _expect(hashes[0] == hashes[1], f"{name}: traced hashes {hashes[1]} != untraced {hashes[0]}")
        print(f"selftest: {name} ok", flush=True)
    layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"trace", "training"}
    layers |= {"training.fit", "training.adam_step", "training.sample_eikonal_points"}
    missing = sorted(layers - seen_spans)
    _expect(not missing, f"no spans recorded for {missing}")
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
