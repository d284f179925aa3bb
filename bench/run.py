"""Benchmark entry point.

    python3 bench/run.py --workload {paper_fit,cli_roundtrip,blend_tree} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: vinr is imported from `src/`, never
from an installed copy, and BLAS threads are capped at the number of usable
CPUs. The last line of standard output is the result object; the line
before it records provenance, output hashes and quality values. Spans are
written to `.bench_out/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> None:
    """Cap BLAS threads and put the checkout's `src/` first on the path.

    Must run before numpy is imported. Exits with status 1 when the
    checkout has no vinr sources.
    """
    if not (ROOT / "src" / "vinr" / "__init__.py").is_file():
        sys.exit(f"error: no vinr sources under {ROOT / 'src'}; run from a source checkout")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARIABLES:
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    import vinr

    if Path(vinr.__file__).resolve().parent != (ROOT / "src" / "vinr").resolve():
        sys.exit(f"error: imported vinr from {vinr.__file__}, not from the checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    result, detail, spans = harness.run_workload(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    spans_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    harness.write_spans(spans_path, detail, spans)
    for failure in detail["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
