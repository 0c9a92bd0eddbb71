#!/usr/bin/env python3
"""Benchmark danet end to end, or layer by layer with --trace 1.

    python3 bench/run.py --workload danet-2spk-kmeans --seed 1 --seconds 10 --trace 0

Runs one workload in this process with one BLAS thread, prints a run
record, and prints as its last line one JSON object: whether every output
check passed, the operations attempted and failed, and the metrics (the
end-to-end ones untraced, the per-layer ones traced).  See bench/README.md.
"""

import os
import sys

# Trained-model numbers change with the BLAS thread count, so the count is
# pinned before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_package():
    """Import danet from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import danet

    where = Path(danet.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"danet imported from {where}, not from {SRC}")
    return danet


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy releases
        return "unknown"


def run_record(np, args, run, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(np),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "sizes": run.scale.__dict__,
        "operations": {k: {"attempted": a, "failed": f} for k, (a, f) in run.ops.items()},
        "wav_write_clipped_samples": run.clipped,
        "other_warnings": run.other_warnings,
        "checks": {k: {"made": m, "failed": f} for k, (m, f) in run.checks.items()},
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes check the harness itself in seconds")
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"bench: cannot import danet from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = BENCH / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = workloads.Run(args.workload, args.seed, args.scale, out, bool(args.trace))
    try:
        out.mkdir(parents=True)
        with run.recording_warnings():
            if args.trace:
                metrics, extra = workloads.run_traced(run)
            else:
                values, extra = workloads.run_untraced(run, args.seconds)
                values["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                metrics = {name: {"value": values[name],
                                  "unit": workloads.METRICS[name][0]}
                           for name in workloads.METRICS if name in values}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass

    record = run_record(np, args, run, extra)
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for problem in run.problems:
        print(f"# problem: {problem}")
        print(f"bench: {problem}", file=sys.stderr)
    attempted = sum(a for a, _ in run.ops.values())
    failed = sum(f for _, f in run.ops.values())
    correct = not any(f for _, f in run.checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
