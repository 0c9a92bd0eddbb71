#!/usr/bin/env python3
"""Quick check of the benchmark harness itself, at tiny sizes.

    python3 bench/selfcheck.py

Runs every workload untraced and traced with --scale tiny, so every output
check of the harness runs, and fails if a run does not exit cleanly, if an
output check or an operation fails, or if a run prints other metrics than
BENCHMARK.json declares.  It also checks that BENCHMARK.json matches the
harness and that the benchmark refuses to run without the package source.
Takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS threads and puts the package on the path

run.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = run.BENCH
ROOT = run.ROOT


def fail(message: str):
    print(f"selfcheck: FAIL: {message}")
    sys.exit(1)


def check_declaration() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if spec["command"] != ["python3", "bench/run.py"] or spec["paths"] != ["bench"]:
        fail("BENCHMARK.json command or paths do not name bench/run.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from the harness's")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if declared != workloads.METRICS:
        fail(f"end_to_end metrics differ from the harness's: {declared}")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: tracer.unit_of(name) for name in tracer.PER_LAYER}
    expected["trace.overhead_pct"] = "%"
    if per_layer != expected:
        fail("per_layer metrics differ from the harness's")
    return spec


def bench_run(cwd: Path, workload: str, trace: int, timeout: float = 120.0):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_workloads(spec: dict):
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench_run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{where}: {proc.stdout[-3000:]}")
            names = set(result["metrics"])
            wanted = per_layer if trace else set(workloads.METRICS)
            if names != wanted:
                fail(f"{where}: metrics {sorted(names ^ wanted)} differ")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    fail(f"{where}: {name} = {metric['value']!r}")
            print(f"selfcheck: {where}: ok, {result['attempted']} operations")


def check_refuses_without_source():
    bare = BENCH / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out"))
        proc = bench_run(bare, next(iter(workloads.WORKLOADS)), 0, timeout=60.0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the package source")
    print("selfcheck: without src/: refused, exit code", proc.returncode)


def main():
    spec = check_declaration()
    check_workloads(spec)
    check_refuses_without_source()
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
