"""The benchmark harness and the demos still drive the package.

The harness wraps public functions by name (``bench/tracer.py``), so a
rename or a changed return value in ``src/`` breaks it without breaking
any other test.  Its self-check runs every workload at tiny sizes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_span_names_a_package_function():
    """A renamed or removed span target fails here, not only as
    ``spans_missing`` in a traced benchmark run."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    unresolved = [name for name, (module, path) in tracer.SPANS.items()
                  if tracer._resolve(module, path) is None]
    assert unresolved == []


def test_bench_records_are_complete():
    """Every ``BENCH_<n>.json`` at the root parses, holds its pairs,
    names the machine, numpy, the BLAS build and the BLAS thread count
    its numbers were measured at, and claims a workload and an end-to-end
    metric that ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert "pairs" in record, path.name
        machine = record.get("machine", {})
        missing = [key for key in ("cpu", "numpy", "blas", "blas_threads")
                   if not machine.get(key)]
        assert missing == [], f"{path.name} machine block lacks {missing}"
        claimed = record.get("claimed", {})
        assert claimed.get("workload") in workloads, f"{path.name} claimed workload"
        assert claimed.get("metric") in metrics, f"{path.name} claimed metric"


@pytest.mark.slow
def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("selfcheck: ok")


def run_demo(name: str, tmp_path) -> str:
    """Run ``demos/<name>.py`` to completion in ``tmp_path/run``, with its
    temporary directory under ``tmp_path/tmp``, which it must leave empty.
    Returns what it printed."""
    run, tmp = tmp_path / "run", tmp_path / "tmp"
    run.mkdir()
    tmp.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=run,
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "TMPDIR": str(tmp),
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert list(tmp.iterdir()) == []
    return proc.stdout


def test_spectrogram_demo_runs(tmp_path):
    """The first demo calls the signal front end directly (about 1 s), so
    a change of its API breaks this test rather than only the demo."""
    assert "WFM: SI-SNRi" in run_demo("01_spectrograms_and_masks", tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("name, last_words", [
    ("02_train_deep_attractor", "median SI-SNRi"),       # about 12 s
    ("03_anchored_separation", "source count matched"),  # about 96 s
    ("04_embedding_atlas", "attractor distance"),        # about 12 s
], ids=["02", "03", "04"])
def test_training_demo_runs(name, last_words, tmp_path):
    """The other demos train a model first, so they run with the slow tests."""
    assert last_words in run_demo(name, tmp_path)
