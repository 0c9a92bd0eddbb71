"""The benchmark harness and the demos still drive the package.

The harness wraps public functions by name (``bench/tracer.py``), so a
rename or a changed return value in ``src/`` breaks it without breaking
any other test.  Its self-check runs every workload at tiny sizes.
"""

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


@pytest.mark.slow
def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("selfcheck: ok")


def test_spectrogram_demo_runs():
    """The first demo calls the signal front end directly (about 1 s), so
    a change of its API breaks this test rather than only the demo."""
    proc = subprocess.run(
        [sys.executable, "demos/01_spectrograms_and_masks.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "WFM: SI-SNRi" in proc.stdout
