"""The benchmark harness still drives the package.

The harness wraps public functions by name (``bench/tracer.py``), so a
rename or a changed return value in ``src/`` breaks it without breaking
any other test.  Its self-check runs every workload at tiny sizes.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("selfcheck: ok")
