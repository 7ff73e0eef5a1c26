"""The benchmark's self-test passes on this checkout: each output check it
holds accepts the CLI's clean output and rejects a perturbed one, so a CLI
change that the benchmark's checks would reject fails here first."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
