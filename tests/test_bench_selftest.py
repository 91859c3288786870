"""The benchmark's own self-test, run against the package in this tree.

bench/selftest.py feeds the benchmark's output checkers right and wrong
answers and checks that BENCHMARK.json lists exactly the metrics the worker
reports, so a package change that breaks either fails here rather than
first when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
