"""One untimed pass of each in-process benchmark workload, judged by its own checks.

bench/workloads.py builds each workload's inputs from a seed and checks its
outputs against closed forms and independent evaluations, so a change to a
computed value that the benchmark would reject fails here rather than first
when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["operator-dense", "wigner-grid"])
def test_one_pass_passes_the_workload_checks(name, workloads, tmp_path):
    workload = workloads.WORKLOADS[name](11, tmp_path, None)
    workload.build()
    result = workload.run_pass()
    workload.record(result)
    workload.check()
    assert result.failed == 0
