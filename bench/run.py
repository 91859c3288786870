"""macroq benchmark entry point.

    python3 bench/run.py --workload operator-dense --seed 1 --seconds 10 --trace 0

Run from the repository root. Starts one fresh worker process for the
workload with the package's `src/` on PYTHONPATH and an explicit BLAS thread
count (the number of CPUs this process may use), waits for it, and passes
its exit code on. The worker prints the result as the last line of stdout.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("operator-dense", "wigner-grid", "cli-session")
# Time a worker gets beyond --seconds for set-up, its last pass and the checks.
GRACE_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _stop(proc: subprocess.Popen) -> None:
    """Kill the worker's whole process group and reap the worker."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description="macroq benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "macroq" / "__init__.py").is_file():
        print(f"error: no macroq sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({name: threads for name in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"BLAS threads {threads}", file=sys.stderr)

    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline_s = args.seconds + GRACE_S
    try:
        return proc.wait(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {deadline_s} s", file=sys.stderr)
        return 3
    finally:
        _stop(proc)


if __name__ == "__main__":
    sys.exit(main())
