"""`python -m macroq` with the benchmark's layer spans installed.

The cli-session workload runs this in place of `python -m macroq` during
traced passes. MACROQ_BENCH_PARENT names the parent's span for this process
and MACROQ_BENCH_SPANS the file the spans are written to on exit.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer(default_parent=os.environ["MACROQ_BENCH_PARENT"])
    tracer.install()
    from macroq.cli import main

    code = main(sys.argv[1:])
    tracer.dump(os.environ["MACROQ_BENCH_SPANS"])
    sys.exit(code)
