"""Run one workload in this process and print its result as the last stdout line.

Started by run.py, which sets the BLAS thread count and PYTHONPATH before
numpy is imported here. Set-up is everything between run.py starting this
process and the first timed operation: imports, input building (repeated
BUILD_REPEATS times, median taken) and one warm-up. Then whole passes run
until --seconds have elapsed. With --trace 1, passes alternate untraced and
traced; per-layer metrics come from the traced passes and the tracing
overhead from comparing the two kinds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import MIB, SWEEP_POINTS, WORKLOADS, OperationError  # noqa: E402

READY = time.perf_counter()
BUILD_REPEATS = 3

VERIFY_CHECKS = tuple(
    name.split("verify.check.", 1)[1]
    for name in tracing.LAYER_SPANS["verify"].values() if name.startswith("verify.check.")
)


class Group:
    """Sums over the spans under one root span (an input build, the warm-up or a pass)."""

    def __init__(self) -> None:
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.bytes = defaultdict(int)
        self.cell_dyads = 0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _self(name):
    return lambda g: g.self_ns[name] / 1e9


def _total(name):
    return lambda g: g.total_ns[name] / 1e9


def _count(name):
    return lambda g: float(g.count[name])


def _layer(layer):
    return lambda g: g.layer_self_s(layer)


# (metric, unit, better, value of one group). Function-level `_s` metrics of
# states, fock, measures and wigner are self times; cli.<command>_s and the
# verify metrics are whole span durations (process wall time, check time),
# and <layer>.self_s gives every layer's self time.
PER_LAYER = [
    ("states.self_s", "s", "lower", _layer("states")),
    ("states.validate_s", "s", "lower", _self("states.validate")),
    ("states.validate_n", "count", "lower", _count("states.validate")),
    ("states.build_s", "s", "lower", _self("states.build")),
    ("states.build_n", "count", "lower", _count("states.build")),
    ("states.save_s", "s", "lower", _self("states.save")),
    ("states.load_s", "s", "lower", _self("states.load")),
    ("states.file_mb", "MB", "lower", lambda g: g.bytes["states.save"] / MIB),
    ("states.load_mb_per_s", "MB/s", "higher",
     lambda g: _ratio(g.bytes["states.load"] / MIB, g.self_ns["states.load"] / 1e9)),
    ("fock.self_s", "s", "lower", _layer("fock")),
    ("fock.embed_s", "s", "lower", _self("fock.embed")),
    ("fock.embed_n", "count", "lower", _count("fock.embed")),
    ("fock.operator_mb", "MB", "lower", lambda g: g.bytes["fock.embed"] / MIB),
    ("measures.self_s", "s", "lower", _layer("measures")),
    ("measures.I_s", "s", "lower", _self("measures.I")),
    ("measures.I_n", "count", "lower", _count("measures.I")),
    ("measures.C_s", "s", "lower", _self("measures.C")),
    ("measures.C_n", "count", "lower", _count("measures.C")),
    ("measures.purity_s", "s", "lower", _self("measures.purity")),
    ("measures.purity_n", "count", "lower", _count("measures.purity")),
    ("measures.report_s", "s", "lower", _self("measures.report")),
    ("measures.report_n", "count", "lower", _count("measures.report")),
    ("measures.pure_report_s", "s", "lower", _self("measures.pure_report")),
    ("measures.pure_report_n", "count", "lower", _count("measures.pure_report")),
    ("wigner.self_s", "s", "lower", _layer("wigner")),
    ("wigner.transform_s", "s", "lower", _self("wigner.transform")),
    ("wigner.transform_n", "count", "lower", _count("wigner.transform")),
    ("wigner.cell_dyads_per_s", "cell_dyad/s", "higher",
     lambda g: _ratio(g.cell_dyads, g.self_ns["wigner.transform"] / 1e9)),
    ("wigner.C_grid_s", "s", "lower", _self("wigner.C_grid")),
    ("wigner.P_grid_s", "s", "lower", _self("wigner.P_grid")),
    ("wigner.report_s", "s", "lower", _self("wigner.report")),
    ("wigner.report_n", "count", "lower", _count("wigner.report")),
    ("wigner.export_s", "s", "lower", _self("wigner.export")),
    ("cli.self_s", "s", "lower", _layer("cli")),
    ("cli.import_s", "s", "lower", None),
    ("cli.state_s", "s", "lower", _total("cli.state")),
    ("cli.measure_s", "s", "lower", _total("cli.measure")),
    ("cli.measure_both_s", "s", "lower", _total("cli.measure_both")),
    ("cli.sweep_s", "s", "lower", _total("cli.sweep")),
    ("cli.sweep_points_per_s", "points/s", "higher",
     lambda g: _ratio(SWEEP_POINTS, g.total_ns["cli.sweep"] / 1e9)),
    ("cli.wigner_s", "s", "lower", _total("cli.wigner")),
    ("cli.verify_s", "s", "lower", _total("cli.verify")),
    ("verify.self_s", "s", "lower", _layer("verify")),
    ("verify.run_s", "s", "lower", _total("verify.run")),
    *((f"verify.check.{name}_s", "s", "lower", _total(f"verify.check.{name}"))
      for name in VERIFY_CHECKS),
    ("trace.overhead_pct", "%", "lower", None),
]


def _groups(spans: list[tracing.Span]) -> dict[str, Group]:
    own = tracing.self_times(spans)
    top = tracing.roots(spans)
    name_of = {span.id: span.name for span in spans}
    groups: dict[str, Group] = defaultdict(Group)
    for span in spans:
        group = groups[top[span.id]]
        group.self_ns[span.name] += own[span.id]
        group.total_ns[span.name] += span.end_ns - span.start_ns
        # A span directly inside one of the same name (measure_I calling
        # measure_I_forms) is the same evaluation: count the outermost only.
        if name_of.get(span.parent) != span.name:
            group.count[span.name] += 1
        group.bytes[span.name] += span.attrs.get("bytes", 0)
        group.cell_dyads += span.attrs.get("cell_dyads", 0)
    return groups


def layer_metrics(spans: list[tracing.Span], untraced: list[float],
                  traced: list[float]) -> dict[str, float]:
    """Per-layer values: median over traced passes of each pass's sum.

    A layer that never runs inside a timed pass (input building, or the
    first-call operator embedding that the warm-up already paid for) is
    reported from set-up instead: the median input build plus the warm-up.
    A layer the workload does not touch reads 0.
    """
    by_root = _groups(spans)
    root_name = {span.id: span.name for span in spans if span.parent is None}
    kinds = defaultdict(list)
    for root_id, group in by_root.items():
        kinds[root_name.get(root_id)].append(group)

    def pick(fn) -> float:
        values = [fn(g) for g in kinds["bench.pass"]]
        if any(values):
            return statistics.median(values)
        builds = [fn(g) for g in kinds["bench.build"]]
        return (statistics.median(builds) if builds else 0.0) + sum(
            fn(g) for g in kinds["bench.warmup"])

    out = {metric: pick(fn) for metric, _, _, fn in PER_LAYER if fn is not None}
    imports = [(s.end_ns - s.start_ns) / 1e9 for s in spans if s.name == "cli.import"]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced)
                                         - 1.0)
    return {metric: out[metric] for metric, *_ in PER_LAYER}


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(doc), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter reading taken by run.py before starting this process")
    args = parser.parse_args(argv)

    run_dir = BENCH_DIR.parent / ".bench_run"
    workdir = run_dir / f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)

    def root(name: str):
        return tracer.begin(name) if tracer is not None else None

    def close(span) -> None:
        if span is not None:
            tracer.end(span)

    untraced: list[float] = []
    traced: list[float] = []
    try:
        if tracer is not None:
            tracer.install()
        builds = []
        for _ in range(BUILD_REPEATS):
            span = root("bench.build")
            start = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - start)
            close(span)
        span = root("bench.warmup")
        start = time.perf_counter()
        workload.warm_up()
        warm = time.perf_counter() - start
        close(span)
        setup_s = (READY - args.t0) + statistics.median(builds) + warm

        start = time.perf_counter()
        while True:
            use_trace = tracer is not None and len(untraced) > len(traced)
            if tracer is not None:
                (tracer.install if use_trace else tracer.uninstall)()
            span = root("bench.pass") if use_trace else None
            result = workload.run_pass(traced=use_trace)
            close(span)
            (traced if use_trace else untraced).append(result.seconds)
            workload.record(result)
            print(f"{args.workload} pass {len(untraced) + len(traced)}: "
                  f"{result.seconds:.3f} s, {result.attempted} ops, {result.failed} failed"
                  f"{' (traced)' if use_trace else ''}", file=sys.stderr)
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
                break
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = workload.peak_rss_mb()
        workload.check()
    except (OperationError, checks.CheckFailure) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        attempted = sum(p.attempted for p in workload.passes) or 1
        _emit(False, attempted, sum(p.failed for p in workload.passes), {}, {})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in workload.passes)
    failed = sum(p.failed for p in workload.passes)
    if tracer is None:
        metrics = {
            "ops_per_s": attempted / sum(untraced),
            "pass_p50_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"ops_per_s": "ops/s", "pass_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        tracer.dump(str(run_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(tracer.spans, untraced, traced)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    _emit(True, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
