"""The three benchmark workloads: fixed operation lists built from a seed.

Each workload builds its inputs (`build`), runs one untimed warm-up
(`warm_up`), then runs whole passes over the same operation list
(`run_pass`). Outputs are kept and checked after the timed passes
(`check`), against closed forms and independent evaluations in `checks`.
Every call into macroq goes through the package's module attributes, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import macroq as mq
from tracing import Span, Tracer

SQRT2 = math.sqrt(2.0)
MIB = float(1 << 20)


class OperationError(RuntimeError):
    """An operation failed that the workload does not expect to fail."""


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    outputs: list = field(default_factory=list)


def _phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.begin(name, **attrs) if tracer is not None else None


def _end(tracer: Tracer | None, span: Span | None) -> None:
    if span is not None:
        tracer.end(span)


# ---------------------------------------------------------------------------
# operator-dense
# ---------------------------------------------------------------------------

@dataclass
class DenseInput:
    name: str
    spec: mq.ModeSpec
    data: np.ndarray          # density matrix, or amplitudes for pure inputs
    pure: bool
    expect: dict | None       # closed form; None means evaluate independently


class OperatorDense:
    """DensityMatrix validation plus the operator-trace report, D = 256..700."""

    name = "operator-dense"

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.inputs: list[DenseInput] = []
        self.expected: list[dict] = []
        self.passes: list[PassResult] = []

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        inputs = []
        for num_modes, levels in ((1, 512), (2, 20), (3, 8)):
            spec = mq.ModeSpec(num_modes, levels)
            rho = mq.random_mixed_state(spec, rng, components=4)
            inputs.append(DenseInput(f"random-mixed M={num_modes} N={levels}",
                                     spec, rho.matrix, False, None))
        thermal = mq.thermal_state(mq.ModeSpec(1, mq.default_thermal_truncation(6.0)),
                                   mq.GaussianSpec(6.0))
        inputs.append(DenseInput("thermal a=6", thermal.spec, thermal.matrix, False,
                                 checks.thermal(6.0)))
        alpha = _phase(rng)
        left = mq.thermal_state(mq.ModeSpec(1, 26), mq.GaussianSpec(SQRT2))
        right = mq.cat_mixture(mq.ModeSpec(1, 26), alpha)
        prod = mq.product_state(left, right)
        inputs.append(DenseInput(
            "thermal sqrt2 x cat-mixture |alpha|=1", prod.spec, prod.matrix, False,
            checks.product(checks.thermal(SQRT2), checks.cat_mixture(alpha), 2)))
        psi = mq.random_pure_state(mq.ModeSpec(2, 20), rng)
        inputs.append(DenseInput("random-pure M=2 N=20", psi.spec, psi.amplitudes, True, None))
        self.inputs = inputs

    def _operate(self, item: DenseInput) -> dict:
        if item.pure:
            report = mq.pure_state_measures(mq.PureState(item.spec, item.data))
        else:
            report = mq.measure_report(mq.DensityMatrix(item.spec, item.data))
        return {"I": report.I, "C": report.C, "P": report.P, "chi2": report.chi2}

    def run_pass(self, traced: bool = False) -> PassResult:
        outputs = []
        start = time.perf_counter()
        for item in self.inputs:
            span = _span(self.tracer if traced else None, "bench.op", op=item.name)
            try:
                outputs.append(self._operate(item))
            except mq.MacroqError as exc:
                raise OperationError(f"{item.name}: {type(exc).__name__}: {exc}") from exc
            finally:
                _end(self.tracer if traced else None, span)
        return PassResult(time.perf_counter() - start, len(self.inputs), 0, outputs)

    def warm_up(self) -> None:
        self.run_pass(traced=self.tracer is not None)

    def record(self, result: PassResult) -> None:
        self.passes.append(result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB

    def check(self) -> None:
        for item in self.inputs:
            n_modes, levels = item.spec.num_modes, item.spec.truncation
            if item.expect is not None:
                want = item.expect
            elif item.pure:
                want = checks.pure_measures(item.data, n_modes, levels)
            else:
                want = checks.slice_measures(item.data, n_modes, levels)
            self.expected.append(want)
        for result in self.passes:
            for item, want, got in zip(self.inputs, self.expected, result.outputs):
                checks.check_report(item.name, got, want, item.spec.num_modes,
                                    checks.OPERATOR_RTOL, pure=item.pure)


# ---------------------------------------------------------------------------
# wigner-grid
# ---------------------------------------------------------------------------

@dataclass
class GridInput:
    name: str
    family: str
    params: dict
    rho: mq.DensityMatrix
    grid_spec: mq.GridSpec
    expect: dict
    may_fail: bool = False


class WignerGrid:
    """Grid report plus the resolution-checked grid C, single-mode N <= 54."""

    name = "wigner-grid"
    PICKS = 64

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.inputs: list[GridInput] = []
        self.passes: list[PassResult] = []
        self.grids: dict[str, mq.PhaseSpaceGrid] = {}

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        cat_even = 1.5 * _phase(rng)
        cat_odd = 1.2 * _phase(rng)
        coherent = 2.0 * _phase(rng)
        mixture = _phase(rng)
        spec = mq.ModeSpec
        states = [
            ("cat even |alpha|=1.5", "cat", {"alpha": cat_even, "phi": 0.0},
             mq.as_density(mq.cat_state(spec(1, mq.default_coherent_truncation(cat_even)),
                                        cat_even)), (256,), checks.cat(cat_even, False)),
            ("cat odd |alpha|=1.2", "cat", {"alpha": cat_odd, "phi": math.pi},
             mq.as_density(mq.cat_state(spec(1, mq.default_coherent_truncation(cat_odd)),
                                        cat_odd, math.pi)), (256,), checks.cat(cat_odd, True)),
            ("coherent |alpha|=2", "coherent", {"alpha": coherent},
             mq.as_density(mq.coherent_state(spec(1, mq.default_coherent_truncation(coherent)),
                                             coherent)), (256,), checks.coherent()),
            ("fock n=5", "fock", {"n": 5},
             mq.as_density(mq.fock_state(spec(1, 12), 5)), (256, 512), checks.fock(5)),
            ("cat-mixture |alpha|=1", "cat-mixture", {"alpha": mixture},
             mq.cat_mixture(spec(1, mq.default_coherent_truncation(mixture)), mixture),
             (256,), checks.cat_mixture(mixture)),
            ("thermal a=2", "thermal", {"a": 2.0},
             mq.thermal_state(spec(1, mq.default_thermal_truncation(2.0)), mq.GaussianSpec(2.0)),
             (256, 512), checks.thermal(2.0)),
        ]
        inputs = []
        for name, family, params, rho, points, expect in states:
            for g in points:
                gs = mq.default_grid_spec(rho.spec.truncation, g)
                inputs.append(GridInput(f"{name} G={g}", family, params, rho, gs, expect))
        cat3 = mq.as_density(mq.cat_state(spec(1, mq.default_coherent_truncation(3.0)), 3.0))
        inputs.append(GridInput("cat even alpha=3 G=256", "cat", {"alpha": 3.0, "phi": 0.0},
                                cat3, mq.default_grid_spec(cat3.spec.truncation, 256),
                                checks.cat(3.0, False), may_fail=True))
        self.inputs = inputs
        picks = np.random.default_rng([self.seed, 1])
        self.picks = {
            item.name: picks.integers(item.grid_spec.nq // 4, 3 * item.grid_spec.nq // 4,
                                      size=(self.PICKS, 2))
            for item in inputs
        }

    def run_pass(self, traced: bool = False) -> PassResult:
        tracer = self.tracer if traced else None
        outputs = []
        failed = 0
        start = time.perf_counter()
        for item in self.inputs:
            span = _span(tracer, "bench.op", op=item.name)
            try:
                try:
                    report = mq.wigner_measure_report(item.rho, item.grid_spec)
                except mq.ConsistencyError:
                    if not item.may_fail:
                        raise
                    failed += 1
                    outputs.append(None)
                    continue
                grid = mq.wigner_from_density(item.rho, item.grid_spec)
                c_checked = mq.measure_C_wigner(grid)
            except mq.MacroqError as exc:
                raise OperationError(f"{item.name}: {type(exc).__name__}: {exc}") from exc
            finally:
                _end(tracer, span)
            outputs.append(({"I": report.I, "C": report.C, "P": report.P, "chi2": report.chi2},
                            c_checked))
            self.grids[item.name] = grid
        return PassResult(time.perf_counter() - start, len(self.inputs), failed, outputs)

    def warm_up(self) -> None:
        self.run_pass(traced=self.tracer is not None)

    def record(self, result: PassResult) -> None:
        self.passes.append(result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB

    def check(self) -> None:
        for result in self.passes:
            for item, out in zip(self.inputs, result.outputs):
                if out is None:
                    continue
                report, c_checked = out
                checks.check_report(item.name, report, item.expect, 1, checks.GRID_RTOL)
                checks.close(f"{item.name} resolution-checked C", c_checked, report["C"], 1e-12)
        for item in self.inputs:
            grid = self.grids.get(item.name)
            if grid is None:
                continue
            checks.check_grid(item.name, item.family, item.params, grid.q_vector(),
                              grid.p_vector(), grid.values, self.picks[item.name])


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def _complex_arg(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


@dataclass
class CliOp:
    kind: str                 # cli.<kind> span and metric
    argv: list
    check: object             # callable(op_result, pass_dir) -> None
    may_fail: bool = False


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    seconds: float


THERMAL_STEPS = 9
THERMAL_SWEEP = ["sweep", "--family", "thermal", "--parameter", "a", "--start", "1",
                 "--stop", "8", "--steps", str(THERMAL_STEPS), "--out", "sweep_thermal.csv"]
FOCK_LEVELS = tuple(range(11))
FOCK_SWEEP = ["sweep", "--family", "fock", "--parameter", "n", "--values",
              ",".join(str(n) for n in FOCK_LEVELS), "--out", "sweep_fock.csv"]
SWEEP_POINTS = THERMAL_STEPS + len(FOCK_LEVELS)
CLI_TIMEOUT_S = 120
IMPORT_REPEATS = 3


class CliSession:
    """`python -m macroq` invocations one after another, as in a user's session."""

    name = "cli-session"

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.bench_dir = Path(__file__).resolve().parent
        self.passes: list[PassResult] = []
        self.pass_dirs: list[Path] = []
        self.children = 0

    # -- inputs --------------------------------------------------------------

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cat_alpha = complex(_complex_arg(1.5 * _phase(rng)))
        self.coherent_alpha = complex(_complex_arg(2.0 * _phase(rng)))
        self.picks = rng.integers(257 // 4, 3 * 257 // 4, size=(64, 2))
        cat_even = {"family": "cat", "params": {"alpha": self.cat_alpha, "phi": 0.0}}
        cat3 = checks.cat(3.0, False)
        self.ops = [
            CliOp("state", ["state", "thermal", "a=6", "--out", "thermal6.json"],
                  self._check_state("thermal6.json", mq.default_thermal_truncation(6.0),
                                    checks.thermal(6.0), thermal_a=6.0)),
            CliOp("state", ["state", "cat", f"alpha={_complex_arg(self.cat_alpha)}",
                            "--out", "cat.json"],
                  self._check_state("cat.json", mq.default_coherent_truncation(self.cat_alpha),
                                    checks.cat(self.cat_alpha, False))),
            CliOp("state", ["state", "coherent", f"alpha={_complex_arg(self.coherent_alpha)}",
                            "--out", "coherent.json"],
                  self._check_state("coherent.json",
                                    mq.default_coherent_truncation(self.coherent_alpha),
                                    checks.coherent())),
            CliOp("state", ["state", "cat", "alpha=3", "--out", "cat3.json"],
                  self._check_state("cat3.json", mq.default_coherent_truncation(3.0), cat3)),
            CliOp("measure", ["measure", "thermal6.json"],
                  self._check_measure(checks.thermal(6.0), pure=False)),
            CliOp("measure", ["measure", "cat.json"],
                  self._check_measure(checks.cat(self.cat_alpha, False), pure=True)),
            CliOp("measure", ["measure", "coherent.json"],
                  self._check_measure(checks.coherent(), pure=True)),
            CliOp("measure_both", ["measure", "cat.json", "--method", "both"],
                  self._check_both(checks.cat(self.cat_alpha, False))),
            CliOp("measure_both", ["measure", "cat3.json", "--method", "both"],
                  self._check_both(cat3), may_fail=True),
            CliOp("sweep", THERMAL_SWEEP, self._check_thermal_sweep),
            CliOp("sweep", FOCK_SWEEP, self._check_fock_sweep),
            CliOp("wigner", ["wigner", "cat.json", "--out", "cat_grid.csv"],
                  self._check_wigner(cat_even)),
            CliOp("verify", ["verify"], self._check_verify),
        ]

    # -- running -------------------------------------------------------------

    def _run(self, argv: list, cwd: Path, tracer: Tracer | None, kind: str,
             module: bool = True) -> CliResult:
        env = dict(os.environ)
        if tracer is not None and module:
            cmd = [sys.executable, str(self.bench_dir / "tracecli.py"), *argv]
        elif module:
            cmd = [sys.executable, "-m", "macroq", *argv]
        else:
            cmd = [sys.executable, *argv]
        span = _span(tracer, f"cli.{kind}")
        spans_file = None
        if span is not None and module:
            self.children += 1
            spans_file = self.workdir / f"spans-{self.children}.jsonl"
            env["MACROQ_BENCH_PARENT"] = span.id
            env["MACROQ_BENCH_SPANS"] = str(spans_file)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OperationError(f"{' '.join(argv)}: no exit within {CLI_TIMEOUT_S} s") from exc
        finally:
            _end(tracer, span)
        seconds = time.perf_counter() - start
        if spans_file is not None and spans_file.exists():
            tracer.add([Span.from_json(line) for line in spans_file.read_text().splitlines()])
            spans_file.unlink()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, seconds)

    def run_pass(self, traced: bool = False) -> PassResult:
        """One pass; its time is the summed wall time of its processes."""
        tracer = self.tracer if traced else None
        directory = self.workdir / f"pass{len(self.pass_dirs)}"
        self.pass_dirs.append(directory)
        directory.mkdir(parents=True)
        outputs = []
        failed = 0
        seconds = 0.0
        for op in self.ops:
            result = self._run(op.argv, directory, tracer, op.kind)
            seconds += result.seconds
            if result.returncode != 0:
                if not (op.may_fail and result.returncode == 4):
                    raise OperationError(
                        f"macroq {' '.join(op.argv)} exited {result.returncode}: "
                        f"{result.stderr.strip()[-400:]}")
                failed += 1
            outputs.append(result)
        return PassResult(seconds, len(self.ops), failed, outputs)

    def warm_up(self) -> None:
        """Interpreter and import warm-up, and a first run of the thermal sweep.

        The sweep's CSV is compared byte for byte with each timed pass's.
        """
        tracer = self.tracer
        for _ in range(IMPORT_REPEATS):
            result = self._run(["-c", "import macroq"], self.workdir, tracer, "import",
                               module=False)
            if result.returncode != 0:
                raise OperationError(f"import macroq exited {result.returncode}: "
                                     f"{result.stderr.strip()[-400:]}")
        warm = self.workdir / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        result = self._run(THERMAL_SWEEP, warm, tracer, "sweep")
        if result.returncode != 0:
            raise OperationError(f"warm-up sweep exited {result.returncode}")
        self.warm_sweep = (warm / "sweep_thermal.csv").read_bytes()

    def record(self, result: PassResult) -> None:
        self.passes.append(result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MIB

    # -- checks --------------------------------------------------------------

    def check(self) -> None:
        for directory, result in zip(self.pass_dirs, self.passes):
            for op, out in zip(self.ops, result.outputs):
                if op.may_fail and out.returncode == 4:
                    continue
                op.check(out, directory)
            if (directory / "sweep_thermal.csv").read_bytes() != self.warm_sweep:
                raise checks.CheckFailure("thermal sweep CSV differs between two runs")

    def _check_state(self, filename: str, levels: int, expect: dict,
                     thermal_a: float | None = None):
        """The summary's dimensions, then the document itself: a thermal
        document must hold the geometric occupations on its diagonal, a pure
        one unit-norm amplitudes with the closed-form I."""
        def check(out: CliResult, directory: Path) -> None:
            summary = json.loads(out.stdout)
            if (summary["num_modes"], summary["truncation"]) != (1, levels):
                raise checks.CheckFailure(f"{filename}: summary {summary!r}")
            doc = json.loads((directory / filename).read_text())
            data = np.asarray(doc["data"], dtype=float)
            values = data[..., 0] + 1j * data[..., 1]
            if thermal_a is not None:
                nbar = (thermal_a * thermal_a - 1.0) / 2.0
                n = np.arange(levels)
                occ = np.exp(n * math.log(nbar) - (n + 1) * math.log1p(nbar))
                if doc["kind"] != "mixed" or not np.allclose(
                        values, np.diag(occ / occ.sum()), rtol=1e-12, atol=1e-15):
                    raise checks.CheckFailure(f"{filename}: matrix is not the thermal state")
                return
            checks.close(f"{filename} norm", np.vdot(values, values).real, 1.0, 1e-12)
            got = checks.pure_measures(values, 1, levels)
            checks.close(f"{filename} I from amplitudes", got["I"], expect["I"],
                         checks.OPERATOR_RTOL)
        return check

    @staticmethod
    def _check_measure(expect: dict, pure: bool):
        def check(out: CliResult, directory: Path) -> None:
            report = json.loads(out.stdout)
            checks.check_report("measure", report, expect, 1, checks.OPERATOR_RTOL, pure=pure)
        return check

    @staticmethod
    def _check_both(expect: dict):
        def check(out: CliResult, directory: Path) -> None:
            doc = json.loads(out.stdout)
            checks.check_report("measure both: operator", doc["operator"], expect, 1,
                                checks.OPERATOR_RTOL, pure=True)
            checks.check_report("measure both: wigner", doc["wigner"], expect, 1,
                                checks.GRID_RTOL)
            worst = max(doc["cross_deltas"].values())
            if not worst <= checks.GRID_RTOL:
                raise checks.CheckFailure(f"measure both: cross delta {worst!r}")
        return check

    @staticmethod
    def _check_thermal_sweep(out: CliResult, directory: Path) -> None:
        text = (directory / "sweep_thermal.csv").read_text()
        expected = [(a, checks.thermal(float(a))) for a in np.linspace(1.0, 8.0, THERMAL_STEPS)]
        checks.check_sweep_csv("thermal sweep", text, expected)

    @staticmethod
    def _check_fock_sweep(out: CliResult, directory: Path) -> None:
        text = (directory / "sweep_fock.csv").read_text()
        expected = [(n, checks.fock(n)) for n in FOCK_LEVELS]
        checks.check_sweep_csv("fock sweep", text, expected)

    def _check_wigner(self, state: dict):
        def check(out: CliResult, directory: Path) -> None:
            q, p, values = checks.parse_grid_csv((directory / "cat_grid.csv").read_text())
            checks.check_grid("wigner export", state["family"], state["params"], q, p,
                              values, self.picks)
            summary = json.loads(out.stdout)
            checks.close("wigner export normalization", summary["normalization"], 1.0,
                         checks.NORM_TOL)
        return check

    @staticmethod
    def _check_verify(out: CliResult, directory: Path) -> None:
        checks.check_verify_output(out.stdout)


WORKLOADS = {cls.name: cls for cls in (OperatorDense, WignerGrid, CliSession)}
