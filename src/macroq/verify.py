"""Built-in verification suite.

Every check concerns some redundancy the implementation must exhibit: exact
closed forms for the analytic state families, the algebraic identity between
the two measures, the pure-state equivalence, agreement between the operator
and phase-space pipelines, and invariance properties. Informational entries
report behavior worth seeing (index-convention sensitivity of the number
mixtures, the asymptotic-only vanishing of the cat-mixture coherence) without
gating the outcome. The reference states that several checks judge are
built and measured once per run, on first use; grid reports are not shared.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import TOL
from .errors import MacroqError
from .fock import ModeSpec
from .measures import MeasureReport, measure_I, measure_I_forms, measure_report
from .states import (
    DensityMatrix,
    GaussianSpec,
    State,
    as_density,
    cat_mixture,
    cat_state,
    coherent_state,
    default_coherent_truncation,
    default_thermal_truncation,
    displaced,
    fock_mixture,
    fock_state,
    load_state,
    product_state,
    random_mixed_state,
    random_pure_state,
    thermal_state,
)
from .wigner import wigner_measure_report

RANDOM_SEED = 987654321

GAUSSIAN_WIDTHS = (1.0, math.sqrt(2.0), 2.0, 5.0)
CAT_MIXTURE_ALPHAS = (0.5, 1.0, 2.0, 3.0)
FOCK_MIXTURE_SIZES = (1, 2, 3, 5, 8)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    informational: bool = False

    @property
    def status(self) -> str:
        if self.informational:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


def thermal_I_exact(a: float) -> float:
    return (1.0 - a * a) / (2.0 * a ** 4)


def thermal_chi2_exact(a: float) -> float:
    return 2.0 / (a * a)


def cat_mixture_I_exact(alpha: complex) -> float:
    """Exact coherence of the two-component coherent mixture.

    The cross terms through the annihilation operator leave a residue
    -|alpha|^2 s^2 with overlap s = exp(-2|alpha|^2); it vanishes only in
    the large-|alpha| limit.
    """
    r_sq = abs(alpha) ** 2
    return -r_sq * math.exp(-4.0 * r_sq)


def cat_mixture_chi2_exact(alpha: complex) -> float:
    r_sq = abs(alpha) ** 2
    s_sq = math.exp(-4.0 * r_sq)
    return 2.0 - 8.0 * r_sq * s_sq / (1.0 + s_sq)


# ---------------------------------------------------------------------------
# reference state sets
# ---------------------------------------------------------------------------

def _thermal(a: float) -> DensityMatrix:
    return thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))


def _cat_mixture(alpha: complex) -> DensityMatrix:
    return cat_mixture(ModeSpec(1, default_coherent_truncation(alpha)), alpha)


# corpus entries built by the same call as a family reference, by the reference's label
_SHARED_CORPUS = {"thermal_sqrt2": f"thermal a={math.sqrt(2.0)}",
                  "cat_mixture_1": f"cat_mixture alpha={1.0}"}


def _product_factors() -> dict[str, tuple[DensityMatrix, DensityMatrix]]:
    """The factors of the corpus's two-mode products, by corpus name."""
    return {
        "thermal_x_catmix": (thermal_state(ModeSpec(1, 26), GaussianSpec(math.sqrt(2.0))),
                             cat_mixture(ModeSpec(1, 26), 1.0)),
        "fock_x_coherent": (as_density(fock_state(ModeSpec(1, 16), 1)),
                            as_density(coherent_state(ModeSpec(1, 16), 0.8))),
    }


def identity_corpus() -> list[tuple[str, DensityMatrix]]:
    """Twelve states spanning the families, including two-mode products."""
    return [
        ("vacuum", as_density(fock_state(ModeSpec(1, 12), 0))),
        ("fock_n2", as_density(fock_state(ModeSpec(1, 12), 2))),
        ("coherent_1", as_density(coherent_state(ModeSpec(1, 19), 1.0))),
        ("coherent_complex", as_density(
            coherent_state(ModeSpec(1, default_coherent_truncation(2 + 0.5j)), 2 + 0.5j))),
        ("cat_even_1.5", as_density(cat_state(ModeSpec(1, 25), 1.5))),
        ("cat_odd_1.2", as_density(cat_state(ModeSpec(1, 22), 1.2, math.pi))),
        ("cat_mixture_1", _cat_mixture(1.0)),
        ("fock_mixture_d4", fock_mixture(ModeSpec(1, 12), 4, include_vacuum=True)),
        ("fock_mixture_d3_shifted", fock_mixture(ModeSpec(1, 12), 3, include_vacuum=False)),
        ("thermal_sqrt2", _thermal(math.sqrt(2.0))),
        *((name, product_state(*pair)) for name, pair in _product_factors().items()),
    ]


def wigner_corpus() -> list[tuple[str, DensityMatrix]]:
    """Single-mode states for the dual-pipeline comparison."""
    return [
        ("vacuum", as_density(fock_state(ModeSpec(1, 12), 0))),
        ("fock_n1", as_density(fock_state(ModeSpec(1, 12), 1))),
        ("coherent_1", as_density(coherent_state(ModeSpec(1, 19), 1.0))),
        ("cat_1.5", as_density(cat_state(ModeSpec(1, 25), 1.5))),
        ("cat_mixture_1", _cat_mixture(1.0)),
        ("thermal_sqrt2", _thermal(math.sqrt(2.0))),
    ]


@contextmanager
def _naming(label: str) -> Iterator[None]:
    """Prefix a refusal's message with the state it concerns."""
    try:
        yield
    except MacroqError as exc:
        raise type(exc)(f"{label}: {exc}") from None


class ReferenceStates:
    """One run's shared reference states; a refused report is not kept, so each reader fails."""

    def __init__(self) -> None:
        self._reports: dict[str, MeasureReport] = {}

    def report(self, label: str, build: Callable[[], State]) -> MeasureReport:
        """measure_report of the state build() makes, on the first call for label."""
        if label not in self._reports:
            with _naming(label):
                self._reports[label] = measure_report(build())
        return self._reports[label]

    @cached_property
    def corpus(self) -> list[tuple[str, DensityMatrix]]:
        return identity_corpus()

    def corpus_reports(self) -> dict[str, MeasureReport]:
        """Each corpus state's report; one that is also a family reference shares its report."""
        return {name: self.report(_SHARED_CORPUS.get(name, name), lambda: rho)
                for name, rho in self.corpus}

    def thermal_report(self, a: float) -> MeasureReport:
        return self.report(f"thermal a={a}", lambda: _thermal(a))

    def cat_mixture_report(self, alpha: complex) -> MeasureReport:
        return self.report(f"cat_mixture alpha={alpha}", lambda: _cat_mixture(alpha))

    def fock_mixture_report(self, d: int) -> MeasureReport:
        """The vacuum-anchored uniform mixture of d levels, with four levels above it."""
        return self.report(f"fock_mixture d={d}", lambda: fock_mixture(
            ModeSpec(1, d + 4), d, include_vacuum=True))


# ---------------------------------------------------------------------------
# checks: each returns (passed, detail); run_verification names them
# ---------------------------------------------------------------------------

def _thermal_deviation(a: float, report: MeasureReport) -> float:
    """The larger relative deviation of I and chi2 from the thermal closed forms."""
    i_exact, chi2_exact = thermal_I_exact(a), thermal_chi2_exact(a)
    return max(abs(report.I - i_exact) / max(abs(i_exact), 1.0),
               abs(report.chi2 - chi2_exact) / chi2_exact)


def check_gaussian_family(refs: ReferenceStates) -> tuple[bool, str]:
    """Thermal family against its closed forms, operator path."""
    tol = 1e-9
    worst = 0.0
    for a in GAUSSIAN_WIDTHS:
        report = refs.thermal_report(a)
        worst = max(worst, _thermal_deviation(a, report))
        if a > 1.0 and not (report.I < 0.0 and 0.0 < report.chi2 < 2.0):
            return False, f"sign/range violated at a={a}: I={report.I!r}, chi2={report.chi2!r}"
    return worst < tol, (
        f"max relative deviation from closed forms {worst:.2e} (tol {tol:.0e}); "
        f"I < 0 and 0 < chi2 < 2 for every a > 1")


def check_gaussian_family_wigner() -> tuple[bool, str]:
    """Thermal family against closed forms, phase-space path."""
    tol = 1e-9
    worst = 0.0
    for a in GAUSSIAN_WIDTHS:
        rho = _thermal(a)
        with _naming(f"thermal a={a}"):
            report = wigner_measure_report(rho)
        worst = max(worst, _thermal_deviation(a, report))
    return worst < tol, (
        f"max relative deviation {worst:.2e} on the default grids (tol {tol:.0e})")


def check_fock_mixture_degeneracy(refs: ReferenceStates) -> tuple[bool, str]:
    """Vacuum-anchored number mixtures: I = 0 and chi2 = 2 exactly."""
    i_tol = 1e-12
    chi_tol = 1e-10
    reports = [refs.fock_mixture_report(d) for d in FOCK_MIXTURE_SIZES]
    worst_i = max(abs(report.I) for report in reports)
    worst_chi = max(abs(report.chi2 - 2.0) for report in reports)
    return worst_i < i_tol and worst_chi < chi_tol, (
        f"max |I| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |chi2 - 2| = {worst_chi:.2e} (tol {chi_tol:.0e}) over d in {FOCK_MIXTURE_SIZES}")


def check_cat_mixture_values(refs: ReferenceStates) -> tuple[bool, str]:
    """Coherent two-component mixtures against their exact closed forms."""
    i_tol = 1e-9
    chi_tol = 1e-6
    reports = {alpha: refs.cat_mixture_report(alpha) for alpha in CAT_MIXTURE_ALPHAS}
    worst_i = max(abs(r.I - cat_mixture_I_exact(alpha)) for alpha, r in reports.items())
    worst_chi = max(abs(r.chi2 - cat_mixture_chi2_exact(alpha)) for alpha, r in reports.items())
    return worst_i < i_tol and worst_chi < chi_tol, (
        f"max |I - exact| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |chi2 - exact| = {worst_chi:.2e} (tol {chi_tol:.0e}) "
        f"over alpha in {CAT_MIXTURE_ALPHAS}")


def note_cat_mixture_asymptotics(refs: ReferenceStates) -> tuple[bool, str]:
    lines = []
    for alpha in CAT_MIXTURE_ALPHAS:
        report = refs.cat_mixture_report(alpha)
        lines.append(f"alpha={alpha}: I={report.I:.6e}, chi2={report.chi2:.9f}")
    return True, (
        "cat-mixture coherence follows I = -|alpha|^2 exp(-4|alpha|^2), which "
        "vanishes (and chi2 -> 2) only asymptotically in alpha; "
        + "; ".join(lines))


def note_fock_mixture_convention(refs: ReferenceStates, d: int = 5) -> tuple[bool, str]:
    with_vac = refs.fock_mixture_report(d).I
    without_vac = measure_I(fock_mixture(ModeSpec(1, d + 4), d, include_vacuum=False))
    return True, (
        f"uniform number mixture of d={d} levels: include_vacuum=true gives "
        f"I = {with_vac:.3e} (zero in exact arithmetic), include_vacuum=false gives "
        f"I = {without_vac!r} (exactly 1/d^2 = {1.0 / (d * d)!r}); only the "
        "vacuum-anchored range has vanishing coherence")


def check_identity(refs: ReferenceStates) -> tuple[bool, str]:
    """I = (C - M*P)/2 on the full corpus; a report refuses a residual beyond the tolerance."""
    worst_name, worst = max(((name, report.identity_residual)
                             for name, report in refs.corpus_reports().items()),
                            key=lambda item: item[1])
    return True, (
        f"max |I - (C - M*P)/2| = {worst:.2e} at {worst_name!r} "
        f"over 12 states (tol {TOL.identity_tol:.0e})")


def check_pure_state_relation() -> tuple[bool, str]:
    """|I/P - (chi2/4 - M/2)| on seeded random pure states, one and two modes, dense route.

    I/P, as pure_state_measures judges: I carries P = |psi|^4 and chi2 does not.
    """
    tol = TOL.pure_relation_tol
    rng = np.random.default_rng(RANDOM_SEED)
    worst = 0.0
    for count, spec in ((50, ModeSpec(1, 12)), (10, ModeSpec(2, 8))):
        for _ in range(count):
            report = measure_report(as_density(random_pure_state(spec, rng)))
            relation = report.chi2 / 4.0 - spec.num_modes / 2.0
            worst = max(worst, abs(report.I / report.P - relation))
    return worst < tol, (
        f"max residual {worst:.2e} over 50 single-mode and 10 two-mode "
        f"random pure states (tol {tol:.0e})")


def check_dual_pipeline() -> tuple[bool, str]:
    """Operator vs phase-space C, P and chi2 on the single-mode corpus; a grid report
    refuses a disagreement beyond the tolerance itself."""
    deltas = {}
    for name, rho in wigner_corpus():
        with _naming(name):
            report = wigner_measure_report(rho)
        deltas[name] = max(report.cross_deltas.values())
    worst_name = max(deltas, key=deltas.get)
    return True, (
        f"max relative pipeline delta {deltas[worst_name]:.2e} at {worst_name!r} "
        f"on the default grids (tol {TOL.dual_pipeline_rel:.0e})")


def check_three_two_term(refs: ReferenceStates) -> tuple[bool, str]:
    """Literal three-trace form of I against the cyclicity-reduced form."""
    tol = TOL.three_two_term_tol
    rng = np.random.default_rng(RANDOM_SEED + 1)
    states = [rho for _, rho in refs.corpus]
    states += [random_mixed_state(ModeSpec(1, 12), rng) for _ in range(5)]
    worst = max(abs(three - two) for three, two in map(measure_I_forms, states))
    return worst < tol, (
        f"max |three-term - two-term| = {worst:.2e} over "
        f"{len(states)} states (tol {tol:.0e})")


def check_displacement_invariance() -> tuple[bool, str]:
    """I and chi2 are unchanged by displacing interior-supported states."""
    i_tol = 1e-7
    chi_tol = 1e-6
    states = [
        as_density(coherent_state(ModeSpec(1, 40), 0.5)),
        as_density(fock_state(ModeSpec(1, 40), 2)),
        thermal_state(ModeSpec(1, 60), GaussianSpec(math.sqrt(2.0))),
    ]
    betas = (0.3, 1.0, 0.5 + 0.5j)
    worst_i = 0.0
    worst_chi = 0.0
    for rho in states:
        ref = measure_report(rho)
        for beta in betas:
            moved = measure_report(displaced(rho, beta))
            worst_i = max(worst_i, abs(moved.I - ref.I))
            worst_chi = max(worst_chi, abs(moved.chi2 - ref.chi2))
    return worst_i < i_tol and worst_chi < chi_tol, (
        f"max |dI| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |dchi2| = {worst_chi:.2e} (tol {chi_tol:.0e}) for |beta| <= 1")


def check_tensor_composition(refs: ReferenceStates) -> tuple[bool, str]:
    """I(rho1 x rho2) = P2 I1 + P1 I2 and P(rho1 x rho2) = P1 P2 on the corpus products."""
    i_tol = 1e-9
    p_tol = 1e-10
    products = refs.corpus_reports()
    worst_i = 0.0
    worst_p = 0.0
    for name, (left, right) in _product_factors().items():
        one, two, prod = measure_report(left), measure_report(right), products[name]
        worst_i = max(worst_i, abs(prod.I - (two.P * one.I + one.P * two.I)))
        worst_p = max(worst_p, abs(prod.P - one.P * two.P))
    return worst_i < i_tol and worst_p < p_tol, (
        f"max |I12 - (P2 I1 + P1 I2)| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |P12 - P1 P2| = {worst_p:.2e} (tol {p_tol:.0e})")


def check_chi2_positivity(refs: ReferenceStates) -> tuple[bool, str]:
    """chi2 > 0 everywhere while I changes sign across the corpus (a report refuses chi2 <= 0)."""
    reports = refs.corpus_reports()
    for a in (1.2, 2.0, 5.0):
        chi2 = refs.thermal_report(a).chi2
        if not 0.0 < chi2 < 2.0:
            return False, f"thermal a={a}: chi2 = {chi2!r} outside (0, 2)"
    if not any(report.I < 0.0 for report in reports.values()):
        return False, "corpus exercises no state with I < 0"
    return True, ("chi2 > 0 on all corpus states; corpus includes I < 0 states; "
                  "0 < chi2 < 2 for thermal a in (1.2, 2, 5)")


def check_corpus_file(path: str | Path) -> tuple[bool, str]:
    """Load and measure a state file as `macroq measure` does: tail rule, pure route, refusals."""
    state = load_state(path)
    residual = measure_report(state).identity_residual
    return True, f"valid {type(state).__name__}, identity residual {residual:.2e}"


def _outcome(name: str, run: Callable[[], tuple[bool, str]],
             informational: bool = False) -> CheckResult:
    try:
        passed, detail = run()
    except (MacroqError, OSError) as exc:
        return CheckResult(name, False, str(exc))
    except MemoryError as exc:
        return CheckResult(name, False, str(exc) or "out of memory")
    return CheckResult(name, passed, detail, informational)


def run_verification(corpus_paths: tuple[str | Path, ...] = ()) -> list[CheckResult]:
    """Every check, note and corpus file once, on the default grids; a refusal in one,
    or an unreadable file, is its FAIL line. Checks are called by their global names."""
    refs = ReferenceStates()
    checks = [
        ("gaussian-family", lambda: check_gaussian_family(refs)),
        ("gaussian-family-wigner", lambda: check_gaussian_family_wigner()),
        ("fock-mixture-degeneracy", lambda: check_fock_mixture_degeneracy(refs)),
        ("cat-mixture-values", lambda: check_cat_mixture_values(refs)),
        ("measure-identity", lambda: check_identity(refs)),
        ("pure-state-relation", lambda: check_pure_state_relation()),
        ("dual-pipeline", lambda: check_dual_pipeline()),
        ("three-vs-two-term", lambda: check_three_two_term(refs)),
        ("displacement-invariance", lambda: check_displacement_invariance()),
        ("tensor-composition", lambda: check_tensor_composition(refs)),
        ("chi2-positivity", lambda: check_chi2_positivity(refs)),
    ]
    notes = [
        ("fock-mixture-convention", lambda: note_fock_mixture_convention(refs)),
        ("cat-mixture-asymptotics", lambda: note_cat_mixture_asymptotics(refs)),
    ]
    results = [_outcome(name, run) for name, run in checks]
    results += [_outcome(name, run, informational=True) for name, run in notes]
    results += [_outcome(f"corpus:{Path(path).name}", lambda: check_corpus_file(path))
                for path in corpus_paths]
    return results
