"""Built-in verification suite.

Every check concerns some redundancy the implementation must exhibit: exact
closed forms for the analytic state families, the algebraic identity between
the two measures, the pure-state equivalence, agreement between the operator
and phase-space pipelines, and invariance properties. Informational entries
report behavior worth seeing (index-convention sensitivity of the number
mixtures, the asymptotic-only vanishing of the cat-mixture coherence) without
gating the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TOL
from .errors import MacroqError
from .fock import ModeSpec
from .measures import measure_I, measure_I_forms, measure_report
from .states import (
    DensityMatrix,
    GaussianSpec,
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
    purity,
    random_mixed_state,
    random_pure_state,
    thermal_state,
)
from .wigner import DEFAULT_GRID_POINTS, default_grid_spec, wigner_measure_report

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

def identity_corpus() -> list[tuple[str, DensityMatrix]]:
    """Twelve states spanning the families, including two-mode products."""
    thermal26 = thermal_state(ModeSpec(1, 26), GaussianSpec(math.sqrt(2.0)))
    catmix26 = cat_mixture(ModeSpec(1, 26), 1.0)
    fock16 = fock_state(ModeSpec(1, 16), 1)
    coh16 = coherent_state(ModeSpec(1, 16), 0.8)
    return [
        ("vacuum", as_density(fock_state(ModeSpec(1, 12), 0))),
        ("fock_n2", as_density(fock_state(ModeSpec(1, 12), 2))),
        ("coherent_1", as_density(coherent_state(ModeSpec(1, 19), 1.0))),
        ("coherent_complex", as_density(
            coherent_state(ModeSpec(1, default_coherent_truncation(2 + 0.5j)), 2 + 0.5j))),
        ("cat_even_1.5", as_density(cat_state(ModeSpec(1, 25), 1.5))),
        ("cat_odd_1.2", as_density(cat_state(ModeSpec(1, 22), 1.2, math.pi))),
        ("cat_mixture_1", cat_mixture(ModeSpec(1, 19), 1.0)),
        ("fock_mixture_d4", fock_mixture(ModeSpec(1, 12), 4, include_vacuum=True)),
        ("fock_mixture_d3_shifted", fock_mixture(ModeSpec(1, 12), 3, include_vacuum=False)),
        ("thermal_sqrt2", thermal_state(ModeSpec(1, 31), GaussianSpec(math.sqrt(2.0)))),
        ("thermal_x_catmix", product_state(thermal26, catmix26)),
        ("fock_x_coherent", product_state(as_density(fock16), as_density(coh16))),
    ]


def wigner_corpus() -> list[tuple[str, DensityMatrix]]:
    """Single-mode states for the dual-pipeline comparison."""
    return [
        ("vacuum", as_density(fock_state(ModeSpec(1, 12), 0))),
        ("fock_n1", as_density(fock_state(ModeSpec(1, 12), 1))),
        ("coherent_1", as_density(coherent_state(ModeSpec(1, 19), 1.0))),
        ("cat_1.5", as_density(cat_state(ModeSpec(1, 25), 1.5))),
        ("cat_mixture_1", cat_mixture(ModeSpec(1, 19), 1.0)),
        ("thermal_sqrt2", thermal_state(
            ModeSpec(1, default_thermal_truncation(math.sqrt(2.0))),
            GaussianSpec(math.sqrt(2.0)))),
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_gaussian_family(tol_factor: float = 1.0) -> CheckResult:
    """Thermal family against its closed forms, operator path."""
    tol = 1e-9 * tol_factor
    worst = 0.0
    for a in GAUSSIAN_WIDTHS:
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        report = measure_report(rho)
        i_exact = thermal_I_exact(a)
        chi2_exact = thermal_chi2_exact(a)
        dev_i = abs(report.I - i_exact) / max(abs(i_exact), 1.0)
        dev_chi = abs(report.chi2 - chi2_exact) / chi2_exact
        worst = max(worst, dev_i, dev_chi)
        if a > 1.0 and not (report.I < 0.0 and 0.0 < report.chi2 < 2.0):
            return CheckResult(
                "gaussian-family", False,
                f"sign/range violated at a={a}: I={report.I!r}, chi2={report.chi2!r}")
    passed = worst < tol
    return CheckResult(
        "gaussian-family", passed,
        f"max relative deviation from closed forms {worst:.2e} (tol {tol:.0e}); "
        f"I < 0 and 0 < chi2 < 2 for every a > 1")


def check_gaussian_family_wigner(grid_points: int = DEFAULT_GRID_POINTS,
                                 tol_factor: float = 1.0) -> CheckResult:
    """Thermal family against closed forms, phase-space path."""
    tol = 1e-3 * tol_factor
    worst = 0.0
    for a in GAUSSIAN_WIDTHS:
        n_cut = default_thermal_truncation(a)
        rho = thermal_state(ModeSpec(1, n_cut), GaussianSpec(a))
        report = wigner_measure_report(rho, default_grid_spec(n_cut, grid_points))
        i_exact = thermal_I_exact(a)
        chi2_exact = thermal_chi2_exact(a)
        worst = max(
            worst,
            abs(report.I - i_exact) / max(abs(i_exact), 1.0),
            abs(report.chi2 - chi2_exact) / chi2_exact,
        )
    passed = worst < tol
    return CheckResult(
        "gaussian-family-wigner", passed,
        f"max relative deviation {worst:.2e} on {grid_points}^2 grids (tol {tol:.0e})")


def check_fock_mixture_degeneracy(tol_factor: float = 1.0) -> CheckResult:
    """Vacuum-anchored number mixtures: I = 0 and chi2 = 2 exactly."""
    i_tol = 1e-12 * tol_factor
    chi_tol = 1e-10 * tol_factor
    worst_i = 0.0
    worst_chi = 0.0
    for d in FOCK_MIXTURE_SIZES:
        report = measure_report(fock_mixture(ModeSpec(1, d + 4), d, include_vacuum=True))
        worst_i = max(worst_i, abs(report.I))
        worst_chi = max(worst_chi, abs(report.chi2 - 2.0))
    passed = worst_i < i_tol and worst_chi < chi_tol
    return CheckResult(
        "fock-mixture-degeneracy", passed,
        f"max |I| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |chi2 - 2| = {worst_chi:.2e} (tol {chi_tol:.0e}) over d in {FOCK_MIXTURE_SIZES}")


def check_cat_mixture_values(tol_factor: float = 1.0) -> CheckResult:
    """Coherent two-component mixtures against their exact closed forms."""
    i_tol = 1e-9 * tol_factor
    chi_tol = 1e-6 * tol_factor
    worst_i = 0.0
    worst_chi = 0.0
    for alpha in CAT_MIXTURE_ALPHAS:
        spec = ModeSpec(1, default_coherent_truncation(alpha))
        report = measure_report(cat_mixture(spec, alpha))
        worst_i = max(worst_i, abs(report.I - cat_mixture_I_exact(alpha)))
        worst_chi = max(worst_chi, abs(report.chi2 - cat_mixture_chi2_exact(alpha)))
    passed = worst_i < i_tol and worst_chi < chi_tol
    return CheckResult(
        "cat-mixture-values", passed,
        f"max |I - exact| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |chi2 - exact| = {worst_chi:.2e} (tol {chi_tol:.0e}) "
        f"over alpha in {CAT_MIXTURE_ALPHAS}")


def note_cat_mixture_asymptotics() -> CheckResult:
    lines = []
    for alpha in CAT_MIXTURE_ALPHAS:
        spec = ModeSpec(1, default_coherent_truncation(alpha))
        report = measure_report(cat_mixture(spec, alpha))
        lines.append(f"alpha={alpha}: I={report.I:.6e}, chi2={report.chi2:.9f}")
    detail = (
        "cat-mixture coherence follows I = -|alpha|^2 exp(-4|alpha|^2), which "
        "vanishes (and chi2 -> 2) only asymptotically in alpha; "
        + "; ".join(lines)
    )
    return CheckResult("cat-mixture-asymptotics", True, detail, informational=True)


def note_fock_mixture_convention(d: int = 5) -> CheckResult:
    with_vac = measure_I(fock_mixture(ModeSpec(1, d + 4), d, include_vacuum=True))
    without_vac = measure_I(fock_mixture(ModeSpec(1, d + 4), d, include_vacuum=False))
    detail = (
        f"uniform number mixture of d={d} levels: include_vacuum=true gives "
        f"I = {with_vac:.3e} (zero in exact arithmetic), include_vacuum=false gives "
        f"I = {without_vac!r} (exactly 1/d^2 = {1.0 / (d * d)!r}); only the "
        "vacuum-anchored range has vanishing coherence"
    )
    return CheckResult("fock-mixture-convention", True, detail, informational=True)


def check_identity(tol_factor: float = 1.0) -> CheckResult:
    """I = (C - M*P)/2 from independently evaluated traces, full corpus."""
    tol = TOL.identity_tol * tol_factor
    worst = 0.0
    worst_name = ""
    for name, rho in identity_corpus():
        try:
            residual = measure_report(rho).identity_residual
        except MacroqError as exc:
            return CheckResult("measure-identity", False, f"{name}: {exc}")
        if residual > worst:
            worst, worst_name = residual, name
    passed = worst < tol
    return CheckResult(
        "measure-identity", passed,
        f"max |I - (C - M*P)/2| = {worst:.2e} at {worst_name!r} "
        f"over 12 states (tol {tol:.0e})")


def check_pure_state_relation(tol_factor: float = 1.0) -> CheckResult:
    """|I - (chi2/4 - M/2)| on seeded random pure states, one and two modes."""
    tol = TOL.pure_relation_tol * tol_factor
    rng = np.random.default_rng(RANDOM_SEED)
    worst = 0.0
    for _ in range(50):
        report = measure_report(as_density(random_pure_state(ModeSpec(1, 12), rng)))
        worst = max(worst, abs(report.I - (report.chi2 / 4.0 - 0.5)))
    for _ in range(10):
        report = measure_report(as_density(random_pure_state(ModeSpec(2, 8), rng)))
        worst = max(worst, abs(report.I - (report.chi2 / 4.0 - 1.0)))
    passed = worst < tol
    return CheckResult(
        "pure-state-relation", passed,
        f"max residual {worst:.2e} over 50 single-mode and 10 two-mode "
        f"random pure states (tol {tol:.0e})")


def check_dual_pipeline(grid_points: int = DEFAULT_GRID_POINTS,
                        tol_factor: float = 1.0) -> CheckResult:
    """Operator vs phase-space C, P and chi2 on the single-mode corpus."""
    tol = TOL.dual_pipeline_rel * tol_factor
    worst = 0.0
    worst_name = ""
    for name, rho in wigner_corpus():
        try:
            report = wigner_measure_report(
                rho, default_grid_spec(rho.spec.truncation, grid_points), cross_tol=tol)
        except MacroqError as exc:
            return CheckResult("dual-pipeline", False, f"{name}: {exc}")
        delta = max(report.cross_deltas.values())
        if delta > worst:
            worst, worst_name = delta, name
    return CheckResult(
        "dual-pipeline", True,
        f"max relative pipeline delta {worst:.2e} at {worst_name!r} "
        f"on {grid_points}^2 grids (tol {tol:.0e})")


def check_three_two_term(tol_factor: float = 1.0) -> CheckResult:
    """Literal three-trace form of I against the cyclicity-reduced form."""
    tol = TOL.three_two_term_tol * tol_factor
    rng = np.random.default_rng(RANDOM_SEED + 1)
    worst = 0.0
    states = [rho for _, rho in identity_corpus()]
    states += [random_mixed_state(ModeSpec(1, 12), rng) for _ in range(5)]
    for rho in states:
        three, two = measure_I_forms(rho)
        worst = max(worst, abs(three - two))
    passed = worst < tol
    return CheckResult(
        "three-vs-two-term", passed,
        f"max |three-term - two-term| = {worst:.2e} over "
        f"{len(states)} states (tol {tol:.0e})")


def check_displacement_invariance(tol_factor: float = 1.0) -> CheckResult:
    """I and chi2 are unchanged by displacing interior-supported states."""
    i_tol = 1e-7 * tol_factor
    chi_tol = 1e-6 * tol_factor
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
    passed = worst_i < i_tol and worst_chi < chi_tol
    return CheckResult(
        "displacement-invariance", passed,
        f"max |dI| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |dchi2| = {worst_chi:.2e} (tol {chi_tol:.0e}) for |beta| <= 1")


def check_tensor_composition(tol_factor: float = 1.0) -> CheckResult:
    """I(rho1 x rho2) = P2 I1 + P1 I2 and P(rho1 x rho2) = P1 P2."""
    i_tol = 1e-9 * tol_factor
    p_tol = 1e-10 * tol_factor
    thermal26 = thermal_state(ModeSpec(1, 26), GaussianSpec(math.sqrt(2.0)))
    catmix26 = cat_mixture(ModeSpec(1, 26), 1.0)
    coh16 = as_density(coherent_state(ModeSpec(1, 16), 0.8))
    fock16 = as_density(fock_state(ModeSpec(1, 16), 1))
    worst_i = 0.0
    worst_p = 0.0
    for left, right in ((thermal26, catmix26), (fock16, coh16)):
        prod = product_state(left, right)
        i1, i2 = measure_I(left), measure_I(right)
        p1, p2 = purity(left), purity(right)
        worst_i = max(worst_i, abs(measure_I(prod) - (p2 * i1 + p1 * i2)))
        worst_p = max(worst_p, abs(purity(prod) - p1 * p2))
    passed = worst_i < i_tol and worst_p < p_tol
    return CheckResult(
        "tensor-composition", passed,
        f"max |I12 - (P2 I1 + P1 I2)| = {worst_i:.2e} (tol {i_tol:.0e}), "
        f"max |P12 - P1 P2| = {worst_p:.2e} (tol {p_tol:.0e})")


def check_chi2_positivity(tol_factor: float = 1.0) -> CheckResult:
    """chi2 > 0 everywhere while I changes sign across the corpus."""
    del tol_factor
    saw_negative_i = False
    for name, rho in identity_corpus():
        try:
            report = measure_report(rho)
        except MacroqError as exc:
            return CheckResult("chi2-positivity", False, f"{name}: {exc}")
        if report.I < 0.0:
            saw_negative_i = True
    for a in (1.2, 2.0, 5.0):
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        chi2 = measure_report(rho).chi2
        if not 0.0 < chi2 < 2.0:
            return CheckResult(
                "chi2-positivity", False, f"thermal a={a}: chi2 = {chi2!r} outside (0, 2)")
    if not saw_negative_i:
        return CheckResult(
            "chi2-positivity", False, "corpus exercises no state with I < 0")
    return CheckResult(
        "chi2-positivity", True,
        "chi2 > 0 on all corpus states; corpus includes I < 0 states; "
        "0 < chi2 < 2 for thermal a in (1.2, 2, 5)")


def check_corpus_file(path: str | Path, tol_factor: float = 1.0) -> CheckResult:
    """Load and measure a user-supplied state file as `macroq measure` does.

    The tail rule applies, a pure file takes the pure route, and every
    refusal, an unreadable file included, becomes a FAIL line carrying its
    message.
    """
    name = f"corpus:{Path(path).name}"
    try:
        state = load_state(path)
        residual = measure_report(state).identity_residual
    except (MacroqError, OSError) as exc:
        return CheckResult(name, False, str(exc))
    tol = TOL.identity_tol * tol_factor
    if residual >= tol:
        return CheckResult(
            name, False, f"identity residual {residual:.2e} exceeds {tol:.0e}")
    return CheckResult(
        name, True,
        f"valid {type(state).__name__}, identity residual {residual:.2e}")


def run_verification(
    grid_points: int = DEFAULT_GRID_POINTS,
    tol_factor: float = 1.0,
    corpus_paths: tuple[str | Path, ...] = (),
) -> list[CheckResult]:
    if not (math.isfinite(tol_factor) and tol_factor > 0):
        raise ValueError(f"tolerance factor must be positive and finite, got {tol_factor}")
    results = [
        check_gaussian_family(tol_factor),
        check_gaussian_family_wigner(grid_points, tol_factor),
        check_fock_mixture_degeneracy(tol_factor),
        check_cat_mixture_values(tol_factor),
        check_identity(tol_factor),
        check_pure_state_relation(tol_factor),
        check_dual_pipeline(grid_points, tol_factor),
        check_three_two_term(tol_factor),
        check_displacement_invariance(tol_factor),
        check_tensor_composition(tol_factor),
        check_chi2_positivity(tol_factor),
        note_fock_mixture_convention(),
        note_cat_mixture_asymptotics(),
    ]
    for path in corpus_paths:
        results.append(check_corpus_file(path, tol_factor))
    return results
