"""Single-mode phase-space pipeline.

Every grid comes from the defining integral

    W(q, p) = (1/2pi) integral d_eta <q + eta/2| rho |q - eta/2> exp(-i eta p),

vectorised (the idea of QuTiP's FFT Wigner method, Johansson, Nation & Nori,
Comput. Phys. Commun. 183, 1760 (2012)): the position kernel Psi rho Psi^T
is formed with two BLAS products from the oscillator eigenfunctions on a
position grid refined from the q grid, each q row gathers its
anti-diagonal, and one dense DFT product carries the eta samples onto the
p grid. The eta step is the largest multiple of the position step not
above pi/half_width, so the periodic images of W in p stay outside the
window. The independent judge of the transform, a number-basis dyad
recurrence, lives in the test suite.

Measures on a sampled grid: P = 2pi * integral(W^2) by composite trapezoid,
C = pi * integral(|dW/dq|^2 + |dW/dp|^2) by Parseval over one 2-D FFT,
which treats W as periodic over the window and converges exponentially
once W is negligible at its edge (Trefethen & Weideman, SIAM Rev. 56, 385
(2014)).
Grids cover a square of half-width sqrt(2N) + 5, outside which an
N-truncated state's W has decayed far below the quadrature tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TOL
from .errors import ConsistencyError, TruncationError
from .measures import MeasureReport, measure_report
from .states import GaussianSpec, State, as_density


@dataclass(frozen=True)
class GridSpec:
    """Square sampling window: half-width and per-axis sample counts."""

    half_width: float
    nq: int = 256
    np: int = 256

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.nq < 32 or self.np < 32:
            raise ValueError(f"grids need at least 32 points per axis, got {self.nq}x{self.np}")

    def q_vector(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nq)

    def p_vector(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.np)


def default_grid_spec(truncation: int, points: int = 256) -> GridSpec:
    """Window sized to the truncated state's support radius sqrt(2N), buffered."""
    return GridSpec(half_width=math.sqrt(2.0 * truncation) + 5.0, nq=points, np=points)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Sampled real W(q_i, p_j) on a rectangular window."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    np: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must be ordered")
        if self.nq < 32 or self.np < 32:
            raise ValueError("grids need at least 32 points per axis")
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.nq, self.np):
            raise ValueError(f"values shape {vals.shape} does not match {self.nq}x{self.np}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def q_vector(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nq)

    def p_vector(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.nq - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.np - 1)

    def normalization(self) -> float:
        return _trapezoid_2d(self.values, self.dq, self.dp)

    def to_csv(self, path: str | Path) -> None:
        """Row-major q,p,w table at 17 significant digits."""
        q = self.q_vector()
        p = self.p_vector()
        with open(path, "w", newline="") as fh:
            fh.write("q,p,w\n")
            for i in range(self.nq):
                qi = q[i]
                row = self.values[i]
                for j in range(self.np):
                    fh.write(f"{qi:.17g},{p[j]:.17g},{row[j]:.17g}\n")

    def to_json_dict(self) -> dict:
        return {
            "grid_spec": {
                "q_min": self.q_min,
                "q_max": self.q_max,
                "p_min": self.p_min,
                "p_max": self.p_max,
                "nq": self.nq,
                "np": self.np,
            },
            "values": self.values.tolist(),
        }


def _trapezoid_2d(values: np.ndarray, dq: float, dp: float) -> float:
    wq = np.full(values.shape[0], dq)
    wq[0] *= 0.5
    wq[-1] *= 0.5
    wp = np.full(values.shape[1], dp)
    wp[0] *= 0.5
    wp[-1] *= 0.5
    return float(wq @ values @ wp)


def _grid_from_values(gs: GridSpec, values: np.ndarray) -> PhaseSpaceGrid:
    return PhaseSpaceGrid(
        q_min=-gs.half_width, q_max=gs.half_width,
        p_min=-gs.half_width, p_max=gs.half_width,
        nq=gs.nq, np=gs.np, values=values,
    )


def _require_single_mode(rho: State, what: str) -> None:
    if rho.spec.num_modes != 1:
        raise ValueError(
            f"{what} supports single-mode states only, got M={rho.spec.num_modes}; "
            "multimode measures use the operator path"
        )


def _finish(raw: np.ndarray, gs: GridSpec, what: str) -> PhaseSpaceGrid:
    residue = float(np.max(np.abs(raw.imag)))
    if residue > TOL.imag_residue_tol:
        raise ConsistencyError(
            f"{what}: imaginary residue {residue:.2e} in the transform "
            f"(allowed {TOL.imag_residue_tol:.0e})"
        )
    grid = _grid_from_values(gs, raw.real)
    norm = grid.normalization()
    if abs(norm - 1.0) > TOL.grid_norm_tol:
        raise TruncationError(
            f"{what}: grid integrates to {norm!r}, not 1; "
            "enlarge the half-width or refine the grid"
        )
    return grid


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

# eta columns gathered and transformed at a time: keeps the transient arrays
# of the transform at a few (nq x block) beside the position kernel itself
_ETA_BLOCK = 256


def _eta_sampling(gs: GridSpec) -> tuple[int, int]:
    """Refinement r of the position grid over the q grid, and eta stride m.

    The eta step m*dq/r is the largest multiple of the refined step dq/r
    that is at most pi/half_width. W sampled that way is periodic in p with
    period 2pi/d_eta >= 2*half_width, so its images fall outside the window.
    A stride beyond the kernel's width samples eta = 0 alone, so m is capped
    there, which keeps it finite for tiny windows.
    """
    dq = 2.0 * gs.half_width / (gs.nq - 1)
    limit = math.pi / gs.half_width
    refine = max(1, math.ceil(dq / limit))
    stride = max(1, math.floor(min(limit * refine / dq, 2 * refine * gs.nq)))
    return refine, stride


def _defining_integral(mat: np.ndarray, gs: GridSpec) -> np.ndarray:
    """(1/2pi) sum_j d_eta <q_i + eta_j/2| rho |q_i - eta_j/2> exp(-i eta_j p_k).

    The position kernel <x_a|rho|x_b> = Psi rho Psi^T is sampled on
    x_a = -h + a*dq/(2r), so q_i sits at a = 2ri and q_i +- eta_j/2 at
    a = 2ri +- mj. Each block of eta columns is gathered from the kernel's
    anti-diagonals (pairs that leave the window count as zero) and carried
    onto the p grid by one dense DFT product.
    """
    refine, stride = _eta_sampling(gs)
    size = 2 * refine * (gs.nq - 1) + 1
    psi = _hermite_functions(np.linspace(-gs.half_width, gs.half_width, size), mat.shape[0])
    flat = ((psi @ mat) @ psi.T).ravel()
    d_eta = stride * 2.0 * gs.half_width / (refine * (gs.nq - 1))
    centre = 2 * refine * np.arange(gs.nq)
    room = np.minimum(centre, size - 1 - centre)[:, None]
    p = gs.p_vector()
    reach = (size - 1) // (2 * stride)
    raw = np.zeros((gs.nq, gs.np), dtype=np.complex128)
    for first in range(-reach, reach + 1, _ETA_BLOCK):
        j = np.arange(first, min(first + _ETA_BLOCK, reach + 1))
        inside = stride * np.abs(j) <= room
        index = centre[:, None] * (size + 1) + stride * (size - 1) * j
        column = np.where(inside, flat[np.where(inside, index, 0)], 0.0)
        raw += column @ np.exp(-1j * d_eta * np.outer(j, p))
    return raw * (d_eta / (2.0 * np.pi))


def wigner_from_density(rho: State, gs: GridSpec | None = None) -> PhaseSpaceGrid:
    """Sample W for a single-mode state, pure or mixed, by the vectorised defining integral."""
    _require_single_mode(rho, "wigner_from_density")
    if gs is None:
        gs = default_grid_spec(rho.spec.truncation)
    return _finish(_defining_integral(as_density(rho).matrix, gs), gs, "wigner_from_density")


def _hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(x), shape (len(x), count)."""
    out = np.zeros((x.size, count))
    out[:, 0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if count > 1:
        out[:, 1] = math.sqrt(2.0) * x * out[:, 0]
    for n in range(2, count):
        out[:, n] = (math.sqrt(2.0 / n) * x * out[:, n - 1]
                     - math.sqrt((n - 1) / n) * out[:, n - 2])
    return out


def gaussian_wigner(g: GaussianSpec, gs: GridSpec) -> PhaseSpaceGrid:
    """Analytic isotropic Gaussian profile exp(-(q^2+p^2)/a^2) / (pi a^2)."""
    q = gs.q_vector()
    p = gs.p_vector()
    values = np.exp(-(q[:, None] ** 2 + p[None, :] ** 2) / (g.a * g.a)) / (np.pi * g.a * g.a)
    return _grid_from_values(gs, values)


# ---------------------------------------------------------------------------
# grid measures
# ---------------------------------------------------------------------------

def measure_P_wigner(w: PhaseSpaceGrid) -> float:
    """Purity from the square integral, 2pi * integral(W^2)."""
    return 2.0 * np.pi * _trapezoid_2d(w.values * w.values, w.dq, w.dp)


def measure_C_wigner(w: PhaseSpaceGrid, *, check_resolution: bool = True) -> float:
    """Structure functional pi * integral(|dW/dq|^2 + |dW/dp|^2) on the grid.

    The resolution guard compares against the same evaluation on the
    2x-coarsened grid. The spectral C is exact to round-off on any grid
    that resolves W, so a change beyond gradient_resolution_tol means the
    half grid, and possibly the grid itself, is under-resolved. The guard
    is conservative: it also refuses resolved grids whose half is aliased
    (cat alpha=5 at 256 points).
    """
    value = _c_from_values(w.values, w.dq, w.dp)
    if check_resolution:
        coarse = w.values[::2, ::2]
        coarse_value = _c_from_values(coarse, 2.0 * w.dq, 2.0 * w.dp)
        change = abs(coarse_value - value) / abs(value)
        limit = TOL.gradient_resolution_tol
        if change > limit:
            raise TruncationError(
                f"gradient integral not grid-converged: coarsening changes C by "
                f"{change:.2e} relative (limit {limit:.2e}); use a finer grid"
            )
    return value


def _c_from_values(values: np.ndarray, dq: float, dp: float) -> float:
    """pi * integral |grad W|^2 by Parseval over one 2-D FFT of the samples."""
    nq, np_ = values.shape
    k_q = 2.0 * np.pi * np.fft.fftfreq(nq, d=dq)
    k_p = 2.0 * np.pi * np.fft.fftfreq(np_, d=dp)
    power = np.abs(np.fft.fft2(values)) ** 2
    weighted = (k_q ** 2) @ power.sum(axis=1) + power.sum(axis=0) @ (k_p ** 2)
    return float(np.pi * dq * dp / (nq * np_) * weighted)


def wigner_measure_report(
    rho: State,
    gs: GridSpec | None = None,
    *,
    cross_tol: float | None = None,
    provenance: dict | None = None,
) -> MeasureReport:
    """Phase-space-path report, cross-checked against the operator path.

    C and P come from the grid; I is reconstructed through I = (C - M*P)/2
    and chi2 = 2C/P. The same state is first measured through the operator
    traces, and the two pipelines must agree on C, P and chi2 within the
    relative tolerance, otherwise a ConsistencyError carries both sets of
    values. The operator report is kept as the result's checked_against.
    """
    _require_single_mode(rho, "wigner_measure_report")
    if gs is None:
        gs = default_grid_spec(rho.spec.truncation)
    operator = measure_report(rho, provenance=provenance)
    tol = TOL.dual_pipeline_rel if cross_tol is None else cross_tol
    grid = wigner_from_density(rho, gs)
    c_value = measure_C_wigner(grid, check_resolution=False)
    p_value = measure_P_wigner(grid)
    i_value = (c_value - p_value) / 2.0
    chi2 = 2.0 * c_value / p_value
    deltas = {
        "C": abs(c_value - operator.C) / abs(operator.C),
        "P": abs(p_value - operator.P) / operator.P,
        "chi2": abs(chi2 - operator.chi2) / abs(operator.chi2),
    }
    worst = max(deltas, key=deltas.get)
    if deltas[worst] > tol:
        raise ConsistencyError(
            "operator and phase-space pipelines disagree: "
            f"grid C={c_value!r} P={p_value!r} chi2={chi2!r} vs "
            f"operator C={operator.C!r} P={operator.P!r} chi2={operator.chi2!r} "
            f"(relative deltas {deltas}, tolerance {tol})"
        )
    return MeasureReport(
        I=i_value,
        C=c_value,
        P=p_value,
        chi2=chi2,
        num_modes=1,
        truncation=rho.spec.truncation,
        identity_residual=0.0,
        method="wigner",
        cross_deltas=deltas,
        provenance=provenance or {},
        checked_against=operator,
    )
