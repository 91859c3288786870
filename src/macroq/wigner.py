"""Single-mode phase-space pipeline.

The primary transform expands rho over number-basis dyads |m><n| whose
phase-space kernels are generated by stable upward recurrences (Laguerre
form, damped by exp(-q^2-p^2) from the start). The defining integral

    W(q, p) = (1/2pi) integral d_eta <q + eta/2| rho |q - eta/2> exp(-i eta p)

is kept as a slow, independently-coded oracle (wigner_direct) built from
harmonic-oscillator position wavefunctions and eta quadrature.

Measures on a sampled grid: P = 2pi * integral(W^2) by composite trapezoid,
C = pi * integral(|dW/dq|^2 + |dW/dp|^2) with central finite differences.
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
from .states import DensityMatrix, GaussianSpec

__all__ = [
    "GridSpec",
    "PhaseSpaceGrid",
    "default_grid_spec",
    "wigner_from_density",
    "wigner_direct",
    "gaussian_wigner",
    "measure_P_wigner",
    "measure_C_wigner",
    "wigner_measure_report",
]


@dataclass(frozen=True)
class GridSpec:
    """Square sampling window: half-width and per-axis sample counts."""

    half_width: float
    nq: int = 256
    np: int = 256

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
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


def _require_single_mode(rho: DensityMatrix, what: str) -> None:
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

def _diagonal_kernel_sum(diag: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_n rho_nn * (-1)^n L_n(2r^2) exp(-r^2) / pi via the damped recurrence."""
    r_sq = q[:, None] ** 2 + p[None, :] ** 2
    x = 2.0 * r_sq
    damp = np.exp(-r_sq)
    b_prev = damp.copy()
    total = diag[0] * b_prev
    if diag.size > 1:
        b_cur = (x - 1.0) * damp
        total = total + diag[1] * b_cur
        for n in range(1, diag.size - 1):
            b_next = (-(2 * n + 1 - x) * b_cur - n * b_prev) / (n + 1)
            total = total + diag[n + 1] * b_next
            b_prev, b_cur = b_cur, b_next
    return total / np.pi


def _kernel_sum(mat: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Full complex sum over dyad kernels, sum_{mn} rho_mn T_mn(q, p).

    T_mn for n >= m is generated row by row: T_00 is the damped Gaussian,
    T_0n climbs the first row, and each next row starts from the previous
    one. Kernels carry the Gaussian damping from the start so every
    intermediate stays bounded. T_nm = conj(T_mn) closes the lower triangle.
    """
    dim = mat.shape[0]
    off_diag = mat - np.diag(np.diag(mat))
    if not off_diag.any():
        return _diagonal_kernel_sum(np.diag(mat), q, p).astype(np.complex128)
    a_grid = (q[:, None] + 1j * p[None, :]) / np.sqrt(2.0)
    row = [np.zeros_like(a_grid) for _ in range(dim)]
    row[0] = np.exp(-2.0 * np.abs(a_grid) ** 2) / np.pi
    total = mat[0, 0] * row[0]
    for n in range(1, dim):
        row[n] = (2.0 * a_grid * row[n - 1]) / math.sqrt(n)
        total = total + mat[0, n] * row[n] + mat[n, 0] * np.conj(row[n])
    for m in range(1, dim):
        diag_above = row[m]
        row[m] = (2.0 * np.conj(a_grid) * diag_above - math.sqrt(m) * row[m - 1]) / math.sqrt(m)
        total = total + mat[m, m] * row[m]
        for n in range(m + 1, dim):
            advanced = (2.0 * a_grid * row[n - 1] - math.sqrt(m) * diag_above) / math.sqrt(n)
            diag_above = row[n]
            row[n] = advanced
            total = total + mat[m, n] * row[n] + mat[n, m] * np.conj(row[n])
    return total


def wigner_from_density(rho: DensityMatrix, gs: GridSpec | None = None) -> PhaseSpaceGrid:
    """Sample W for a single-mode state via the number-basis kernel recurrences."""
    _require_single_mode(rho, "wigner_from_density")
    if gs is None:
        gs = default_grid_spec(rho.spec.truncation)
    raw = _kernel_sum(rho.matrix, gs.q_vector(), gs.p_vector())
    return _finish(raw, gs, "wigner_from_density")


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


def wigner_direct(
    rho: DensityMatrix,
    gs: GridSpec | None = None,
    eta_points: int = 2048,
) -> PhaseSpaceGrid:
    """Evaluate the defining integral by brute-force eta quadrature.

    Slow but independent of the kernel recurrences; used to validate them.
    The eta range spans twice the grid half-width, beyond which the position
    matrix elements of a truncated state have decayed to nothing.
    """
    _require_single_mode(rho, "wigner_direct")
    if eta_points < 256:
        raise ValueError(f"eta_points must be at least 256, got {eta_points}")
    if gs is None:
        gs = default_grid_spec(rho.spec.truncation)
    dim = rho.spec.truncation
    q = gs.q_vector()
    p = gs.p_vector()
    eta = np.linspace(-2.0 * gs.half_width, 2.0 * gs.half_width, eta_points)
    weights = np.full(eta_points, eta[1] - eta[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    phase = np.exp(-1j * np.outer(eta, p))
    raw = np.empty((gs.nq, gs.np), dtype=np.complex128)
    for i, qi in enumerate(q):
        left = _hermite_functions(qi + eta / 2.0, dim)
        right = _hermite_functions(qi - eta / 2.0, dim)
        elems = np.einsum("km,mn,kn->k", left, rho.matrix, right)
        raw[i, :] = (elems * weights) @ phase / (2.0 * np.pi)
    return _finish(raw, gs, "wigner_direct")


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


_STENCILS = {
    2: None,
    4: (2, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0),
    6: (3, np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0),
    8: (4, np.array([1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5, 0.0,
                     4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280])),
}


def _central_gradient(values: np.ndarray, step: float, axis: int, order: int) -> np.ndarray:
    """Central differences of the requested order; one-sided near the border.

    The border layers fall back to numpy's second-order edge handling; grid
    windows are sized so W is negligible there, but the entries must still
    be finite numbers.
    """
    grad = np.gradient(values, step, axis=axis, edge_order=2)
    if order == 2:
        return grad
    try:
        half, coeffs = _STENCILS[order]
    except KeyError:
        raise ValueError(f"unsupported stencil order {order}; choose 2, 4, 6 or 8") from None
    moved = np.moveaxis(values, axis, 0)
    out = np.moveaxis(grad, axis, 0)
    width = moved.shape[0]
    if width < 2 * half + 1:
        return grad
    acc = np.zeros_like(moved[half:width - half])
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        acc += c * moved[k:width - 2 * half + k]
    out[half:width - half] = acc / step
    return grad


def measure_C_wigner(
    w: PhaseSpaceGrid,
    *,
    stencil_order: int = 8,
    check_resolution: bool = True,
) -> float:
    """Structure functional pi * integral(|dW/dq|^2 + |dW/dp|^2) on the grid.

    The resolution guard compares against the same evaluation on the
    2x-coarsened grid: for a stencil of order k the observed change bounds
    the change a further halving would make by a factor 2^k, so the guard
    threshold is 2^k times the admissible halving change.
    """
    value = _c_from_values(w.values, w.dq, w.dp, stencil_order)
    if check_resolution:
        coarse = w.values[::2, ::2]
        coarse_value = _c_from_values(coarse, 2.0 * w.dq, 2.0 * w.dp, stencil_order)
        change = abs(coarse_value - value) / abs(value)
        limit = (2 ** stencil_order) * TOL.gradient_resolution_tol
        if change > limit:
            raise TruncationError(
                f"gradient integral not grid-converged: coarsening changes C by "
                f"{change:.2e} relative (limit {limit:.2e}); use a finer grid"
            )
    return value


def _c_from_values(values: np.ndarray, dq: float, dp: float, order: int) -> float:
    grad_q = _central_gradient(values, dq, 0, order)
    grad_p = _central_gradient(values, dp, 1, order)
    return float(np.pi * _trapezoid_2d(grad_q * grad_q + grad_p * grad_p, dq, dp))


def wigner_measure_report(
    rho: DensityMatrix,
    gs: GridSpec | None = None,
    *,
    cross_tol: float | None = None,
    stencil_order: int = 8,
    provenance: dict | None = None,
):
    """Phase-space-path report, cross-checked against the operator path.

    C and P come from the grid; I is reconstructed through I = (C - M*P)/2
    and chi2 = 2C/P. The same state is measured through the operator traces
    and the two pipelines must agree on C, P and chi2 within the relative
    tolerance, otherwise a ConsistencyError carries both sets of values.
    """
    from .measures import measure_report

    _require_single_mode(rho, "wigner_measure_report")
    if gs is None:
        gs = default_grid_spec(rho.spec.truncation)
    return _grid_report(rho, gs, measure_report(rho), cross_tol=cross_tol,
                        stencil_order=stencil_order, provenance=provenance)


def _grid_report(
    rho: DensityMatrix,
    gs: GridSpec,
    operator,
    *,
    cross_tol: float | None = None,
    stencil_order: int = 8,
    provenance: dict | None = None,
):
    """The grid side of wigner_measure_report, checked against a given operator report."""
    from .measures import MeasureReport

    _require_single_mode(rho, "wigner_measure_report")
    tol = TOL.dual_pipeline_rel if cross_tol is None else cross_tol
    grid = wigner_from_density(rho, gs)
    c_value = measure_C_wigner(grid, stencil_order=stencil_order, check_resolution=False)
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
    )
