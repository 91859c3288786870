"""Operator-trace evaluation of the phase-space coherence measures.

Two quantities drive everything:

    I    = sum_m Tr[ (1/2) rho^2 n_m + (1/2) rho n_m rho - rho a_m rho a_m^dagger ]
    C    = sum_m Tr[ rho^2 q_m^2 + rho^2 p_m^2 - rho q_m rho q_m - rho p_m rho p_m ]

with n_m = a_m^dagger a_m, plus the purity P = Tr[rho^2]. They satisfy
I = (C - M*P)/2 and the structure measure is chi2 = 2C/P. At finite
truncation the identity carries a corner defect proportional to the
population of each mode's top Fock level (the truncated ladder commutator
is not quite the identity there), which is why states are required to keep
that level empty to within the tail tolerance.

No mode operator is ever built. For mode m, rho's row (or column) index is
viewed as (L, N, R) with L = N^(m-1) and R = N^(M-m); a, a^dagger, q and p
are bidiagonal on the middle axis, so applying one to either side of rho is
one or two shifted slices scaled by sqrt(k), and every trace Tr[XY] is
sum(X * Y^T). A report costs O(M D^2) instead of O(M D^3).

The redundancies are checked, not assumed:

- I is evaluated by the literal three-trace form, with Tr[rho^2 n] weighted
  on the row index and Tr[rho n rho] on the column index of rho_ij rho_ji,
  and by the cyclicity-reduced two-trace form; both share the hop term
  Tr[(rho a)(rho a^dagger)], evaluated once per mode.
- C comes from q and p alone, as Tr[(q rho)(rho q)] - Tr[(rho q)(rho q)]
  and the same for p, and P is sum_ij rho_ij rho_ji. Neither shares an
  intermediate with I, so the identity residual |I - (C - M*P)/2| is a
  real cross-check.
- Every trace is complex and its imaginary residue is checked: products
  like sum(X * Y^T) are real only for Hermitian rho, so a corrupted matrix
  shows up there.
- chi2 must be positive, and pure states must satisfy I = chi2/4 - M/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import ConsistencyError
from .fock import ModeSpec
from .states import DensityMatrix, PureState, as_density, purity

WIGNER_CONVENTION_NOTE = (
    "normalization: W integrates to 1 over phase space; "
    "C = sum_m (2pi)^M/2 * integral(|dW/dq_m|^2 + |dW/dp_m|^2), "
    "P = (2pi)^M * integral(W^2); no 2^M rescaling is applied"
)


@dataclass
class MeasureReport:
    """Bundle of I, C, P, chi2 for one state, with consistency diagnostics."""

    I: float
    C: float
    P: float
    chi2: float
    num_modes: int
    truncation: int
    identity_residual: float
    method: str = "operator"
    convention_note: str = WIGNER_CONVENTION_NOTE
    pure_relation_residual: float | None = None
    cross_deltas: dict[str, float] | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "I": self.I,
            "C": self.C,
            "P": self.P,
            "chi2": self.chi2,
            "num_modes": self.num_modes,
            "truncation": self.truncation,
            "identity_residual": self.identity_residual,
            "method": self.method,
            "convention_note": self.convention_note,
        }
        if self.pure_relation_residual is not None:
            out["pure_relation_residual"] = self.pure_relation_residual
        if self.cross_deltas is not None:
            out["cross_deltas"] = self.cross_deltas
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def to_json(self, **extra) -> str:
        doc = self.to_dict()
        doc.update(extra)
        return json.dumps(doc, sort_keys=True, indent=2)


def _real_after_residue_check(value: complex, what: str) -> float:
    if abs(value.imag) > TOL.imag_residue_tol:
        raise ConsistencyError(
            f"{what} has imaginary residue {value.imag:.2e} "
            f"(allowed {TOL.imag_residue_tol:.0e})"
        )
    return value.real


_S = 1.0 / np.sqrt(2.0)
# (a, a^dagger) coefficients of each single-mode operator
_A = (1.0, 0.0)
_ADAG = (0.0, 1.0)
_Q = (_S, _S)
_P = (-1j * _S, 1j * _S)


def _ladder(view: np.ndarray, lower: complex, upper: complex) -> np.ndarray:
    """(lower * a + upper * a^dagger) applied along axis 1 of an (A, N, B) view."""
    root = np.sqrt(np.arange(1.0, view.shape[1]))[:, None]
    out = np.zeros_like(view)
    if lower:
        np.multiply(view[:, 1:], lower * root, out=out[:, :-1])
    if upper:
        out[:, 1:] += (upper * root) * view[:, :-1]
    return out


def _left(mat: np.ndarray, spec: ModeSpec, mode: int, coefs: tuple) -> np.ndarray:
    """X @ mat for the mode operator X = coefs[0] a + coefs[1] a^dagger."""
    n = spec.truncation
    view = mat.reshape(n ** (mode - 1), n, -1)
    return _ladder(view, *coefs).reshape(mat.shape)


def _right(mat: np.ndarray, spec: ModeSpec, mode: int, coefs: tuple) -> np.ndarray:
    """mat @ X, which is X^T on the column index; a^T = a^dagger swaps the coefficients."""
    n = spec.truncation
    view = mat.reshape(-1, n, n ** (spec.num_modes - mode))
    return _ladder(view, coefs[1], coefs[0]).reshape(mat.shape)


def _tr(x: np.ndarray, y: np.ndarray) -> complex:
    """Tr[x y] without the product: sum_ij x_ij y_ji."""
    return complex(np.einsum("ij,ji->", x, y))


def _occupation(weights: np.ndarray, spec: ModeSpec, mode: int) -> complex:
    """sum_i n_m(i) weights_i for a weight on the flat basis index."""
    n = spec.truncation
    marginal = weights.reshape(n ** (mode - 1), n, -1).sum(axis=(0, 2))
    return complex(marginal @ np.arange(n))


def measure_I_forms(rho: DensityMatrix) -> tuple[float, float]:
    """Both evaluations of the coherence measure I.

    Returns the literal three-trace value and the cyclicity-reduced two-trace
    value sum_m (Tr[rho^2 n_m] - Tr[rho a_m rho a_m^dagger]); agreement
    between them is the caller's check.
    """
    spec = rho.spec
    mat = rho.matrix
    overlap = mat * mat.T  # rho_ij rho_ji
    by_row = overlap.sum(axis=1)  # (rho^2)_ii
    by_col = overlap.sum(axis=0)
    three = 0.0 + 0.0j
    two = 0.0 + 0.0j
    for mode in range(1, spec.num_modes + 1):
        sq_n = _occupation(by_row, spec, mode)  # Tr[rho^2 n]
        n_mid = _occupation(by_col, spec, mode)  # Tr[rho n rho]
        hop = _tr(_right(mat, spec, mode, _A), _right(mat, spec, mode, _ADAG))
        three += 0.5 * sq_n + 0.5 * n_mid - hop
        two += sq_n - hop
    return (
        _real_after_residue_check(three, "measure I"),
        _real_after_residue_check(two, "measure I (two-term form)"),
    )


def measure_I(rho: DensityMatrix) -> float:
    """Negativity-capable coherence measure from the number/ladder traces.

    The three-term form is evaluated literally, then re-derived in the
    two-term form; the two must agree or the computation is rejected. The
    three-term value is the one reported.
    """
    value, value_two = measure_I_forms(rho)
    if abs(value - value_two) > TOL.three_two_term_tol:
        raise ConsistencyError(
            f"three-term and two-term evaluations of I disagree: "
            f"{value!r} vs {value_two!r}"
        )
    return value


def measure_C(rho: DensityMatrix) -> float:
    """Structure functional from quadrature traces."""
    spec = rho.spec
    mat = rho.matrix
    total = 0.0 + 0.0j
    for mode in range(1, spec.num_modes + 1):
        for coefs in (_Q, _P):
            left = _left(mat, spec, mode, coefs)  # X rho
            right = _right(mat, spec, mode, coefs)  # rho X
            total += _tr(left, right) - _tr(right, right)
    return _real_after_residue_check(total, "measure C")


def measure_chi2(rho: DensityMatrix) -> float:
    """Purity-normalized structure measure 2C/P; strictly positive."""
    value = 2.0 * measure_C(rho) / purity(rho)
    if value <= 0.0:
        raise ConsistencyError(f"chi2 must be positive, got {value!r}")
    return value


def measure_report(rho: DensityMatrix, provenance: dict | None = None) -> MeasureReport:
    """Full operator-path report.

    I comes from the ladder-operator route and (C, P) from the quadrature
    route with no shared intermediates, so the identity residual
    |I - (C - M*P)/2| is a genuine cross-check of both.
    """
    i_value = measure_I(rho)
    c_value = measure_C(rho)
    p_value = purity(rho)
    m = rho.spec.num_modes
    residual = abs(i_value - (c_value - m * p_value) / 2.0)
    if residual >= TOL.identity_tol:
        raise ConsistencyError(
            f"identity residual |I - (C - M*P)/2| = {residual:.2e} "
            f"(I={i_value!r}, C={c_value!r}, P={p_value!r}); "
            "truncation is inadequate or the build is broken"
        )
    chi2 = 2.0 * c_value / p_value
    return MeasureReport(
        I=i_value,
        C=c_value,
        P=p_value,
        chi2=chi2,
        num_modes=m,
        truncation=rho.spec.truncation,
        identity_residual=residual,
        method="operator",
        provenance=provenance or {},
    )


def pure_state_measures(psi: PureState, provenance: dict | None = None) -> MeasureReport:
    """Report for a pure state, asserting I = chi2/4 - M/2 on top.

    The relation follows from P = 1 and holds to rounding for any state
    that leaves the guard level empty; a violation beyond tolerance means
    inadequate truncation or a broken build.
    """
    report = measure_report(as_density(psi), provenance=provenance)
    m = psi.spec.num_modes
    residual = abs(report.I - (report.chi2 / 4.0 - m / 2.0))
    if residual >= TOL.pure_relation_tol:
        raise ConsistencyError(
            f"pure-state relation violated: |I - (chi2/4 - M/2)| = {residual:.2e}"
        )
    report.pure_relation_residual = residual
    return report
