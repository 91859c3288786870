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
viewed as (L, N, R) with L = N^(m-1) and R = N^(M-m); a and a^dagger are
shifts on the middle axis, so applying one to either side of rho is one
shifted slice scaled by sqrt(k), written into a scratch buffer that the
caller allocates once and reuses across modes, and every trace Tr[XY] is
sum(X * Y^T). A report costs O(M D^2) instead of O(M D^3).

The redundancies are checked, not assumed:

- I is evaluated by the literal three-trace form, with Tr[rho^2 n] weighted
  on the row index and Tr[rho n rho] on the column index of rho_ij rho_ji,
  and by the cyclicity-reduced two-trace form; both share the hop term
  Tr[(rho a)(rho a^dagger)], evaluated once per mode.
- C is evaluated in its commutator form. By cyclicity on the truncated
  space, Tr[rho^2 X^2 - rho X rho X] = -(1/2) Tr[[X, rho]^2] exactly. Per
  mode, [a, rho] and [a^dagger, rho] are formed in three reused D x D
  buffers; their sum is sqrt(2) [q, rho] and their difference
  i sqrt(2) [p, rho], and the q and p traces are taken separately. For
  Hermitian rho each trace is a squared Frobenius norm of fixed sign, so C
  is a sum of same-sign terms rather than a difference of two O(P) traces,
  whose cancellation cost about 1e-11 relative in thermal chi2 at a = 8.
- P is sum_ij rho_ij rho_ji. Neither C nor P shares an intermediate with I,
  so the identity residual |I - (C - M*P)/2| is a real cross-check.
- Every trace is complex and its imaginary residue is checked: products
  like sum(X * Y^T) are real only for Hermitian rho, so a corrupted matrix
  shows up there.
- Every report, operator, pure or grid, refuses chi2 = 2C/P <= 0, and pure
  states must also satisfy I = chi2/4 - M/2.

Pure states are measured from their amplitude vector and never become a
D x D projector. For rho = |psi><psi| with s = <psi|psi>, Tr[rho^2 n] =
Tr[rho n rho] = s <n> (from the |psi|^2 marginals), Tr[rho a rho a^dagger]
= <a><a^dagger> (each from its own slice), Tr[rho^2 X^2 - rho X rho X] =
s |X psi|^2 - <X>^2 for X = q, p, and P = s^2. That costs O(M D), and
keeping s rather than assuming 1 keeps each value equal to the projector's
trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import ConsistencyError
from .fock import ModeSpec
from .states import DensityMatrix, PureState, State, purity

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
    # grid reports: the operator report the grid values were checked against
    checked_against: MeasureReport | None = field(default=None, repr=False)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _real_after_residue_check(value: complex, what: str) -> float:
    if abs(value.imag) > TOL.imag_residue_tol:
        raise ConsistencyError(
            f"{what} has imaginary residue {value.imag:.2e} "
            f"(allowed {TOL.imag_residue_tol:.0e})"
        )
    return value.real


_S = 1.0 / np.sqrt(2.0)


def _ladder(view: np.ndarray, out: np.ndarray, raising: bool) -> None:
    """a (or a^dagger if raising) applied along axis 1 of an (A, N, B) view, into out.

    out is caller-owned scratch that is reused, so the edge row the shift
    leaves uncovered is zeroed here rather than trusted to be zero.
    """
    root = np.sqrt(np.arange(1.0, view.shape[1]))[:, None]
    if raising:
        np.multiply(view[:, :-1], root, out=out[:, 1:])
        out[:, 0] = 0.0
    else:
        np.multiply(view[:, 1:], root, out=out[:, :-1])
        out[:, -1] = 0.0


def _left(mat: np.ndarray, spec: ModeSpec, mode: int, raising: bool, out: np.ndarray) -> None:
    """out = X @ mat for X = a_m (a_m^dagger if raising); mat may be a matrix or a vector."""
    shape = (spec.truncation ** (mode - 1), spec.truncation, -1)
    _ladder(mat.reshape(shape), out.reshape(shape), raising)


def _right(mat: np.ndarray, spec: ModeSpec, mode: int, raising: bool, out: np.ndarray) -> None:
    """out = mat @ X, which is X^T on the column index; a^T = a^dagger swaps the direction."""
    shape = (-1, spec.truncation, spec.truncation ** (spec.num_modes - mode))
    _ladder(mat.reshape(shape), out.reshape(shape), not raising)


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
    down = np.empty_like(mat)
    up = np.empty_like(mat)
    overlap = np.multiply(mat, mat.T, out=down)  # rho_ij rho_ji
    by_row = overlap.sum(axis=1)  # (rho^2)_ii
    by_col = overlap.sum(axis=0)
    three = 0.0 + 0.0j
    two = 0.0 + 0.0j
    for mode in range(1, spec.num_modes + 1):
        sq_n = _occupation(by_row, spec, mode)  # Tr[rho^2 n]
        n_mid = _occupation(by_col, spec, mode)  # Tr[rho n rho]
        _right(mat, spec, mode, False, down)  # rho a
        _right(mat, spec, mode, True, up)  # rho a^dagger
        hop = _tr(down, up)
        three += 0.5 * sq_n + 0.5 * n_mid - hop
        two += sq_n - hop
    return (
        _real_after_residue_check(three, "measure I"),
        _real_after_residue_check(two, "measure I (two-term form)"),
    )


def _agreeing_I(three: float, two: float) -> float:
    """The three-term value, once the two-term form has confirmed it."""
    if abs(three - two) > TOL.three_two_term_tol:
        raise ConsistencyError(
            f"three-term and two-term evaluations of I disagree: "
            f"{three!r} vs {two!r}"
        )
    return three


def measure_I(rho: DensityMatrix) -> float:
    """Negativity-capable coherence measure from the number/ladder traces.

    The three-term form is evaluated literally, then re-derived in the
    two-term form; the two must agree or the computation is rejected. The
    three-term value is the one reported.
    """
    return _agreeing_I(*measure_I_forms(rho))


def measure_C(rho: DensityMatrix) -> float:
    """Structure functional as sum_m -1/2 (Tr[[q_m, rho]^2] + Tr[[p_m, rho]^2]).

    Per mode, [a, rho] and [a^dagger, rho] are formed by shifted slices in
    three D x D scratch buffers allocated once per call; their sum is
    sqrt(2) [q, rho] and their difference i sqrt(2) [p, rho].
    """
    spec = rho.spec
    mat = rho.matrix
    lower = np.empty_like(mat)
    upper = np.empty_like(mat)
    work = np.empty_like(mat)
    total = 0.0
    for mode in range(1, spec.num_modes + 1):
        _left(mat, spec, mode, False, lower)  # a rho
        _right(mat, spec, mode, False, work)  # rho a
        lower -= work  # [a, rho]
        _left(mat, spec, mode, True, upper)  # a^dagger rho
        _right(mat, spec, mode, True, work)  # rho a^dagger
        upper -= work  # [a^dagger, rho]
        np.add(lower, upper, out=work)  # sqrt(2) [q, rho]
        lower -= upper  # i sqrt(2) [p, rho]
        total += -0.25 * _real_after_residue_check(_tr(work, work), "measure C")
        total += 0.25 * _real_after_residue_check(_tr(lower, lower), "measure C")
    return total


def _checked_report(i_value: float, c_value: float, p_value: float, spec: ModeSpec,
                    provenance: dict | None) -> MeasureReport:
    """Every report, operator, pure or grid: |I - (C - M*P)/2| held, chi2 = 2C/P > 0."""
    m = spec.num_modes
    residual = abs(i_value - (c_value - m * p_value) / 2.0)
    if residual >= TOL.identity_tol:
        raise ConsistencyError(
            f"identity residual |I - (C - M*P)/2| = {residual:.2e} "
            f"(I={i_value!r}, C={c_value!r}, P={p_value!r}); "
            "truncation is inadequate or the build is broken"
        )
    chi2 = 2.0 * c_value / p_value
    if chi2 <= 0.0:
        raise ConsistencyError(f"chi2 must be positive, got {chi2!r}")
    return MeasureReport(
        I=i_value,
        C=c_value,
        P=p_value,
        chi2=chi2,
        num_modes=m,
        truncation=spec.truncation,
        identity_residual=residual,
        method="operator",
        provenance=provenance or {},
    )


def measure_report(rho: State, provenance: dict | None = None) -> MeasureReport:
    """Full operator-path report; a pure state is measured by pure_state_measures.

    I comes from the ladder-operator route and (C, P) from the quadrature
    route with no shared intermediates, so the identity residual
    |I - (C - M*P)/2| is a genuine cross-check of both.
    """
    if isinstance(rho, PureState):
        return pure_state_measures(rho, provenance)
    return _checked_report(measure_I(rho), measure_C(rho), purity(rho), rho.spec, provenance)


def _pure_I_forms(amps: np.ndarray, spec: ModeSpec, norm_sq: float) -> tuple[float, float]:
    """Three- and two-term I of rho = |psi><psi| from the vector.

    Tr[rho^2 n] = Tr[rho n rho] = |psi|^2 <n> and Tr[rho a rho a^dagger] =
    <a><a^dagger>, so the three-term form is |psi|^2 <n> - <a><a^dagger>
    with <a^dagger> from its own slice, and the two-term form is
    |psi|^2 <n> - |<a>|^2.
    """
    prob = amps.real ** 2 + amps.imag ** 2
    shifted = np.empty_like(amps)
    three = 0.0 + 0.0j
    two = 0.0 + 0.0j
    for mode in range(1, spec.num_modes + 1):
        sq_n = norm_sq * _occupation(prob, spec, mode)
        _left(amps, spec, mode, False, shifted)
        mean_a = complex(np.vdot(amps, shifted))
        _left(amps, spec, mode, True, shifted)
        mean_adag = complex(np.vdot(amps, shifted))
        three += sq_n - mean_a * mean_adag
        two += sq_n - abs(mean_a) ** 2
    return (
        _real_after_residue_check(three, "measure I"),
        _real_after_residue_check(two, "measure I (two-term form)"),
    )


def _pure_C(amps: np.ndarray, spec: ModeSpec, norm_sq: float) -> float:
    """C of rho = |psi><psi| as sum over X = q_m, p_m of |psi|^2 |X psi|^2 - <X>^2."""
    lower = np.empty_like(amps)
    upper = np.empty_like(amps)
    quad = np.empty_like(amps)
    total = 0.0
    for mode in range(1, spec.num_modes + 1):
        _left(amps, spec, mode, False, lower)  # a psi
        _left(amps, spec, mode, True, upper)  # a^dagger psi
        for combine, scale in ((np.add, _S), (np.subtract, -1j * _S)):  # q psi, then p psi
            combine(lower, upper, out=quad)
            quad *= scale
            mean = _real_after_residue_check(complex(np.vdot(amps, quad)), "measure C")
            total += norm_sq * float(np.vdot(quad, quad).real) - mean * mean
    return total


def pure_state_measures(psi: PureState, provenance: dict | None = None) -> MeasureReport:
    """Report for a pure state, asserting I = chi2/4 - M/2 on top.

    The traces of rho = |psi><psi| are evaluated from the amplitude vector
    in O(M D), keeping its squared norm, so no D x D projector is built. The
    relation follows from P = 1 and holds to rounding for any state that
    leaves the guard level empty; a violation beyond tolerance means
    inadequate truncation or a broken build.
    """
    spec = psi.spec
    amps = psi.amplitudes
    norm_sq = float(np.vdot(amps, amps).real)
    report = _checked_report(
        _agreeing_I(*_pure_I_forms(amps, spec, norm_sq)),
        _pure_C(amps, spec, norm_sq),
        norm_sq * norm_sq,
        spec,
        provenance,
    )
    m = spec.num_modes
    residual = abs(report.I - (report.chi2 / 4.0 - m / 2.0))
    if residual >= TOL.pure_relation_tol:
        raise ConsistencyError(
            f"pure-state relation violated: |I - (chi2/4 - M/2)| = {residual:.2e}"
        )
    report.pure_relation_residual = residual
    return report
