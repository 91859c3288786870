"""Operator-trace evaluation of the phase-space coherence measures.

Two quantities drive everything:

    I    = sum_m Tr[ (1/2) rho^2 n_m + (1/2) rho n_m rho - rho a_m rho a_m^dagger ]
    C    = sum_m Tr[ rho^2 q_m^2 + rho^2 p_m^2 - rho q_m rho q_m - rho p_m rho p_m ]

with n_m = a_m^dagger a_m, plus the purity P = Tr[rho^2]. They satisfy
I = (C - M*P)/2 and the structure measure is chi2 = 2C/P. At finite
truncation the identity carries a corner defect proportional to the
population of each mode's top Fock level, which is why states must keep
that level empty to within the tail tolerance.

No mode operator and no D x D product or buffer is ever formed. For mode m
with stride s = N^(M-m), a and a^dagger shift rho's row or column index by
s with weights sqrt(n), and every trace Tr[XY] = sum_ij X_ij Y_ji is summed
over pairs of B x B tiles as X_IJ o (Y_JI)^T.

A report walks rho once, over the tile pairs within w + s_1 of the
diagonal, where w = max |i - j| over rho's exact nonzeros (DensityMatrix
measures it while it validates) and s_1 is the largest stride. A pair
within w gives the overlap rho_ij rho_ji, and a pair within w + s gives
mode m's ladder tiles rho a, [a, rho], rho a^dagger and [a^dagger, rho] at
(I, J) and at (J, I); every pair beyond holds exact zeros, so skipping it
leaves each sum bit for bit as it was. A report costs O(M D (w + s + B))
time and O(D + B^2) memory beyond rho: a Fock-diagonal rho pays
O(M D (s + B)), and a dense one, w = D - 1, walks every pair at O(M D^2).

The redundancies are checked, not assumed:

- I is evaluated by the literal three-trace form, with Tr[rho^2 n] weighted
  on the row index and Tr[rho n rho] on the column index of the overlap,
  and by the cyclicity-reduced two-trace form; both share the hop term
  Tr[(rho a)(rho a^dagger)] of the ladder tiles. The forms differ only by
  rounding: swapping i and j maps one weighting onto the other term by
  term, and on a pure state <a^dagger> is conj <a> to rounding.
- C is evaluated in its commutator form, sum_m -Tr[[a, rho][a^dagger, rho]],
  which is -(1/2) (Tr[[q, rho]^2] + Tr[[p, rho]^2]) by cyclicity. For
  Hermitian rho, [a^dagger, rho] = -[a, rho]^dagger, so C is a sum of
  same-sign terms |[a, rho]_ij|^2. Taking C = 2I + M*P from the identity
  would bring back a cancellation of O(P) traces (thermal chi2 off by
  5.0e-12 relative at a = 12) and drop the corner term of a populated top
  level.
- P is sum_ij rho_ij rho_ji, the sum of the overlap. I, C and P share the
  walk but no product: I comes from the overlap and rho a, rho a^dagger,
  C from the commutator tiles. So the identity residual |I - (C - M*P)/2|
  is a real cross-check, and with the grid pipeline the one that can fail.
- Every trace is complex and its imaginary residue is checked: these sums
  are real only for Hermitian rho, so a corrupted matrix shows up there.
- Every report, operator, pure or grid, refuses chi2 = 2C/P <= 0, and pure
  states must also satisfy I/P = chi2/4 - M/2.

Pure states are measured from their amplitude vector, shifted by the same
rule, and never become a D x D projector. For rho = |psi><psi| with
s = <psi|psi>, Tr[rho^2 n] = Tr[rho n rho] = s <n> (from the |psi|^2
marginals), Tr[rho a rho a^dagger] = <a><a^dagger>, C_m = s (|a psi|^2 +
|a^dagger psi|^2) - 2 <a><a^dagger>, which is s (|q psi|^2 + |p psi|^2) -
<q>^2 - <p>^2, and P = s^2. One pass over the modes writes a psi and
a^dagger psi once per mode; <n> comes from the marginals. That costs
O(M D), and keeping s rather than assuming 1 keeps each value equal to
the projector's trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import ConsistencyError
from .fock import ModeSpec, _shifts
from .states import (_TILE, DensityMatrix, PureState, State, _density_matrix, _gap,
                     _real_after_residue_check, _require_tail, _tile, _tile_pairs)

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
        out = {name: getattr(self, name) for name in (
            "I", "C", "P", "chi2", "num_modes", "truncation", "identity_residual", "method",
            "convention_note", "pure_relation_residual", "cross_deltas")}
        for name in ("pure_relation_residual", "cross_deltas"):
            if out[name] is None:
                del out[name]
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _shift(src: np.ndarray, start: int, step: int, weight: np.ndarray, out: np.ndarray) -> None:
    """out[k] = weight[start + k] * src[start + k + step] along axis 0, 0 where src ends.

    Tile rows take src = rho[:, cols]; tile columns src = rho[rows].T, out = tile.T.
    """
    first = min(max(-step - start, 0), len(out))
    stop = max(min(len(src) - step - start, len(out)), first)
    np.multiply(src[start + first + step:start + stop + step], weight[start + first:start + stop],
                out=out[first:stop])
    out[:first] = 0.0
    out[stop:] = 0.0


def _occupation(weights: np.ndarray, spec: ModeSpec, mode: int) -> complex:
    """sum_i n_m(i) weights_i for a weight on the flat basis index."""
    n = spec.truncation
    marginal = weights.reshape(n ** (mode - 1), n, -1).sum(axis=(0, 2))
    return complex(marginal @ np.arange(n))


def _ladder_tiles(mat: np.ndarray, rows: slice, cols: slice, shifts: tuple,
                  scratch: np.ndarray) -> np.ndarray:
    """rho a, [a, rho], rho a^dagger and [a^dagger, rho] of one mode on one tile, stacked.

    The first two at (I, J) against the last two at (J, I) sum the tile pair's
    share of Tr[(rho a)(rho a^dagger)] and of Tr[[a, rho][a^dagger, rho]].
    """
    stride, lo, hi = shifts
    tiles = _tile(scratch, rows, cols)
    rho_a, lower, rho_adag, upper = tiles
    _shift(mat[rows].T, cols.start, -stride, hi, rho_a.T)  # rho a
    _shift(mat[:, cols], rows.start, stride, lo, lower)  # a rho
    lower -= rho_a  # [a, rho]
    _shift(mat[rows].T, cols.start, stride, lo, rho_adag.T)  # rho a^dagger
    _shift(mat[:, cols], rows.start, -stride, hi, upper)  # a^dagger rho
    upper -= rho_adag  # [a^dagger, rho]
    return tiles


def _traces(rho: DensityMatrix) -> tuple[complex, complex, complex, complex]:
    """The three-term I, two-term I, C and P of rho from one walk over its tile pairs.

    Pairs within the band w give the overlap rho_ij rho_ji, and pairs within
    w + s give mode m's ladder tiles at (I, J) and (J, I); the strides shrink
    with m, so the walk reaches w + s_1 and each mode stops at its own reach.
    """
    spec = rho.spec
    mat, band = _density_matrix(rho)
    dim = len(mat)
    overlap_scratch = np.empty(min(dim, _TILE) ** 2, dtype=np.complex128)
    ladder_scratch = np.empty((2, 4, len(overlap_scratch)), dtype=np.complex128)
    ladders = [(stride, lo[:, None], hi[:, None])
               for stride, lo, hi in (_shifts(spec, mode) for mode in range(1, spec.num_modes + 1))]
    by_row = np.zeros(dim, dtype=np.complex128)  # (rho^2)_ii
    by_col = np.zeros(dim, dtype=np.complex128)
    sums = np.zeros((spec.num_modes, 2), dtype=np.complex128)  # per mode: hop, -C_m
    for rows, cols in _tile_pairs(dim, band + ladders[0][0]):
        gap = _gap(rows, cols)
        if gap <= band:
            overlap = np.multiply(mat[rows, cols], mat[cols, rows].T,
                                  out=_tile(overlap_scratch, rows, cols))  # rho_ij rho_ji
            across, down = overlap.sum(axis=1), overlap.sum(axis=0)
            by_row[rows] += across
            by_col[cols] += down
            if rows != cols:  # the mirror tile's overlap is this one transposed
                by_row[cols] += down
                by_col[rows] += across
        for mode, shifts in enumerate(ladders):
            if gap > band + shifts[0]:
                break
            near = _ladder_tiles(mat, rows, cols, shifts, ladder_scratch[0])
            if rows == cols:
                sums[mode] += np.einsum("kij,kji->k", near[:2], near[2:])
            else:
                far = _ladder_tiles(mat, cols, rows, shifts, ladder_scratch[1])
                sums[mode] += np.einsum("kij,kji->k", near[:2], far[2:])
                sums[mode] += np.einsum("kij,kji->k", far[:2], near[2:])
    three = two = 0.0 + 0.0j
    for mode, hop in enumerate(sums[:, 0], 1):
        sq_n = _occupation(by_row, spec, mode)  # Tr[rho^2 n]
        n_mid = _occupation(by_col, spec, mode)  # Tr[rho n rho]
        three += 0.5 * sq_n + 0.5 * n_mid - hop
        two += sq_n - hop
    return complex(three), complex(two), -complex(sums[:, 1].sum()), complex(by_row.sum())


def _real_I(three: complex, two: complex) -> tuple[float, float]:
    return (_real_after_residue_check(three, "measure I"),
            _real_after_residue_check(two, "measure I (two-term form)"))


def measure_I_forms(rho: DensityMatrix) -> tuple[float, float]:
    """Both evaluations of the coherence measure I.

    Returns the literal three-trace value and the cyclicity-reduced two-trace
    value sum_m (Tr[rho^2 n_m] - Tr[rho a_m rho a_m^dagger]); agreement
    between them is the caller's check.
    """
    return _real_I(*_traces(rho)[:2])


def _agreeing_I(three: float, two: float) -> float:
    """The three-term value, once the two-term form has confirmed it."""
    if abs(three - two) > TOL.three_two_term_tol:
        raise ConsistencyError("three-term and two-term evaluations of I disagree: "
                               f"{three!r} vs {two!r}")
    return three


def measure_I(rho: DensityMatrix) -> float:
    """Negativity-capable coherence measure from the number/ladder traces.

    The literal three-term value is reported once the two-term form agrees.
    """
    return _agreeing_I(*measure_I_forms(rho))


def measure_C(rho: DensityMatrix) -> float:
    """Structure functional as sum_m -Tr[[a_m, rho][a_m^dagger, rho]]."""
    return _real_after_residue_check(_traces(rho)[2], "measure C")


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
    return MeasureReport(I=i_value, C=c_value, P=p_value, chi2=chi2, num_modes=m,
                         truncation=spec.truncation, identity_residual=residual,
                         method="operator", provenance=provenance or {})


def measure_report(rho: State, provenance: dict | None = None) -> MeasureReport:
    """Full operator-path report; a pure state is measured by pure_state_measures.

    The tail rule comes first: a state whose top Fock level holds tail_tol or
    more of its population is refused with TruncationError, since the
    identity's corner term would otherwise refuse it as a broken build.
    """
    _require_tail(rho)
    if isinstance(rho, PureState):
        return pure_state_measures(rho, provenance)
    three, two, c_value, p_value = _traces(rho)
    return _checked_report(_agreeing_I(*_real_I(three, two)),
                           _real_after_residue_check(c_value, "measure C"),
                           _real_after_residue_check(p_value, "purity"), rho.spec, provenance)


def _pure_measures(amps: np.ndarray, spec: ModeSpec,
                   norm_sq: float) -> tuple[complex, complex, complex]:
    """Three- and two-term I and C of rho = |psi><psi|, from one a psi and a^dagger psi per mode.

    I is |psi|^2 <n> - <a><a^dagger> or |psi|^2 <n> - |<a>|^2, and C sums
    |psi|^2 (|a psi|^2 + |a^dagger psi|^2) - 2 <a><a^dagger>, which is
    |psi|^2 (|q psi|^2 + |p psi|^2) - <q>^2 - <p>^2.
    """
    prob = amps.real ** 2 + amps.imag ** 2
    lower, upper = np.empty_like(amps), np.empty_like(amps)
    three = two = c_value = 0.0 + 0.0j
    for mode in range(1, spec.num_modes + 1):
        stride, lo, hi = _shifts(spec, mode)
        _shift(amps, 0, stride, lo, lower)  # a psi
        _shift(amps, 0, -stride, hi, upper)  # a^dagger psi
        mean_a, mean_adag = complex(np.vdot(amps, lower)), complex(np.vdot(amps, upper))
        sq_n = norm_sq * _occupation(prob, spec, mode)
        three += sq_n - mean_a * mean_adag
        two += sq_n - abs(mean_a) ** 2
        shifted_sq = complex(np.vdot(lower, lower) + np.vdot(upper, upper))
        c_value += norm_sq * shifted_sq - 2.0 * mean_a * mean_adag
    return three, two, c_value


def pure_state_measures(psi: PureState, provenance: dict | None = None) -> MeasureReport:
    """Report for a pure state from its amplitude vector, asserting I/P = chi2/4 - M/2 on top.

    The relation follows from P = 1 and holds to rounding for any state that
    leaves the guard level empty; a violation means inadequate truncation or
    a broken build. I carries the factor P = s^2 that chi2 lacks, hence I/P.
    """
    spec = psi.spec
    amps = psi.amplitudes
    norm_sq = float(np.vdot(amps, amps).real)
    three, two, c_value = _pure_measures(amps, spec, norm_sq)
    report = _checked_report(_agreeing_I(*_real_I(three, two)),
                             _real_after_residue_check(c_value, "measure C"), norm_sq * norm_sq,
                             spec, provenance)
    m = spec.num_modes
    residual = abs(report.I / report.P - (report.chi2 / 4.0 - m / 2.0))
    if residual >= TOL.pure_relation_tol:
        raise ConsistencyError(f"pure-state relation violated: |I/P - (chi2/4 - M/2)| = "
                               f"{residual:.2e}")
    report.pure_relation_residual = residual
    return report
