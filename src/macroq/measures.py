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

Each walk takes rho's band w = max |i - j| over its exact nonzeros, which
DensityMatrix measures while it validates. The overlap and hop sums of I and
the purity visit only the tile pairs whose smallest |i - j| is at most w,
and mode m's commutator tiles of C only those within w + s; every pair
beyond holds exact zeros, so skipping it leaves each sum bit for bit as it
was. A report costs O(M D (w + s + B)) time and O(D + B^2) memory beyond
rho: a Fock-diagonal rho pays O(M D (s + B)), and a dense one, w = D - 1,
walks every pair at O(M D^2).

The redundancies are checked, not assumed:

- I is evaluated by the literal three-trace form, with Tr[rho^2 n] weighted
  on the row index and Tr[rho n rho] on the column index of rho_ij rho_ji,
  and by the cyclicity-reduced two-trace form; both share the hop term
  Tr[(rho a)(rho a^dagger)], evaluated once per mode. The forms differ only
  by rounding: swapping i and j maps one weighting onto the other term by
  term, and on a pure state <a^dagger> is conj <a> to rounding. The checks
  that can fail are the identity residual and the grid pipeline.
- C is evaluated in its commutator form, Tr[rho^2 X^2 - rho X rho X] =
  -(1/2) Tr[[X, rho]^2] by cyclicity. Per tile, the sum and difference of
  [a, rho] and [a^dagger, rho] are sqrt(2) [q, rho] and i sqrt(2) [p, rho].
  For Hermitian rho each trace is a squared Frobenius norm, so C is a sum
  of same-sign terms, not a difference of two O(P) traces whose
  cancellation cost about 1e-11 relative in thermal chi2 at a = 8.
- P is sum_ij rho_ij rho_ji. I, C and P each walk their own tiles and share
  no intermediate, so the identity residual |I - (C - M*P)/2| is a real
  cross-check.
- Every trace is complex and its imaginary residue is checked: these sums
  are real only for Hermitian rho, so a corrupted matrix shows up there.
- Every report, operator, pure or grid, refuses chi2 = 2C/P <= 0, and pure
  states must also satisfy I/P = chi2/4 - M/2.

Pure states are measured from their amplitude vector, shifted by the same
rule, and never become a D x D projector. For rho = |psi><psi| with
s = <psi|psi>, Tr[rho^2 n] = Tr[rho n rho] = s <n> (from the |psi|^2
marginals), Tr[rho a rho a^dagger] = <a><a^dagger>, Tr[rho^2 X^2 -
rho X rho X] = s |X psi|^2 - <X>^2 for X = q, p, and P = s^2. One pass
over the modes writes a psi and a^dagger psi once per mode, and <a>,
<a^dagger>, q psi and p psi come from them; <n> comes from the marginals,
so the identity still checks I against C. That costs O(M D), and keeping s
rather than assuming 1 keeps each value equal to the projector's trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import ConsistencyError
from .fock import ModeSpec
from .states import (_TILE, DensityMatrix, PureState, State, _density_matrix, _gap,
                     _mirrored_sum, _real_after_residue_check, _spans, _tile, _tile_pairs, purity)

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


_S = 1.0 / np.sqrt(2.0)


def _shifts(spec: ModeSpec, mode: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Stride s = N^(M-m) and weights of mode m's ladder shifts, n = n_m(i):

    (a x)_i = lo_i x_{i+s} with lo = sqrt(n+1), 0 at n = N-1; (a^dagger x)_i =
    hi_i x_{i-s} with hi = sqrt(n); (X a)_j = hi_j X_{j-s}; (X a^dagger)_j =
    lo_j X_{j+s}. Past either edge the weight is 0: i + s >= D only at n = N-1.
    """
    levels = spec.truncation
    stride = levels ** (spec.num_modes - mode)
    root = np.sqrt(np.arange(levels + 1.0))
    root[levels] = 0.0  # lo at n = N-1; hi never reads it
    n = np.arange(spec.total_dim) // stride % levels
    return stride, root[n + 1], root[n]


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


def measure_I_forms(rho: DensityMatrix) -> tuple[float, float]:
    """Both evaluations of the coherence measure I.

    Returns the literal three-trace value and the cyclicity-reduced two-trace
    value sum_m (Tr[rho^2 n_m] - Tr[rho a_m rho a_m^dagger]); agreement
    between them is the caller's check.
    """
    spec = rho.spec
    mat, band = _density_matrix(rho)
    dim = len(mat)
    scratch = np.empty(min(dim, _TILE) ** 2, dtype=np.complex128)
    by_row = np.zeros(dim, dtype=np.complex128)  # (rho^2)_ii
    by_col = np.zeros(dim, dtype=np.complex128)
    for rows, cols in _tile_pairs(dim, band):
        overlap = np.multiply(mat[rows, cols], mat[cols, rows].T,
                              out=_tile(scratch, rows, cols))  # rho_ij rho_ji
        across, down = overlap.sum(axis=1), overlap.sum(axis=0)
        by_row[rows] += across
        by_col[cols] += down
        if rows != cols:  # the mirror tile's overlap is this one transposed
            by_row[cols] += down
            by_col[rows] += across
    three = two = 0.0 + 0.0j
    for mode in range(1, spec.num_modes + 1):
        sq_n = _occupation(by_row, spec, mode)  # Tr[rho^2 n]
        n_mid = _occupation(by_col, spec, mode)  # Tr[rho n rho]
        # Tr[(rho a)(rho a^dagger)] = sum_ij hi_j rho_{i,j-s} lo_i rho_{j,i+s};
        # with j -> j + s and hi_{j+s} = lo_j it is sum_ij lo_i lo_j A_ij B_ji
        # over the corners A = rho[:D-s, :D-s] and B = rho[s:, s:], both 0 past the band
        stride, lo, _ = _shifts(spec, mode)
        near, far, lo = mat[:-stride, :-stride], mat[stride:, stride:], lo[:-stride]
        spans = _spans(0, dim - stride)
        hop = 0.0 + 0.0j
        for rows, cols in ((rows, cols) for rows in spans for cols in spans
                           if _gap(rows, cols) <= band):
            pair = np.multiply(near[rows, cols], far[cols, rows].T,
                               out=_tile(scratch, rows, cols))
            hop += complex(lo[rows] @ pair @ lo[cols])
        three += 0.5 * sq_n + 0.5 * n_mid - hop
        two += sq_n - hop
    return (_real_after_residue_check(three, "measure I"),
            _real_after_residue_check(two, "measure I (two-term form)"))


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


def _commutator_tiles(mat: np.ndarray, rows: slice, cols: slice, shifts: tuple,
                      scratch: np.ndarray) -> np.ndarray:
    """sqrt(2) [q_m, rho] and i sqrt(2) [p_m, rho] on one tile, stacked, from 3 scratch tiles."""
    stride, lo, hi = shifts
    tiles = _tile(scratch, rows, cols)
    work, lower, upper = tiles
    _shift(mat[:, cols], rows.start, stride, lo, lower)  # a rho
    _shift(mat[rows].T, cols.start, -stride, hi, work.T)  # rho a
    lower -= work  # [a, rho]
    _shift(mat[:, cols], rows.start, -stride, hi, upper)  # a^dagger rho
    _shift(mat[rows].T, cols.start, stride, lo, work.T)  # rho a^dagger
    upper -= work  # [a^dagger, rho]
    np.add(lower, upper, out=work)  # sqrt(2) [q, rho]
    lower -= upper  # i sqrt(2) [p, rho]
    return tiles[:2]


def measure_C(rho: DensityMatrix) -> float:
    """Structure functional as sum_m -1/2 (Tr[[q_m, rho]^2] + Tr[[p_m, rho]^2]).

    Per mode and tile pair I <= J the commutator tiles K are formed at (I, J)
    and (J, I), and each trace sums K_IJ o (K_JI)^T. A shift by the stride s
    moves rho's band w to w + s, so K is 0 on the pairs beyond it.
    """
    spec = rho.spec
    mat, band = _density_matrix(rho)
    scratch = np.empty((3, min(len(mat), _TILE) ** 2), dtype=np.complex128)
    spare = np.empty_like(scratch) if len(mat) > _TILE else None  # mirror tiles
    total = 0.0
    for mode in range(1, spec.num_modes + 1):
        stride, lo, hi = _shifts(spec, mode)
        shifts = (stride, lo[:, None], hi[:, None])

        def term(rows: slice, cols: slice) -> np.ndarray:
            tiles = _commutator_tiles(mat, rows, cols, shifts, scratch)
            mirror = tiles if rows == cols else _commutator_tiles(mat, cols, rows, shifts, spare)
            return np.einsum("kij,kji->k", tiles, mirror)

        q_sq, p_sq = _mirrored_sum(len(mat), band + stride, term)
        total += -0.25 * _real_after_residue_check(complex(q_sq), "measure C")
        total += 0.25 * _real_after_residue_check(complex(p_sq), "measure C")
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
    return MeasureReport(I=i_value, C=c_value, P=p_value, chi2=chi2, num_modes=m,
                         truncation=spec.truncation, identity_residual=residual,
                         method="operator", provenance=provenance or {})


def measure_report(rho: State, provenance: dict | None = None) -> MeasureReport:
    """Full operator-path report; a pure state is measured by pure_state_measures."""
    if isinstance(rho, PureState):
        return pure_state_measures(rho, provenance)
    return _checked_report(measure_I(rho), measure_C(rho), purity(rho), rho.spec, provenance)


def _pure_measures(amps: np.ndarray, spec: ModeSpec, norm_sq: float) -> tuple[float, float, float]:
    """Three- and two-term I and C of rho = |psi><psi|, from one a psi and a^dagger psi per mode.

    I is |psi|^2 <n> - <a><a^dagger> or |psi|^2 <n> - |<a>|^2, and C sums
    |psi|^2 |X psi|^2 - <X>^2 over X = q_m, p_m.
    """
    prob = amps.real ** 2 + amps.imag ** 2
    lower, upper, quad = (np.empty_like(amps) for _ in range(3))
    three = two = 0.0 + 0.0j
    c_value = 0.0
    for mode in range(1, spec.num_modes + 1):
        stride, lo, hi = _shifts(spec, mode)
        _shift(amps, 0, stride, lo, lower)  # a psi
        _shift(amps, 0, -stride, hi, upper)  # a^dagger psi
        mean_a, mean_adag = complex(np.vdot(amps, lower)), complex(np.vdot(amps, upper))
        sq_n = norm_sq * _occupation(prob, spec, mode)
        three += sq_n - mean_a * mean_adag
        two += sq_n - abs(mean_a) ** 2
        for combine, scale in ((np.add, _S), (np.subtract, -1j * _S)):  # q psi, then p psi
            combine(lower, upper, out=quad)
            quad *= scale
            mean = _real_after_residue_check(complex(np.vdot(amps, quad)), "measure C")
            c_value += norm_sq * float(np.vdot(quad, quad).real) - mean * mean
    return (_real_after_residue_check(three, "measure I"),
            _real_after_residue_check(two, "measure I (two-term form)"), c_value)


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
    report = _checked_report(_agreeing_I(three, two), c_value, norm_sq * norm_sq, spec, provenance)
    m = spec.num_modes
    residual = abs(report.I / report.P - (report.chi2 / 4.0 - m / 2.0))
    if residual >= TOL.pure_relation_tol:
        raise ConsistencyError(f"pure-state relation violated: |I/P - (chi2/4 - M/2)| = "
                               f"{residual:.2e}")
    report.pure_relation_residual = residual
    return report
