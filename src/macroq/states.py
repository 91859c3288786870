"""Constructors and validators for the states the measures are evaluated on.

Pure states are unit vectors on the truncated multimode Fock space, density
matrices are trace-one Hermitian PSD matrices on the same space. Algebraic
invariants (norm, trace, Hermiticity, positivity) are enforced on
construction of the types themselves; the truncation-adequacy rule (at most
``tail_tol`` population on any mode's top Fock level) is enforced by the
physical constructors, which fail loudly naming an adequate truncation
instead of silently contaminating the measures.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TOL, max_dimension
from .errors import ConsistencyError, StateValidationError, TruncationError
from .fock import (
    ComplexMatrix,
    ModeSpec,
    _brief,
    _check_mode,
    _integer,
    _single_mode_displacement,
)


# Every sum over rho_ij rho_ji (the Hermiticity test, the purity and the
# traces in measures.py) reads rho in B x B tiles: its scratch is O(B^2) and
# each transposed read stays inside a cache-sized tile. A walk takes rho's
# band w, the largest |i - j| over its exact nonzeros, and skips the tile
# pairs that lie wholly beyond it: they hold exact zeros and add nothing.
_TILE = 128


def _spans(start: int, stop: int) -> list[slice]:
    return [slice(a, min(a + _TILE, stop)) for a in range(start, stop, _TILE)]


def _gap(rows: slice, cols: slice) -> int:
    """Smallest |i - j| over the tile rows x cols."""
    return max(cols.start - rows.stop, rows.start - cols.stop, -1) + 1


def _tile_pairs(dim: int, band: int) -> list[tuple[slice, slice]]:
    """(rows, cols) of the tiles on and above the diagonal of a dim x dim matrix
    that come within band of it; band = dim - 1 gives every pair."""
    spans = _spans(0, dim)
    return [(rows, cols) for k, rows in enumerate(spans) for cols in spans[k:]
            if _gap(rows, cols) <= band]


def _tile(scratch: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Contiguous rows x cols tiles at the start of each flat entry of scratch."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    return scratch[..., :shape[0] * shape[1]].reshape(scratch.shape[:-1] + shape)


def _survey(mat: np.ndarray) -> tuple[float, int, np.ndarray]:
    """One read of every tile pair: max |mat - mat^dagger|, the band and the pattern.

    The pattern `linked` marks each entry that is not exactly 0 on either
    side of the diagonal, so it is symmetric; the band is the largest
    |i - j| it marks. Tiles that mark nothing are left as allocated, zero.
    """
    dim = len(mat)
    herm_dev, band = 0.0, 0
    linked = np.zeros((dim, dim), dtype=bool)
    for rows, cols in _tile_pairs(dim, dim - 1):
        upper, lower = mat[rows, cols], mat[cols, rows]
        if not (upper.any() or lower.any()):  # both sides exactly 0: no deviation, no link
            continue
        herm_dev = max(herm_dev, float(np.max(np.abs(upper - lower.conj().T))))
        tile = np.not_equal(upper, 0)
        tile |= np.not_equal(lower, 0).T
        linked[rows, cols] = tile
        linked[cols, rows] = tile.T
        if cols.stop - 1 - rows.start > band:  # on the diagonal, tile is symmetric
            band = max(band, cols.start - rows.start + _reach(tile))
    return herm_dev, band, linked


def _reach(tile: np.ndarray) -> int:
    """Largest j - i over the marked entries (i, j) of a tile that marks some."""
    last = tile.shape[1] - 1 - np.argmax(tile[:, ::-1], axis=1)  # each row's last mark
    rows = np.arange(len(tile))
    return int(np.max((last - rows)[tile[rows, last]]))


def _blocks(linked: np.ndarray, band: int) -> list[np.ndarray]:
    """Connected components of a symmetric pattern that marks nothing beyond band.

    One (count, size) index array per component size, each row an ascending
    index set; a matrix with this pattern is block diagonal on these sets,
    so its spectrum is the union of the blocks' spectra. The labels come from
    hook-and-compress rounds in the style of Shiloach and Vishkin (J.
    Algorithms 3, 57 (1982)): each tree hooks its root onto the smallest
    label beside it, then the pointers are jumped until stable. That takes
    O(log D) rounds, each reading the columns within band of every row
    block: O(D (w + B)) per round for band w.
    """
    dim = len(linked)
    reach = [(rows, slice(max(rows.start - band, 0), rows.stop + band)) for rows in _spans(0, dim)]
    label = np.arange(dim)
    while True:
        beside = np.concatenate([np.where(linked[rows, near], label[near], dim).min(axis=1)
                                 for rows, near in reach])
        hooked = label.copy()
        np.minimum.at(hooked, label, beside)
        if np.array_equal(hooked, label):
            break
        label = hooked
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == size, None] + np.arange(size)] for size in np.unique(sizes)]


# Blocks of at least this many levels try _proven_positive before the batched
# Cholesky. Below it the gather and Cholesky of a rank-4 block are faster (2
# vCPUs, 1 and 2 BLAS threads: 64 and 85 us against the proof's 115 us at n = 64,
# 118-178 against 163-168 us at 96; 366-456 against 215-389 us at 128).
_PROOF_MIN = 128


def _proven_positive(mat: np.ndarray, index: np.ndarray) -> bool:
    """Whether every eigenvalue of the block of mat on index is shown to exceed psd_floor.

    The block A is read as the Cholesky reads it: its lower triangle and the
    real part of its diagonal, through the ascending index, never gathered
    whole. A partial Cholesky with diagonal pivoting (Harbrecht, Peters and
    Schneider, Appl. Numer. Math. 62, 428 (2012)) takes the largest remaining
    diagonal until it is at most |psd_floor|, and gives up past n / 8 pivots.
    With A = L L^H + R, Weyl's inequality gives lambda_min(A) >= lambda_min(R),
    and Gershgorin's discs lambda_min(R) >= min_i R_ii - sum_(j != i) |R_ij|.
    R's strict lower triangle is formed in panels of _TILE rows, each |R_ij|
    added to the radii of rows i and j. The bound must clear psd_floor by a
    margin that covers the rounding in forming R, so no block is accepted
    that exact arithmetic refuses. O(n^2 k) time and O(B n + n k) memory for
    k pivots. False means not shown, not refused: the Cholesky decides.
    """
    n = len(index)
    budget = n // 8
    diag = mat[index, index].real
    left = diag.copy()  # R_ii, as the pivots are taken
    rows = np.empty((min(budget, 16), n), dtype=np.complex128)  # L^T, grown as needed
    k = 0
    while left[p := int(np.argmax(left))] > -TOL.psd_floor:
        if k == budget:
            return False
        if k == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows[:budget - k])])
        col = mat[index, index[p]]  # below the diagonal A's column p is mat's
        col[:p] = mat[index[p], index[:p]].conj()  # above it, the mirror of row p
        col[p] = diag[p]
        col -= rows[:k].T @ rows[:k, p].conj()
        col /= math.sqrt(left[p])
        rows[k] = col
        left -= col.real ** 2 + col.imag ** 2
        k += 1
    low_rank, conj = rows[:k], rows[:k].conj()
    radius = np.zeros(n)
    for panel in _spans(0, n):
        resid = mat[index[panel, None], index[:panel.stop]]
        resid -= low_rank[:, panel].T @ conj[:, :panel.stop]
        mags = np.abs(resid)
        mags[:, panel.start:] = np.tril(mags[:, panel.start:], -1)
        radius[panel] += mags.sum(axis=1)
        radius[:panel.stop] += mags.sum(axis=0)
    norms = np.sqrt(np.sum(low_rank.real ** 2 + low_rank.imag ** 2, axis=0))
    # |error of each R_ij| <= gamma (|R_ij| + 2 |L_i| |L_j|), gamma ~ (n + k) eps; 4x spare
    margin = 4.0 * (n + k + 4) * np.finfo(float).eps * (
        np.abs(left) + radius + 2.0 * norms * (norms + norms.sum()))
    return bool(np.all(left - radius - margin > TOL.psd_floor))


def _real_after_residue_check(value: complex, what: str) -> float:
    """value.real, once its imaginary part is negligible, as it is for every valid state."""
    if abs(value.imag) > TOL.imag_residue_tol:
        raise ConsistencyError(f"{what} has imaginary residue {value.imag:.2e} "
                               f"(allowed {TOL.imag_residue_tol:.0e})")
    return float(value.real)


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------

def _intake(values: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    """values as a finite C-contiguous complex128 array of that shape, copied only if not one."""
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise StateValidationError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise StateValidationError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the truncated Fock basis.

    A contiguous complex128 input is taken over, not copied, and made read-only.
    """

    spec: ModeSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _intake(self.amplitudes, (self.spec.total_dim,), "amplitude vector")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > TOL.norm_tol:
            raise StateValidationError(
                f"squared norm deviates from 1 by {abs(norm_sq - 1.0):.2e}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def mode_level_populations(self) -> np.ndarray:
        """Populations reshaped to one axis per mode (mode 1 slowest)."""
        probs = np.abs(self.amplitudes) ** 2
        return probs.reshape((self.spec.truncation,) * self.spec.num_modes)

    def top_level_mass(self) -> np.ndarray:
        """Population of the highest retained Fock level, per mode."""
        return _top_level_mass(self)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.spec, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one Hermitian positive-semidefinite matrix on the truncated space.

    A contiguous complex128 input is taken over, not copied, and made read-only.

    Validation reads every tile pair of rho once. That one walk measures the
    Hermiticity deviation, the exact nonzero pattern (made symmetric) and
    rho's band w = max |i - j| over that pattern, kept as `_band`: every
    later walk, here and in the operator traces, skips the tile pairs beyond
    it, which hold exact zeros. A dense rho has w = D - 1 and is walked in
    full.

    Positivity is checked one block at a time. rho is block diagonal on the
    connected components of its pattern, so every eigenvalue is >= psd_floor
    iff each block, its diagonal shifted by -psd_floor, has a Cholesky
    factor; the blocks of one size go to one batched call. A band-0 rho is
    all 1 x 1 blocks and takes that test on its diagonal directly. A block
    of _PROOF_MIN (128) levels or more first tries _proven_positive: a
    partial pivoted Cholesky and Gershgorin's discs on its remainder, in
    O(n^2 k) time and O(B n + n k) memory for k <= n / 8 pivots, without
    gathering the block. Only a block that proof does not close, one of
    rank above n / 8 or with eigenvalues too near the floor, is gathered
    and factored, so its cubic cost remains: a dense full-rank rho is one
    block at the full D^3. Finding the blocks costs O(D (w + B)) per
    labelling round. A rejection names the smallest eigenvalue over the
    blocks, which is rho's smallest.
    """

    spec: ModeSpec
    matrix: ComplexMatrix
    _band: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dim = self.spec.total_dim
        mat = _intake(self.matrix, (dim, dim), "density matrix")
        herm_dev, band, linked = _survey(mat)
        if herm_dev > TOL.herm_tol:
            raise StateValidationError(
                f"Hermiticity violated: max |rho - rho^dagger| = {herm_dev:.2e}"
            )
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > TOL.trace_tol:
            raise StateValidationError(f"trace deviates from 1 by {trace_dev:.2e}")
        min_eig = None
        if band:
            found = _blocks(linked, band)
        else:  # all 1 x 1 blocks, whose Cholesky is this test
            found = []
            diagonal = mat.diagonal().real
            if not np.all(diagonal - TOL.psd_floor > 0.0):
                min_eig = float(diagonal.min())
        del linked  # freed before the blocks are gathered
        try:
            for index in found:
                if index.shape[1] >= _PROOF_MIN:  # a proven block skips the Cholesky
                    index = index[[not _proven_positive(mat, row) for row in index]]
                stack = mat[index[:, :, None], index[:, None, :]]  # (count, size, size)
                size = stack.shape[-1]
                stack.reshape(-1, size * size)[:, :: size + 1] -= TOL.psd_floor
                np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            # the eigenvalues are computed only to word the rejection
            min_eig = min(float(np.linalg.eigvalsh(mat[index[:, :, None], index[:, None, :]]).min())
                          for index in found)
        if min_eig is not None:
            raise StateValidationError(
                f"matrix is not positive semidefinite: min eigenvalue {min_eig:.2e}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_band", band)

    def mode_level_populations(self) -> np.ndarray:
        probs = np.diag(self.matrix).real
        return probs.reshape((self.spec.truncation,) * self.spec.num_modes)

    def top_level_mass(self) -> np.ndarray:
        return _top_level_mass(self)


@dataclass(frozen=True)
class GaussianSpec:
    """Width parameter of the isotropic Gaussian phase-space profile.

    a = 1 is the pure vacuum; a > 1 are mixed (thermal) states with mean
    occupation (a^2 - 1)/2.
    """

    a: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or self.a < 1.0:
            raise ValueError(f"Gaussian width parameter must satisfy a >= 1, got {self.a}")

    @property
    def mean_occupation(self) -> float:
        return (self.a * self.a - 1.0) / 2.0


State = PureState | DensityMatrix


def _top_level_mass(state: State) -> np.ndarray:
    pops = state.mode_level_populations()
    top = state.spec.truncation - 1
    return np.array([pops.take(top, axis=m).sum() for m in range(state.spec.num_modes)])


def _require_tail(state: State) -> None:
    worst = float(np.max(state.top_level_mass()))
    if worst >= TOL.tail_tol:
        raise TruncationError(
            f"top Fock level holds {worst:.2e} of the population "
            f"(allowed {TOL.tail_tol:.0e}); increase the truncation"
        )


def _density_matrix(rho: State) -> tuple[np.ndarray, int]:
    """The matrix of a DensityMatrix and its band; a PureState is refused by name."""
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"the operator traces take a DensityMatrix, got {type(rho).__name__}; "
                        "measure_report takes either kind, and as_density gives the projector")
    return rho.matrix, rho._band


def as_density(state: State) -> DensityMatrix:
    """View any state as a density matrix."""
    if isinstance(state, PureState):
        return state.projector()
    return state


# ---------------------------------------------------------------------------
# default truncations
# ---------------------------------------------------------------------------

def default_coherent_truncation(alpha: complex) -> int:
    """Fock cutoff that keeps a coherent state's top-level mass negligible.

    At every |alpha| whose cutoff fits the default MACROQ_MAX_DIM cap of
    4096 levels, the top level of the truncated |alpha> holds less than
    tail_tol of its population.
    """
    r = _modulus(alpha)
    return _cutoff(r * r + 8.0 * r + 10.0, f"alpha={alpha}")


def default_thermal_truncation(a: float) -> int:
    """Fock cutoff for a thermal state of width a.

    The larger of a linear rule-of-thumb (20*nbar + 20) and the smallest N
    whose top-level occupation n_bar^(N-1)/(1+n_bar)^N drops below the tail
    tolerance; the linear rule alone under-resolves the geometric tail once
    a is around 2 or larger.
    """
    if not math.isfinite(a):
        raise ValueError(f"thermal width a must be finite, got {a}")
    nbar = (a * a - 1.0) / 2.0
    heuristic = _cutoff(20.0 * nbar + 20.0, f"thermal a={a}")
    if nbar <= 0.0:
        return max(heuristic, 2)
    # log(nbar) - log1p(nbar), written so it stays nonzero for any finite nbar
    by_tail = 1.0 - (math.log(TOL.tail_tol) + math.log1p(nbar)) / math.log1p(1.0 / nbar)
    return max(heuristic, int(math.ceil(by_tail)), 2)


def _cutoff(levels: float, what: str) -> int:
    if not math.isfinite(levels):
        raise TruncationError(f"{what}: the default Fock cutoff overflows a float")
    return int(math.ceil(levels))


def _short_truncation(truncation: int, what: str, top: float,
                      cutoff: Callable[[], int]) -> TruncationError:
    """Refusal of an explicit truncation whose top level holds `top` of the population.

    It names that share against the tail rule and the cutoff the family's
    rule would take, briefly however large, or that this cutoff overflows.
    """
    try:
        advice = f"use at least N={_brief(cutoff())}"
    except TruncationError:
        advice = "the cutoff it needs overflows a float"
    return TruncationError(
        f"truncation {truncation} too small for {what}: its top level holds {top:.1e} "
        f"of the population (limit {TOL.tail_tol:.0e}); {advice}"
    )


def _modulus(alpha: complex) -> float:
    """|alpha| of a finite alpha; inf, not an OverflowError, once it passes the largest float."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return math.hypot(alpha.real, alpha.imag)


def _coherent_amplitudes(truncation: int, alpha: complex, family: str) -> np.ndarray:
    """Truncated coherent expansion exp(-|a|^2/2) a^n / sqrt(n!), unnormalized.

    When |alpha| lies so far above the truncation that the largest term is
    below exp(-300), every term would underflow in the squares a norm sums;
    the magnitudes are then formed without the common factor exp(-|a|^2/2),
    whose logarithm can swamp the terms in n, and divided by the largest, so
    the tail check still sees the mass pile up on the top level. An alpha
    whose |alpha|^2 overflows a float is refused before it is squared: no
    truncation holds it.
    """
    r = _modulus(alpha)
    if not math.isfinite(r * r):
        raise TruncationError(f"{family} alpha={alpha}: |alpha|^2 overflows a float "
                              "and no Fock truncation holds it")
    if alpha == 0:
        return np.eye(1, truncation, 0, dtype=np.complex128).ravel()
    n = np.arange(truncation)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, truncation)))))
    log_mags = -r ** 2 / 2.0 + n * np.log(r) - log_fact / 2.0
    if log_mags.max() < -300.0:
        log_mags = n * np.log(r) - log_fact / 2.0
        log_mags -= log_mags.max()
    return np.exp(log_mags) * np.exp(1j * n * np.angle(alpha))


def _coherent_unit(spec: ModeSpec, family: str, alpha: complex) -> np.ndarray:
    """|alpha>'s normalized amplitudes, once the truncation passes the tail rule.

    The rule refuses a truncation whose top level holds tail_tol or more of
    |alpha>. A cat is judged by this component, because the even cat's own
    top level is empty whenever that level is odd, however short the
    truncation. Negating the odd entries gives |-alpha> exactly, since
    (-alpha)^n = (-1)^n alpha^n.
    """
    amps = _coherent_amplitudes(spec.truncation, alpha, family)
    top = abs(amps[-1]) ** 2 / np.vdot(amps, amps).real
    if top >= TOL.tail_tol:
        raise _short_truncation(amps.size, f"{family} alpha={alpha}", top,
                                lambda: default_coherent_truncation(alpha))
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _single_mode(spec: ModeSpec, name: str) -> None:
    if spec.num_modes != 1:
        raise ValueError(f"{name} builds single-mode states; combine with product_state")


def _below_guard_level(spec: ModeSpec, what: str, top: int) -> None:
    """Refuse an occupied level at or above the guard level N-1, naming the cutoff that holds it."""
    if top > spec.truncation - 2:
        raise TruncationError(
            f"{what} occupies level {top}, truncation {spec.truncation} "
            f"requires top level <= {spec.truncation - 2}; use N >= {top + 2}"
        )


def fock_state(spec: ModeSpec, n: int | tuple[int, ...]) -> PureState:
    """Number state |n>, or |n1, n2, ...> for multimode specs.

    Each occupation must stay at least one level below the truncation so the
    guard level is empty; one that does not is a TruncationError naming the
    cutoff that would hold it.
    """
    levels = tuple(_integer(lev, "occupation") for lev in (n if np.ndim(n) else (n,)))
    if len(levels) != spec.num_modes:
        raise ValueError(
            f"got {len(levels)} occupation numbers for {spec.num_modes} modes"
        )
    if min(levels) < 0:
        raise ValueError(f"occupation must be non-negative, got {min(levels)}")
    _below_guard_level(spec, "fock_state", max(levels))
    index = 0
    for lev in levels:
        index = index * spec.truncation + lev
    amps = np.zeros(spec.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(spec, amps)


def coherent_state(spec: ModeSpec, alpha: complex) -> PureState:
    """Truncated coherent state, renormalized after truncation."""
    _single_mode(spec, "coherent_state")
    return PureState(spec, _coherent_unit(spec, "coherent", alpha))


def cat_state(spec: ModeSpec, alpha: complex, relative_phase: float = 0.0) -> PureState:
    """Superposition of opposite coherent states with a relative phase.

    Normalization divides by sqrt(2(1 + cos(phase) * s)) with overlap
    s = <alpha|-alpha> = exp(-2|alpha|^2); the odd combination degenerates
    as alpha -> 0 and is rejected.
    """
    _single_mode(spec, "cat_state")
    if not math.isfinite(relative_phase):
        raise ValueError(f"relative_phase must be finite, got {relative_phase}")
    plus = _coherent_unit(spec, "cat", alpha)
    minus = plus * (-1.0) ** np.arange(plus.size)
    raw = plus + np.exp(1j * relative_phase) * minus
    norm = float(np.linalg.norm(raw))
    if norm < 1e-6:
        raise ValueError(
            f"cat state norm vanishes (alpha={alpha}, phase={relative_phase}); "
            "the odd combination is undefined at alpha -> 0"
        )
    return PureState(spec, raw / norm)


def cat_mixture(spec: ModeSpec, alpha: complex) -> DensityMatrix:
    """Equal mixture of the |alpha> and |-alpha> projectors, exactly block diagonal in parity."""
    _single_mode(spec, "cat_mixture")
    plus = _coherent_unit(spec, "cat-mixture", alpha)
    minus = plus * (-1.0) ** np.arange(plus.size)
    matrix = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
    return DensityMatrix(spec, matrix)


def fock_mixture(spec: ModeSpec, d: int, include_vacuum: bool = True) -> DensityMatrix:
    """Uniform mixture of d consecutive number states.

    include_vacuum selects the level range: True mixes n = 0..d-1, False
    mixes n = 1..d. Both index conventions are first-class because the two
    give different coherence values (0 versus 1/d^2 for the negativity
    measure); see the README discussion.
    """
    _single_mode(spec, "fock_mixture")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    start = 0 if include_vacuum else 1
    _below_guard_level(spec, "fock_mixture", start + d - 1)
    diag = np.zeros(spec.truncation, dtype=np.complex128)
    diag[start:start + d] = 1.0 / d
    return DensityMatrix(spec, np.diag(diag))


def thermal_state(spec: ModeSpec, g: GaussianSpec) -> DensityMatrix:
    """Fock-diagonal thermal state whose phase-space profile is the isotropic
    Gaussian of width g.a.

    Occupations follow nbar^n / (1+nbar)^(n+1) with nbar = (a^2 - 1)/2,
    evaluated in log space and renormalized over the retained levels. The
    tail rule judges the renormalized top level: when nbar dwarfs the
    truncation, every retained level holds a tiny share of the untruncated
    state but a large one of the truncated state.
    """
    _single_mode(spec, "thermal_state")
    nbar = g.mean_occupation
    if not math.isfinite(nbar):
        raise TruncationError(f"thermal a={g.a}: the mean occupation overflows a float "
                              "and no Fock truncation holds it")
    n = np.arange(spec.truncation, dtype=float)
    if nbar == 0.0:
        diag = np.zeros(spec.truncation)
        diag[0] = 1.0
    else:
        diag = np.exp(n * math.log(nbar) - (n + 1.0) * math.log1p(nbar))
    diag = diag / diag.sum()
    if diag[-1] >= TOL.tail_tol:
        raise _short_truncation(spec.truncation, f"thermal a={g.a}", diag[-1],
                                lambda: default_thermal_truncation(g.a))
    return DensityMatrix(spec, np.diag(diag.astype(np.complex128)))


def mix(components: list[tuple[float, State]]) -> DensityMatrix:
    """Convex combination of states, pure or mixed, on identical specs."""
    if not components:
        raise ValueError("mix requires at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(f"mixture weights must be finite and nonnegative, got {weights.tolist()}")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, expected 1")
    spec = components[0][1].spec
    for _, rho in components[1:]:
        if rho.spec != spec:
            raise ValueError("all mixture components must share one ModeSpec")
    matrix = np.zeros((spec.total_dim, spec.total_dim), dtype=np.complex128)
    for w, rho in components:
        matrix += w * as_density(rho).matrix
    return DensityMatrix(spec, matrix)


def product_state(a: State, b: State) -> State:
    """Tensor product; a's modes come first (slow index). Pure if both factors are."""
    if a.spec.truncation != b.spec.truncation:
        raise ValueError(
            f"product requires equal per-mode truncations, got "
            f"{a.spec.truncation} and {b.spec.truncation}"
        )
    spec = ModeSpec(a.spec.num_modes + b.spec.num_modes, a.spec.truncation)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(spec, np.kron(a.amplitudes, b.amplitudes))
    return DensityMatrix(spec, np.kron(as_density(a).matrix, as_density(b).matrix))


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2] = sum_ij rho_ij rho_ji; the imaginary residue must be negligible.

    Not |rho|^2: that is real by construction and would hide a non-Hermitian
    corruption that this sum exposes.
    """
    mat, band = _density_matrix(rho)
    value = sum(np.einsum("ij,ji->", mat[rows, cols], mat[cols, rows])
                * (1.0 if rows == cols else 2.0)  # the pair (J, I) adds the same
                for rows, cols in _tile_pairs(len(mat), band))
    return _real_after_residue_check(complex(value), "purity")


def displaced(rho: State, beta: complex, mode: int = 1) -> DensityMatrix:
    """Conjugate by the truncated displacement operator on one mode, as a projector if pure.

    The N x N single-mode exponential U acts on that mode's axis of the row
    and column indices of rho, viewed as (N^(m-1), N, N^(M-m)) each, so the
    cost is O(N D^2) and no D x D operator is built.

    Faithful only for interior-supported states: population above level
    N - ceil(4|beta| sqrt(N)) must be below the displacement tail guard,
    otherwise the truncated operator wraps probability around the cutoff.
    """
    rho = as_density(rho)
    spec = rho.spec
    _check_mode(spec, mode)
    n_total = spec.truncation
    u = _single_mode_displacement(n_total, beta)
    guard = n_total - math.ceil(4.0 * abs(beta) * math.sqrt(n_total))
    if guard <= 0:
        raise TruncationError(
            f"displacement beta={beta} too large for truncation {n_total}"
        )
    pops = rho.mode_level_populations()
    upper = pops.take(range(guard, n_total), axis=mode - 1).sum()
    if upper >= TOL.displaced_tail_tol:
        raise TruncationError(
            f"state holds {upper:.2e} of its population above level {guard}; "
            f"displacement by beta={beta} needs more truncation headroom"
        )
    axis = (n_total ** (mode - 1), n_total, n_total ** (spec.num_modes - mode))
    moved = np.einsum("ij,ajbcld,lk->aibckd", u, rho.matrix.reshape(axis + axis),
                      u.conj().T, optimize=True)
    return DensityMatrix(spec, moved.reshape(spec.total_dim, spec.total_dim))


# ---------------------------------------------------------------------------
# randomized states for the property suite
# ---------------------------------------------------------------------------

def random_pure_state(spec: ModeSpec, rng: np.random.Generator) -> PureState:
    """Normalized complex Gaussian vector, Haar-like on the interior block.

    Each mode's top Fock level is left empty. That keeps the guard-level
    rule exact, which matters: the truncated ladder commutator picks up a
    corner term at the top level, so the algebraic identities between the
    measures hold to rounding only for states with no support there.
    """
    vec = rng.standard_normal(spec.total_dim) + 1j * rng.standard_normal(spec.total_dim)
    shaped = vec.reshape((spec.truncation,) * spec.num_modes)
    for axis in range(spec.num_modes):
        index = [slice(None)] * spec.num_modes
        index[axis] = spec.truncation - 1
        shaped[tuple(index)] = 0.0
    vec = shaped.reshape(-1)
    return PureState(spec, vec / np.linalg.norm(vec))


def random_mixed_state(
    spec: ModeSpec, rng: np.random.Generator, components: int = 3
) -> DensityMatrix:
    """Convex combination of random projectors with Dirichlet-uniform weights."""
    weights = rng.dirichlet(np.ones(components))
    matrix = np.zeros((spec.total_dim, spec.total_dim), dtype=np.complex128)
    for w in weights:
        psi = random_pure_state(spec, rng).amplitudes
        matrix += w * np.outer(psi, psi.conj())
    return DensityMatrix(spec, matrix)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1

# entries per json.dumps call when writing; larger blocks were no faster
_WRITE_BLOCK = 1024

# kind -> (state type, rank of its array, layout of its data)
_KINDS = {"pure": (PureState, 1, "[re, im] pairs"),
          "mixed": (DensityMatrix, 2, "rows of [re, im] pairs")}


def save_state(state: State, path: str | Path, metadata: dict | None = None) -> None:
    """Write the JSON state document; values round-trip at double precision.

    The document is one line (json's C encoder; an indented layout would
    force the pure-Python one), with sorted keys so writes are deterministic.
    The data are written a block of whole rows at a time, about _WRITE_BLOCK
    entries per json.dumps call, from a float view of the entries (a
    vector's rows are its pairs), so no list of every entry nor the whole
    text is held at once.
    """
    kind, values = (("pure", state.amplitudes) if isinstance(state, PureState)
                    else ("mixed", state.matrix))
    # [re, im] pairs as a view of the complex entries; "data" sorts first
    pairs = values.view(np.float64).reshape(*values.shape, 2)
    step = max(1, _WRITE_BLOCK * len(values) // values.size)  # rows per block
    rest = json.dumps({
        "format_version": FORMAT_VERSION,
        "spec": {"num_modes": state.spec.num_modes, "truncation": state.spec.truncation},
        "kind": kind,
        "metadata": metadata or {},
    }, sort_keys=True)
    with open(path, "w") as fh:
        fh.write('{"data": [')
        for start in range(0, len(pairs), step):
            block = json.dumps(pairs[start:start + step].tolist())[1:-1]
            fh.write((", " if start else "") + block)
        fh.write("], " + rest[1:] + "\n")


def load_state(path: str | Path) -> State:
    """Read a JSON state document back, revalidating every invariant.

    The tail rule applies too: a state whose top Fock level holds tail_tol
    or more of its population is refused as inadequately truncated. Every
    refusal names the file. A matrix is decoded one row at a time, so a load
    holds about the file's text plus two matrices.
    """
    max_dimension()  # a malformed MACROQ_MAX_DIM is refused as itself, not as the file's fault
    try:
        return _decode_state(Path(path))
    except (StateValidationError, TruncationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


_JSON = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE
_MATRIX = re.compile(r"\[[ \t\n\r]*\[[ \t\n\r]*\[")  # "[[[" up to whitespace


def _skip(text: str, idx: int) -> int:
    return _SPACE.match(text, idx).end()


def _items(text: str, idx: int, close: str, item: Callable[[int], int]) -> int:
    """Walk the items of the JSON object or array opened just before idx.

    item(start) decodes the item at start and returns where it ends; the
    walk checks the commas and returns the index past the closing bracket.
    """
    idx = _skip(text, idx)
    if text.startswith(close, idx):
        return idx + 1
    while True:
        idx = _skip(text, item(idx))
        if text.startswith(close, idx):
            return idx + 1
        if not text.startswith(",", idx):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
        idx = _skip(text, idx + 1)


def _members(text: str) -> dict:
    """The members of the JSON object that text holds, as json.loads gives them,
    except that "data" is decoded by _data.

    Whitespace, key order and duplicate keys (the last wins) are read as
    json reads them. Text that is not one JSON object raises
    JSONDecodeError, or StateValidationError when it is JSON of another type.
    """
    start = _skip(text, 0)
    if not text.startswith("{", start):
        _JSON.raw_decode(text, start)  # text that is no JSON value raises here
        raise StateValidationError("state document must be a JSON object")
    doc = {}

    def member(idx: int) -> int:
        if not text.startswith('"', idx):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                       text, idx)
        key, idx = _JSON.raw_decode(text, idx)
        idx = _skip(text, idx)
        if not text.startswith(":", idx):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, idx)
        decode = _data if key == "data" else _JSON.raw_decode
        doc[key], idx = decode(text, _skip(text, idx + 1))
        return idx

    end = _skip(text, _items(text, start + 1, "}", member))
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def _data(text: str, idx: int) -> tuple[object, int]:
    """The JSON value at idx, and where it ends; a matrix comes as a list of float rows.

    An array whose first item is an array of arrays is a matrix: each row is
    decoded and made a float array at once, so the D x D entries never
    exist as Python pairs. Any other value, a vector's [re, im] pairs
    included, is decoded whole, as its lists are O(D).
    """
    if not _MATRIX.match(text, idx):
        return _JSON.raw_decode(text, idx)
    rows = []

    def decode_row(start: int) -> int:
        row, end = _JSON.raw_decode(text, start)
        try:
            rows.append(np.asarray(row, dtype=float))
        except (TypeError, ValueError, OverflowError):
            rows.append(row)  # left for the stacking to refuse
        return end

    return rows, _items(text, idx + 1, "]", decode_row)


def _decode_state(path: Path) -> State:
    try:
        doc = _members(path.read_text())  # the text is freed before the rows are stacked
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError or json's digit limit
        raise StateValidationError(f"not valid JSON ({exc})") from None
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # True and 1.0 equal 1
        raise StateValidationError(f"unsupported format_version {version!r}")
    try:
        spec = ModeSpec(doc["spec"]["num_modes"], doc["spec"]["truncation"])
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StateValidationError(f"malformed state document ({exc})") from None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise StateValidationError(f"unknown state kind {kind!r}")
    state_type, rank, layout = _KINDS[kind]
    try:
        raw = np.asarray(data, dtype=float)  # stacks a matrix's rows; a ragged row raises here
        if raw.ndim != rank + 1 or raw.shape[-1] != 2:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise StateValidationError(f"{kind} data must be {layout}") from None
    del data, doc  # the rows, freed before validation
    state: State = state_type(spec, raw.view(np.complex128)[..., 0])  # bit-exact, no copy
    _require_tail(state)
    return state
