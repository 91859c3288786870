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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TOL
from .errors import StateValidationError, TruncationError
from .fock import ComplexMatrix, ModeSpec, _check_mode, _single_mode_displacement


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the truncated Fock basis."""

    spec: ModeSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != self.spec.total_dim:
            raise StateValidationError(
                f"amplitude vector has size {amps.size}, expected {self.spec.total_dim}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise StateValidationError("amplitude vector contains non-finite entries")
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
    """Trace-one Hermitian positive-semidefinite matrix on the truncated space."""

    spec: ModeSpec
    matrix: ComplexMatrix

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = self.spec.total_dim
        if mat.shape != (dim, dim):
            raise StateValidationError(
                f"matrix has shape {mat.shape}, expected ({dim}, {dim})"
            )
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise StateValidationError("density matrix contains non-finite entries")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > TOL.herm_tol:
            raise StateValidationError(
                f"Hermiticity violated: max |rho - rho^dagger| = {herm_dev:.2e}"
            )
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > TOL.trace_tol:
            raise StateValidationError(f"trace deviates from 1 by {trace_dev:.2e}")
        # every eigenvalue is >= psd_floor iff rho - psd_floor * 1 has a
        # Cholesky factor; the eigenvalues are computed only to word the rejection
        shifted = mat.copy()
        shifted.reshape(-1)[:: dim + 1] -= TOL.psd_floor
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(mat)[0])
            raise StateValidationError(
                f"matrix is not positive semidefinite: min eigenvalue {min_eig:.2e}"
            ) from None
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

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


def _require_tail(state: State, what: str) -> None:
    worst = float(np.max(state.top_level_mass()))
    if worst >= TOL.tail_tol:
        raise TruncationError(
            f"{what}: top Fock level holds {worst:.2e} of the population "
            f"(allowed {TOL.tail_tol:.0e}); increase the truncation"
        )


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
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    r = abs(alpha)
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


def _coherent_amplitudes(truncation: int, alpha: complex) -> np.ndarray:
    """Truncated coherent expansion exp(-|a|^2/2) a^n / sqrt(n!), unnormalized."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n = np.arange(truncation)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, truncation)))))
    mags = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0) \
        if alpha != 0 else np.eye(1, truncation, 0, dtype=float).ravel()
    if alpha == 0:
        return mags.astype(np.complex128)
    phases = np.exp(1j * n * np.angle(alpha))
    return mags * phases


def _admit_coherent_tail(state: PureState, family: str, alpha: complex) -> PureState:
    if float(state.top_level_mass().max()) >= TOL.tail_tol:
        raise TruncationError(
            f"truncation {state.spec.truncation} too small for {family} alpha={alpha}: "
            f"use at least N={default_coherent_truncation(alpha)}"
        )
    return state


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def fock_state(spec: ModeSpec, n: int | tuple[int, ...]) -> PureState:
    """Number state |n>, or |n1, n2, ...> for multimode specs.

    Each occupation must stay at least one level below the truncation so the
    guard level is empty.
    """
    levels = (n,) if isinstance(n, int) else tuple(n)
    if len(levels) != spec.num_modes:
        raise ValueError(
            f"got {len(levels)} occupation numbers for {spec.num_modes} modes"
        )
    for lev in levels:
        if not 0 <= lev <= spec.truncation - 2:
            raise ValueError(
                f"occupation {lev} outside 0..{spec.truncation - 2} "
                f"(one guard level below truncation {spec.truncation})"
            )
    index = 0
    for lev in levels:
        index = index * spec.truncation + lev
    amps = np.zeros(spec.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(spec, amps)


def coherent_state(spec: ModeSpec, alpha: complex) -> PureState:
    """Truncated coherent state, renormalized after truncation."""
    if spec.num_modes != 1:
        raise ValueError("coherent_state builds single-mode states; combine with product_state")
    amps = _coherent_amplitudes(spec.truncation, alpha)
    return _admit_coherent_tail(PureState(spec, amps / np.linalg.norm(amps)), "coherent", alpha)


def cat_state(spec: ModeSpec, alpha: complex, relative_phase: float = 0.0) -> PureState:
    """Superposition of opposite coherent states with a relative phase.

    Normalization divides by sqrt(2(1 + cos(phase) * s)) with overlap
    s = <alpha|-alpha> = exp(-2|alpha|^2); the odd combination degenerates
    as alpha -> 0 and is rejected.
    """
    if spec.num_modes != 1:
        raise ValueError("cat_state builds single-mode states; combine with product_state")
    plus = _coherent_amplitudes(spec.truncation, alpha)
    minus = _coherent_amplitudes(spec.truncation, -alpha)
    raw = plus + np.exp(1j * relative_phase) * minus
    norm = float(np.linalg.norm(raw))
    if norm < 1e-6:
        raise ValueError(
            f"cat state norm vanishes (alpha={alpha}, phase={relative_phase}); "
            "the odd combination is undefined at alpha -> 0"
        )
    return _admit_coherent_tail(PureState(spec, raw / norm), "cat", alpha)


def cat_mixture(spec: ModeSpec, alpha: complex) -> DensityMatrix:
    """Equal statistical mixture of the |alpha> and |-alpha> projectors."""
    plus = coherent_state(spec, alpha)
    minus = coherent_state(spec, -alpha)
    matrix = 0.5 * (np.outer(plus.amplitudes, plus.amplitudes.conj())
                    + np.outer(minus.amplitudes, minus.amplitudes.conj()))
    return DensityMatrix(spec, matrix)


def fock_mixture(spec: ModeSpec, d: int, include_vacuum: bool = True) -> DensityMatrix:
    """Uniform mixture of d consecutive number states.

    include_vacuum selects the level range: True mixes n = 0..d-1, False
    mixes n = 1..d. Both index conventions are first-class because the two
    give different coherence values (0 versus 1/d^2 for the negativity
    measure); see the README discussion.
    """
    if spec.num_modes != 1:
        raise ValueError("fock_mixture builds single-mode states")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    start = 0 if include_vacuum else 1
    top = start + d - 1
    if top > spec.truncation - 2:
        raise TruncationError(
            f"fock_mixture occupies level {top}, truncation {spec.truncation} "
            f"requires top level <= {spec.truncation - 2}; use N >= {top + 2}"
        )
    diag = np.zeros(spec.truncation, dtype=np.complex128)
    diag[start:start + d] = 1.0 / d
    return DensityMatrix(spec, np.diag(diag))


def thermal_state(spec: ModeSpec, g: GaussianSpec) -> DensityMatrix:
    """Fock-diagonal thermal state whose phase-space profile is the isotropic
    Gaussian of width g.a.

    Occupations follow nbar^n / (1+nbar)^(n+1) with nbar = (a^2 - 1)/2,
    evaluated in log space and renormalized over the retained levels.
    """
    if spec.num_modes != 1:
        raise ValueError("thermal_state builds single-mode states")
    nbar = g.mean_occupation
    n = np.arange(spec.truncation, dtype=float)
    if nbar == 0.0:
        diag = np.zeros(spec.truncation)
        diag[0] = 1.0
    else:
        diag = np.exp(n * math.log(nbar) - (n + 1.0) * math.log1p(nbar))
    if diag[-1] >= TOL.tail_tol:
        raise TruncationError(
            f"truncation {spec.truncation} too small for thermal a={g.a}: "
            f"use at least N={default_thermal_truncation(g.a)}"
        )
    diag = diag / diag.sum()
    return DensityMatrix(spec, np.diag(diag.astype(np.complex128)))


def mix(components: list[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Convex combination of density matrices on identical specs."""
    if not components:
        raise ValueError("mix requires at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights < 0.0):
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, expected 1")
    spec = components[0][1].spec
    for _, rho in components[1:]:
        if rho.spec != spec:
            raise ValueError("all mixture components must share one ModeSpec")
    matrix = np.zeros((spec.total_dim, spec.total_dim), dtype=np.complex128)
    for w, rho in components:
        matrix += w * rho.matrix
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
    value = complex(np.sum(rho.matrix * rho.matrix.T))
    if abs(value.imag) > TOL.imag_residue_tol:
        raise StateValidationError(
            f"purity has imaginary residue {value.imag:.2e}; input is corrupted"
        )
    return value.real


def displaced(rho: DensityMatrix, beta: complex, mode: int = 1) -> DensityMatrix:
    """Conjugate by the truncated displacement operator on one mode.

    The N x N single-mode exponential U acts on that mode's axis of the row
    and column indices of rho, viewed as (N^(m-1), N, N^(M-m)) each, so the
    cost is O(N D^2) and no D x D operator is built.

    Faithful only for interior-supported states: population above level
    N - ceil(4|beta| sqrt(N)) must be below the displacement tail guard,
    otherwise the truncated operator wraps probability around the cutoff.
    """
    spec = rho.spec
    _check_mode(spec, mode)
    n_total = spec.truncation
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
    u = _single_mode_displacement(n_total, beta)
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


def save_state(state: State, path: str | Path, metadata: dict | None = None) -> None:
    """Write the JSON state document; values round-trip at double precision.

    The document is one line (json's C encoder; an indented layout would
    force the pure-Python one), with sorted keys so writes are deterministic.
    """
    if isinstance(state, PureState):
        kind = "pure"
        values = state.amplitudes
    else:
        kind = "mixed"
        values = state.matrix
    doc = {
        "format_version": FORMAT_VERSION,
        "spec": {"num_modes": state.spec.num_modes, "truncation": state.spec.truncation},
        "kind": kind,
        "data": np.stack((values.real, values.imag), axis=-1).tolist(),
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_state(path: str | Path, *, require_tail: bool = False) -> State:
    """Read a JSON state document back, revalidating every invariant."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StateValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise StateValidationError(f"{path}: state document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise StateValidationError(f"{path}: unsupported format_version {version!r}")
    try:
        spec = ModeSpec(doc["spec"]["num_modes"], doc["spec"]["truncation"])
        kind = doc["kind"]
        raw = np.asarray(doc["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateValidationError(f"{path}: malformed state document ({exc})") from exc
    if kind == "pure":
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise StateValidationError(f"{path}: pure data must be [re, im] pairs")
        state: State = PureState(spec, raw[:, 0] + 1j * raw[:, 1])
    elif kind == "mixed":
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise StateValidationError(f"{path}: mixed data must be rows of [re, im] pairs")
        state = DensityMatrix(spec, raw[:, :, 0] + 1j * raw[:, :, 1])
    else:
        raise StateValidationError(f"{path}: unknown state kind {kind!r}")
    if require_tail:
        _require_tail(state, str(path))
    return state
