"""Truncated Fock-space mode operators.

Per mode, the ladder operator keeps N levels (0..N-1) and acts as
a|n> = sqrt(n)|n-1>. Dimensionless quadratures follow

    q = (a + a^dagger)/sqrt(2),    p = (a - a^dagger)/(i sqrt(2)),

so [q, p] = i holds exactly on the interior block n < N-1; the (N-1, N-1)
corner entry is a truncation artifact. Multimode operators embed the
single-mode matrix with identities on the other modes, mode 1 being the
slowest-varying tensor index.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .config import max_dimension
from .errors import TruncationError

# Dense complex matrix: 2-D complex128 ndarray, row-major.
ComplexMatrix = np.ndarray


def _brief(n: int) -> str:
    """n in full up to 12 digits, else as a 4-digit mantissa and its power of ten."""
    return str(n) if n < 10 ** 12 else f"{Decimal(n):.3e}"


def _integer(value: object, what: str) -> int:
    """value as an int; bool and non-integers are refused, NumPy integers kept."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    # a NumPy integer would wrap in products such as total_dim
    return int(value)


def _store_integers(spec: object, what: str, names: tuple[str, ...]) -> None:
    """Refuse bool and non-integer fields of a frozen spec; store NumPy integers as int."""
    for name in names:
        object.__setattr__(spec, name, _integer(getattr(spec, name), f"{what} {name}"))


@dataclass(frozen=True)
class ModeSpec:
    """Number of modes and per-mode Fock truncation; fixes every dimension."""

    num_modes: int
    truncation: int

    def __post_init__(self) -> None:
        _store_integers(self, "mode spec", ("num_modes", "truncation"))
        if self.num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {self.num_modes}")
        if self.truncation < 2:
            raise ValueError(f"truncation must be >= 2, got {self.truncation}")
        budget = max_dimension()
        # N >= 2, so M >= bits(budget) exceeds it without forming N^M
        if self.num_modes >= budget.bit_length() or self.total_dim > budget:
            raise TruncationError(
                f"total dimension N^M for N={_brief(self.truncation)}, "
                f"M={_brief(self.num_modes)} exceeds the budget of {budget} "
                f"(override with MACROQ_MAX_DIM)"
            )

    @property
    def total_dim(self) -> int:
        return self.truncation ** self.num_modes


@dataclass(frozen=True)
class ModeOperator:
    """A dense operator on the full multimode space, tagged by construction."""

    spec: ModeSpec
    matrix: ComplexMatrix
    label: str
    mode: int


def _check_mode(spec: ModeSpec, mode: int) -> None:
    if not 1 <= mode <= spec.num_modes:
        raise ValueError(f"mode {mode} out of range 1..{spec.num_modes}")


def _single_mode_matrix(truncation: int, label: str) -> ComplexMatrix:
    n = np.arange(1, truncation)
    a = np.zeros((truncation, truncation), dtype=np.complex128)
    a[n - 1, n] = np.sqrt(n)
    if label == "a":
        out = a
    elif label == "adag":
        out = a.conj().T
    elif label == "q":
        out = (a + a.conj().T) / np.sqrt(2.0)
    elif label == "p":
        out = (a - a.conj().T) / (1j * np.sqrt(2.0))
    else:  # pragma: no cover - internal labels only
        raise ValueError(f"unknown operator label {label!r}")
    out.flags.writeable = False
    return out


def _embedded_matrix(op: ComplexMatrix, num_modes: int, mode: int) -> ComplexMatrix:
    truncation = op.shape[0]
    eye_left = np.eye(truncation ** (mode - 1), dtype=np.complex128)
    eye_right = np.eye(truncation ** (num_modes - mode), dtype=np.complex128)
    full = np.kron(np.kron(eye_left, op), eye_right)
    full.flags.writeable = False
    return full


def _build(spec: ModeSpec, mode: int, label: str) -> ModeOperator:
    _check_mode(spec, mode)
    op = _single_mode_matrix(spec.truncation, label)
    matrix = _embedded_matrix(op, spec.num_modes, mode)
    return ModeOperator(spec=spec, matrix=matrix, label=label, mode=mode)


def annihilation_op(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Lowering operator for the given mode, embedded in the full space."""
    return _build(spec, mode, "a")


def creation_op(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Raising operator, the adjoint of annihilation_op on the same mode."""
    return _build(spec, mode, "adag")


def quadrature_q(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Hermitian position-like quadrature (a + a^dagger)/sqrt(2)."""
    return _build(spec, mode, "q")


def quadrature_p(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Hermitian momentum-like quadrature (a - a^dagger)/(i sqrt(2))."""
    return _build(spec, mode, "p")


def _single_mode_displacement(truncation: int, beta: complex) -> ComplexMatrix:
    """N x N exponential of the generator G = beta a^dagger - conj(beta) a.

    G is skew-Hermitian, so iG is Hermitian with iG = v diag(w) v^dagger and
    exp(G) = v diag(exp(-iw)) v^dagger; the eigendecomposition exponential is
    backward stable for normal matrices and unitary to rounding.
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    a = _single_mode_matrix(truncation, "a")
    gen = beta * a.conj().T - np.conj(beta) * a
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T
