"""Truncated Fock-space mode operators.

Per mode, the ladder operator keeps N levels (0..N-1) and acts as
a|n> = sqrt(n)|n-1>. Dimensionless quadratures follow

    q = (a + a^dagger)/sqrt(2),    p = (a - a^dagger)/(i sqrt(2)),

so [q, p] = i holds exactly on the interior block n < N-1; the (N-1, N-1)
corner entry is a truncation artifact. _shifts states the ladder rule once,
for the operator traces and the dense builders alike: mode m's stride is
N^(M-m), mode 1 being the slowest-varying tensor index, and its weights are
sqrt(n) and sqrt(n+1). A builder places them on the full space directly.
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


def _placed(spec: ModeSpec, mode: int, lowering: int, raising: int,
            scale: complex = 1.0) -> ComplexMatrix:
    """(lowering a + raising a^dagger) / scale on mode m, as a read-only D x D matrix.

    With s, lo and hi from _shifts, a holds lo_i at (i, i+s) and a^dagger
    hi_(i+s) at (i+s, i). Each weight is divided as a complex number, so q
    and p round as the complex128 expressions in their docstrings do.
    """
    _check_mode(spec, mode)
    stride, lo, hi = _shifts(spec, mode)
    dim = spec.total_dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(out[:, stride:], lowering * lo[:dim - stride] / complex(scale))  # (i, i+s)
    np.fill_diagonal(out[stride:], raising * hi[stride:] / complex(scale))  # (i+s, i)
    out.flags.writeable = False
    return out


def annihilation_op(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Lowering operator for the given mode, embedded in the full space."""
    return ModeOperator(spec, _placed(spec, mode, 1, 0), "a", mode)


def creation_op(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Raising operator, the adjoint of annihilation_op on the same mode."""
    return ModeOperator(spec, _placed(spec, mode, 0, 1), "adag", mode)


def quadrature_q(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Hermitian position-like quadrature (a + a^dagger)/sqrt(2)."""
    return ModeOperator(spec, _placed(spec, mode, 1, 1, np.sqrt(2.0)), "q", mode)


def quadrature_p(spec: ModeSpec, mode: int = 1) -> ModeOperator:
    """Hermitian momentum-like quadrature (a - a^dagger)/(i sqrt(2))."""
    return ModeOperator(spec, _placed(spec, mode, 1, -1, 1j * np.sqrt(2.0)), "p", mode)


def _single_mode_displacement(truncation: int, beta: complex) -> ComplexMatrix:
    """N x N exponential of the generator G = beta a^dagger - conj(beta) a.

    G is skew-Hermitian, so iG is Hermitian with iG = v diag(w) v^dagger and
    exp(G) = v diag(exp(-iw)) v^dagger; the eigendecomposition exponential is
    backward stable for normal matrices and unitary to rounding.
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    spec = ModeSpec(1, truncation)
    gen = beta * _placed(spec, 1, 0, 1) - np.conj(beta) * _placed(spec, 1, 1, 0)
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T
