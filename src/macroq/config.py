"""Shared numerical tolerances and resource limits.

Every tolerance that validators and reports enforce lives in one record, so the
package agrees on what "equal" means; `verify`'s closed-form checks keep literal bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

MAX_DIM_ENV = "MACROQ_MAX_DIM"
DEFAULT_MAX_DIM = 4096


@dataclass(frozen=True)
class Tolerances:
    # state invariants
    norm_tol: float = 1e-10          # | ||psi||^2 - 1 |
    herm_tol: float = 1e-10          # max entrywise |rho - rho^dagger|
    trace_tol: float = 1e-10         # | Tr rho - 1 |
    psd_floor: float = -1e-8         # smallest admissible eigenvalue
    tail_tol: float = 1e-12          # population allowed on a mode's top Fock level

    # measure evaluation
    imag_residue_tol: float = 1e-10  # |Im| allowed on a trace that must be real
    identity_tol: float = 1e-9       # |I - (C - M*P)/2|
    three_two_term_tol: float = 1e-10
    pure_relation_tol: float = 1e-10  # |I/P - (chi2/4 - M/2)| on pure states

    # phase-space pipeline
    grid_norm_tol: float = 1e-6      # | integral of W - 1 |
    dual_pipeline_rel: float = 1e-10  # relative C/P disagreement, operator vs grid

    # displacement guard
    displaced_tail_tol: float = 1e-10


TOL = Tolerances()


def max_dimension() -> int:
    """Cap on the total Hilbert-space dimension N^M, read from MACROQ_MAX_DIM."""
    raw = os.environ.get(MAX_DIM_ENV, "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{MAX_DIM_ENV} must be at least 2, got {value}")
    return value
