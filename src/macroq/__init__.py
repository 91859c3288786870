"""Phase-space coherence measures for truncated bosonic states.

Two cross-validated pipelines compute the same pair of measures on single-
and multimode Fock-space states: the coherence measure I (which can be
negative) and the purity-normalized structure measure chi2 = 2C/P, related
through the exact identity I = (C - M*P)/2. The operator pipeline evaluates
the ladder and quadrature traces as shifted slices of the density matrix;
the phase-space pipeline integrates a sampled distribution W(q, p) and its
gradients.
"""

from .config import TOL, Tolerances, max_dimension
from .errors import ConsistencyError, MacroqError, StateValidationError, TruncationError
from .fock import (
    ComplexMatrix,
    ModeOperator,
    ModeSpec,
    annihilation_op,
    creation_op,
    quadrature_p,
    quadrature_q,
)
from .measures import (
    MeasureReport,
    measure_C,
    measure_I,
    measure_I_forms,
    measure_report,
    pure_state_measures,
)
from .states import (
    DensityMatrix,
    GaussianSpec,
    PureState,
    as_density,
    cat_mixture,
    cat_state,
    coherent_state,
    default_coherent_truncation,
    default_thermal_truncation,
    displaced,
    fock_mixture,
    fock_state,
    load_state,
    mix,
    product_state,
    purity,
    random_mixed_state,
    random_pure_state,
    save_state,
    thermal_state,
)
from .wigner import (
    GridSpec,
    PhaseSpaceGrid,
    default_grid_spec,
    measure_C_wigner,
    measure_P_wigner,
    wigner_from_density,
    wigner_measure_report,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "max_dimension",
    "MacroqError",
    "TruncationError",
    "StateValidationError",
    "ConsistencyError",
    "ModeSpec",
    "ModeOperator",
    "annihilation_op",
    "creation_op",
    "quadrature_q",
    "quadrature_p",
    "ComplexMatrix",
    "MeasureReport",
    "measure_I",
    "measure_I_forms",
    "measure_C",
    "measure_report",
    "pure_state_measures",
    "PureState",
    "DensityMatrix",
    "GaussianSpec",
    "fock_state",
    "coherent_state",
    "cat_state",
    "cat_mixture",
    "fock_mixture",
    "thermal_state",
    "mix",
    "product_state",
    "purity",
    "as_density",
    "displaced",
    "random_pure_state",
    "random_mixed_state",
    "default_coherent_truncation",
    "default_thermal_truncation",
    "save_state",
    "load_state",
    "GridSpec",
    "PhaseSpaceGrid",
    "default_grid_spec",
    "wigner_from_density",
    "measure_P_wigner",
    "measure_C_wigner",
    "wigner_measure_report",
    "__version__",
]
