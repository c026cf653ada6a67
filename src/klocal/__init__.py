"""Locality-spreading bounds and certification tools for k-local spin systems."""

from .bounds import (
    BoundParams,
    QSchedule,
    band_rhs,
    delta_value,
    main_rhs,
    q_schedule,
    small_time_rhs,
    theorem1_rhs,
    topo_error_rhs,
)
from .concentration import (
    BandMatrix,
    ExtensiveObservable,
    TailProfile,
    TopoErrorEstimate,
    band_matrix,
    build_product_state,
    evolve_product_state,
    fit_tail_constants,
    tail_profile,
    topo_error_estimate,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    InfeasibleScheduleError,
    KLocalError,
    ResourceLimitError,
    ValidationError,
)
from .layers import (
    LayerDecomposition,
    UnitPool,
    discretize,
    pack_layers,
    reconstruct,
)
from .models import (
    StructuralConstants,
    build_model,
    load_spec,
    spec_from_operator,
    structural_constants,
)
from .oracle import (
    N_MAX_OPERATOR,
    N_MAX_STATE,
    DenseOperator,
    EigenSystem,
    energy_block_norm,
    heisenberg_evolve,
    operator_norm_exact,
    pauli_coefficients,
    q_local_project,
    spectral_norm,
    to_dense,
    weight_spectrum,
)
from .pauli import (
    ZERO_TOL,
    KLocalOperator,
    PauliString,
    commutator,
)
from .truncation import (
    DEFAULT_PRUNE_TOL,
    TruncationReport,
    chained_truncate,
    hadamard_truncate,
    nested_commutator_levels,
    series_coefficient,
)

__version__ = "0.1.0"
