"""Solvers for superradiant transitions in generalized multilevel Dicke models.

Four layers: model definitions (model), thermodynamic-limit mean-field
minimization (meanfield), finite-N exact diagonalization in the
permutation-symmetric sector (exactdiag), and a Cooper-pair-box charge-basis
solver (cpb).  The cli module drives them from declarative config files.
"""

from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    ResourceLimitError,
    SolverError,
)
from .model import (
    AtomSpec,
    DickeModel,
    TrkReport,
    ladder,
    model_from_dict,
    trk_report,
    two_level,
)
from .meanfield import (
    MeanFieldSolution,
    TransitionPoint,
    critical_coupling,
    energy_density,
    minimize,
    no_go_check,
    scan_order_parameter,
    write_scan_csv,
)
from .exactdiag import (
    EDResult,
    SymmetricBasis,
    build_basis,
    build_hamiltonian,
    converge_cutoff,
    ed_ground,
    ground_state,
    mean_field_state,
    observables,
    parity_compatible,
    parity_signs,
)
from .cpb import (
    CpbSpec,
    SweetSpotReport,
    TwoLevelReduction,
    cpb_hamiltonian,
    two_level_reduction,
    verify_sweet_spot_states,
)

__version__ = "0.1.0"
