"""polekit: a symbolic-numeric workbench for minimal-subtraction bookkeeping.

Modules
-------
laurent
    Truncated Laurent series in ``eps = n - 4`` and the singular/finite split.
graphs
    The primitive divergent one- and two-loop graphs of the quartic scalar
    theory (tadpole, fish, double scoop, setting sun).
renorm
    Subtraction-recipe assembly of amplitudes, propagators and vacuum
    energy; pole-cancellation reports; renormalization-group flows.
curved
    Curved-space heat-kernel coefficients, the effective-Lagrangian
    singular/regular split, and renormalized gravitational constants.
hadamard
    The short-distance expansion of the Feynman function split into
    singular and regular channels.
functional
    Diagonal-singular + regular-kernel spectral pairings, their graded
    generalization, and stationary-phase decoherence demonstrations.
cli
    Config-driven command-line interface emitting CSV/JSON tables.
"""

from .errors import (
    AliasingWarning,
    BoundaryDecayWarning,
    BranchCutCrossing,
    ConvergenceError,
    DenominatorVanishes,
    DomainError,
    EvalAtZeroWithPoles,
    GridMismatch,
    LandauPoleWarning,
    PoleDepthExceeded,
    QuadratureNotConverged,
    WorkbenchError,
)
from .curved import (
    CurvatureInvariants,
    GravitationalConstants,
    dewitt_coefficients,
    dimreg_diagnostics,
    effective_lagrangian_split,
    regular_coincidence_limit,
    renormalized_constants,
)
from .functional import (
    DEFAULT_OMEGA_MAX,
    GradedObservable,
    GradedPairing,
    GradedSector,
    GradedState,
    SpectrumGrid,
    VHOperator,
    VHState,
    analytic_profile,
    diagonal_term,
    evolve_pairing,
    kernel_from_csv,
    kernel_to_csv,
    off_diagonal_term,
    pairing,
    qft_pairing,
    regularize,
)
from .graphs import (
    DEFAULT_QUAD_TOL,
    FOUR_PI_SQ,
    GraphResult,
    KinematicPoint,
    double_scoop,
    fish,
    fish_closed_form,
    setting_sun,
    tadpole,
)
from .hadamard import (
    BASIS_TAGS,
    CHANNEL,
    COEFFICIENT_FLAGS,
    REGULAR_CLASS_TAGS,
    HadamardInput,
    SingularBasisExpansion,
    hadamard_expand,
    hadamard_split,
    reconstruct,
)
from .laurent import (
    DEFAULT_MAX_ORDER,
    EpsilonSeries,
    SplitValue,
    gamma_laurent,
    ms_split,
    scale_power,
    series_add,
    series_eval,
    series_mul,
    series_reciprocal,
)
from .renorm import (
    CouplingSet,
    PoleReport,
    amplitude_T,
    bare_coupling_standard,
    beta_functions,
    energy_density,
    physical_mass_sq,
    pole_cancellation_report,
    propagator_inverse,
    rg_flow,
    scheme_offset,
    superficial_divergence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WorkbenchError",
    "DomainError",
    "PoleDepthExceeded",
    "EvalAtZeroWithPoles",
    "BranchCutCrossing",
    "DenominatorVanishes",
    "GridMismatch",
    "ConvergenceError",
    "QuadratureNotConverged",
    "AliasingWarning",
    "LandauPoleWarning",
    "BoundaryDecayWarning",
    # laurent
    "DEFAULT_MAX_ORDER",
    "EpsilonSeries",
    "SplitValue",
    "series_add",
    "series_mul",
    "series_reciprocal",
    "gamma_laurent",
    "scale_power",
    "ms_split",
    "series_eval",
    # graphs
    "FOUR_PI_SQ",
    "DEFAULT_QUAD_TOL",
    "KinematicPoint",
    "GraphResult",
    "tadpole",
    "fish",
    "fish_closed_form",
    "double_scoop",
    "setting_sun",
    # renorm
    "CouplingSet",
    "PoleReport",
    "physical_mass_sq",
    "amplitude_T",
    "bare_coupling_standard",
    "energy_density",
    "scheme_offset",
    "propagator_inverse",
    "beta_functions",
    "rg_flow",
    "pole_cancellation_report",
    "superficial_divergence",
    # curved
    "CurvatureInvariants",
    "GravitationalConstants",
    "dewitt_coefficients",
    "effective_lagrangian_split",
    "regular_coincidence_limit",
    "renormalized_constants",
    "dimreg_diagnostics",
    # hadamard
    "BASIS_TAGS",
    "CHANNEL",
    "COEFFICIENT_FLAGS",
    "REGULAR_CLASS_TAGS",
    "HadamardInput",
    "SingularBasisExpansion",
    "hadamard_expand",
    "hadamard_split",
    "reconstruct",
    # functional
    "DEFAULT_OMEGA_MAX",
    "SpectrumGrid",
    "VHOperator",
    "VHState",
    "GradedSector",
    "GradedObservable",
    "GradedState",
    "GradedPairing",
    "pairing",
    "diagonal_term",
    "off_diagonal_term",
    "evolve_pairing",
    "qft_pairing",
    "regularize",
    "analytic_profile",
    "kernel_from_csv",
    "kernel_to_csv",
]
