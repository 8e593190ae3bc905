"""Numerical laboratory for interval interpolation functionals, their heat
and nonlinear-diffusion flows, the monotonicity counter-examples, and the
constrained improvements of the optimal constants."""

__version__ = "0.1.0"

from .constants import (  # noqa: F401
    FlowSpec,
    Params,
    RegionMap,
    RegionPoint,
    beta_roots,
    classify_region,
    counterexample_coefficient,
    counterexample_roots,
    gamma_discriminant,
    gamma_of_beta,
    gamma_one,
    region_sweep,
    two_sharp,
    two_star,
)
from .discretization import (  # noqa: F401
    GridFn,
    Quadrature,
    derivative,
    eigenfunction,
    integral,
    second_derivative,
)
from .errors import (  # noqa: F401
    ConservationError,
    ConvergenceError,
    DomainError,
    FlowError,
    PositivityError,
    PositivityLossError,
    ResolutionError,
    UltraflowError,
)
from .flows import (  # noqa: F401
    FlowState,
    Form,
    Trajectory,
    evolve,
    make_state,
    step,
)
from .functionals import (  # noqa: F401
    DissipationReport,
    cdc_triple,
    deficit,
    dissipation_heat,
    dissipation_nonlinear,
    dissipation_report,
    entropy,
    fisher,
    quotient,
)
from .counterexamples import (  # noqa: F401
    ExplicitFamily,
    first_obstruction,
    materialize,
    second_obstruction,
)
from .improvements import (  # noqa: F401
    ImprovementEstimate,
    antipodal_constants,
    estimate_lambda_star,
    improved_constant,
    logsob_improvement,
    rayleigh_quotient,
    verify_improved_inequality,
)
