"""Leading-order signalling between switched Unruh-DeWitt detectors.

Two localized two-level detectors couple to a massless scalar vacuum in
1+1, 2+1, or 3+1 dimensional flat spacetime.  The library evaluates the
lowest-order signal Bob can receive from Alice, the energies that carry
it (detector, interaction, and field terms), and the capacity of the
binary channel the signal induces.  A CLI (``qcc``) wraps single runs,
parameter sweeps, capacity calculations, and a self-check suite.
"""

from .channel import (
    ChannelStats,
    binary_entropy,
    capacity_bruteforce,
    capacity_closed,
    capacity_expansion,
    channel_stats,
    guess_success,
    optimal_input_prior,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .greens import (
    KernelDomainError,
    KernelValue,
    NonConvergenceError,
    commutator_kernel,
    field_energy_kernel,
    regularized_momentum_integral,
    suggest_eps_schedule,
)
from .quadrature import (
    QuadResult,
    QuadratureError,
    default_tolerance,
    integrate_1d,
    integrate_2d_rect,
)
from .scenario import (
    CausalClass,
    ComplexAmplitudePair,
    DetectorSpec,
    Dimension,
    InvalidScenarioError,
    Scenario,
    SwitchingWindow,
    ValidationReport,
    detector_bias,
    require_valid,
    validate,
)
from .signalling import (
    BalanceResult,
    Observable,
    energy_balance,
    field_energy_observable,
    interaction_energy_1p1_closed,
    interaction_energy_observable,
    s2_closed_form_1p1,
    s2_null_3p1,
    s2_observable,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scenario
    "CausalClass",
    "ComplexAmplitudePair",
    "DetectorSpec",
    "Dimension",
    "InvalidScenarioError",
    "Scenario",
    "SwitchingWindow",
    "ValidationReport",
    "detector_bias",
    "require_valid",
    "validate",
    # greens
    "KernelDomainError",
    "KernelValue",
    "NonConvergenceError",
    "commutator_kernel",
    "field_energy_kernel",
    "regularized_momentum_integral",
    "suggest_eps_schedule",
    # quadrature
    "QuadResult",
    "QuadratureError",
    "default_tolerance",
    "integrate_1d",
    "integrate_2d_rect",
    # signalling
    "BalanceResult",
    "Observable",
    "energy_balance",
    "field_energy_observable",
    "interaction_energy_1p1_closed",
    "interaction_energy_observable",
    "s2_closed_form_1p1",
    "s2_null_3p1",
    "s2_observable",
    # channel
    "ChannelStats",
    "binary_entropy",
    "capacity_bruteforce",
    "capacity_closed",
    "capacity_expansion",
    "channel_stats",
    "guess_success",
    "optimal_input_prior",
    # config
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config",
]
