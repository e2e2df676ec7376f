"""Minimum-energy steering of sub-diffusion into a target subspace.

Synthesizes and verifies controls for a Caputo time-fractional diffusion
equation (order in (0,1), 1-D Dirichlet Laplacian) so that the final state
lands in a prescribed subspace of mode space, via an adjoint-seed Gramian
solve with an independent penalization cross-check.
"""

from .actuators import (
    TargetSubspace,
    dead_modes,
    eec_criterion,
    is_strategic,
    make_pointwise,
    make_target,
    make_zone,
)
from .config import ProblemConfig, Tolerances, load_config, loads_config, save_config
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    InfeasibleError,
    NonStrategicError,
    PoleError,
    QuadratureError,
    SingularGramianError,
    SubdiffError,
)
from .fractional import (
    SampledSignal,
    caputo_left,
    reflect,
    rl_deriv_left,
    rl_deriv_right,
    rl_integral_left,
    rl_integral_right,
)
from .penalized import (
    PenalizedProblem,
    PenalizedSolution,
    SweepRow,
    dynamics_residual,
    epsilon_sweep,
    solve_penalized,
)
from .rhum import (
    AdjointState,
    Gramian,
    RhumSolution,
    assemble_gramian,
    control_energy,
    discrete_gramian,
    final_free_state,
    observation,
    solve_rhum,
    verify_transfer,
)
from .special import (
    gamma_fn,
    mittag_leffler,
    mittag_leffler_array,
    phi_alpha,
    phi_alpha_moment,
    psi_alpha,
)
from .spectral import (
    SpectralField,
    TimeGrid,
    apply_K,
    apply_R,
    eigenfunction,
    eigenvalues,
    mild_trajectory,
)

__version__ = "0.1.0"
