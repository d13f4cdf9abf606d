"""Levy-driven forward-curve simulation in a weighted curve space.

The package simulates the transport-form dynamics of a forward-rate curve
driven by independent Levy noises, with the drift pinned to the volatility
through the driver's cumulant so that discounted bonds are (numerically)
martingales, and ships an empirical verification suite for the structural
identities the construction relies on.
"""

from .curvespace import (
    Curve,
    EmbeddingRatios,
    HarmonicFamily,
    WeightGrid,
    check_embeddings,
    cumulative_integral,
    grid_derivative,
    integrate,
    make_grid,
    norm_H,
    norm_frak_H,
    norm_star,
    partial_integral,
    pointwise_norm_curve,
    random_curves,
    random_harmonic_family,
    random_vector_curves,
    rescale_to_norm,
    seminorm_H,
    shift,
)
from .levy import (
    CompoundPoissonComponent,
    CovarianceModel,
    CumulantDomainError,
    CumulantModel,
    DriverConfigError,
    GammaComponent,
    LevyDriver,
    WienerComponent,
    build_driver,
    covariance,
    cumulant,
    cumulant_grad,
    cumulant_hess,
    empirical_mgf,
    gamma_geometric_family,
    increment_table,
    moment_mp,
    sample_increment_array,
    step_generator,
)
from .model import (
    BallViolationError,
    HjmModel,
    HypothesisReport,
    LipschitzEstimate,
    VolatilitySpec,
    VOLATILITY_BUILTINS,
    apply_B,
    check_hypotheses,
    constant_volatility,
    drift_functional,
    exp_decay_volatility,
    hjm_drift,
    hs_norm_B,
    lipschitz_estimate,
    tanh_volatility,
    volatility_from_config,
)
from .solver import (
    NormEstimate,
    PicardDivergenceError,
    PicardResult,
    SolutionEnsemble,
    SolverConfig,
    euler_solve,
    euler_transitions,
    lipschitz_in_initial_datum,
    norm_bb_Hp,
    norm_script_Hp,
    picard_solve,
)
from .checks import (
    CheckReport,
    step_integrands,
    verify_bichteler_jacod,
    verify_convolution_inequality,
    verify_cumulant_derivatives,
    verify_exponential_moment,
    verify_isometry,
    verify_isometry_predictability_control,
    verify_martingale_bonds,
)

__version__ = "0.1.0"
