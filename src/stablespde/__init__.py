"""Two-time-scale SPDEs driven by cylindrical stable noise, in spectral form.

Simulation kernels for regime-switching and fast-slow stochastic fields with
heavy-tailed (alpha-stable) driving noise, plus a statistical harness that
verifies the averaging behaviour of the slow component at desk scale.
"""

from .rng import RngStream
from .stable_noise import (
    NoiseWeights,
    PowerLawRule,
    convolution_scale,
    ecf,
    sample_standard_stable,
)
from .spectral import (
    AdmissibilityReport,
    FieldState,
    SpectralOperator,
    admissibility,
    h_norm,
    hoelder_bound_check,
    rod_operator,
    smoothing_bound_check,
)
from .switching import (
    ChainPath,
    ClassPartition,
    GeneratorMatrix,
    aggregate_generator,
    aggregate_path,
    occupation_fractions,
    simulate_chain,
    stationary_distribution,
)
from .drifts import (
    LinearRegimeDrift,
    SaturatingCoupledDrift,
    SaturatingRegimeDrift,
    ZeroCoupledDrift,
)
from .engine import (
    MildStepPlan,
    TrajectoryRecord,
    drift_factor,
    make_step_plan,
    solve_averaged_spde,
    solve_fast_slow,
    solve_frozen_fast,
    solve_switching_spde,
    step_ou_mode,
)
from .averaging import (
    ErgodicEstimatorConfig,
    class_average_drift,
    ergodic_decay_probe,
    estimate_ergodic_drift,
    fit_decay_rate,
    make_class_averaged,
    make_nu_averaged,
    nu_average_drift,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"
