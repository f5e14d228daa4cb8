"""Two-time-scale SPDEs driven by cylindrical stable noise, in spectral form.

Simulation kernels for regime-switching and fast-slow stochastic fields with
heavy-tailed (alpha-stable) driving noise, plus a statistical harness that
verifies the averaging behaviour of the slow component at desk scale.  The
package exports what the acceptance suite uses; the rest lives in submodules.
"""

from .rng import RngStream
from .stable_noise import NoiseWeights, convolution_scale, ecf, sample_standard_stable
from .spectral import SpectralOperator, hoelder_bound_check, rod_operator, smoothing_bound_check
from .switching import (
    ClassPartition,
    GeneratorMatrix,
    aggregate_generator,
    occupation_fractions,
    simulate_chain,
    stationary_distribution,
)
from .drifts import ZeroCoupledDrift
from .engine import solve_averaged_spde, solve_switching_spde
from .averaging import (
    ErgodicEstimatorConfig,
    ergodic_decay_probe,
    estimate_ergodic_drift,
    fit_decay_rate,
)

__version__ = "0.1.0"
