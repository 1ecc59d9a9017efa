"""Adaptive robust nonparametric estimation of a 1-periodic signal observed
in continuous time through semimartingale noise with jumps.

Submodules
----------
signal   periodic signals in the trigonometric basis, smoothness balls
noise    Levy, Ornstein-Uhlenbeck and semi-Markov noise simulators
observe  observation paths, coefficient and variance-proxy estimators
select   Pinsker weight grids, penalized selection, shrinkage
risk     Monte Carlo risk reports: oracle, improvement, efficiency
cli      configuration-driven experiment runner
"""

import os

# Parallelism comes from the process pool (--workers) alone, and every BLAS
# call the package makes is tiny, so a BLAS thread pool in each process only
# costs start-up time.  Set before any submodule imports numpy; a value the
# user has set is kept, and pool workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .signal import Signal, SobolevBallSpec, synthesize, sample_sobolev, sobolev_norm
from .noise import (
    LevySpec,
    OuSpec,
    SemiMarkovSpec,
    TauDist,
    RobustFamily,
    derive_rng,
    simulate,
    simulate_levy,
    simulate_ou,
    simulate_semimarkov,
    nominal_sigma,
)
from .observe import ObservationPath, signal_increments, estimate_fourier, estimate_variance_proxy
from .select import (
    WeightVector,
    WeightGrid,
    SelectionConfig,
    ShrinkageConfig,
    SelectionResult,
    minimax_rate_vn,
    tau_beta,
    build_weight_grid,
    model_select,
    l_star,
    ou_min_dimension,
    make_shrinkage_config,
    shrink,
)
from .risk import (
    RiskReport,
    EfficiencyReport,
    ProjectionPipeline,
    SelectionPipeline,
    l2_risk_exact,
    monte_carlo_risk,
    robust_risk,
    oracle_report,
    improvement_report,
    pinsker_constant,
    efficiency_sweep,
)
