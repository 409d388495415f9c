"""Wave-filtering prediction for linear dynamical systems.

Filters are the top eigenvectors of a fixed Hankel matrix, scaled by the
quarter power of their eigenvalues; predictions are linear in the
convolutions of the input sequence with those filters. The package
provides the filter construction (eigendecomposition and a stable
operator route), featurization, online and batch learners, an exact
relaxation oracle for known systems, simulators, baselines, and a
verification suite, all behind a CLI.
"""

from .hankel import (
    NOISE_FLOOR,
    HankelMatrix,
    Spectrum,
    build_hankel,
    full_spectrum,
    hilbert_matrix,
    mu_curve,
    quarter_power_apply,
    spectral_tail_sum,
    top_eigenpairs,
)
from .filters import (
    FeatureLayout,
    FilterBank,
    augment_alternating,
    augment_hint,
    build_filter_bank,
    featurize_batch,
    featurize_batch_naive,
    featurize_online,
)
from .lds import (
    InputGenerator,
    LdsParams,
    NoiseConfig,
    Trajectory,
    block_impulse_inputs,
    derivative_predictions,
    derivative_predictor,
    diagonalize,
    impulse_response_output,
    lipschitz_bound,
    pendulum_simulate,
    simulate,
    synthetic_system,
)
from .relaxation import RelaxedPredictor, build_M_theta, relaxation_residual
from .online import (
    OnlineConfig,
    OnlineRunResult,
    OnlineState,
    RegretReport,
    default_hyperparams,
    online_features,
    predict,
    regret_vs_best_fixed,
    run_ftl,
    run_online,
    update,
)
from .batch import (
    BatchModel,
    BatchSample,
    fit_batch,
    predict_derivative,
    predict_pure_batch,
)
from .ode import fitted_wave_operator, ode_filter_bank
from .baselines import baseline_ar, baseline_last_value
from .experiments import ExperimentConfig, default_experiment_config, run_experiment
from .verify import InvariantCheck, ToleranceProfile, check_filter_bank, run_verification

__version__ = "0.1.0"
