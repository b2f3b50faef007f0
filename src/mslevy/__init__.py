"""Slow-fast jump-diffusion simulation and averaging toolkit.

Simulates scale-separated SDE systems driven by Wiener processes and
compound-Poisson jump measures with monotone, polynomially growing
coefficients; estimates frozen-equation invariant measures; builds
averaged equations; evaluates the Poisson-equation corrector; and
verifies strong order 1/2 and weak order 1 convergence empirically.
"""

from .errors import (
    BlowUpError,
    ConfigurationError,
    DecayFitError,
    MslevyError,
    TableValidationError,
)
from .ergodic import (
    AveragedTable,
    ExactAveraged,
    InvariantConfig,
    InvariantSample,
    averaged_diffusion,
    averaged_drift,
    build_averaged_table,
    ergodicity_decay,
    estimate_invariant_measure,
    load_averaged_table,
    poisson_cell,
    poisson_cells,
    psd_sqrt,
    save_averaged_table,
)
from .estimate import (
    DeltaPolicy,
    ErrorReport,
    TestFunction,
    fast_moment_sweep,
    fit_order,
    make_test_function,
    strong_error,
    weak_error,
)
from .integrate import (
    PathSample,
    StepperConfig,
    run_averaged_batch,
    run_frozen_batch,
    run_frozen_pair_batch,
    run_pair_batch,
    run_system_batch,
)
from .model import (
    AssumptionParams,
    ModelSpec,
    check_fast_dissipativity,
    check_growth,
    check_monotonicity,
    check_strong_monotonicity_fast,
    example_2_7,
    example_2_8,
    get_model,
    model_from_config,
    scalar_model,
)
from .rng import (
    JumpMeasureSpec,
    PointMass,
    RngStream,
    TruncatedGaussian,
    Uniform,
    default_jump_measure,
    sample_jump_times_batch,
)

__version__ = "0.1.0"
