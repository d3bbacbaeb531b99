"""Model-free control toolkit built around ultra-local models.

Intelligent P/PI/PD/PID controllers with online lumped-term estimation,
a classic PID baseline, a fixed-step closed-loop simulator for a second
order test plant with actuator degradation, Routh-Hurwitz machinery for
the filtered proportional loop's quartic, and stability-map sweeps with
time-domain cross-validation.
"""

from .control import (
    ANALYSIS_FORM,
    DELAYED_INPUT,
    ConfigMismatch,
    ControllerSpec,
    EstimatorConfig,
    replay_estimator,
)
from .poly import (
    ConvergenceFailure,
    IpLoopParams,
    Polynomial,
    PolynomialError,
    StabilityKind,
    StabilityVerdict,
    expand_pole,
    ip_charpoly,
    ipd_gains_from_target,
    max_real_part_of_roots,
    pid_gains_from_target,
    routh_hurwitz,
)
from .sim import (
    BLOWUP_THRESHOLD,
    LtiPlant,
    Metrics,
    NoiseModel,
    ReferenceTrajectory,
    SimulationTrace,
    TRACE_COLUMNS,
    closed_loop_diverges,
    compute_metrics,
    example_plant,
    load_trace_csv,
    run_closed_loop,
)
from .stabmap import (
    AgreementReport,
    GridSpec,
    StabilityGrid,
    cross_validate,
    default_grid_spec,
    default_t_axis,
    export_grid,
    ip_loop_for_cell,
    quartic_max_real_root,
    sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
