"""Informative multi-robot path planning over hotspot fields.

Library layout:

* ``world``          - grid domain, robot kinematics, deterministic transitions
* ``field_model``    - GP / log-GP posteriors, entropies, sampling, MLE fit
* ``discretization`` - standardized outcome boundaries, Jensen / EM points
* ``planners``       - exact and bounded adaptive DP, anytime URTDP, baselines
* ``evaluation``     - rollouts, ENT / ERR metrics, paired t-tests
* ``harness``        - batch experiments, field CSV I/O, results persistence
"""

import os

# One BLAS thread unless the caller set another, before numpy loads: the
# planners make many small BLAS calls (a rank-1 update per URTDP step), and
# an OpenBLAS thread spins while it waits for a descheduled one, so extra
# threads cost CPU time and, on a shared machine, much more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .discretization import (
    em_points,
    equal_probability_boundaries,
    jensen_points,
)
from .errors import (
    BoundsCrossed,
    ConfigError,
    DeadEnd,
    DegenerateCovariance,
    HotspotPlanError,
    IllegalAction,
    InstanceTooLarge,
    InsufficientData,
    MissingCell,
    NonPositiveValue,
    ParseError,
    SingularGram,
    VanishingInterval,
)
from .evaluation import (
    RolloutResult,
    ent_metric,
    err_metric,
    error_map,
    paired_ttest,
    rollout,
)
from .field_model import (
    Hyperparams,
    PosteriorData,
    fit_hyperparams,
    lognormal_predictor,
    posterior_marginals,
    sample_field,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    emit_results,
    load_config,
    load_field_csv,
    run_experiment,
    save_field_csv,
)
from .planners import (
    BoundedLowerPolicy,
    GreedyPolicy,
    MesResult,
    MiResult,
    NonAdaptivePolicy,
    PlannerConfig,
    Policy,
    Problem,
    UrtdpResult,
    ValueBounds,
    bounded_dp,
    exact_dp,
    greedy_adaptive,
    mes_nonadaptive,
    mi_greedy,
    stagewise_reward,
    urtdp,
    urtdp_policy,
)
from .world import (
    ConstrainedJointAction,
    GridDomain,
    RobotPose,
    TeamState,
    constrained_actions,
    full_joint_actions,
    interior_heading,
    transition,
)

__version__ = "0.1.0"
