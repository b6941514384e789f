"""Smoothed MPC for constrained linear systems.

Condensed multiparametric QPs, explicit (piecewise-affine) MPC, recentered
log-barrier MPC with closed-form Jacobians, randomized smoothing, the
quantitative-bound calculators, and the imitation-learning pipeline.
"""

from .barrier import (
    BarrierBatch,
    BarrierProblem,
    BarrierSolution,
    barrier_hessian,
    barrier_hessian_batch,
    barrier_jacobian,
    barrier_jacobian_batch,
    convex_combination,
    make_barrier_problem,
    recentering_vector,
    solve_barrier,
    solve_barrier_batch,
)
from .core import (
    BoxlikeConstraints,
    CondensedQP,
    LinearSystem,
    StageCost,
    StackedMaps,
    box_constraints,
    build_condensed,
    clip_problem,
    double_integrator_problem,
    feasible_radii,
    load_problem,
    residuals,
    stacked_maps,
)
from .errors import (
    ConfigurationError,
    DegenerateActiveSetError,
    InfeasibleError,
    NewtonConvergenceError,
    ResolutionError,
    SmoothingFailureError,
    TrainingDivergedError,
    UnboundedError,
)
from .explicit import (
    ActiveSet,
    AffinePiece,
    PieceCollection,
    PieceTableEvaluator,
    QPSolution,
    discover_pieces,
    gain_for_sigma,
    pi_mpc,
    solve_qp,
    state_grid,
)
from .mlp import MLPPolicy, TrainConfig, train_imitator
from .simulate import (
    ImitationDataset,
    Trajectory,
    imitation_error,
    iss_gain,
    rollout,
    sample_dataset,
)
from .smoothing import RandomizedPolicy, SmoothingConfig, pi_rs, tradeoff_audit

__version__ = "0.1.0"
