"""fbq: exact solvers, simulator and cost optimizer for two-queue
foreground-background systems with speed or capacity modulation."""

from .models import (
    CostCoefficients,
    CoxianService,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SolverError,
    SpeedProfile,
    UnstableModelError,
    check_stability_multi,
    check_stability_single,
)
from .series import PowerSeries
from .single import (
    SingleServerSolution,
    SpeedFamilySolution,
    evaluate_cost_single,
    solve_general,
    solve_k1_closed_form,
    solve_speed_family,
    solve_zero_speed,
    verify_single,
)
from .multi import (
    MultiServerSolution,
    d_roots,
    dprime_at_1,
    evaluate_cost_multi,
    mmm_marginal,
    solve_threshold,
    sweep_thresholds,
    verify_multi,
)
from .baselines import fcfs_L, las_L, priority_two_class_L
from .ctmc import CtmcSolution, ctmc_solve
from .simulate import (
    SimConfig,
    SimEstimate,
    ThreePhaseModel,
    match_three_phase,
    simulate,
    two_phase_approximation,
)
from .experiments import (
    FigureResult,
    PolicyCurve,
    optimize_intermediate_speeds,
    optimize_threshold,
    reproduce_figure,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CostCoefficients",
    "CoxianService",
    "CtmcSolution",
    "FigureResult",
    "ModelError",
    "MultiServerModel",
    "MultiServerSolution",
    "PolicyCurve",
    "PowerSeries",
    "SimConfig",
    "SimEstimate",
    "SingleServerModel",
    "SingleServerSolution",
    "SolverError",
    "SpeedFamilySolution",
    "SpeedProfile",
    "ThreePhaseModel",
    "UnstableModelError",
    "check_stability_multi",
    "check_stability_single",
    "ctmc_solve",
    "d_roots",
    "dprime_at_1",
    "evaluate_cost_multi",
    "evaluate_cost_single",
    "fcfs_L",
    "las_L",
    "match_three_phase",
    "mmm_marginal",
    "optimize_intermediate_speeds",
    "optimize_threshold",
    "priority_two_class_L",
    "reproduce_figure",
    "simulate",
    "solve",
    "solve_general",
    "solve_k1_closed_form",
    "solve_speed_family",
    "solve_threshold",
    "solve_zero_speed",
    "sweep_thresholds",
    "two_phase_approximation",
    "verify_multi",
    "verify_single",
]
