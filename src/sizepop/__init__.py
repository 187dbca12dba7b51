"""Size-structured population dynamics with spatial diffusion and
adjoint-based optimal fertility control."""

from .adjoint import (
    AdjointSolution,
    duality_residual,
    march_adjoint,
    solve_adjoint,
    solve_sensitivity,
)
from .forward import (
    StateSolution,
    StepContext,
    march_states,
    solve_state,
    total_population,
)
from .model import (
    ControlBounds,
    CostParams,
    Field,
    Grid3,
    GrowthCase,
    NumericalError,
    Scenario,
    ScenarioValidationError,
    Tolerances,
    ValidatedScenario,
    VitalRates,
    validate_scenario,
)
from .optimizer import (
    ContractionDiagnostics,
    OptimizationReport,
    contraction_diagnostics,
    evaluate_costs,
    gradient_field,
    optimize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
