"""Cost evaluation, projected optimality update, and the fixed-point sweep.

The optimal fertility control solves a projected stationarity condition:
beta = F(sign * r * p * phi0 / (c * rho)) with F the pointwise clip onto the
control box, p the state, phi0 the adjoint trace at the newborn boundary,
and sign = -1 for the cost variant that subtracts the quadratic control term
(+1 for the variant that adds it).  The sweep alternates a state solve, an
adjoint solve and a relaxed projected update until the control stops moving
in the sup norm.  Convergence is guaranteed when the reported contraction
ratio (M1*M4 + M2*M3)/(c*rho) is below one; the diagnostics estimate the
four constants empirically from sample controls.  Every state and adjoint
solve reads the scenario's StepContext, built once per validated scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointSolution, solve_adjoint
from .forward import StateSolution, solve_state
from .model import CostParams, Field, Grid3, ValidatedScenario, control_array

# seeded random controls sampled by the contraction diagnostics, besides the
# two box corners and the optimum
N_RANDOM_SAMPLES = 2


@dataclass(frozen=True)
class ContractionDiagnostics:
    """Empirical constants of the sufficient uniqueness condition.

    M1/M2 are sup-norm Lipschitz ratios of the state and of the adjoint
    trace with respect to the control; M3/M4 are suprema of |p| and |phi|.
    The update map is a contraction when (M1*M4 + M2*M3)/(c*rho) < 1.
    """

    M1: float
    M2: float
    M3: float
    M4: float
    ratio: float
    contraction_ok: bool

    def to_dict(self) -> dict:
        return {
            "M1": self.M1, "M2": self.M2, "M3": self.M3, "M4": self.M4,
            "ratio": self.ratio, "contraction_ok": self.contraction_ok,
        }


@dataclass(frozen=True)
class OptimizationReport:
    beta_opt: Field
    J_history: np.ndarray
    update_residuals: np.ndarray
    contraction: ContractionDiagnostics | None
    status: str
    iterations: int

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "iterations": self.iterations,
            "J_history": [float(v) for v in self.J_history],
            "update_residuals": [float(v) for v in self.update_residuals],
            "contraction": self.contraction.to_dict() if self.contraction else None,
        }


def evaluate_costs(grid: Grid3, p: np.ndarray, beta: np.ndarray, cost: CostParams) -> np.ndarray:
    """J of every control along the leading axes of `p` and `beta`, whose
    last three axes are (size, time, space): each member's integrand is
    summed over those three axes only."""
    w = grid.volume_weights()
    integrand = p + cost.control_sign * 0.5 * cost.rho * beta**2
    return (w * integrand).sum(axis=(-3, -2, -1))


def evaluate_cost(state: StateSolution, cost: CostParams) -> float:
    """J = integral of [p -/+ rho/2 * beta^2] under the volume quadrature,
    at the control the state was solved with."""
    return float(evaluate_costs(state.p.grid, state.p.values, state.beta, cost))


def project_F(h, vsc: ValidatedScenario) -> Field:
    """Pointwise clip of a candidate control onto [phi_l, phi_m]."""
    values = control_array(vsc.grid, h)
    return Field(vsc.grid, ("size", "time", "space"),
                 np.clip(values, vsc.phi_l_grid, vsc.phi_m_grid))


def gradient_field(state: StateSolution, adjoint: AdjointSolution,
                   vsc: ValidatedScenario) -> Field:
    """Pointwise derivative density of the cost with respect to the control.

    g = -/+ rho*beta - r*p*phi0/c (sign by cost variant).  Pairing g with a
    direction under the volume quadrature reproduces the derivative of the
    discrete cost exactly, because phi0 comes from the transposed scheme.
    """
    cost = vsc.cost
    g = (cost.control_sign * cost.rho * state.beta
         - vsc.r_grid * state.p.values * adjoint.phi_at_zero.values[None, :, :] / cost.c)
    return Field(vsc.grid, ("size", "time", "space"), g)


def fixed_point_update(state: StateSolution, adjoint: AdjointSolution,
                       vsc: ValidatedScenario) -> Field:
    """Projected stationarity map: F(sign * r * p * phi0 / (c * rho)).

    Only the product c*rho enters; the stationary value is where the
    gradient density vanishes, clipped onto the control box.
    """
    cost = vsc.cost
    h = cost.control_sign * vsc.r_grid * state.p.values * adjoint.phi_at_zero.values[None, :, :] \
        / (cost.c * cost.rho)
    return project_F(Field(vsc.grid, ("size", "time", "space"), h), vsc)


def optimize(vsc: ValidatedScenario, beta0=None,
             compute_diagnostics: bool = True) -> OptimizationReport:
    """Forward-backward sweep with relaxed projected updates.

    Iterates beta <- (1-omega)*beta + omega*F(update), clipped onto the box
    against rounding, from beta0 (default: the middle of the control box),
    stopping when the sup-norm update falls below the configured
    tolerance.  Ten consecutive residual increases are reported as
    divergence.  The report carries the cost history, the update residuals
    and, unless disabled, contraction diagnostics sampled at the box
    corners, the optimum and N_RANDOM_SAMPLES seeded random controls.
    """
    grid = vsc.grid
    tol = vsc.tolerances.fixed_point_tol
    omega = vsc.tolerances.relax_omega
    max_iters = vsc.tolerances.max_iters

    if beta0 is None:
        beta = 0.5 * (vsc.phi_l_grid + vsc.phi_m_grid)
    else:
        beta = control_array(grid, beta0)

    J_history = []
    residuals = []
    status = "max_iters"
    grow_streak = 0
    for _ in range(max_iters):
        state = solve_state(vsc, beta)
        adj = solve_adjoint(vsc, state)
        J_history.append(evaluate_cost(state, vsc.cost))
        target = fixed_point_update(state, adj, vsc).values
        beta_next = (1.0 - omega) * beta + omega * target
        # with phi_l == phi_m the blend can round one ulp off the box; the
        # clip is in place, and an identity at omega = 1
        np.clip(beta_next, vsc.phi_l_grid, vsc.phi_m_grid, out=beta_next)
        resid = float(np.max(np.abs(beta_next - beta)))
        residuals.append(resid)
        beta = beta_next
        if resid < tol:
            status = "converged"
            break
        if len(residuals) > 1 and resid > residuals[-2]:
            grow_streak += 1
            if grow_streak >= 10:
                status = "diverged"
                break
        else:
            grow_streak = 0
    # only beta carries over; the last iterate would stay alive through the
    # diagnostics (max_iters >= 1 is a validated invariant, so these are bound)
    del state, adj, target

    diagnostics = None
    if compute_diagnostics:
        rng = np.random.default_rng(vsc.tolerances.seed)
        samples = [vsc.phi_l_grid, vsc.phi_m_grid, beta]
        for _ in range(N_RANDOM_SAMPLES):
            u = rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
            samples.append(vsc.phi_l_grid + u * (vsc.phi_m_grid - vsc.phi_l_grid))
        try:
            diagnostics = contraction_diagnostics(vsc, samples)
        except ValueError:
            diagnostics = None  # degenerate box: every sample identical

    return OptimizationReport(
        beta_opt=Field(grid, ("size", "time", "space"), beta),
        J_history=np.asarray(J_history),
        update_residuals=np.asarray(residuals),
        contraction=diagnostics,
        status=status,
        iterations=len(residuals),
    )


def contraction_diagnostics(vsc: ValidatedScenario, beta_samples) -> ContractionDiagnostics:
    """Estimate the contraction constants from sample controls.

    M3/M4 are the largest |p| and |phi| over the samples; M1/M2 are the
    largest sup-norm difference quotients of the state and the adjoint trace
    over sample pairs.  Pairs of identical controls are skipped; at least
    one distinct pair is required.
    """
    if len(beta_samples) < 2:
        raise ValueError("need at least two control samples")
    grid = vsc.grid
    arrs = [control_array(grid, b) for b in beta_samples]
    states = []
    traces = []
    m3 = 0.0
    m4 = 0.0
    for b in arrs:
        state = solve_state(vsc, b)
        adj = solve_adjoint(vsc, state)
        states.append(state.p.values)
        traces.append(adj.phi_at_zero.values)
        m3 = max(m3, float(np.max(np.abs(state.p.values))))
        m4 = max(m4, float(np.max(np.abs(adj.phi.values))))
    m1 = 0.0
    m2 = 0.0
    any_distinct = False
    for a in range(len(arrs)):
        for b in range(a + 1, len(arrs)):
            db = float(np.max(np.abs(arrs[a] - arrs[b])))
            if db == 0.0:
                continue
            any_distinct = True
            m1 = max(m1, float(np.max(np.abs(states[a] - states[b]))) / db)
            m2 = max(m2, float(np.max(np.abs(traces[a] - traces[b]))) / db)
    if not any_distinct:
        raise ValueError("need distinct samples")
    ratio = (m1 * m4 + m2 * m3) / (vsc.cost.c * vsc.cost.rho)
    return ContractionDiagnostics(M1=m1, M2=m2, M3=m3, M4=m4,
                                  ratio=ratio, contraction_ok=ratio < 1.0)
