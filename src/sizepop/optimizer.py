"""Cost evaluation, projected optimality update, and the fixed-point sweep.

The optimal fertility control solves a projected stationarity condition:
beta = F(sign * r * p * phi0 / (c * rho)) with F the pointwise clip onto the
control box, p the state, phi0 the adjoint trace at the newborn boundary,
and sign = -1 for the cost variant that subtracts the quadratic control term
(+1 for the variant that adds it).  The sweep repeats a relaxed projected
update until the control stops moving in the sup norm.  One iteration runs
adjoint first: the cost is linear in p, so the adjoint reads only the
control, and its march keeps just the trace phi0, shape (Nt+1, Nx).  The
state march follows; at each time level it adds that level's share of J
and forms, clips and relaxes the level's update into the next control.  No
full state, adjoint or update field is held, only the control and its
successor.  The cost of a batch of controls is summed the same way, level
share by level share as the batch marches, so every J is one reduction in
one order.  Convergence is guaranteed when the reported contraction ratio
(M1*M4 + M2*M3)/(c*rho) is below one; the diagnostics estimate the four
constants empirically from sample controls, marched as one batch forward
and one backward that keep running maxima.  Every march reads the
scenario's StepContext, built once per validated scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointSolution, march_adjoint
from .forward import StateSolution, level_slice, march_states
from .model import CostParams, Field, ValidatedScenario, control_array

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


def _level_cost(w_j: np.ndarray, p_j: np.ndarray, beta_j: np.ndarray,
                cost: CostParams) -> np.ndarray:
    """Level j's share of J: the sum of w_j * (p_j -/+ rho/2 * beta_j^2) over
    the last two axes (size, space), one value per leading index.  Every J
    is the sum of these shares over j = 0, ..., Nt, in that order."""
    return (w_j * (p_j + cost.control_sign * 0.5 * cost.rho * beta_j**2)).sum(axis=(-2, -1))


def evaluate_costs(vsc: ValidatedScenario, betas) -> np.ndarray:
    """J of each of K controls, given as an array of shape (K, Ns, Nt+1, Nx).

    The controls march as one batch and each level is reduced to its share
    of J as it is reached, so no state is stored.  Aborts on the first
    non-finite value, naming the batch member when K > 1.
    """
    grid = vsc.grid
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 4 or betas.shape[1:] != (grid.Ns, grid.Nt + 1, grid.Nx):
        raise ValueError(f"control batch shape {betas.shape} != "
                         f"(K, {grid.Ns}, {grid.Nt + 1}, {grid.Nx})")
    w = grid.volume_weights()
    J = np.zeros(len(betas))
    for j, p_j, _b_j in march_states(vsc, betas):
        J += _level_cost(w[j], p_j, level_slice(betas, j), vsc.cost)
        del p_j
    return J


def gradient_field(vsc: ValidatedScenario, beta, state: StateSolution,
                   adjoint: AdjointSolution) -> Field:
    """Pointwise derivative density of the cost with respect to the control
    `beta`, from the state and adjoint solved at that same control.

    g = -/+ rho*beta - r*p*phi0/c (sign by cost variant).  Pairing g with a
    direction under the volume quadrature reproduces the derivative of the
    discrete cost exactly, because phi0 comes from the transposed scheme.
    """
    cost = vsc.cost
    g = (cost.control_sign * cost.rho * control_array(vsc.grid, beta)
         - vsc.r_grid * state.p.values * adjoint.phi_at_zero.values[None, :, :] / cost.c)
    return Field(vsc.grid, ("size", "time", "space"), g)


def _update_target(vsc: ValidatedScenario, p: np.ndarray, phi0: np.ndarray,
                   at=np.s_[...]) -> np.ndarray:
    """Projected stationarity map F(sign * r * p * phi0 / (c * rho)) on the
    cells `at` selects from the control grid: the whole grid, with phi0 of
    shape (1, Nt+1, Nx), or level j, at = np.s_[:, j, :], with the level's
    density slice and phi0[j].

    Only the product c*rho enters; the stationary value is where the
    gradient density vanishes, clipped onto the control box.
    """
    cost = vsc.cost
    h = cost.control_sign * vsc.r_grid[at] * p * phi0 / (cost.c * cost.rho)
    return np.clip(h, vsc.phi_l_grid[at], vsc.phi_m_grid[at])


def _distinct_values(view: np.ndarray) -> np.ndarray:
    """A broadcast view cut to length 1 along each axis of stride 0."""
    return view[tuple(slice(None, 1) if step == 0 else slice(None) for step in view.strides)]


def optimize(vsc: ValidatedScenario, beta0=None) -> OptimizationReport:
    """Adjoint-first sweep with relaxed projected updates.

    Iterates beta <- (1-omega)*beta + omega*F(update), clipped onto the box
    against rounding, from beta0 (default: the middle of the control box),
    stopping when the sup-norm update falls below the configured
    tolerance.  Each iteration marches the adjoint and keeps its trace,
    then marches the state and updates the control level by level.  Ten
    consecutive residual increases are reported as divergence.  The report
    carries the cost history and the update residuals; its contraction
    diagnostics are None, and diagnose_contraction computes them at the
    optimum.
    """
    grid = vsc.grid
    tol = vsc.tolerances.fixed_point_tol
    omega = vsc.tolerances.relax_omega
    max_iters = vsc.tolerances.max_iters
    w = grid.volume_weights()

    if beta0 is None:
        beta = 0.5 * (vsc.phi_l_grid + vsc.phi_m_grid)
    else:
        beta = control_array(grid, beta0)

    J_history = []
    residuals = []
    status = "max_iters"
    grow_streak = 0
    phi0 = np.empty((grid.Nt + 1, grid.Nx))
    level_resid = np.empty(grid.Nt + 1)
    for _ in range(max_iters):
        for j, phi_j, phi0_j in march_adjoint(vsc, beta):
            phi0[j] = phi0_j
            del phi_j
        beta_next = np.empty_like(beta)
        J = 0.0
        for j, p_j, _b_j in march_states(vsc, beta):
            at = np.s_[:, j, :]
            J += float(_level_cost(w[j], p_j, beta[at], vsc.cost))
            level = (1.0 - omega) * beta[at] + omega * _update_target(vsc, p_j, phi0[j], at)
            # with phi_l == phi_m the blend can round one ulp off the box; the
            # clip is an identity at omega = 1
            np.clip(level, vsc.phi_l_grid[at], vsc.phi_m_grid[at], out=level)
            level_resid[j] = np.max(np.abs(level - beta[at]))
            beta_next[at] = level
            del p_j
        J_history.append(J)
        resid = float(level_resid.max())
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

    beta_opt = Field(grid, ("size", "time", "space"), beta)
    return OptimizationReport(
        beta_opt=beta_opt,
        J_history=np.asarray(J_history),
        update_residuals=np.asarray(residuals),
        contraction=None,
        status=status,
        iterations=len(residuals),
    )


def diagnose_contraction(vsc: ValidatedScenario, beta_opt) -> ContractionDiagnostics | None:
    """The contraction diagnostics optimize reports: contraction_diagnostics
    sampled at the box corners, the optimum `beta_opt` and N_RANDOM_SAMPLES
    controls drawn from the scenario's seed; None for a degenerate box,
    where every sample is the same control.
    """
    grid = vsc.grid
    rng = np.random.default_rng(vsc.tolerances.seed)
    shape = (grid.Ns, grid.Nt + 1, grid.Nx)
    lo, hi = _distinct_values(vsc.phi_l_grid), _distinct_values(vsc.phi_m_grid)
    samples = [vsc.phi_l_grid, vsc.phi_m_grid, beta_opt]
    for _ in range(N_RANDOM_SAMPLES):
        # lo + u*(hi - lo), built in the draw itself: no draw outlives
        # its sample, and the bounds' broadcast views make no full grid
        u = rng.random(shape)
        u *= hi - lo
        u += lo
        samples.append(u)
    try:
        return contraction_diagnostics(vsc, samples)
    except ValueError:
        return None  # degenerate box: every sample identical


def contraction_diagnostics(vsc: ValidatedScenario, beta_samples) -> ContractionDiagnostics:
    """Estimate the contraction constants from sample controls.

    M3/M4 are the largest |p| and |phi| over the samples; M1/M2 are the
    largest sup-norm difference quotients of the state and the adjoint trace
    over sample pairs.  Pairs of identical controls are skipped; at least
    one distinct pair is required.  The samples march as one batch forward
    and one backward, which keep running maxima per level and the adjoint
    traces, never a whole state or adjoint field.
    """
    if len(beta_samples) < 2:
        raise ValueError("need at least two control samples")
    grid = vsc.grid
    arrs = [control_array(grid, b) for b in beta_samples]
    first, second = np.triu_indices(len(arrs), 1)
    d_beta = np.zeros(len(first))
    d_p = np.zeros(len(first))
    m3 = 0.0
    for j, p_j, _b_j in march_states(vsc, arrs):
        beta_j = level_slice(arrs, j)
        d_beta = np.maximum(d_beta, np.abs(beta_j[first] - beta_j[second]).max(axis=(-2, -1)))
        d_p = np.maximum(d_p, np.abs(p_j[first] - p_j[second]).max(axis=(-2, -1)))
        m3 = max(m3, float(np.max(np.abs(p_j))))
        del p_j, beta_j
    traces = np.empty((len(arrs), grid.Nt + 1, grid.Nx))
    m4 = 0.0
    for j, phi_j, phi0_j in march_adjoint(vsc, arrs):
        traces[:, j] = phi0_j
        m4 = max(m4, float(np.max(np.abs(phi_j))))
        del phi_j
    d_trace = np.abs(traces[first] - traces[second]).max(axis=(-2, -1))
    distinct = d_beta != 0.0
    if not distinct.any():
        raise ValueError("need distinct samples")
    m1 = max(0.0, float((d_p[distinct] / d_beta[distinct]).max()))
    m2 = max(0.0, float((d_trace[distinct] / d_beta[distinct]).max()))
    ratio = (m1 * m4 + m2 * m3) / (vsc.cost.c * vsc.cost.rho)
    return ContractionDiagnostics(M1=m1, M2=m2, M3=m3, M4=m4,
                                  ratio=ratio, contraction_ok=ratio < 1.0)
