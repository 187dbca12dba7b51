"""Adjoint and sensitivity systems for the forward scheme.

The adjoint is the exact transpose of the discrete forward step, marched
backward from a zero terminal condition with the running cost source, rather
than a separate discretization of a continuous dual system.  Both directions
use the scenario's one StepContext, built once per validated scenario and
read from `vsc.step_context`: the adjoint step applies the transposed
diffusion solve, the reaction factor and T_j.T, and the sensitivity march
advances through the same primitive as the state march.  march_adjoint
hands over one time level at a time and reads only the control, because
the cost is linear in the state; solve_adjoint stores every level.  Neither
solve_adjoint nor solve_sensitivity takes a control: both use `state.beta`,
the control the state was solved with.  That choice buys two
machine-precision identities the optimizer relies on:

  * one-step duality  <forward_step(u), v> = <u, adjoint_step(v)>,
  * the pairing  -c * integral(z) = integral(delta * r * p * phi0)
    between the sensitivity z in a control direction delta and the adjoint
    trace phi0 at the newborn boundary,

and consequently exact gradients of the discrete objective.

Conventions: the adjoint source is the negative constant -c (configurable),
so phi <= 0 for nonnegative data and the projected optimality update
beta = F(-r p phi0 / (c rho)) holds with the signs written out in the
optimizer.  phi is the per-cell state sensitivity in density units; it is
consistent with the continuous dual field away from the newborn boundary,
while in the bottom size cell it keeps the boundary-blend dilution of the
transport stencil (that is the true sensitivity of the scheme).  phi0 is
the multiplier on the newborn boundary value rescaled to the same units and
converges to the boundary trace of the dual field; everything the optimizer
consumes goes through phi0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import StateSolution, _check_level, level_slice
from .model import Field, ValidatedScenario, control_array


@dataclass(frozen=True)
class AdjointSolution:
    """Adjoint field phi (zero at t = T) and its newborn-boundary trace."""

    phi: Field
    phi_at_zero: Field


def _check_state_match(vsc: ValidatedScenario, state: StateSolution) -> None:
    if state.p.grid != vsc.grid:
        raise ValueError("state was solved on a different grid")


def march_adjoint(vsc: ValidatedScenario, betas):
    """Backward march of the transposed one-step operator, handing over each
    time level.

    The running source is the derivative of the population term of the cost
    with respect to the density (one per unit (s,t,x) volume), accumulated
    with the same quadrature weights the cost uses; the final time level
    carries zero weight, so phi(., T, .) = 0 exactly.  In growth cases with
    a size exit (a/c) the transpose never propagates information from beyond
    s_f, which realizes the zero boundary value there structurally.  The
    state never enters: the cost is linear in p, so the adjoint depends on
    the control alone.

    `betas` is a control of shape (..., Ns, Nt+1, Nx), or a list of K
    controls that march as a batch, as in forward.march_states.  Yields
    (j, phi_j, phi0_j) for j = Nt, ..., 0: the adjoint slice, shape
    (..., Ns, Nx), and its newborn-boundary trace, shape (..., Nx), which is
    zero in cases without a renewal boundary.  A non-finite value in either
    aborts the march.
    """
    ctx = vsc.step_context
    grid = vsc.grid
    c = vsc.cost.c
    wx = grid.space_weights() * grid.dx
    source = grid.ds * grid.dt * wx[None, :] * np.ones((grid.Ns, 1))
    cell_volume = grid.ds * wx[None, :]
    lead = level_slice(betas, grid.Nt).shape[:-2]
    lam = np.zeros(lead + (grid.Ns, grid.Nx))
    yield grid.Nt, np.zeros_like(lam), np.zeros(lead + (grid.Nx,))
    for j in range(grid.Nt - 1, -1, -1):
        lam, yhat = ctx.apply_step_adjoint(j, level_slice(betas, j), lam)
        lam = lam + source
        phi_j = -c * lam / cell_volume
        _check_level(phi_j, "adjoint", j)
        if ctx.has_renewal:
            phi0_j = -c * yhat / (vsc.gamma0_t[j] * grid.dt * wx)
            _check_level(phi0_j, "adjoint trace", j, axes=("k",))
        else:
            phi0_j = np.zeros(lead + (grid.Nx,))
        yield j, phi_j, phi0_j


def solve_adjoint(vsc: ValidatedScenario, state: StateSolution) -> AdjointSolution:
    """The adjoint field and its trace at the control the state was solved
    with, storing every level of march_adjoint."""
    _check_state_match(vsc, state)
    grid = vsc.grid
    # the march builds the step context on first use; building it before the
    # output exists keeps the build's peak and the output apart
    vsc.step_context
    phi = np.empty((grid.Ns, grid.Nt + 1, grid.Nx))
    phi0 = np.empty((grid.Nt + 1, grid.Nx))
    for j, phi_j, phi0_j in march_adjoint(vsc, state.beta):
        phi[:, j, :] = phi_j
        phi0[j] = phi0_j
    return AdjointSolution(
        phi=Field(grid, ("size", "time", "space"), phi),
        phi_at_zero=Field(grid, ("time", "space"), phi0),
    )


def solve_sensitivity(vsc: ValidatedScenario, state: StateSolution, delta) -> Field:
    """Forward march of the linearized system in the direction delta.

    Same transport, reaction and diffusion as the state solve, zero initial
    data, and the newborn boundary picks up the extra birth term
    integral(r * delta * p) ds / gamma(0,t) alongside the usual
    integral(r * beta * z).  In growth cases without a renewal boundary the
    control cannot influence the state and z stays identically zero.
    Returns z; the control is the one the state was solved with.
    """
    _check_state_match(vsc, state)
    ctx = vsc.step_context
    grid = vsc.grid
    delta_arr = control_array(grid, delta)

    p = state.p.values
    z = np.zeros((grid.Ns, grid.Nt + 1, grid.Nx))
    for j in range(grid.Nt):
        b = (ctx.births(j, state.beta[:, j, :], z[:, j, :])
             + ctx.births(j, delta_arr[:, j, :], p[:, j, :]))
        z[:, j + 1, :] = ctx._advance(j, z[:, j, :], b)
    out = Field(grid, ("size", "time", "space"), z)
    out.check_finite()
    return out


def duality_residual(vsc: ValidatedScenario, state: StateSolution,
                     adjoint: AdjointSolution, delta) -> float:
    """Relative defect of the sensitivity/adjoint pairing.

    Compares -c * integral(z) against integral(delta * r * p * phi0) under
    the discrete volume quadrature; with the transposed adjoint both sides
    agree to rounding error.
    """
    grid = vsc.grid
    delta_arr = control_array(grid, delta)
    z = solve_sensitivity(vsc, state, delta_arr).values
    w = grid.volume_weights()
    lhs = -vsc.cost.c * float((w * z).sum())
    rhs = float((w * delta_arr * vsc.r_grid * state.p.values
                 * adjoint.phi_at_zero.values[None, :, :]).sum())
    return abs(lhs - rhs) / max(1.0, abs(rhs))

