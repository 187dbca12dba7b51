"""Adjoint and sensitivity systems for the forward scheme.

The adjoint is the exact transpose of the discrete forward step, marched
backward from a zero terminal condition with the running cost source, rather
than a separate discretization of a continuous dual system.  Both directions
use the scenario's one StepContext, built once per validated scenario and
read from `vsc.step_context`: the adjoint step applies the transposed
diffusion solve, the reaction factor and T_j.T, and forward.march_sensitivity
advances through the same primitive as the state march.  march_adjoint
hands over one time level at a time and reads only the control, because
the cost is linear in the state; solve_adjoint stores every level.  Every
solver takes the control itself, so one control drives the state, the
sensitivity and the adjoint marches alike, and that buys two
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

from .forward import _check_level, level_slice, march_sensitivity
from .model import Field, ValidatedScenario, control_array


@dataclass(frozen=True)
class AdjointSolution:
    """Adjoint field phi (zero at t = T) and its newborn-boundary trace."""

    phi: Field
    phi_at_zero: Field


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
    wx = grid.space_weights()
    cell_volume = grid.ds * wx
    # the weights of every level but the last, which is zero
    source = grid.volume_weights()[0]
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


def solve_adjoint(vsc: ValidatedScenario, beta) -> AdjointSolution:
    """The adjoint field and its trace at the control `beta`, storing every
    level of march_adjoint."""
    grid = vsc.grid
    beta_arr = control_array(grid, beta)
    # the march builds the step context on first use; building it before the
    # output exists keeps the build's peak and the output apart
    vsc.step_context
    phi = np.empty((grid.Ns, grid.Nt + 1, grid.Nx))
    phi0 = np.empty((grid.Nt + 1, grid.Nx))
    for j, phi_j, phi0_j in march_adjoint(vsc, beta_arr):
        phi[:, j, :] = phi_j
        phi0[j] = phi0_j
    return AdjointSolution(
        phi=Field(grid, ("size", "time", "space"), phi),
        phi_at_zero=Field(grid, ("time", "space"), phi0),
    )


def duality_residual(vsc: ValidatedScenario, beta, delta) -> float:
    """Relative defect of the sensitivity/adjoint pairing at the control
    `beta` in the direction `delta`.

    Compares -c * integral(z) against integral(delta * r * p * phi0) under
    the discrete volume quadrature; with the transposed adjoint both sides
    agree to rounding error.  The adjoint march keeps only its trace phi0,
    shape (Nt+1, Nx), and the sensitivity march adds each level's share to
    both sides, so no full field is held.
    """
    grid = vsc.grid
    beta_arr = control_array(grid, beta)
    delta_arr = control_array(grid, delta)
    phi0 = np.empty((grid.Nt + 1, grid.Nx))
    for j, phi_j, phi0_j in march_adjoint(vsc, beta_arr):
        phi0[j] = phi0_j
        del phi_j
    w = grid.volume_weights()
    z_sum = rhs = 0.0
    for j, p_j, z_j in march_sensitivity(vsc, beta_arr, delta_arr):
        z_sum += float((w[j] * z_j).sum())
        rhs += float((w[j] * delta_arr[:, j, :] * vsc.r_grid[:, j, :] * p_j * phi0[j]).sum())
    lhs = -vsc.cost.c * z_sum
    return abs(lhs - rhs) / max(1.0, abs(rhs))
