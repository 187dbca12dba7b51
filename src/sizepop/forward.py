"""Forward time marching of the size-structured density with diffusion.

Each step from t_j to t_{j+1} is an affine map built from four parts that
StepContext precomputes once per validated scenario (on first use of
`vsc.step_context`, which caches it; no solver takes it as an argument):

  1. a renewal row: the newborn boundary value b from the birth integral
     (midpoint rule in size), the only place the control enters,
  2. a sparse transport matrix T_j of shape Ns x (Ns+1) acting on the
     stacked slice [u; b]: semi-Lagrangian interpolation at the
     characteristic feet, scaled by the decay factor from the size
     divergence of the growth rate; column Ns carries the newborn boundary
     value,
  3. a reaction that is exact in mortality: multiply by E_j = exp(-mu*dt),
     add the feed f*dt,
  4. one backward-Euler diffusion step in space per size cell, with a
     second-order Neumann ghost-point closure, solved by LAPACK dgtsv on the
     three bands.

StepContext builds the parts of every step at once.  One characteristic
trace takes all cells of all steps back over their step, on the RK4 substep
nodes of shape (RK4_SUBSTEPS+1, Nt, Ns); the feet, the step midpoints and
the trapezoid decay factors follow as whole arrays, and masks over (Nt, Ns)
sort the cells into the stencil cases: interpolation between two cells, a
blend of the newborn value with the first cell, constant extrapolation of
the first cell (growth cases c/d), or a cell whose characteristic entered
through s = 0 during the step.  The crossing times of the entering cells
are bisected in lockstep, and one more trace over their own substep nodes
gives their decay factors.  The reaction rates are evaluated once per step
at the midpoints, which keeps the temporaries at (Ns, Nx).  Each cell's
arithmetic is that of a per-cell build, so the arrays are bit-identical to
one.

The linearized step, the sensitivity march and the state march all apply
these parts through one primitive; the adjoint applies T_j.T and solves with
the transposed bands, so it is the exact transpose of the linear step by
construction.

The step primitives accept a leading control axis: slices of shape
(K, Ns, Nx) with controls of shape (K, Ns, Nt+1, Nx) march K controls at
once, because the control enters only the renewal row.  T_j multiplies the
stacked [u; b] seen as an (Ns+1, K*Nx) matrix and one dgtsv call solves all
K*Ns diffusion systems.  Every member's arithmetic is the same operation for
operation as a single march, so results are bit-identical to K separate
solves; a slice without the leading axis is the same code with no batch
dimension.  solve_states marches a batch and solve_state is its K = 1 case.

The brute-force oracle and the gradient check march their controls as
batches.  The adjoint march, the contraction diagnostics (one state and one
adjoint per sample) and the two-start uniqueness check (two separate
optimizations) stay at one control per call: a batched adjoint would hold
one phi field per member at once, 13 MB each at 160x160x64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.sparse import csr_array

from .characteristics import RK4_SUBSTEPS, _bisect, _rk4_leg, trace_curve
from .model import Field, Grid3, NumericalError, ValidatedScenario, control_array
from .rates import RateField


def _neumann_bands(nx: int, dx: float, k: float,
                   dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, diag, sup) bands of I - k*dt*Lxx with ghost-point Neumann closure.

    The closure doubles the off-diagonal entries in the boundary rows, which
    makes the trapezoid node weights a left null vector of Lxx: spatial mass
    is conserved exactly per implicit step.
    """
    a = k * dt / dx**2
    diag = np.full(nx, 1.0 + 2.0 * a)
    sub = np.full(nx - 1, -a)
    sup = np.full(nx - 1, -a)
    sub[-1] = -2.0 * a
    sup[0] = -2.0 * a
    return sub, diag, sup


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs along the last (space) axis for every leading index.

    One dgtsv call takes all rows as right-hand sides; without pivoting it
    performs the Thomas elimination.  On the diffusion bands it pivots only
    in the last row, and only when k*dt/dx^2 exceeds 1.37 (Nx = 3) to 2
    (large Nx).  Swapping `sub` and `sup` solves with A^T.
    """
    _, _, _, x, info = dgtsv(sub, diag, sup, rhs.reshape(-1, rhs.shape[-1]).T)
    if info != 0:
        raise NumericalError(f"tridiagonal diffusion solve failed (dgtsv info={info})")
    return x.T.reshape(rhs.shape)


def _divergence_integral(gamma: RateField, grid: Grid3, svals: np.ndarray,
                         node_t: np.ndarray) -> np.ndarray:
    """Trapezoid integral of d(gamma)/ds over the leading (node) axis of
    traced curve values `svals` at the node times `node_t`, which broadcast
    against them.  Nodes outside [0, s_f] contribute zero: the extended rate
    no longer varies with size there."""
    in_domain = (svals >= 0.0) & (svals <= grid.s_f)
    dsg = np.zeros_like(svals)
    if in_domain.any():
        dsg[in_domain] = gamma.ds(
            s=svals[in_domain], t=np.broadcast_to(node_t, svals.shape)[in_domain])
    return np.trapezoid(dsg, node_t, axis=0)


def _entering_cells(gamma: RateField, grid: Grid3, jj: np.ndarray,
                    ii: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cells (j, i) whose characteristic entered through s = 0 during step j.

    Such a cell takes only the newborn boundary value, scaled by the decay
    factor over [t_c, t_{j+1}], and its reaction acts over that interval,
    evaluated at its midpoint.  The crossing times t_c of all the cells, over
    all steps, are bisected in lockstep on the backward RK4 leg from
    t_{j+1}; one backward trace over each cell's RK4 substep nodes of
    [t_c, t_{j+1}] then gives the decay factors.  Returns t_c, the decay
    factors and the midpoints (t, s).
    """
    t_hi = grid.t_points[jj + 1]
    s = grid.s_centers[ii]
    t_c = _bisect(lambda idx, eta: _rk4_leg(gamma, grid, t_hi[idx], s[idx], eta),
                  grid.t_points[jj], t_hi)
    node_t = t_c + (t_hi - t_c) * np.arange(RK4_SUBSTEPS + 1)[:, None] / RK4_SUBSTEPS
    svals = trace_curve(gamma, grid, node_t[-1], s, node_t[::-1])[::-1]
    # math.exp, not np.exp: numpy's vectorized exp differs in the last bit on some cells
    q = np.array([math.exp(-v) for v in _divergence_integral(gamma, grid, svals, node_t)])
    t_mid = 0.5 * (t_c + t_hi)
    s_mid = np.clip(_rk4_leg(gamma, grid, t_hi, s, t_mid), 0.0, grid.s_f)
    return t_c, q, t_mid, s_mid


class StepContext:
    """Precomputed stepping machinery for one validated scenario; the
    solvers read it from `vsc.step_context`, which builds it once.

    `transport[j]` is the CSR matrix T_j (Ns x (Ns+1)); every row holds three
    entries in a fixed order, the two interpolation weights at the
    characteristic foot (premultiplied by the decay factor) and the
    coefficient on the newborn boundary value in column Ns.  `E[j]` and
    `Fsrc[j]` are the reaction factor and feed over the effective reaction
    interval, and `bands` the (sub, diag, sup) diffusion bands.

    The step methods take a slice `u` of shape (..., Ns, Nx) and a control
    of shape (..., Ns, Nt+1, Nx) with the same leading axes, normally one
    control axis K; newborn values then have shape (..., Nx).
    """

    def __init__(self, vsc: ValidatedScenario):
        # only the arrays the step methods read: holding `vsc` itself would
        # make a reference cycle with the scenario that caches this context
        grid = vsc.grid
        self.ds = grid.ds
        self.r_grid = vsc.r_grid
        self.gamma0_t = vsc.gamma0_t
        self.C_grid = vsc.C_grid
        gamma = vsc.rates.gamma
        self.has_renewal = vsc.growth_case.has_renewal
        ns, nt, nx = grid.Ns, grid.Nt, grid.Nx
        ds, dt = grid.ds, grid.dt
        s = grid.s_centers
        t0, t1 = grid.t_points[:-1], grid.t_points[1:]

        # one backward sweep over every cell of every step: curve values at
        # the RK4 substep nodes of each step, shape (RK4_SUBSTEPS+1, Nt, Ns),
        # give the feet, the step midpoints and the trapezoid quadrature for
        # the decay factor
        n_sub = RK4_SUBSTEPS
        node_t = (t1 + (t0 - t1) * np.arange(n_sub + 1)[:, None] / n_sub)[:, :, None]
        svals = trace_curve(gamma, grid, node_t[0], s, node_t)
        feet_raw = svals[-1]
        q = np.exp(_divergence_integral(gamma, grid, svals, node_t))  # node_t descends: sign flips

        # stencil cases over (Nt, Ns); cells entering through s = 0 during the
        # step are bisected below, the others interpolate at the clamped foot
        feet = np.clip(feet_raw, 0.0, grid.s_f)
        entering = (feet_raw < 0.0) & self.has_renewal
        interior = ~entering & (feet >= s[0])
        # below the first cell: blend the newborn boundary value with the
        # first cell, or in cases c/d, which have no boundary data,
        # extrapolate the first cell as a constant
        below = ~entering & ~interior
        blend = below & self.has_renewal
        extrapolate = below & (not self.has_renewal)

        lo_idx = np.zeros((nt, ns), dtype=int)
        lo_w = np.zeros((nt, ns))
        hi_w = np.zeros((nt, ns))
        bnode_w = np.zeros((nt, ns))
        i0 = np.minimum(((feet[interior] - s[0]) / ds).astype(int), ns - 2)
        theta = np.clip((feet[interior] - s[i0]) / ds, 0.0, 1.0)
        lo_idx[interior] = i0
        lo_w[interior] = q[interior] * (1.0 - theta)
        hi_w[interior] = q[interior] * theta
        theta = feet[blend] / s[0]
        lo_w[blend] = q[blend] * theta
        bnode_w[blend] = q[blend] * (1.0 - theta)
        lo_w[extrapolate] = q[extrapolate]
        hi_idx = np.where(interior, lo_idx + 1, 0)

        dt_eff = np.full((nt, ns), dt)
        t_mid = np.repeat(0.5 * (t0 + t1)[:, None], ns, axis=1)
        s_mid = np.clip(svals[n_sub // 2], 0.0, grid.s_f)
        if entering.any():
            jj, ii = np.nonzero(entering)
            t_c, bnode_w[jj, ii], t_mid[jj, ii], s_mid[jj, ii] = _entering_cells(
                gamma, grid, jj, ii)
            dt_eff[jj, ii] = t1[jj] - t_c

        indptr = np.arange(0, 3 * ns + 1, 3)
        cols = np.stack([lo_idx, hi_idx, np.full((nt, ns), ns)], axis=-1).reshape(nt, -1)
        vals = np.stack([lo_w, hi_w, bnode_w], axis=-1).reshape(nt, -1)
        self.transport = [csr_array((vals[j], cols[j], indptr), shape=(ns, ns + 1))
                          for j in range(nt)]
        # one rate evaluation per step: a single (Nt, Ns, Nx) one would hold
        # several temporaries of the full grid's size at once
        self.E = np.empty((nt, ns, nx))
        self.Fsrc = np.empty((nt, ns, nx))
        x = grid.x_points[None, :]
        for j in range(nt):
            mu_mid = vsc.rates.mu(s=s_mid[j, :, None], t=t_mid[j, :, None], x=x)
            f_mid = vsc.rates.f(s=s_mid[j, :, None], t=t_mid[j, :, None], x=x)
            self.E[j] = np.exp(-mu_mid * dt_eff[j, :, None])
            self.Fsrc[j] = f_mid * dt_eff[j, :, None]

        # T_j.T shares T_j's arrays, but building the transposed matrix object
        # costs more than the product itself on small grids: do it once
        self._transport_T = [t.T for t in self.transport]
        self.bands = _neumann_bands(nx, grid.dx, vsc.k, dt)

    # -- control-dependent pieces -------------------------------------------

    def renewal_weights(self, beta: np.ndarray, j: int) -> np.ndarray:
        """Coefficients of the birth integral at level j: r*beta*ds/gamma(0,t)."""
        return self.r_grid[:, j, :] * beta[..., j, :] * (self.ds / self.gamma0_t[j])

    def births(self, beta: np.ndarray, j: int, u: np.ndarray) -> np.ndarray:
        """Renewal row applied to a slice: the birth integral over size.

        Zero in growth cases c/d, which have no renewal boundary.
        """
        if not self.has_renewal:
            return np.zeros(u.shape[:-2] + u.shape[-1:])
        return (self.renewal_weights(beta, j) * u).sum(axis=-2)

    def newborn_value(self, beta: np.ndarray, j: int, p_slice: np.ndarray) -> np.ndarray:
        """Boundary density p(0, t_j, x) from immigration plus births."""
        if not self.has_renewal:
            return np.zeros(p_slice.shape[:-2] + p_slice.shape[-1:])
        return self.births(beta, j, p_slice) + self.C_grid[j] / self.gamma0_t[j]

    def _advance(self, j: int, u: np.ndarray, b: np.ndarray,
                 source: bool = False) -> np.ndarray:
        """Slice at level j+1 from slice `u` and newborn value `b` at level j:
        transport, reaction (with the feed when `source`) and diffusion."""
        ns, nx = u.shape[-2:]
        # [u; b] as (Ns+1, K*Nx): size first, then (control, space) in the columns
        x = np.concatenate((u, b[..., None, :]), axis=-2).reshape(-1, ns + 1, nx).swapaxes(0, 1)
        y = self.transport[j] @ x.reshape(ns + 1, -1)
        v = self.E[j] * y.reshape(ns, -1, nx).swapaxes(0, 1).reshape(u.shape)
        if source:
            v += self.Fsrc[j]
        return _solve_tridiagonal(*self.bands, v)

    def step(self, beta: np.ndarray, j: int, p_slice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full affine step: returns (p at level j+1, newborn value at level j)."""
        b = self.newborn_value(beta, j, p_slice)
        return self._advance(j, p_slice, b, source=True), b

    def apply_step_linear(self, beta: np.ndarray, j: int, u: np.ndarray) -> np.ndarray:
        """Linear part of the one-step map (immigration and feed dropped)."""
        return self._advance(j, u, self.births(beta, j, u))

    def apply_step_adjoint(self, beta: np.ndarray, j: int,
                           lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact transpose of apply_step_linear.

        Also returns the multiplier yhat(x) the step places on the newborn
        boundary value, which is the raw material for the adjoint trace at
        s = 0.
        """
        sub, diag, sup = self.bands
        m = self.E[j] * _solve_tridiagonal(sup, diag, sub, lam)
        w = self._transport_T[j] @ m
        out, yhat = w[:-1], w[-1]
        if self.has_renewal:
            out += self.renewal_weights(beta, j) * yhat[None, :]
        return out, yhat


@dataclass(frozen=True)
class StateSolution:
    """Density over the full grid plus the recorded newborn boundary trace.
    Keeps the control it was solved with, which the adjoint and sensitivity
    solves read."""

    p: Field
    newborn_density: Field
    beta: np.ndarray


def step_diffusion(p_tilde: Field, k: float, dt: float) -> Field:
    """One backward-Euler Neumann diffusion step per size cell."""
    if not k > 0:
        raise ValueError("diffusion coefficient must be positive")
    grid = p_tilde.grid
    bands = _neumann_bands(grid.Nx, grid.dx, k, dt)
    return Field(grid, p_tilde.axes, _solve_tridiagonal(*bands, p_tilde.values))


def total_population(p: Field) -> np.ndarray:
    """P(t): midpoint-in-size, trapezoid-in-space quadrature per time level."""
    grid = p.grid
    w = grid.space_weights() * grid.dx
    return (p.values * w[None, None, :]).sum(axis=(0, 2)) * grid.ds


def solve_states(vsc: ValidatedScenario, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """March K controls at once from the initial slice to the horizon.

    `betas` has shape (K, Ns, Nt+1, Nx).  Returns the densities, shape
    (K, Ns, Nt+1, Nx), and the newborn boundary traces, shape (K, Nt+1, Nx);
    for cases without a renewal boundary the trace is the constant
    extrapolation of the first size cell.  Aborts on the first non-finite
    value, naming the batch member when K > 1.
    """
    ctx = vsc.step_context
    grid = vsc.grid
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 4 or betas.shape[1:] != (grid.Ns, grid.Nt + 1, grid.Nx):
        raise ValueError(f"control batch shape {betas.shape} != "
                         f"(K, {grid.Ns}, {grid.Nt + 1}, {grid.Nx})")
    n = betas.shape[0]
    p = np.empty((n, grid.Ns, grid.Nt + 1, grid.Nx))
    newborn = np.empty((n, grid.Nt + 1, grid.Nx))
    p[:, :, 0, :] = vsc.p0_grid
    for j in range(grid.Nt):
        p_next, b = ctx.step(betas, j, p[:, :, j, :])
        if not np.isfinite(p_next).all():
            m, i, k = np.argwhere(~np.isfinite(p_next))[0]
            member = f" in batch member {m}" if n > 1 else ""
            raise NumericalError(f"non-finite density{member} at (i={i}, j={j + 1}, k={k})")
        newborn[:, j] = b if ctx.has_renewal else p[:, 0, j, :]
        p[:, :, j + 1, :] = p_next
    newborn[:, grid.Nt] = (
        ctx.newborn_value(betas, grid.Nt, p[:, :, grid.Nt, :])
        if ctx.has_renewal else p[:, 0, grid.Nt, :]
    )
    return p, newborn


def solve_state(vsc: ValidatedScenario, beta) -> StateSolution:
    """March the density from the initial slice to the horizon.

    The K = 1 case of solve_states.
    """
    grid = vsc.grid
    beta_arr = control_array(grid, beta)
    p, newborn = solve_states(vsc, beta_arr[None])
    beta_frozen = beta_arr.copy()
    beta_frozen.flags.writeable = False
    return StateSolution(
        p=Field(grid, ("size", "time", "space"), p[0]),
        newborn_density=Field(grid, ("time", "space"), newborn[0]),
        beta=beta_frozen,
    )
