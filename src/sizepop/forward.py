"""Forward time marching of the size-structured density with diffusion.

Each step from t_j to t_{j+1} is an affine map built from four parts that
StepContext precomputes once per validated scenario (on first use of
`vsc.step_context`, which caches it; no solver takes it as an argument):

  1. a renewal row: the newborn boundary value b from the birth integral
     (midpoint rule in size), the only place the control enters,
  2. a sparse transport operator T_j of shape Ns x (Ns+1) acting on the
     stacked slice [u; b], stored as a three-entry stencil per row:
     semi-Lagrangian interpolation at the characteristic feet, scaled by the
     decay factor from the size divergence of the growth rate; column Ns
     carries the newborn boundary value,
  3. a reaction that is exact in mortality: multiply by E_j = exp(-mu*dt),
     add the feed f*dt; each is computed once per (step, size cell) when
     its rate has no space axis, and broadcast over x,
  4. one backward-Euler diffusion step in space per size cell, with a
     second-order Neumann ghost-point closure (DiffusionSolve).

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
these parts through one primitive; the adjoint applies T_j.T and the
transposed diffusion solve, so it is the exact transpose of the linear step
by construction.  The mass-budget oracle reads the transport through the
same two transport primitives.

Transport is numpy gathers.  The forward product gathers each row's three
stencil columns of [u; b], multiplies by the weights and sums over the
stencil from zero, in CSR's order: it equals a CSR matrix-vector product bit
for bit.  The transpose is a padded gather built once per context: for each
output cell, the rows whose stencil reads it, in row order (entries with a
zero weight dropped, which cannot change a sum that starts from +0), and the
newborn row is the weighted sum over all rows.

Diffusion depends on Nx, which the code observes.  Up to
DENSE_DIFFUSION_MAX_NX = 256 points the inverse of the diffusion matrix is
computed once and applied as one matrix product, v @ Ainv.T forward and
lam @ Ainv in the adjoint; both apply the same fixed matrix, so the adjoint
stays the exact transpose.  Above it a Thomas sweep runs on factors computed
once; it is LAPACK dgtsv's arithmetic wherever dgtsv does not pivot (which
holds for k*dt/dx^2 below about 2) and needs no LAPACK.  The limit is set
by reproducibility: on a 2-vCPU Haswell host with OpenBLAS 0.3.31, 256 is
the largest Nx at which the product gives the same bits at one and at two
BLAS threads (at 257, on 160 rows, they differ), so up to it a run does not
depend on the thread count.  Timings there, one thread, 160 rows: at
Nx = 256 the product costs 0.60 ms against dgtsv's 0.68 ms; at Nx = 512 the
sweep costs 2.9 ms against dgtsv's 1.2 ms.  The dense path's last bits
depend on the numpy and BLAS build, which the CLI manifest records.  The
inverse holds Nx^2 floats, at most 512 KB.

The step primitives take the control's level slice, shape (..., Ns, Nx),
never the whole control: the control enters only the renewal row, so a
step needs no other level of it.  A leading axis K marches K controls at
once.  The gathers keep the leading axes; numpy's matmul runs one
(Ns, Nx) x (Nx, Nx) product per member, and the Thomas sweep treats every
row alike.  Every member's arithmetic is the same operation for operation
as a single march, so results are bit-identical to K separate solves; a
slice without the leading axis is the same code with no batch dimension.

Every solver takes the control, never a stored state.  march_states
marches the state forward and hands over each time level as it is reached;
march_sensitivity steps the sensitivity in a control direction in lockstep
with it, and adjoint.march_adjoint marches the transpose backward.  A caller
that needs the whole field stores the levels (solve_state, solve_adjoint);
the optimizer's sweep, its cost of a batch of controls, its contraction
diagnostics and the duality residual keep only what they reduce each level
to, so they hold no full state, sensitivity or adjoint field.  A batch given
as separate controls is stacked one level slice per step, never as a
(K, Ns, Nt+1, Nx) copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


DENSE_DIFFUSION_MAX_NX = 256


def _thomas_factors(sub: np.ndarray, diag: np.ndarray,
                    sup: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """Multipliers and pivots of the tridiagonal elimination without
    pivoting, as dgtsv forms them: fact_i = sub_i / d_i,
    d_{i+1} = diag_{i+1} - fact_i * sup_i."""
    sub, sup = [float(v) for v in sub], [float(v) for v in sup]
    fact, piv = [], [float(diag[0])]
    for i in range(len(diag) - 1):
        if piv[i] == 0.0:
            break
        fact.append(sub[i] / piv[i])
        piv.append(float(diag[i + 1]) - fact[i] * sup[i])
    if piv[-1] == 0.0:
        raise NumericalError(
            f"singular diffusion matrix (zero pivot in row {len(piv)} of {len(diag)})")
    return fact, piv, sup


def _thomas_solve(fact: list[float], piv: list[float], sup: list[float],
                  rhs: np.ndarray) -> np.ndarray:
    """Forward elimination and back substitution along the last axis, one
    row of the system at a time over every right-hand side.  dgtsv's back
    substitution also subtracts a zero multiple of the value two rows on,
    which can only turn an exact -0 into +0; the sweep leaves that out."""
    n = len(piv)
    y = rhs.reshape(-1, n).T.copy()
    for i in range(1, n):
        y[i] -= fact[i - 1] * y[i - 1]
    y[-1] /= piv[-1]
    for i in range(n - 2, -1, -1):
        y[i] -= sup[i] * y[i + 1]
        y[i] /= piv[i]
    return y.T.reshape(rhs.shape)


class DiffusionSolve:
    """Solves A x = rhs, or A^T x = rhs, along the last (space) axis for
    every leading index, where A is the tridiagonal matrix of the bands
    (sub, diag, sup).

    Up to DENSE_DIFFUSION_MAX_NX points it applies the inverse, computed
    once; above it runs the Thomas sweep on factors computed once (see the
    module docstring for the limit).  A singular matrix raises
    NumericalError.

    The inverse decays geometrically away from the diagonal, and for a
    small k*dt/dx^2 its far entries underflow to subnormal numbers, which
    make the product about five times slower (2.7 against 0.51 ms on 160
    rows at k*dt/dx^2 = 0.0256, Nx = 256).
    Entries below sqrt(tiny), about 1.5e-154, are therefore set to zero:
    then no product with a value above sqrt(tiny) is subnormal, and a
    dropped entry can move a result only if the data span more than 138
    decades.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        self._inv = None
        if len(diag) <= DENSE_DIFFUSION_MAX_NX:
            a = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            try:
                self._inv = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular diffusion matrix ({exc})") from None
            self._inv[np.abs(self._inv) < math.sqrt(np.finfo(float).tiny)] = 0.0
        else:
            self._factors = _thomas_factors(sub, diag, sup)
            self._factors_T = _thomas_factors(sup, diag, sub)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._inv is not None:
            return rhs @ self._inv.T
        return _thomas_solve(*self._factors, rhs)

    def solve_T(self, rhs: np.ndarray) -> np.ndarray:
        if self._inv is not None:
            return rhs @ self._inv
        return _thomas_solve(*self._factors_T, rhs)


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


def _transposed_gather(lo_idx: np.ndarray, hi_idx: np.ndarray, lo_w: np.ndarray,
                       hi_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded gather of T_j.T over the cells, shape (Nt, D, Ns) each.

    Entry [j, d, c] holds the row and weight of the d-th stencil entry that
    reads cell c in step j, in row order and within a row lower cell first;
    D is the most entries any cell has, and the padding has weight zero.
    Entries with a zero weight are left out: adding +-0 to a sum that starts
    from +0 changes no bit of it.
    """
    nt, ns = lo_idx.shape
    cols = np.stack([lo_idx, hi_idx], axis=-1).reshape(nt, -1)
    weights = np.stack([lo_w, hi_w], axis=-1).reshape(nt, -1)
    jj, e = np.nonzero(weights)
    c = cols[jj, e]
    order = np.lexsort((e, c, jj))
    jj, e, c = jj[order], e[order], c[order]
    # rank of each entry among those of its (step, cell), in that order
    _, first, count = np.unique(jj * ns + c, return_index=True, return_counts=True)
    rank = np.arange(len(c)) - np.repeat(first, count)
    depth = int(rank.max()) + 1 if len(rank) else 0
    rows_T = np.zeros((nt, depth, ns), dtype=np.intp)
    weights_T = np.zeros((nt, depth, ns))
    rows_T[jj, rank, c] = e // 2
    weights_T[jj, rank, c] = weights[jj, e]
    return rows_T, weights_T


class StepContext:
    """Precomputed stepping machinery for one validated scenario; the
    solvers read it from `vsc.step_context`, which builds it once.

    `stencil_cols[j]` and `stencil_weights[j]`, shape (Ns, 3), hold the
    transport operator T_j (Ns x (Ns+1)): every row has three entries in a
    fixed order, the two interpolation weights at the characteristic foot
    (premultiplied by the decay factor) on cells below Ns, and the
    coefficient on the newborn boundary value in column Ns.  `E[j]` and
    `Fsrc[j]` are the reaction factor and feed over the effective reaction
    interval; both are read-only views of shape (Nt, Ns, Nx), with stride 0
    in space when mortality, or the feed, has no space axis.  `diffusion`
    solves with the diffusion matrix.

    The step methods take a level j, the control's level slice `beta_j` and
    a slice `u`, both of shape (..., Ns, Nx) with the same leading axes,
    normally one control axis K; newborn values then have shape (..., Nx).
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

        self.stencil_cols = np.stack([lo_idx, hi_idx, np.full((nt, ns), ns)], axis=-1)
        self.stencil_weights = np.stack([lo_w, hi_w, bnode_w], axis=-1)
        self._rows_T, self._weights_T = _transposed_gather(lo_idx, hi_idx, lo_w, hi_w)
        # one rate evaluation per step: a single (Nt, Ns, Nx) one would hold
        # several temporaries of the full grid's size at once.  A rate
        # without a space axis is evaluated at one x and broadcast.
        mu, f = vsc.rates.mu, vsc.rates.f
        x_mu, x_f = (grid.x_points[None, :] if "space" in rate.axes else grid.x_points[None, :1]
                     for rate in (mu, f))
        E = np.empty((nt, ns, x_mu.shape[1]))
        Fsrc = np.empty((nt, ns, x_f.shape[1]))
        for j in range(nt):
            s_j, t_j, dt_j = s_mid[j, :, None], t_mid[j, :, None], dt_eff[j, :, None]
            E[j] = np.exp(-mu(s=s_j, t=t_j, x=x_mu) * dt_j)
            Fsrc[j] = f(s=s_j, t=t_j, x=x_f) * dt_j
        self.E = np.broadcast_to(E, (nt, ns, nx))
        self.Fsrc = np.broadcast_to(Fsrc, (nt, ns, nx))

        self.diffusion = DiffusionSolve(*_neumann_bands(nx, grid.dx, vsc.k, dt))

    # -- control-dependent pieces -------------------------------------------

    def renewal_weights(self, j: int, beta_j: np.ndarray) -> np.ndarray:
        """Coefficients of the birth integral at level j: r*beta*ds/gamma(0,t)."""
        return self.r_grid[:, j, :] * beta_j * (self.ds / self.gamma0_t[j])

    def births(self, j: int, beta_j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Renewal row applied to a slice: the birth integral over size.

        Zero in growth cases c/d, which have no renewal boundary.
        """
        if not self.has_renewal:
            return np.zeros(u.shape[:-2] + u.shape[-1:])
        return (self.renewal_weights(j, beta_j) * u).sum(axis=-2)

    def newborn_value(self, j: int, beta_j: np.ndarray, p_slice: np.ndarray) -> np.ndarray:
        """Boundary density p(0, t_j, x) from immigration plus births."""
        if not self.has_renewal:
            return np.zeros(p_slice.shape[:-2] + p_slice.shape[-1:])
        return self.births(j, beta_j, p_slice) + self.C_grid[j] / self.gamma0_t[j]

    def transport(self, j: int, u: np.ndarray, b: np.ndarray) -> np.ndarray:
        """T_j [u; b]: slice `u` (..., Ns, Nx) and newborn value `b` (..., Nx)
        to (..., Ns, Nx).  One gather of the three stencil columns; the sum
        over the stencil starts from +0 and adds in row order, as a CSR
        product does."""
        x = np.concatenate((u, b[..., None, :]), axis=-2)
        terms = np.take(x, self.stencil_cols[j].T, axis=-2)
        terms *= self.stencil_weights[j].T[:, :, None]
        return terms.sum(axis=-3, initial=0.0)

    def transport_T(self, j: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T_j.T m for m of shape (..., Ns, Nx), split into the cell rows
        (..., Ns, Nx) and the newborn row (..., Nx), the multiplier on the
        newborn value.  Each output sums its stencil entries from +0 in row
        order, as a CSR transpose product does; the newborn column holds the
        third entry of every row and no other."""
        terms = np.take(m, self._rows_T[j], axis=-2)
        terms *= self._weights_T[j][:, :, None]
        newborn = (m * self.stencil_weights[j, :, 2, None]).sum(axis=-2, initial=0.0)
        return terms.sum(axis=-3, initial=0.0), newborn

    def _advance(self, j: int, u: np.ndarray, b: np.ndarray,
                 source: bool = False) -> np.ndarray:
        """Slice at level j+1 from slice `u` and newborn value `b` at level j:
        transport, reaction (with the feed when `source`) and diffusion."""
        v = self.E[j] * self.transport(j, u, b)
        if source:
            v += self.Fsrc[j]
        return self.diffusion.solve(v)

    def step(self, j: int, beta_j: np.ndarray,
             p_slice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full affine step: returns (p at level j+1, newborn value at level j)."""
        b = self.newborn_value(j, beta_j, p_slice)
        return self._advance(j, p_slice, b, source=True), b

    def apply_step_linear(self, j: int, beta_j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Linear part of the one-step map (immigration and feed dropped)."""
        return self._advance(j, u, self.births(j, beta_j, u))

    def apply_step_adjoint(self, j: int, beta_j: np.ndarray,
                           lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact transpose of apply_step_linear.

        Also returns the multiplier yhat(x) the step places on the newborn
        boundary value, which is the raw material for the adjoint trace at
        s = 0.
        """
        out, yhat = self.transport_T(j, self.E[j] * self.diffusion.solve_T(lam))
        if self.has_renewal:
            out += self.renewal_weights(j, beta_j) * yhat[..., None, :]
        return out, yhat


@dataclass(frozen=True)
class StateSolution:
    """Density over the full grid plus the recorded newborn boundary trace."""

    p: Field
    newborn_density: Field


def total_population(p: Field) -> np.ndarray:
    """P(t): midpoint-in-size, trapezoid-in-space quadrature per time level."""
    grid = p.grid
    return (p.values * grid.space_weights()[None, None, :]).sum(axis=(0, 2)) * grid.ds


def level_slice(betas, j: int) -> np.ndarray:
    """Level j of a control of shape (..., Ns, Nt+1, Nx), or of a list of
    controls of shape (Ns, Nt+1, Nx) stacked on a leading axis."""
    if isinstance(betas, np.ndarray):
        return betas[..., j, :]
    return np.stack([b[:, j, :] for b in betas])


def _check_level(values: np.ndarray, what: str, j: int, axes=("i", "k")) -> None:
    """NumericalError at the first non-finite entry of level j of a field,
    given as a slice whose last axes are `axes` (size i, space k); a leading
    axis holds batch members, named when there are several."""
    if np.isfinite(values).all():
        return
    idx = [int(v) for v in np.argwhere(~np.isfinite(values))[0]]
    lead = values.ndim - len(axes)
    where = dict(zip(axes, idx[lead:]), j=j)
    cell = ", ".join(f"{a}={where[a]}" for a in ("i", "j", "k") if a in where)
    member = f" in batch member {idx[0]}" if lead and values.shape[0] > 1 else ""
    raise NumericalError(f"non-finite {what}{member} at ({cell})")


def march_states(vsc: ValidatedScenario, betas):
    """March controls from the initial slice to the horizon, handing over
    each time level.

    `betas` is a control of shape (..., Ns, Nt+1, Nx), or a list of K
    controls of shape (Ns, Nt+1, Nx) that march as a batch.  Yields
    (j, p_j, b_j) for j = 0, ..., Nt: the density slice, shape (..., Ns, Nx),
    and the newborn boundary value, shape (..., Nx); for cases without a
    renewal boundary that is the constant extrapolation of the first size
    cell.  Level j is handed over once level j+1 is computed and found
    finite, and level Nt once its newborn value, which feeds no later
    level, is found finite; the first non-finite value aborts the march.
    The slices are not written to afterwards, so a consumer may keep them.
    """
    ctx = vsc.step_context
    nt = vsc.grid.Nt
    beta_j = level_slice(betas, 0)
    p_j = np.broadcast_to(vsc.p0_grid, beta_j.shape)
    for j in range(nt):
        p_next, b = ctx.step(j, beta_j, p_j)
        _check_level(p_next, "density", j + 1)
        yield j, p_j, (b if ctx.has_renewal else p_j[..., 0, :])
        p_j, beta_j = p_next, level_slice(betas, j + 1)
    b = ctx.newborn_value(nt, beta_j, p_j) if ctx.has_renewal else p_j[..., 0, :]
    _check_level(b, "newborn density", nt, axes=("k",))
    yield nt, p_j, b


def march_sensitivity(vsc: ValidatedScenario, beta, delta):
    """March the sensitivity z of the state to the control `beta` in the
    direction `delta`, in lockstep with march_states.

    The linearized system has the state's transport, reaction and diffusion,
    zero initial data, and a newborn boundary that picks up the extra birth
    term integral(r * delta * p) ds / gamma(0,t) alongside the usual
    integral(r * beta * z).  In growth cases without a renewal boundary the
    control cannot influence the state and z stays identically zero.
    Yields (j, p_j, z_j) for j = 0, ..., Nt, each slice of shape (Ns, Nx);
    level j is handed over once the state's level j+1 is found finite, and
    the first non-finite sensitivity level aborts the march before it is
    handed over.
    """
    ctx = vsc.step_context
    grid = vsc.grid
    beta_arr = control_array(grid, beta)
    delta_arr = control_array(grid, delta)
    z_j = np.zeros((grid.Ns, grid.Nx))
    for j, p_j, _b_j in march_states(vsc, beta_arr):
        yield j, p_j, z_j
        if j < grid.Nt:
            b = ctx.births(j, beta_arr[:, j, :], z_j) + ctx.births(j, delta_arr[:, j, :], p_j)
            z_j = ctx._advance(j, z_j, b)
            _check_level(z_j, "sensitivity", j + 1)


def solve_state(vsc: ValidatedScenario, beta) -> StateSolution:
    """March the density from the initial slice to the horizon, storing
    every level of march_states."""
    grid = vsc.grid
    beta_arr = control_array(grid, beta)
    # the march builds the step context on first use; building it before the
    # output exists keeps the build's peak and the output apart
    vsc.step_context
    p = np.empty((grid.Ns, grid.Nt + 1, grid.Nx))
    newborn = np.empty((grid.Nt + 1, grid.Nx))
    for j, p_j, b_j in march_states(vsc, beta_arr):
        p[:, j, :] = p_j
        newborn[j] = b_j
    return StateSolution(
        p=Field(grid, ("size", "time", "space"), p),
        newborn_density=Field(grid, ("time", "space"), newborn),
    )
