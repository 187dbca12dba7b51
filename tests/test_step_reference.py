"""The step operator against a loop reference of the same scheme.

The reference gathers the interpolation stencil with fancy indexing and
scatters the adjoint with np.add.at.  It reads the stencil out of
StepContext's stencil_cols and stencil_weights (three entries per row: lower
cell, upper cell, newborn column) and the reaction arrays E and Fsrc, so it
checks how the step applies them, not how they were built.  Its diffusion
follows the scheme: up to DENSE_DIFFUSION_MAX_NX points the product with the
inverse of the diffusion matrix, above it a Thomas loop.  The forward
arithmetic is the same operation for operation, so the state must agree bit
for bit.  On the dense path the state is also held to a Thomas loop at
1e-14 relative, and the adjoint, whose reference scatters in another order
and always solves with a Thomas loop, is held to 1e-14 relative.

The batched march, the brute-force search and the gradient check are held to
the same standard against per-control loops: every batch member's arithmetic
is that of a single march, so results must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from sizepop import rates as rate_lib
from sizepop.adjoint import solve_adjoint
from sizepop.forward import DENSE_DIFFUSION_MAX_NX, march_states, solve_state
from sizepop.model import Grid3, NumericalError
from sizepop.optimizer import evaluate_cost, evaluate_costs, gradient_field
from sizepop.oracles import brute_force_search, gradient_check
from sizepop.presets import brute_force_instance, smooth_default, tiny_random
from conftest import unit_scenario


def thomas(sub, diag, sup, rhs):
    """Thomas elimination along the last axis, no pivoting."""
    n = len(diag)
    low = np.empty(n - 1)
    dp = np.empty(n)
    dp[0] = diag[0]
    for i in range(1, n):
        low[i - 1] = sub[i - 1] / dp[i - 1]
        dp[i] = diag[i] - low[i - 1] * sup[i - 1]
    y = np.array(rhs, dtype=float, copy=True)
    for i in range(1, n):
        y[..., i] -= low[i - 1] * y[..., i - 1]
    y[..., n - 1] /= dp[n - 1]
    for i in range(n - 2, -1, -1):
        y[..., i] = (y[..., i] - sup[i] * y[..., i + 1]) / dp[i]
    return y


def bands(vsc):
    grid = vsc.grid
    a = vsc.k * grid.dt / grid.dx**2
    sub = np.full(grid.Nx - 1, -a)
    sup = np.full(grid.Nx - 1, -a)
    sub[-1] = -2.0 * a
    sup[0] = -2.0 * a
    return sub, np.full(grid.Nx, 1.0 + 2.0 * a), sup


def dense_inverse(vsc):
    sub, diag, sup = bands(vsc)
    n = len(diag)
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(1, n), np.arange(n - 1)] = sub
    a[np.arange(n - 1), np.arange(1, n)] = sup
    inv = np.linalg.inv(a)
    inv[np.abs(inv) < np.sqrt(np.finfo(float).tiny)] = 0.0
    return inv


def thomas_diffusion(vsc):
    return lambda rhs: thomas(*bands(vsc), rhs)


def scheme_diffusion(vsc):
    """The diffusion solve the state march uses for this grid."""
    if vsc.grid.Nx > DENSE_DIFFUSION_MAX_NX:
        return thomas_diffusion(vsc)
    inv = dense_inverse(vsc)
    return lambda rhs: rhs @ inv.T


def stencil(ctx, j):
    cols = ctx.stencil_cols[j]
    w = ctx.stencil_weights[j]
    return cols[:, 0], cols[:, 1], w[:, 0], w[:, 1], w[:, 2]


def renewal(vsc, beta, j):
    return vsc.r_grid[:, j, :] * beta[:, j, :] * (vsc.grid.ds / vsc.gamma0_t[j])


def reference_state(vsc, beta, diffuse=None):
    ctx = vsc.step_context
    grid = vsc.grid
    diffuse = diffuse or scheme_diffusion(vsc)
    p = np.empty((grid.Ns, grid.Nt + 1, grid.Nx))
    p[:, 0, :] = vsc.p0_grid
    for j in range(grid.Nt):
        lo, hi, lo_w, hi_w, b_w = stencil(ctx, j)
        pj = p[:, j, :]
        if ctx.has_renewal:
            b = (renewal(vsc, beta, j) * pj).sum(axis=0) + vsc.C_grid[j] / vsc.gamma0_t[j]
        else:
            b = np.zeros(grid.Nx)
        v = lo_w[:, None] * pj[lo, :] + hi_w[:, None] * pj[hi, :] + b_w[:, None] * b[None, :]
        p[:, j + 1, :] = diffuse(ctx.E[j] * v + ctx.Fsrc[j])
    return p


def reference_adjoint(vsc, beta):
    ctx = vsc.step_context
    grid = vsc.grid
    sub, diag, sup = bands(vsc)
    c = vsc.cost.c
    wx = grid.space_weights()
    source = grid.ds * grid.dt * wx[None, :] * np.ones((grid.Ns, 1))
    lam = np.zeros((grid.Ns, grid.Nx))
    phi = np.zeros((grid.Ns, grid.Nt + 1, grid.Nx))
    phi0 = np.zeros((grid.Nt + 1, grid.Nx))
    for j in range(grid.Nt - 1, -1, -1):
        lo, hi, lo_w, hi_w, b_w = stencil(ctx, j)
        m = ctx.E[j] * thomas(sup, diag, sub, lam)
        out = np.zeros_like(lam)
        np.add.at(out, lo, lo_w[:, None] * m)
        np.add.at(out, hi, hi_w[:, None] * m)
        yhat = (b_w[:, None] * m).sum(axis=0)
        if ctx.has_renewal:
            out += renewal(vsc, beta, j) * yhat[None, :]
            phi0[j] = -c * yhat / (vsc.gamma0_t[j] * grid.dt * wx)
        lam = out + source
        phi[:, j, :] = -c * lam / (grid.ds * wx[None, :])
    return phi, phi0


def growth_case_c():
    grid = Grid3(Ns=8, Nt=6, Nx=4, s_f=1.0, T=1.0, L=1.0)
    gamma = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.0, "b": 1.0})
    return unit_scenario(grid, gamma=gamma, mu=0.2, f=0.05, C=0.1, k=0.02)


SCENARIOS = {
    "smooth_default": lambda: smooth_default(20, 20, 10),
    "smooth_default_wide": lambda: smooth_default(6, 4, DENSE_DIFFUSION_MAX_NX + 44),
    "brute_force_instance": brute_force_instance,
    **{f"tiny_random_{s}": (lambda s=s: tiny_random(seed=s)) for s in range(5)},
    "growth_case_c": growth_case_c,
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_step_operator_matches_loop_reference(name):
    vsc = SCENARIOS[name]()
    grid = vsc.grid
    beta = 0.2 + 0.5 * np.random.default_rng(7).random((grid.Ns, grid.Nt + 1, grid.Nx))

    state = solve_state(vsc, beta)
    assert np.array_equal(state.p.values, reference_state(vsc, beta))
    if grid.Nx <= DENSE_DIFFUSION_MAX_NX:
        want = reference_state(vsc, beta, thomas_diffusion(vsc))
        assert np.abs(state.p.values - want).max() <= 1e-14 * np.abs(want).max()

    adj = solve_adjoint(vsc, state)
    phi, phi0 = reference_adjoint(vsc, beta)
    for got, want in ((adj.phi.values, phi), (adj.phi_at_zero.values, phi0)):
        assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("name", SCENARIOS)
def test_batched_march_matches_separate_solves(name, n):
    vsc = SCENARIOS[name]()
    grid = vsc.grid
    betas = 0.2 + 0.5 * np.random.default_rng(11).random((n, grid.Ns, grid.Nt + 1, grid.Nx))

    states = [solve_state(vsc, beta) for beta in betas]
    levels = []
    for j, p_j, b_j in march_states(vsc, betas):
        levels.append(j)
        assert p_j.shape == (n, grid.Ns, grid.Nx)
        assert b_j.shape == (n, grid.Nx)
        for m, state in enumerate(states):
            assert np.array_equal(p_j[m], state.p.values[:, j, :])
            assert np.array_equal(b_j[m], state.newborn_density.values[j])
    assert levels == list(range(grid.Nt + 1))
    costs = evaluate_costs(vsc, betas)
    assert costs.shape == (n,)
    for m, state in enumerate(states):
        assert np.array_equal(state.p.values, reference_state(vsc, betas[m]))
        assert costs[m] == evaluate_cost(state, vsc.cost)


def test_non_finite_batch_member_is_named():
    vsc = tiny_random(seed=0)
    grid = vsc.grid
    betas = np.full((3, grid.Ns, grid.Nt + 1, grid.Nx), 0.4)
    betas[1, 0, 1, 0] = np.nan
    named = r"batch member 1 at \(i=\d+, j=2, k=\d+\)"
    with pytest.raises(NumericalError, match=named):
        for _ in march_states(vsc, betas):
            pass
    with pytest.raises(NumericalError, match=named):
        evaluate_costs(vsc, betas)
    with pytest.raises(ValueError, match="control batch shape"):
        evaluate_costs(vsc, betas[0])


def looped_brute_force_search(vsc, n_levels):
    """One state solve per lattice point, strict < keeps the first minimum."""
    grid = vsc.grid
    lo = float(vsc.phi_l_grid.max())
    hi = float(vsc.phi_m_grid.min())
    levels = np.linspace(lo, hi, n_levels)
    n_dof = grid.Nt

    def control(vals):
        b = np.full((grid.Ns, grid.Nt + 1, grid.Nx), lo)
        for j, v in enumerate(vals):
            b[:, j, :] = v
        return b

    best_J = np.inf
    best_vals = None
    for multi in np.ndindex(*(n_levels,) * n_dof):
        vals = levels[list(multi)]
        b = control(vals)
        J = evaluate_cost(solve_state(vsc, b), vsc.cost)
        if J < best_J:
            best_J, best_vals = J, vals
    step = levels[1] - levels[0]
    sens = 0.0
    for d in range(n_dof):
        for sign in (-1.0, 1.0):
            vals = best_vals.copy()
            vals[d] += sign * step
            if vals[d] < lo - 1e-12 or vals[d] > hi + 1e-12:
                continue
            b = control(vals)
            sens = max(sens, abs(evaluate_cost(solve_state(vsc, b), vsc.cost) - best_J))
    return best_J, best_vals, sens


@pytest.mark.parametrize("make, n_levels", [
    (brute_force_instance, 21),  # the oracle's lattice: 9261 controls in 19 batches
    (growth_case_c, 3),          # no renewal, six levels: 729 controls in 2 batches
])
def test_brute_force_search_matches_looped_search(make, n_levels):
    vsc = make()
    best_J, best_vals, sens = brute_force_search(vsc, n_levels=n_levels)
    ref_J, ref_vals, ref_sens = looped_brute_force_search(vsc, n_levels)
    assert best_J == ref_J
    assert np.array_equal(best_vals, ref_vals)
    assert sens == ref_sens


def test_gradient_check_matches_looped_differences():
    vsc = smooth_default(12, 12, 6, seed=3)
    rows = gradient_check(vsc, n_directions=4, seed=5)
    rng = np.random.default_rng(5)
    beta = vsc.phi_l_grid + 0.35 * (vsc.phi_m_grid - vsc.phi_l_grid)
    state = solve_state(vsc, beta)
    g = gradient_field(state, solve_adjoint(vsc, state), vsc).values
    eps = 1e-6 * max(float(np.abs(beta).max()), 1.0)
    for row in rows:
        delta = rng.standard_normal(beta.shape)
        bp, bm = beta + eps * delta, beta - eps * delta
        jp = evaluate_cost(solve_state(vsc, bp), vsc.cost)
        jm = evaluate_cost(solve_state(vsc, bm), vsc.cost)
        assert row["fd"] == (jp - jm) / (2.0 * eps)
        assert row["analytic"] == float((vsc.grid.volume_weights() * g * delta).sum())
